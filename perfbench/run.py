"""Benchmark driver: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload desk-second-order --seed 0 --seconds 36 --trace 0

Run from the root of a checkout. Each unit of work is one ``cellsearch``
command in a fresh single-threaded process (``perfbench/worker.py``); units
run one after another (a closed loop with one client) until ``--seconds`` have
passed. Before the units, a few processes sample set-up alone. Successive
processes are pinned to the allowed CPUs in turn: on a shared VM each virtual
CPU's speed drifts on its own, and alternating samples both.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics, taken from
traced units alternating with untraced ones so that the tracing overhead is
measured in the same run. The line before it is an ``info`` record: seed,
config hash, machine, artifact digests and final losses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("desk-second-order", "desk-random-eval", "grad-check")
EVAL_SEED_BASE = 1234  # desk.cfg's eval_seed at seed 0
RANDOM_SAMPLES = 32
# Operations a unit attempts, used when a worker dies before reporting:
# one search, one evaluation per genotype, one line per check family.
OPERATIONS = {"desk-second-order": 1, "desk-random-eval": RANDOM_SAMPLES, "grad-check": 17}
SETUP_PROBES = 5
UNIT_TIMEOUT_S = 120.0
RUN_BUDGET_S = 120.0  # start no unit after this, so the run ends within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "iter_ms_p50": "ms",
             "iter_ms_p95": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The checkout cannot run the benchmark."""


def desk_config(seed: int) -> str:
    """configs/desk.cfg with every seed key set from ``seed``, plus the sample count."""
    path = ROOT / "configs" / "desk.cfg"
    if not path.is_file():
        raise BenchError(f"missing {path.relative_to(ROOT)}")
    text = path.read_text()
    values = {"seed": seed, "data_seed": seed, "eval_seed": EVAL_SEED_BASE + seed}
    for key, value in values.items():
        text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if hits != 1:
            raise BenchError(f"configs/desk.cfg: expected one '{key} =' line, found {hits}")
    if re.search(r"(?m)^n_samples\s*=", text) is None:
        text += f"\n# added by perfbench: genotypes per random-search run\nn_samples = {RANDOM_SAMPLES}\n"
    return text


def machine_record() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg())}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, **SINGLE_THREAD)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.config = self.dir / f"desk-s{args.seed}.cfg"
        self.cpus = sorted(os.sched_getaffinity(0))
        self.launched = 0

    def worker(self, *, trace=False, setup_only=False) -> dict | None:
        """Run one worker process; None if it died without a result."""
        self.launched += 1
        out = self.dir / f"out-{self.launched}"
        result = self.dir / f"result-{self.launched}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--config", str(self.config), "--out", str(out), "--result", str(result),
               "--cpu", str(self.cpus[self.launched % len(self.cpus)])]
        if trace:
            cmd += ["--trace", "--spans", str(WORK / f"spans-{self.args.workload}.csv")]
        if setup_only:
            cmd.append("--setup-only")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=UNIT_TIMEOUT_S)
        if proc.returncode != 0 or not result.is_file():
            sys.stderr.write(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}\n")
            return None
        doc = json.loads(result.read_text())
        doc["traced"] = trace
        shutil.rmtree(out, ignore_errors=True)
        return doc

    def run(self) -> tuple[dict, dict]:
        args = self.args
        if not (ROOT / "src" / "cellsearch" / "cli.py").is_file():
            raise BenchError("missing src/cellsearch: run from a checkout of the repository")
        self.dir.mkdir(parents=True, exist_ok=True)
        config_text = desk_config(args.seed)
        self.config.write_text(config_text)
        info = {"workload": args.workload, "seed": args.seed,
                "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
                "machine": machine_record()}

        setup = [r["setup_s"] for r in (self.worker(setup_only=True) for _ in range(SETUP_PROBES))
                 if r is not None]
        units, attempted, failed = [], 0, 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(units) % 2 == 1
            unit = self.worker(trace=traced)
            attempted += unit["operations"] if unit else OPERATIONS[args.workload]
            failed += unit["failed"] if unit else OPERATIONS[args.workload]
            if unit is not None:
                units.append(unit)
            elapsed = time.perf_counter() - start
            enough = len(units) >= 2 and (not args.trace or any(u["traced"] for u in units))
            if (elapsed >= args.seconds and enough) or elapsed >= RUN_BUDGET_S:
                break
        plain = [u for u in units if not u["traced"]]
        traced_units = [u for u in units if u["traced"]]
        if not plain or (args.trace and not traced_units):
            raise BenchError("no unit of work completed")
        setup += [u["setup_s"] for u in plain]
        digests = sorted({u["digest"] for u in units})
        failed_checks = sorted({name for u in units for name, ok in u["checks"].items() if not ok})
        correct = not failed_checks and failed == 0 and len(digests) == 1
        info["machine"].update(numpy=units[0]["numpy"], loadavg_end=list(os.getloadavg()))
        info.update({
            "units": len(plain), "traced_units": len(traced_units),
            "run_s": [u["run_s"] for u in units], "setup_s": setup,
            "fail_ratio": failed / attempted, "failed_checks": failed_checks,
            "digests": digests, "final": units[0]["final"],
        })

        if args.trace:
            metrics = self.layer_metrics(plain, traced_units)
        else:
            metrics = self.e2e_metrics(plain, setup)
        shutil.rmtree(self.dir, ignore_errors=True)
        return info, {"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}

    @staticmethod
    def e2e_metrics(units: list[dict], setup: list[float]) -> dict:
        latencies_ms = [1e3 * x for u in units for x in u["latencies_s"]]
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(u["run_s"] for u in units),
            "work_per_s": statistics.median(u["work"] / u["run_s"] for u in units),
            "iter_ms_p50": quantile(latencies_ms, 0.50),
            "iter_ms_p95": quantile(latencies_ms, 0.95),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    @staticmethod
    def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
        names = traced[0]["layers"]
        metrics = {}
        for name in names:
            value = statistics.median(u["layers"][name] for u in traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        traced_run = statistics.median(u["run_s"] for u in traced)
        plain_run = statistics.median(u["run_s"] for u in plain)
        metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_run - plain_run, "unit": "s"}
        return metrics


def layer_unit(name: str) -> str:
    if name.startswith("tensor.records."):
        return "records/pass"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return {"tensor.records_per_pass": "records/pass", "tensor.us_per_record": "us/record",
            "search.passes_per_iter": "passes/iter"}.get(name, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = Runner(args).run()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
