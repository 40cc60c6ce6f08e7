"""Run one benchmark unit in a fresh process and write its measurements.

A unit is one ``cellsearch`` command run in-process through ``cli.main``:

* set-up runs from just before ``import cellsearch`` to the first call of the
  workload's body function (``search``, ``random_search`` or
  ``check_all_primitives``), so it covers the package import, config parse
  and task build;
* the body runs from that call until ``cli.main`` returns.

With ``--setup-only`` the body function raises instead of running, so set-up
can be sampled on its own. With ``--trace`` the layer tracer is installed
before the run. The command's outputs are checked after the timed region.

    PYTHONPATH=src python3 perfbench/worker.py --workload grad-check \
        --config configs/desk.cfg --out .perfbench_work/out --result .perfbench_work/r.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import layertrace

SRC = Path(__file__).resolve().parents[1] / "src"
CHECK_LINE_PREFIXES = ("primitive ", "fidelity ")


class SetupDone(Exception):
    """Raised by the body probe when only set-up is being sampled."""


class Body:
    """Stamps the first call of the body function and keeps its result."""

    def __init__(self, fn, setup_only: bool):
        self.fn = fn
        self.setup_only = setup_only
        self.start: float | None = None
        self.result = None

    def __call__(self, *args, **kwargs):
        if self.start is None:
            self.start = perf_counter()
        if self.setup_only:
            raise SetupDone
        self.result = self.fn(*args, **kwargs)
        return self.result


class Steps:
    """Latency of the unit of work, from a timestamp at the start of each one.

    A group function (one genotype evaluation, one check family) opens a new
    list of stamps; a mark function is the first call of each unit of work.
    Latency is the gap between consecutive stamps in a timed group, so the
    last unit of a group, which would include the group's own epilogue, is
    not timed. Every group's units count as work.
    """

    def __init__(self):
        self.groups: list[tuple[bool, list[float]]] = []
        self.current: list[float] | None = None

    def group(self, fn, timed: bool):
        def grouped(*args, **kwargs):
            self.current = []
            self.groups.append((timed, self.current))
            return fn(*args, **kwargs)

        return grouped

    def mark(self, fn):
        def marked(*args, **kwargs):
            if self.current is not None:
                self.current.append(perf_counter())
            return fn(*args, **kwargs)

        return marked

    def count(self) -> int:
        return sum(len(g) for _, g in self.groups)

    def latencies(self) -> list[float]:
        return [b - a for timed, g in self.groups if timed for a, b in zip(g, g[1:])]


# body: name the CLI calls; groups/marks: (layer, path) as in layertrace.TRACED.
# timed: the groups whose units give the latency percentiles. On grad-check
# that is the cell-network fidelity problems, about 90 % of its run time.
# Primitive cases (0.1-4 ms) and quadratic problems would make a mixture whose
# 95th percentile falls between families and jumps with machine speed.
WORKLOADS = {
    "desk-second-order": {
        "argv": lambda a: ["search", "--config", a.config, "--out", a.out],
        "body": "search",
        "groups": [],
        "marks": [],
        "timed": [],
    },
    "desk-random-eval": {
        "argv": lambda a: ["random-search", "--config", a.config, "--out", a.out],
        "body": "random_search",
        "groups": [("search", "train_genotype")],
        "marks": [("tasks", "SyntheticCellTask.batch")],
        "timed": [("search", "train_genotype")],
    },
    "grad-check": {
        "argv": lambda a: ["grad-check"],
        "body": "check_all_primitives",
        "groups": [("gradcheck", "check_kind"), ("fidelity", "check_networks_eps_rule"),
                   ("fidelity", "check_quadratics_exact_hvp")],
        "marks": [("gradcheck", "_case_for"), ("fidelity", "make_tiny_cell_task"),
                  ("fidelity", "QuadraticBilevelProblem")],
        "timed": [("fidelity", "check_networks_eps_rule")],
    },
}


def artifact_digest(out: Path) -> str:
    """SHA-256 over every file under ``out``: relative path, then bytes."""
    h = hashlib.sha256()
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def read_summary(out: Path) -> dict:
    path = out / "summary.txt"
    if not path.is_file():
        return {}
    return dict(line.split(": ", 1) for line in path.read_text().splitlines() if ": " in line)


def check_search(args, code: int, stdout: str) -> dict:
    """W1: exit 0, not diverged, a valid genotype, final entropy below ln 5."""
    cli = importlib.import_module("cellsearch.cli")
    cell = importlib.import_module("cellsearch.cell")
    out = Path(args.out)
    summary = read_summary(out)
    checks = {"exit_0": code == 0, "not_diverged": summary.get("diverged") == "false"}
    try:
        genotype = cell.Genotype.from_json((out / "genotype.json").read_text())
        spec = cli.cell_spec_from(cli.load_config(args.config))
        checks["valid_genotype"] = genotype.spec == spec
    except (OSError, cell.CellError, cli.ConfigError):
        checks["valid_genotype"] = False
    try:
        checks["entropy_below_uniform"] = float(summary["alpha_entropy"]) < math.log(5)
    except (KeyError, ValueError):
        checks["entropy_below_uniform"] = False
    failed = 0 if all(checks.values()) else 1
    final = {k: summary.get(k) for k in ("final_train_loss", "final_val_loss",
                                         "alpha_entropy", "genotype")}
    return {"checks": checks, "operations": 1, "failed": failed, "final": final}


def check_random(args, code: int, stdout: str) -> dict:
    """W2: exit 0, one samples.csv row per sample, best accuracy above chance."""
    cli = importlib.import_module("cellsearch.cli")
    cfg = cli.load_config(args.config)
    n_samples = cfg.get("n_samples", 8)
    chance = 1.0 / cfg.get("data_classes", 2)
    out = Path(args.out)
    scores = []
    path = out / "samples.csv"
    if path.is_file():
        for line in path.read_text().splitlines()[1:]:
            try:
                score = float(line.split(",")[1])
            except (IndexError, ValueError):
                continue
            if 0.0 <= score <= 1.0:
                scores.append(score)
    checks = {
        "exit_0": code == 0,
        "one_row_per_sample": len(scores) == n_samples,
        "best_above_chance": bool(scores) and max(scores) > chance,
    }
    failed = n_samples - min(len(scores), n_samples) if code == 0 else n_samples
    if failed == 0 and not all(checks.values()):
        failed = 1
    summary = read_summary(out)
    final = {"best_score": summary.get("best_score"), "genotype": summary.get("genotype")}
    return {"checks": checks, "operations": n_samples, "failed": failed, "final": final}


def check_grad(args, code: int, stdout: str) -> dict:
    """W3: exit 0 and every check line PASS."""
    tensor = importlib.import_module("cellsearch.tensor")
    lines = [ln for ln in stdout.splitlines() if ln.startswith(CHECK_LINE_PREFIXES)]
    expected = len(tensor.PRIMITIVES) + 2
    failed = sum(not ln.endswith(" PASS") for ln in lines)
    total = [ln for ln in stdout.splitlines() if ln.startswith("grad-check:")]
    checks = {
        "exit_0": code == 0,
        "all_lines_pass": failed == 0,
        "every_check_reported": len(lines) == expected,
        "overall_pass": len(total) == 1 and total[0].startswith("grad-check: PASS"),
    }
    failed += max(expected - len(lines), 0)
    final = {"summary": total[0] if total else None}
    return {"checks": checks, "operations": expected, "failed": failed, "final": final}


CHECKS = {"desk-second-order": check_search, "desk-random-eval": check_random,
          "grad-check": check_grad}


def run(args) -> dict:
    t0 = perf_counter()
    cli = importlib.import_module("cellsearch.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's {SRC}")
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
    body = Body(getattr(cli, workload["body"]), args.setup_only)
    layertrace.replace_everywhere(body.fn, body)
    steps = Steps()
    for layer, path in workload["groups"]:
        fn = layertrace.resolve(layer, path)
        timed = (layer, path) in workload["timed"]
        layertrace.replace_everywhere(fn, steps.group(fn, timed))
    for layer, path in workload["marks"]:
        fn = layertrace.resolve(layer, path)
        layertrace.replace_everywhere(fn, steps.mark(fn))

    captured = io.StringIO()
    try:
        with redirect_stdout(captured):
            code = cli.main(workload["argv"](args))
    except SetupDone:
        return {"setup_s": body.start - t0}
    end = perf_counter()
    if tracer is not None:
        tracer.uninstall_gc()
    if body.start is None:
        raise RuntimeError(f"{workload['body']} was never called; exit code {code}")

    stdout = captured.getvalue()
    result = {
        "setup_s": body.start - t0,
        "run_s": end - body.start,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": artifact_digest(Path(args.out)) if args.workload != "grad-check"
        else hashlib.sha256(stdout.encode()).hexdigest(),
        "python": sys.version.split()[0],
        "numpy": importlib.import_module("numpy").__version__,
    }
    traj = body.result if args.workload == "desk-second-order" else None
    if traj is not None:
        stamps = [r.wall_clock for r in traj.records]
        result["work"] = len(stamps)
        result["latencies_s"] = [b - a for a, b in zip([0.0] + stamps, stamps)]
    else:
        result["work"] = steps.count()
        result["latencies_s"] = steps.latencies()
    result.update(CHECKS[args.workload](args, code, stdout))

    if tracer is not None:
        iterations = len(traj.records) if traj is not None else 0
        layer = tracer.metrics(iterations)
        counters = traj.counters if traj is not None else None
        layer["search.forward_passes"] = counters.forward_passes if counters else 0
        layer["search.backward_passes"] = counters.backward_passes if counters else 0
        skipped = sum("correction skipped" in e for e in traj.events) if traj else 0
        layer["search.correction_skip_ratio"] = skipped / iterations if iterations else 0.0
        result["layers"] = layer
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the span log here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
