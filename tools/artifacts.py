"""Run the byte-identity command set of cellsearch and keep everything it writes.

    python3 tools/artifacts.py CHECKOUT OUTDIR

Runs each command below with ``CHECKOUT/src`` first on the import path and
keeps, per command, ``OUTDIR/<name>/``: ``stdout``, ``stderr``, ``exit_code``
and the ``out/`` tree the command's ``--out`` wrote. The commands are a search
per entry of ``SEARCHES``, a random search, a derive and an evaluate of the
mean and the concat cell, an evaluate whose retraining overflows, an evaluate
of the dataset-file search's genotype, an evaluate whose retraining clips,
``grad-check`` at its default seed and at ``--seed 7``, and ``count``. The
configs the commands read (one per search, and one for the random search) are
derived from ``CHECKOUT/configs`` and kept in ``OUTDIR/inputs/``, beside
``data.csv``, a small fixed dataset file with no split column, so the file
route carves its test rows and holds out its val rows.
Commands run in ``OUTDIR`` with relative paths, and the checkout's path is
written as ``CHECKOUT`` in stderr, which holds what a user sees, so two
checkouts that behave the same give two OUTDIRs that ``diff -r`` finds
identical. That is the check a refactor must pass:

    python3 tools/artifacts.py PARENT /tmp/before
    python3 tools/artifacts.py .      /tmp/after
    diff -r /tmp/before /tmp/after

The whole set takes about 18 s on a 2-vCPU VM.

A change that moves artifacts at the rounding level checks itself with

    python3 tools/artifacts.py --compare /tmp/before /tmp/after

instead. Both must be directories that hold at least one file, or it exits 2.
The two trees must hold the same files, and each manifest the same
layout. ``genotype.json`` files and exit codes must be byte-equal. Other text
must be equal once its numbers are masked, and each pair of numbers must agree
within ``REL_TOL`` relative or ``ABS_TOL`` absolute; on a line with a PASS or
FAIL verdict (grad-check) the verdicts must match, and the numbers, differences
of near-equal values themselves, are reported but not bounded. It prints the
largest relative difference of each file that is not byte-identical, and
exits 1 on any breach.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

# Search name -> (file under CHECKOUT/configs, keys to set in it).
SEARCHES = {
    "desk-second-order": ("desk.cfg", {}),
    "desk-first-order": ("desk.cfg", {"mode": "first-order"}),
    "desk-joint": ("desk.cfg", {"mode": "joint"}),
    "desk-momentum-unroll": ("desk.cfg", {"momentum_unroll": "true"}),
    "desk-concat": ("desk.cfg", {"steps": "100", "cell_reduction": "concat"}),
    "toy": ("toy.cfg", {}),
    # the toy task reads the split name, so it alone shows which split joint mode descends
    "toy-joint": ("toy.cfg", {"mode": "joint"}),
    # a search whose weights overflow (exit 3), so the failing path is covered too
    "desk-diverging": ("desk.cfg", {"weight_lr": "1e9", "clip_norm": "none", "anneal": "false"}),
    # a dataset file instead of generated data: load_delimited and the file route of build
    "desk-file": ("desk.cfg", {"data_path": "inputs/data.csv", "steps": "60"}),
    # a clip limit below the desk gradient norms, so the clip scales almost every step
    "desk-clipped": ("desk.cfg", {"clip_norm": "0.05", "steps": "100"}),
}
# Config name -> the same, for every config a command reads.
CONFIGS = {**SEARCHES, "random-search": ("desk.cfg", {"n_samples": "4"})}


def with_keys(text: str, keys: dict[str, str]) -> str:
    """``text`` with each key of ``keys`` set: its line replaced, or appended."""
    lines, left = [], dict(keys)
    for line in text.splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        lines.append(f"{key} = {left.pop(key)}" if key in left else line)
    lines += [f"{key} = {value}" for key, value in left.items()]
    return "\n".join(lines) + "\n"


def dataset_text() -> str:
    """200 fixed rows of 3 features and a 0/1 label that no linear rule separates."""
    rng, lines = random.Random(0), ["x0,x1,x2,label"]
    for _ in range(200):
        x = [rng.gauss(0.0, 1.0) for _ in range(3)]
        lines.append(",".join(map(repr, x)) + f",{int(x[0] * x[1] + 0.3 * x[2] > 0)}")
    return "\n".join(lines) + "\n"


def final_alpha(outdir: Path, search: str) -> str:
    """The last logit snapshot a search wrote, relative to ``outdir``."""
    snapshots = sorted((outdir / search / "out" / "alpha").glob("step_*.tsv"))
    return str(snapshots[-1].relative_to(outdir)) if snapshots else f"{search}/out/alpha/missing"


def commands(outdir: Path):
    """(name, argv) per command, in run order. A generator, so a derive
    step reads the snapshots of the searches that ran before it."""
    for name in SEARCHES:
        yield f"search-{name}", ["search", "--config", f"inputs/{name}.cfg",
                                 "--out", f"search-{name}/out"]
    yield "random-search", ["random-search", "--config", "inputs/random-search.cfg",
                            "--out", "random-search/out"]
    for cell, cfg in (("mean", "desk-second-order"), ("concat", "desk-concat")):
        genotype = f"derive-{cell}/out/genotype.json"
        yield f"derive-{cell}", ["derive", "--alpha", final_alpha(outdir, f"search-{cfg}"),
                                 "--config", f"inputs/{cfg}.cfg", "--out", genotype]
        yield f"evaluate-{cell}", ["evaluate", "--genotype", genotype,
                                   "--config", f"inputs/{cfg}.cfg",
                                   "--out", f"evaluate-{cell}/out/metrics.txt"]
    yield "evaluate-file", ["evaluate", "--genotype", "search-desk-file/out/genotype.json",
                            "--config", "inputs/desk-file.cfg",
                            "--out", "evaluate-file/out/metrics.txt"]
    # a retrain whose weights overflow, so cli.main's exit 3 is covered too
    yield "evaluate-diverging", ["evaluate", "--genotype", "derive-mean/out/genotype.json",
                                 "--config", "inputs/desk-diverging.cfg",
                                 "--out", "evaluate-diverging/out/metrics.txt"]
    # a retrain that clips almost every step, so the retraining clip path is covered too
    yield "evaluate-clipped", ["evaluate", "--genotype", "derive-mean/out/genotype.json",
                               "--config", "inputs/desk-clipped.cfg",
                               "--out", "evaluate-clipped/out/metrics.txt"]
    yield "grad-check", ["grad-check"]
    # a second seed draws other case shapes, 0-d pair operands and softmax axes
    yield "grad-check-seed-7", ["grad-check", "--seed", "7"]
    yield "count", ["count", "--intermediates", "4", "--ops", "7", "--multiplicity", "2"]


REL_TOL, ABS_TOL = 1e-10, 1e-300
# A number as the artifacts print it: an int, a float in repr or %g form, nan or inf.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
VERDICT = re.compile(r"\b(?:PASS|FAIL)\b")
EXACT = ("genotype.json", "exit_code")  # file names that must be byte-equal


def relative_difference(a: float, b: float) -> float:
    """|a - b| over the larger magnitude: 0 within ``ABS_TOL`` or for two nans,
    inf where a non-finite value differs."""
    if abs(a - b) <= ABS_TOL or a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b) / max(abs(a), abs(b))
    return diff if math.isfinite(diff) else math.inf


def compare_text(a: str, b: str) -> tuple[float, float, str | None]:
    """(largest bounded relative difference, largest one on verdict lines, the
    first breach or None) of two texts, line by line."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return 0.0, 0.0, f"{len(lines_a)} lines against {len(lines_b)}"
    bounded = unbounded = 0.0
    for n, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if NUMBER.sub("#", line_a) != NUMBER.sub("#", line_b):
            return bounded, unbounded, f"line {n} differs beyond its numbers"
        pairs = zip(map(float, NUMBER.findall(line_a)), map(float, NUMBER.findall(line_b)))
        diff = max((relative_difference(x, y) for x, y in pairs), default=0.0)
        if VERDICT.search(line_a):
            unbounded = max(unbounded, diff)
        elif diff > REL_TOL:
            return bounded, unbounded, f"line {n}: numbers differ by {diff:.3e} relative"
        else:
            bounded = max(bounded, diff)
    return bounded, unbounded, None


def compare_file(name: str, a: bytes, b: bytes) -> tuple[float, float, str | None]:
    """``compare_text`` of two versions of the artifact file ``name``, which differ."""
    if name in EXACT:
        return 0.0, 0.0, "differs, and must be byte-equal"
    try:
        text_a, text_b = a.decode(), b.decode()
    except UnicodeDecodeError:
        return 0.0, 0.0, "differs, and is not text"
    if name == "manifest.json" and json.loads(text_a)["layout"] != json.loads(text_b)["layout"]:
        return 0.0, 0.0, "manifest layouts differ"
    return compare_text(text_a, text_b)


def compare_trees(a: Path, b: Path) -> int:
    """Print one line per file that is not byte-identical; 1 on any breach."""
    files_a, files_b = ({str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
                        for root in (a, b))
    breaches = sorted(f"{name}: only in {a}" for name in files_a - files_b)
    breaches += sorted(f"{name}: only in {b}" for name in files_b - files_a)
    for line in breaches:
        print(line)
    common, identical = sorted(files_a & files_b), 0
    for name in common:
        data_a, data_b = (a / name).read_bytes(), (b / name).read_bytes()
        if data_a == data_b:
            identical += 1
            continue
        bounded, unbounded, breach = compare_file(Path(name).name, data_a, data_b)
        line = f"{name}: max rel diff {bounded:.3e}"
        if unbounded:
            line += f", verdict lines {unbounded:.3e} (not bounded)"
        if breach:
            breaches.append(name)
            line += f"; BREACH: {breach}"
        print(line)
    print(f"compare: {len(common)} files in both, {identical} byte-identical, "
          f"{len(breaches)} breaches")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        help="a cellsearch tree with src/ and configs/")
    parser.add_argument("outdir", type=Path, nargs="?", help="a new or empty directory")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two OUTDIRs instead of making one")
    args = parser.parse_args(argv)
    if args.compare:
        for tree in args.compare:
            if not (tree.is_dir() and any(p.is_file() for p in tree.rglob("*"))):
                parser.error(f"{tree} is not a directory that holds a file")
        return compare_trees(*args.compare)
    if args.outdir is None:
        parser.error("need CHECKOUT and OUTDIR, or --compare A B")
    checkout, outdir = args.checkout.resolve(), args.outdir.resolve()
    if not (checkout / "src" / "cellsearch").is_dir():
        parser.error(f"{checkout} has no src/cellsearch")
    if outdir.exists() and any(outdir.iterdir()):
        parser.error(f"{outdir} is not empty")

    (outdir / "inputs").mkdir(parents=True, exist_ok=True)
    (outdir / "inputs" / "data.csv").write_text(dataset_text())
    for name, (base, keys) in CONFIGS.items():
        text = (checkout / "configs" / base).read_text()
        (outdir / "inputs" / f"{name}.cfg").write_text(with_keys(text, keys))

    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, cli_args in commands(outdir):
        (outdir / name / "out").mkdir(parents=True, exist_ok=True)
        run = subprocess.run([sys.executable, "-m", "cellsearch", *cli_args], cwd=outdir,
                             env=env, capture_output=True, text=True)
        (outdir / name / "stdout").write_text(run.stdout)
        (outdir / name / "stderr").write_text(run.stderr.replace(str(checkout), "CHECKOUT"))
        (outdir / name / "exit_code").write_text(f"{run.returncode}\n")
        print(f"{name}: exit {run.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
