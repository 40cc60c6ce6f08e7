"""Run the byte-identity command set of cellsearch and keep everything it writes.

    python3 tools/artifacts.py CHECKOUT OUTDIR

Runs each command below with ``CHECKOUT/src`` first on the import path and
keeps, per command, ``OUTDIR/<name>/``: ``stdout``, ``stderr``, ``exit_code``
and the ``out/`` tree the command's ``--out`` wrote. The configs the commands
read (one per search, and one for the random search) are derived from
``CHECKOUT/configs`` and kept in ``OUTDIR/inputs/``.
Commands run in ``OUTDIR`` with relative paths, and the checkout's path is
written as ``CHECKOUT`` in stderr, so two checkouts that behave the same give
two OUTDIRs that ``diff -r`` finds identical. That is the check a refactor
must pass:

    python3 tools/artifacts.py PARENT /tmp/before
    python3 tools/artifacts.py .      /tmp/after
    diff -r /tmp/before /tmp/after

The whole set takes about 20 s on one core of a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import os
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
    # a search whose weights overflow (exit 3), so the failing path is covered too
    "desk-diverging": ("desk.cfg", {"weight_lr": "1e9", "clip_norm": "none", "anneal": "false"}),
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
    # a retrain whose weights overflow, so cli.main's exit 3 is covered too
    yield "evaluate-diverging", ["evaluate", "--genotype", "derive-mean/out/genotype.json",
                                 "--config", "inputs/desk-diverging.cfg",
                                 "--out", "evaluate-diverging/out/metrics.txt"]
    yield "grad-check", ["grad-check"]
    yield "count", ["count", "--intermediates", "4", "--ops", "7", "--multiplicity", "2"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("checkout", type=Path, help="a cellsearch tree with src/ and configs/")
    parser.add_argument("outdir", type=Path, help="a new or empty directory")
    args = parser.parse_args(argv)
    checkout, outdir = args.checkout.resolve(), args.outdir.resolve()
    if not (checkout / "src" / "cellsearch").is_dir():
        parser.error(f"{checkout} has no src/cellsearch")
    if outdir.exists() and any(outdir.iterdir()):
        parser.error(f"{outdir} is not empty")

    (outdir / "inputs").mkdir(parents=True, exist_ok=True)
    for name, (base, keys) in CONFIGS.items():
        text = (checkout / "configs" / base).read_text()
        (outdir / "inputs" / f"{name}.cfg").write_text(with_keys(text, keys))

    # numpy's overflow warnings quote source lines by number, which any edit moves
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONWARNINGS="ignore::RuntimeWarning",
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
