"""Command line front end: runs, derivation, evaluation, baselines, counting.

Configs are flat ``key = value`` text files; every key mirrors a field of the
search or data configuration and unknown keys are rejected outright so a
typo cannot silently fall back to a default. Artifacts are written with
full-precision repr floats and no timestamps, so re-running a command with
the same config and seed reproduces byte-identical files.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .cell import (
    REDUCTIONS,
    CellError,
    CellSpec,
    Genotype,
    alpha_entropy,
    derive_genotype,
    format_alpha,
    parse_alpha,
    uniform_entropy,
)
from .counting import CountError, SpaceQuery, count_discrete, count_relaxed, relaxed_edge_count, scientific
from .fidelity import run_fidelity_suite
from .gradcheck import check_all_primitives
from .ops import OP_ORDER
from .optim import OptimizerError
from .search import (
    ARCH_OPTIMIZERS,
    MODES,
    ConfigError,
    NumericalError,
    SearchConfig,
    Trajectory,
    random_search,
    search,
    train_genotype,
)
from .tasks import DataConfig, DataError, SyntheticCellTask, ToyBilevelTask


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def _cast_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _cast_optional_float(word: str):
    """A float, or None for ``word``, the one word the key takes."""
    def cast(text: str):
        return None if text.lower() == word else float(text)

    return cast


def _cast_choice(*choices):
    def cast(text: str) -> str:
        if text not in choices:
            raise ConfigError(f"expected one of {choices}, got {text!r}")
        return text

    return cast


# Config key -> field name, for the dataclasses whose keys carry a prefix.
# The cell's input arity is fixed at 2 and is not a key.
CELL_KEYS = {"cell_nodes": "nodes", "cell_hidden": "hidden", "cell_k": "k",
             "cell_reduction": "reduction"}
DATA_KEYS = {"data_n": "n", "data_dims": "dims", "data_classes": "classes",
             "data_noise": "noise", "data_seed": "seed", "data_clusters": "clusters_per_class",
             "data_path": "path", "test_fraction": "test_fraction",
             "val_fraction": "val_fraction"}
# Every search field is a key of its own name.
SEARCH_KEYS = {f.name: f.name for f in dataclasses.fields(SearchConfig)}

_CHOICES = {"mode": MODES, "arch_optimizer": ARCH_OPTIMIZERS, "reduction": REDUCTIONS}
_NONE_WORDS = {"unroll_lr": "auto", "clip_norm": "none"}  # optional float -> its word
_CASTS = {"int": int, "float": float, "bool": _cast_bool, "str | None": str}


def _casts(cls, keys: dict) -> dict:
    """Config key -> cast, from the annotations of the fields ``keys`` names."""
    by_name = {f.name: f for f in dataclasses.fields(cls)}
    return {key: _cast_choice(*_CHOICES[name]) if name in _CHOICES
            else _cast_optional_float(_NONE_WORDS[name]) if name in _NONE_WORDS
            else _CASTS[by_name[name].type]
            for key, name in keys.items()}


RANDOM_SAMPLES = 8  # genotypes a random search draws unless n_samples says otherwise

CONFIG_KEYS = {
    "task": _cast_choice("synthetic", "toy"),
    **_casts(DataConfig, DATA_KEYS),
    **_casts(CellSpec, CELL_KEYS),
    **_casts(SearchConfig, SEARCH_KEYS),
    "n_samples": int,  # random search sample count
}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{origin}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}: line {lineno}: duplicate key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{origin}: line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def read_input(path, what: str) -> str:
    """The text of an input file; failing to read it is an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no such {what}: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {what} {path}: {reason}") from None


def output_path(path, what: str, directory: bool = False) -> Path:
    """``path``, checked as a place to write ``what`` to, before any work.

    An output directory may exist; its missing ancestors are made later, so
    the nearest existing one must be a directory. An output file must not be
    a directory, and its parent must be one. The path, or that directory if
    the path does not exist yet, must be writable. Nothing is created here.
    """
    path = Path(path)
    if directory:
        base = next(p for p in (path, *path.parents) if p.exists())
        error = None if base.is_dir() else errno.EEXIST if base == path else errno.ENOTDIR
    else:
        base = path.parent
        error = (errno.EISDIR if path.is_dir() else None if base.is_dir()
                 else errno.ENOTDIR if base.exists() else errno.ENOENT)
    if error is None and not os.access(path if path.exists() else base, os.W_OK):
        error = errno.EACCES
    if error is not None:
        raise ConfigError(f"cannot write {what} {path}: {os.strerror(error)}")
    return path


def load_config(path) -> dict:
    return parse_config_text(read_input(path, "config file"), origin=str(path))


def _fields_from(cfg: dict, keys: dict) -> dict:
    return {name: cfg[key] for key, name in keys.items() if key in cfg}


def search_config_from(cfg: dict) -> SearchConfig:
    return SearchConfig(**_fields_from(cfg, SEARCH_KEYS))


def cell_spec_from(cfg: dict) -> CellSpec:
    return CellSpec(**_fields_from(cfg, CELL_KEYS))


def data_config_from(cfg: dict) -> DataConfig:
    return DataConfig(**_fields_from(cfg, DATA_KEYS))


def build_problem(cfg: dict):
    if cfg.get("task", "synthetic") == "toy":
        return ToyBilevelTask()
    return SyntheticCellTask(data_config_from(cfg).build(), cell_spec_from(cfg))


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(out_dir: Path, cfg: dict, seeds: list[int], layout: dict[str, str]) -> None:
    """The manifest; ``layout`` names each file or directory the command wrote."""
    doc = {
        "tool": "cellsearch",
        "version": __version__,
        "config_hash": config_hash(cfg),
        "config": {k: str(cfg[k]) for k in sorted(cfg)},
        "seeds": seeds,
        "layout": layout,
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


TRAJECTORY_HEADER = "iteration,train_loss,val_loss,weight_lr,hvp_epsilon,alpha_snapshot"


def write_trajectory(out_dir: Path, traj: Trajectory) -> None:
    lines = [TRAJECTORY_HEADER]
    for r in traj.records:
        lines.append(
            f"{r.iteration},{_fmt(r.train_loss)},{_fmt(r.val_loss)},"
            f"{_fmt(r.weight_lr)},{_fmt(r.hvp_epsilon)},{r.snapshot}"
        )
    (out_dir / "trajectory.csv").write_text("\n".join(lines) + "\n")


def write_summary(out_dir: Path, entries: dict) -> None:
    lines = [f"{key}: {value}" for key, value in entries.items()]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


def genotype_one_liner(genotype: Genotype) -> str:
    return " | ".join(
        ",".join(f"{pred}:{op}" for pred, op in pairs) for pairs in genotype.nodes
    )


def _search_summary(config: SearchConfig, traj: Trajectory, problem) -> dict:
    entries = {
        "mode": config.mode,
        "steps_requested": config.steps,
        "steps_completed": len(traj.records),
        "diverged": str(traj.diverged).lower(),
    }
    if traj.records:
        entries["final_train_loss"] = _fmt(traj.records[-1].train_loss)
        entries["final_val_loss"] = _fmt(traj.records[-1].val_loss)
    if problem.has_cell:
        entries["alpha_entropy"] = _fmt(alpha_entropy(traj.final_alpha))
        entries["uniform_entropy"] = _fmt(uniform_entropy(len(OP_ORDER)))
        if traj.genotype is not None:
            entries["genotype"] = genotype_one_liner(traj.genotype)
    else:
        entries["final_alpha"] = _fmt(traj.final_alpha["alpha"])
        entries["final_w"] = _fmt(traj.final_weights["w"])
    entries["forward_passes"] = traj.counters.forward_passes
    entries["backward_passes"] = traj.counters.backward_passes
    entries["alpha_grad_evals"] = traj.counters.alpha_grad_evals
    entries["weight_grad_evals"] = traj.counters.weight_grad_evals
    entries["events"] = len(traj.events)
    return entries


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    cfg = load_config(args.config)
    out = output_path(args.out, "output directory", directory=True)
    config = search_config_from(cfg)
    problem = build_problem(cfg)
    out.mkdir(parents=True, exist_ok=True)
    snapshot_hook = None
    if problem.has_cell:
        (out / "alpha").mkdir(exist_ok=True)

        def snapshot_hook(t, alpha):
            every = config.snapshot_every
            if every > 0 and t % every == 0:
                name = f"alpha/step_{t:06d}.tsv"
                (out / name).write_text(format_alpha(alpha))
                return name
            return ""

    traj = search(config, problem, snapshot_hook=snapshot_hook)
    layout = {"trajectory": "trajectory.csv", "summary": "summary.txt"}
    if problem.has_cell:
        layout["alpha_dir"] = "alpha"
        final_name = f"alpha/step_{len(traj.records):06d}.tsv"
        (out / final_name).write_text(format_alpha(traj.final_alpha))
        if traj.genotype is not None:
            layout["genotype"] = "genotype.json"
            (out / "genotype.json").write_text(traj.genotype.to_json())
    write_trajectory(out, traj)
    write_manifest(out, cfg, [config.seed], layout)
    write_summary(out, _search_summary(config, traj, problem))
    if traj.diverged:
        print("search diverged:", "; ".join(traj.events), file=sys.stderr)
        return 3
    if traj.records:
        last = traj.records[-1]
        print(f"search finished: train_loss={last.train_loss:.6f} "
              f"val_loss={last.val_loss:.6f}")
    if traj.genotype is not None:
        print("genotype:", genotype_one_liner(traj.genotype))
    return 0


def cmd_derive(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    out = output_path(args.out, "genotype file")
    spec = cell_spec_from(cfg)
    alpha, op_names = parse_alpha(read_input(args.alpha, "logit snapshot"))
    if op_names != list(OP_ORDER):
        raise ConfigError(
            f"snapshot operation columns {op_names} do not match the registry {list(OP_ORDER)}"
        )
    expected = {f"{i}->{j}" for i, j in spec.edges()}
    if set(alpha) != expected:
        raise ConfigError(
            f"snapshot edges do not match the cell: missing {sorted(expected - set(alpha))}, "
            f"unexpected {sorted(set(alpha) - expected)}"
        )
    genotype = derive_genotype(spec, alpha)
    out.write_text(genotype.to_json())
    print("genotype:", genotype_one_liner(genotype))
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    if cfg.get("task", "synthetic") == "toy":
        raise ConfigError("evaluate needs a dataset task, not the toy problem")
    out = None if args.out is None else output_path(args.out, "metrics file")
    problem = build_problem(cfg)
    config = search_config_from(cfg)
    genotype = Genotype.from_json(read_input(args.genotype, "genotype file"))
    if genotype.spec != problem.spec:
        raise ConfigError(
            f"genotype cell {genotype.spec} does not match the configured cell {problem.spec}"
        )
    val_accuracy, weights = train_genotype(problem, genotype, config)
    train_accuracy = problem.split_accuracy(weights, genotype, "train")
    test_accuracy = problem.split_accuracy(weights, genotype, "test")
    metrics = {
        "train_accuracy": _fmt(train_accuracy),
        "val_accuracy": _fmt(val_accuracy),
        "test_accuracy": _fmt(test_accuracy),
    }
    for key, value in metrics.items():
        print(f"{key}: {value}")
    if out is not None:
        out.write_text("".join(f"{k}: {v}\n" for k, v in metrics.items()))
    return 0


def cmd_random_search(args) -> int:
    cfg = load_config(args.config)
    if cfg.get("task", "synthetic") == "toy":
        raise ConfigError("random search needs a dataset task, not the toy problem")
    out = output_path(args.out, "output directory", directory=True)
    problem = build_problem(cfg)
    config = search_config_from(cfg)
    n_samples = cfg.get("n_samples", RANDOM_SAMPLES)
    result = random_search(config, problem, n_samples)
    out.mkdir(parents=True, exist_ok=True)
    (out / "genotype.json").write_text(result.best.to_json())
    lines = ["sample,val_accuracy"]
    lines += [f"{i},{_fmt(score)}" for i, score in enumerate(result.scores)]
    (out / "samples.csv").write_text("\n".join(lines) + "\n")
    write_manifest(out, cfg, [config.seed], {
        "genotype": "genotype.json", "samples": "samples.csv", "summary": "summary.txt"})
    write_summary(out, {
        "mode": "random",
        "samples": n_samples,
        "best_score": _fmt(result.best_score),
        "genotype": genotype_one_liner(result.best),
    })
    print(f"best of {n_samples}: val_accuracy={result.best_score:.4f}")
    print("genotype:", genotype_one_liner(result.best))
    return 0


def cmd_count(args) -> int:
    query = SpaceQuery(
        intermediates=args.intermediates,
        nonzero_ops=args.ops,
        multiplicity=args.multiplicity,
    )
    discrete = count_discrete(query)
    relaxed = count_relaxed(query)
    print(f"edges_per_cell: {relaxed_edge_count(query)}")
    print(f"discrete_exact: {discrete}")
    print(f"discrete_approx: {scientific(discrete)}")
    print(f"relaxed_exact: {relaxed}")
    print(f"relaxed_approx: {scientific(relaxed)}")
    return 0


def cmd_grad_check(args) -> int:
    if args.seed < 0:
        raise ConfigError("grad-check needs --seed >= 0")
    ok = True
    worst = 0.0
    for report in check_all_primitives(seed=args.seed):
        status = "PASS" if report.passed else "FAIL"
        ok &= report.passed
        worst = max(worst, report.max_error)
        print(f"primitive {report.kind:>22}: max_rel_err={report.max_error:.3e} "
              f"(tol {report.tolerance:g}) {status}")
    for report in run_fidelity_suite(seed=args.seed):
        status = "PASS" if report.passed else "FAIL"
        ok &= report.passed
        print(f"fidelity {report.label}: max_rel_err={report.max_error:.3e} "
              f"(tol {report.tolerance:g}) {status}")
    print(f"grad-check: {'PASS' if ok else 'FAIL'} (worst primitive error {worst:.3e})")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellsearch",
        description="Gradient-based architecture search over DAG cells, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run a search and write its artifacts")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("derive", help="discretize a logit snapshot into a genotype")
    p.add_argument("--alpha", required=True, help="logit snapshot (.tsv)")
    p.add_argument("--config", default=None, help="config carrying the cell shape")
    p.add_argument("--out", required=True, help="genotype output file")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("evaluate", help="train a genotype from scratch and report metrics")
    p.add_argument("--genotype", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="optional metrics file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("random-search", help="best of n uniformly sampled genotypes")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_random_search)

    p = sub.add_parser("count", help="exact search-space sizes")
    p.add_argument("--intermediates", type=int, required=True)
    p.add_argument("--ops", type=int, required=True, help="non-zero operation count")
    p.add_argument("--multiplicity", type=int, default=1)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("grad-check", help="gradient and lookahead fidelity report")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CellError, DataError, CountError, OptimizerError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
