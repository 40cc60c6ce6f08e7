import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cellsearch import cli
from cellsearch.cell import Genotype, parse_alpha
from cellsearch.cli import TRAJECTORY_HEADER, ConfigError, main, parse_config_text
from cellsearch.search import IterationRecord
from cellsearch.tasks import load_delimited



def read_trajectory(path) -> list[IterationRecord]:
    """Inverse of write_trajectory (wall-clock is not serialized)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ConfigError(f"{path}: not a trajectory file")
    records = []
    for line in lines[1:]:
        it, train, val, lr, eps, _ = line.split(",")
        records.append(IterationRecord(
            iteration=int(it), train_loss=float(train), val_loss=float(val),
            weight_lr=float(lr), hvp_epsilon=float(eps) if eps else None,
            wall_clock=0.0,
        ))
    return records


SMALL_CFG = """\
# desk-scale but tiny, for fast tests
task = synthetic
data_n = 160
data_dims = 4
data_classes = 2
data_noise = 0.8
data_seed = 3

cell_nodes = 5
cell_hidden = 4
cell_k = 2

mode = second-order
steps = 5
batch_size = 12
seed = 1
weight_lr = 0.05
eval_steps = 8
eval_batch_size = 32
snapshot_every = 2
"""

TOY_CFG = """\
task = toy
mode = second-order
steps = 40
weight_lr = 0.5
arch_lr = 0.1
arch_optimizer = sgd
anneal = false
momentum = 0.0
weight_decay_weights = 0.0
weight_decay_alpha = 0.0
clip_norm = none
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# --- config parsing -----------------------------------------------------------


def test_parse_config_handles_comments_and_blanks():
    cfg = parse_config_text("# hello\n\nsteps = 7 # trailing\nanneal = false\n")
    assert cfg == {"steps": 7, "anneal": False}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'stepz'"):
        parse_config_text("stepz = 7\n")


def test_parse_config_rejects_duplicates_and_bad_values():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("steps = 1\nsteps = 2\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("steps = seven\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("anneal = maybe\n")
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config_text("mode = fast\n")


def test_parse_config_bad_cast_names_line_and_key():
    with pytest.raises(ConfigError, match="line 2: bad value for 'anneal': expected a boolean"):
        parse_config_text("steps = 1\nanneal = maybe\n")
    with pytest.raises(ConfigError, match="line 1: bad value for 'mode': expected one of"):
        parse_config_text("mode = fast\n")


def test_parse_config_optional_floats():
    cfg = parse_config_text("unroll_lr = auto\nclip_norm = none\n")
    assert cfg == {"unroll_lr": None, "clip_norm": None}
    assert parse_config_text("unroll_lr = 0.5\n") == {"unroll_lr": 0.5}


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| group  | keys |", 1)[1].split("\n\n", 1)[0]
    listed = []
    for row in table.splitlines()[2:]:
        keys = re.sub(r"\([^()]*\)", "", row.split("|")[2])  # drop the values
        listed += re.findall(r"`([^`]+)`", keys)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(cli.CONFIG_KEYS)


def artifacts_tool():
    """``tools/artifacts.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"
    spec = importlib.util.spec_from_file_location("artifacts", path)
    artifacts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(artifacts)
    return artifacts


def test_every_artifact_config_parses_and_builds(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    artifacts = artifacts_tool()
    # the configs name the dataset file relative to the tool's OUTDIR
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "data.csv").write_text(artifacts.dataset_text())
    file_configs = []
    for name, (base, keys) in artifacts.CONFIGS.items():
        text = artifacts.with_keys((root / "configs" / base).read_text(), keys)
        cfg = parse_config_text(text, name)
        for build in (cli.search_config_from, cli.cell_spec_from, cli.data_config_from):
            build(cfg)
        if "data_path" in cfg:
            cli.data_config_from(cfg).build()
            file_configs.append(name)
    assert file_configs, "no artifact config reads a dataset file"


def write_artifact_tree(root: Path, val_loss: float, error: float, genotype: str) -> Path:
    """A small tree in the layout ``tools/artifacts.py`` writes."""
    (root / "search" / "out").mkdir(parents=True)
    (root / "search" / "exit_code").write_text("0\n")
    (root / "search" / "out" / "summary.txt").write_text(f"final_val_loss: {val_loss!r}\n")
    (root / "search" / "out" / "genotype.json").write_text(genotype)
    (root / "grad-check").mkdir()
    (root / "grad-check" / "stdout").write_text(
        f"primitive add: max_rel_err={error:.3e} (tol 1e-06) PASS\n")
    return root


def test_artifact_compare_passes_a_one_ulp_move_and_fails_a_changed_genotype(tmp_path,
                                                                              capsys):
    tool = artifacts_tool()
    base = write_artifact_tree(tmp_path / "a", 0.25, 1e-9, small_genotype())
    moved = write_artifact_tree(tmp_path / "b", float(np.nextafter(0.25, 1.0)), 3e-9,
                                small_genotype())
    changed = write_artifact_tree(tmp_path / "c", 0.25, 1e-9,
                                  small_genotype().replace("identity", "linear_relu", 1))
    assert tool.main(["--compare", str(base), str(moved)]) == 0
    out = capsys.readouterr().out
    assert "search/out/summary.txt: max rel diff 2.220e-16\n" in out
    assert "grad-check/stdout: max rel diff 0.000e+00, verdict lines 6.667e-01" in out
    assert out.endswith("compare: 4 files in both, 2 byte-identical, 0 breaches\n")
    assert tool.main(["--compare", str(base), str(changed)]) == 1
    out = capsys.readouterr().out
    assert "search/out/genotype.json: max rel diff 0.000e+00; BREACH" in out
    assert out.endswith("1 breaches\n")


def test_artifact_compare_exits_2_on_a_missing_or_empty_tree(tmp_path, capsys):
    tool = artifacts_tool()
    base = write_artifact_tree(tmp_path / "a", 0.25, 1e-9, small_genotype())
    (tmp_path / "empty" / "sub").mkdir(parents=True)
    for a, b in [(base, tmp_path / "absent"), (tmp_path / "empty", base),
                 (tmp_path / "absent", tmp_path / "gone"), (base, base / "search" / "exit_code")]:
        with pytest.raises(SystemExit) as exit_info:
            tool.main(["--compare", str(a), str(b)])
        assert exit_info.value.code == 2
        assert "is not a directory that holds a file" in capsys.readouterr().err


# --- search command -------------------------------------------------------------


def layout_lists_what_was_written(out: Path) -> set[str]:
    """The keys of the manifest's layout, once its names are checked to be
    exactly what the command wrote beside the manifest."""
    layout = json.loads((out / "manifest.json").read_text())["layout"]
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(layout.values()) == sorted(written)
    return set(layout)


def test_search_missing_config_exits_2(tmp_path, capsys):
    code = main(["search", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_search_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("task = toy\nwat = 1\n")
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_search_toy_config_writes_trajectory_but_no_genotype(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG + "snapshot_every = 2\n")  # the toy task writes no snapshot
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "manifest.json").exists()
    assert not (out / "genotype.json").exists()
    assert not (out / "alpha").exists()
    assert layout_lists_what_was_written(out) == {"trajectory", "summary"}
    body = (out / "trajectory.csv").read_text().splitlines()
    assert body[0] == "iteration,train_loss,val_loss,weight_lr,hvp_epsilon,alpha_snapshot"
    assert len(body) == 41
    assert all(row.endswith(",") for row in body[1:])  # alpha_snapshot left empty


def test_search_synthetic_writes_valid_genotype_and_snapshots(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["search", "--config", str(small_cfg), "--out", str(out)]) == 0
    Genotype.from_json((out / "genotype.json").read_text())  # construction validates
    assert (out / "alpha" / "step_000000.tsv").exists()  # cadence 2 from step 0
    assert (out / "alpha" / "step_000002.tsv").exists()
    assert (out / "alpha" / "step_000005.tsv").exists()  # final state
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [1]
    assert manifest["layout"]["trajectory"] == "trajectory.csv"
    assert layout_lists_what_was_written(out) == {"trajectory", "summary", "alpha_dir",
                                                  "genotype"}
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    assert rows[2].endswith("alpha/step_000002.tsv")


def test_search_rerun_is_byte_identical(small_cfg, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["search", "--config", str(small_cfg), "--out", str(out1)]) == 0
    assert main(["search", "--config", str(small_cfg), "--out", str(out2)]) == 0
    assert read_tree(out1) == read_tree(out2)


def test_search_divergence_exits_3(tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(SMALL_CFG.replace("weight_lr = 0.05", "weight_lr = 1e9")
                   + "clip_norm = none\nanneal = false\n")
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    assert (out / "trajectory.csv").exists()  # partial trajectory still written
    assert layout_lists_what_was_written(out) == {"trajectory", "summary", "alpha_dir"}


def test_evaluate_divergence_exits_3_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(SMALL_CFG.replace("weight_lr = 0.05", "weight_lr = 1e9")
                   .replace("eval_steps = 8", "eval_steps = 20")
                   + "clip_norm = none\nanneal = false\n")
    genotype = tmp_path / "g.json"
    genotype.write_text(small_genotype())
    assert main(["evaluate", "--genotype", str(genotype), "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == "numerical failure: retraining loss is not finite: nan\n"


def test_trajectory_file_round_trips(small_cfg, tmp_path):
    out = tmp_path / "run"
    main(["search", "--config", str(small_cfg), "--out", str(out)])
    records = read_trajectory(out / "trajectory.csv")
    assert [r.iteration for r in records] == list(range(5))
    assert all(np.isfinite(r.train_loss) and np.isfinite(r.val_loss) for r in records)
    column = [row.split(",")[-1] for row in (out / "trajectory.csv").read_text().splitlines()]
    assert column[1 + 2] == "alpha/step_000002.tsv"
    assert records[0].hvp_epsilon is not None  # second-order mode logs its step


def test_search_command_routes_joint_mode(small_cfg, tmp_path, capsys):
    cfg = tmp_path / "joint.cfg"
    cfg.write_text(SMALL_CFG.replace("mode = second-order", "mode = joint"))
    out = tmp_path / "joint_run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    Genotype.from_json((out / "genotype.json").read_text())
    assert (out / "alpha" / "step_000002.tsv").exists()
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 5


# --- the toy problem through search ----------------------------------------------


def run_toy(tmp_path, mode: str, steps: int) -> Path:
    """The output directory of a search on TOY_CFG in ``mode`` for ``steps`` steps."""
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG.replace("mode = second-order", f"mode = {mode}")
                   .replace("steps = 40", f"steps = {steps}"))
    out = tmp_path / "toy"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def read_summary(out: Path) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in (out / "summary.txt").read_text().splitlines())


def test_toy_bilevel_second_order_reaches_optimum(tmp_path, capsys):
    summary = read_summary(run_toy(tmp_path, "second-order", 500))
    alpha, w = float(summary["final_alpha"]), float(summary["final_w"])
    assert abs(alpha - 1.0) < 1e-3 and abs(w - 1.0) < 1e-3


def test_toy_bilevel_first_order_settles_elsewhere(tmp_path, capsys):
    summary = read_summary(run_toy(tmp_path, "first-order", 500))
    alpha, w = float(summary["final_alpha"]), float(summary["final_w"])
    assert abs(alpha - 2.0) < 1e-3 and abs(w - 2.0) < 1e-3


def test_toy_bilevel_zero_steps_prints_start_point(tmp_path, capsys):
    out = run_toy(tmp_path, "second-order", 0)
    summary = read_summary(out)
    assert (summary["final_alpha"], summary["final_w"]) == ("2.0", "-2.0")
    assert (out / "trajectory.csv").read_text().splitlines()[0].startswith("iteration")


# --- derive command -------------------------------------------------------------


def test_derive_round_trips_the_search_result(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    main(["search", "--config", str(small_cfg), "--out", str(out)])
    derived = tmp_path / "derived.json"
    code = main(["derive", "--alpha", str(out / "alpha" / "step_000005.tsv"),
                 "--config", str(small_cfg), "--out", str(derived)])
    assert code == 0
    assert derived.read_bytes() == (out / "genotype.json").read_bytes()


def test_derive_rejects_mismatched_cell(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    main(["search", "--config", str(small_cfg), "--out", str(out)])
    other = tmp_path / "other.cfg"
    other.write_text(SMALL_CFG.replace("cell_nodes = 5", "cell_nodes = 6"))
    code = main(["derive", "--alpha", str(out / "alpha" / "step_000005.tsv"),
                 "--config", str(other), "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert "do not match" in capsys.readouterr().err


def test_derive_missing_snapshot_exits_2(small_cfg, tmp_path, capsys):
    code = main(["derive", "--alpha", str(tmp_path / "missing.tsv"),
                 "--config", str(small_cfg), "--out", str(tmp_path / "g.json")])
    assert code == 2


# --- evaluate command ------------------------------------------------------------


def test_evaluate_reports_deterministic_metrics(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    main(["search", "--config", str(small_cfg), "--out", str(out)])
    capsys.readouterr()

    metrics1 = tmp_path / "m1.txt"
    code = main(["evaluate", "--genotype", str(out / "genotype.json"),
                 "--config", str(small_cfg), "--out", str(metrics1)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "val_accuracy" in stdout and "test_accuracy" in stdout

    metrics2 = tmp_path / "m2.txt"
    main(["evaluate", "--genotype", str(out / "genotype.json"),
          "--config", str(small_cfg), "--out", str(metrics2)])
    assert metrics1.read_bytes() == metrics2.read_bytes()


def test_evaluate_rejects_spec_mismatch(small_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    main(["search", "--config", str(small_cfg), "--out", str(out)])
    other = tmp_path / "other.cfg"
    other.write_text(SMALL_CFG.replace("cell_hidden = 4", "cell_hidden = 8"))
    code = main(["evaluate", "--genotype", str(out / "genotype.json"),
                 "--config", str(other)])
    assert code == 2


def test_evaluate_rejects_toy_task(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG)
    code = main(["evaluate", "--genotype", str(tmp_path / "g.json"),
                 "--config", str(cfg)])
    assert code == 2


# --- random-search command --------------------------------------------------------


def test_random_search_writes_scores_and_best(small_cfg, tmp_path, capsys):
    out = tmp_path / "rs"
    small_cfg.write_text(SMALL_CFG + "n_samples = 3\n")
    code = main(["random-search", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    Genotype.from_json((out / "genotype.json").read_text())
    rows = (out / "samples.csv").read_text().splitlines()
    assert rows[0] == "sample,val_accuracy"
    assert len(rows) == 4
    best = max(float(r.split(",")[1]) for r in rows[1:])
    assert f"best_score: {best!r}" in (out / "summary.txt").read_text()
    assert layout_lists_what_was_written(out) == {"genotype", "samples", "summary"}


def test_random_search_rerun_byte_identical(small_cfg, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    small_cfg.write_text(SMALL_CFG + "n_samples = 2\n")
    main(["random-search", "--config", str(small_cfg), "--out", str(out1)])
    main(["random-search", "--config", str(small_cfg), "--out", str(out2)])
    assert read_tree(out1) == read_tree(out2)


# --- count command ----------------------------------------------------------------


def test_count_reference_values(capsys):
    assert main(["count", "--intermediates", "4", "--ops", "7"]) == 0
    out = capsys.readouterr().out
    assert "edges_per_cell: 14" in out
    assert "discrete_exact: 1037664180" in out
    assert "relaxed_exact: 4398046511104" in out
    assert "discrete_approx: 1.037e9" in out


def test_count_multiplicity_two(capsys):
    assert main(["count", "--intermediates", "4", "--ops", "7",
                 "--multiplicity", "2"]) == 0
    out = capsys.readouterr().out
    assert f"discrete_exact: {1_037_664_180**2}" in out
    assert f"relaxed_exact: {8**28}" in out


@pytest.mark.parametrize("intermediates", ["1000", "100000"])
def test_count_rejects_a_space_too_large_to_print_with_one_line(capsys, intermediates):
    start = time.perf_counter()
    assert main(["count", "--intermediates", intermediates, "--ops", "7",
                 "--multiplicity", "2"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: the relaxed count has more than 4000 digits\n"


def test_count_just_under_the_digit_limit_prints_exact_counts(capsys):
    assert main(["count", "--intermediates", "65", "--ops", "7", "--multiplicity", "2"]) == 0
    out = capsys.readouterr().out
    assert "edges_per_cell: 2210" in out
    assert f"relaxed_exact: {8 ** (2 * 2210)}\n" in out
    assert "relaxed_approx: 4.547e3991" in out
    discrete = 1
    for m in range(1, 66):
        discrete *= math.comb(m + 1, 2) * 49
    assert f"discrete_exact: {discrete**2}\n" in out


def test_count_rejects_empty_cell_with_one_line(capsys):
    assert main(["count", "--intermediates", "0", "--ops", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: need at least one intermediate node\n"


# --- malformed inputs at the boundaries ---------------------------------------

SNAPSHOT_HEADER = "edge\tzero\tidentity\tlinear_tanh\tlinear_relu\tlinear_sigmoid\n"


def small_genotype(pred: str = "1", input_arity: str = "2") -> str:
    """A genotype document for SMALL_CFG's cell, with the JSON text of its last
    edge's ``pred`` and of its spec's ``input_arity``."""
    spec = (f'{{"hidden": 4, "input_arity": {input_arity}, "k": 2, "nodes": 5, '
            '"reduction": "mean"}')
    node2 = '[{"pred": 0, "op": "identity"}, {"pred": 1, "op": "identity"}]'
    node3 = f'[{{"pred": 0, "op": "identity"}}, {{"pred": {pred}, "op": "identity"}}]'
    return f'{{"spec": {spec}, "nodes": [{node2}, {node3}]}}'


def small_snapshot() -> str:
    """A logit snapshot for SMALL_CFG's cell, every logit zero."""
    return SNAPSHOT_HEADER + "".join(f"{edge}\t0.0\t0.0\t0.0\t0.0\t0.0\n"
                                     for edge in ("0->2", "1->2", "0->3", "1->3", "2->3"))


DIRECTORY = object()  # a table input that is a directory, not a file
NOT_UTF8 = b"# caf\xe9\n"  # Latin-1 text, not valid UTF-8


def write_input(path: Path, text) -> None:
    """Write a table input: text, raw bytes, or a directory."""
    if text is DIRECTORY:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)


def small_cfg_with(line: str) -> str:
    """SMALL_CFG with the setting of ``line`` replaced, or appended if absent."""
    key = line.partition("=")[0].strip()
    kept = [ln for ln in SMALL_CFG.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


@pytest.mark.parametrize("command, boundary, text, message", [
    ("derive", "snapshot", SNAPSHOT_HEADER + "0->2\t0.0\t0.1\toops\t0.0\t0.0\n",
     "snapshot row 1 (edge 0->2)"),
    ("derive", "snapshot", SNAPSHOT_HEADER + "0->2\t0.0\tnan\t0.0\t0.0\t0.0\n",
     "snapshot row 1 (edge 0->2): non-finite logit"),
    ("search", "data", "x0,x1,label\n1.0,2.0,0\n0.5,1.0,-1\n2.0,0.0,1\n",
     "line 3: label -1 out of range"),
    ("search", "data", "x0,x1,label\n1.0,2.0,0\n0.5,1.0,7\n", "line 3: label 7 out of range"),
    ("search", "data", "x0,x1,label\n1.0,2.0,0\n0.5,nan,1\n", "line 3: non-finite feature"),
    ("search", "data", "x0,x1,label\n1.0,inf,0\n0.5,1.0,1\n", "line 2: non-finite feature"),
    ("search", "data", "x0,x1,label\n1.0,2.0,0\n0.5,1.0,0\n", "need at least two classes"),
    ("random-search", "config", "eval_batch_size = 0", "batch sizes positive"),
    ("search", "config", "clip_norm = -1", "clip norm must be positive"),
    ("search", "config", "clip_norm = 0", "clip norm must be positive"),
    ("search", "config", "arch_lr = -0.01", "learning rates must be non-negative"),
    ("search", "config", "weight_lr = -0.05", "learning rates must be non-negative"),
    ("search", "config", "unroll_lr = nan", "unroll_lr must be finite"),
    ("search", "config", "momentum = nan", "momentum must be finite"),
    ("search", "config", "weight_decay_weights = nan", "weight_decay_weights must be finite"),
    ("search", "config", "weight_decay_alpha = inf", "weight_decay_alpha must be finite"),
    ("search", "config", "data_noise = nan", "data noise must be finite"),
    ("evaluate", "genotype", small_genotype(pred="1.5"),
     "node 3: predecessor 1.5 is not an integer"),
    ("evaluate", "genotype", small_genotype(pred="true"),
     "node 3: predecessor True is not an integer"),
    ("evaluate", "genotype", small_genotype(pred='"1"'),
     "node 3: predecessor '1' is not an integer"),
    ("evaluate", "genotype", small_genotype(input_arity="2.0"), "cell sizes must be integers"),
    ("search", "config", "seed = -1", "seeds must be non-negative"),
    ("random-search", "config", "eval_seed = -1", "seeds must be non-negative"),
    ("search", "config", "data_seed = -1", "data seed must be non-negative"),
    ("derive", "snapshot", SNAPSHOT_HEADER + "0->2\t0.0\t0.1\t0.0\t0.0\t0.0\n"
     + "0->2\t0.0\t0.2\t0.0\t0.0\t0.0\n", "snapshot row 2 (edge 0->2): repeated edge"),
    ("search", "config", DIRECTORY, "cannot read config file"),
    ("search", "config", SMALL_CFG.encode() + NOT_UTF8, "cannot read config file"),
    ("search", "data", DIRECTORY, "cannot read dataset file"),
    ("search", "data", b"x0,x1,label\n" + NOT_UTF8, "cannot read dataset file"),
    ("search", "data", "x0,x1,label\n" + "1" * 131073 + ",2.0,0\n",
     "field larger than field limit"),
    ("derive", "snapshot", DIRECTORY, "cannot read logit snapshot"),
    ("derive", "snapshot", SNAPSHOT_HEADER.encode() + NOT_UTF8, "cannot read logit snapshot"),
    ("evaluate", "genotype", DIRECTORY, "cannot read genotype file"),
    ("evaluate", "genotype", small_genotype().encode() + NOT_UTF8, "cannot read genotype file"),
    ("search", "data", "x0,x1,label,split\n1.0,2.0,0,train\n0.5,1.0,1,train\n"
     "2.0,0.0,0,val\n0.0,1.0,1,val\n", "input: no test rows"),
    ("search", "data", "x0,label,label\n1.0,0,0\n0.5,1,0\n", "repeated 'label' column"),
    ("search", "data", "x0,x1,label,split,split\n1.0,2.0,0,train,val\n",
     "repeated 'split' column"),
    ("search", "data", "x0,x1\n1.0,2.0\n", "no 'label' column"),
    ("search", "data", "label,split\n0,train\n1,val\n", "no feature columns"),
    ("search", "data", "x0,x1,label\n1.0,2.0,0\n0.5,1.0,0.5\n", "line 3: non-integer label"),
    ("search", "data", "x0,x1,label,split\n1.0,2.0,0,holdout\n",
     "line 2: unknown split tag 'holdout'"),
    ("search", "out", "afile", "afile: File exists"),
    ("random-search", "out", "afile", "afile: File exists"),
    ("search", "out", "afile/sub", "afile/sub: Not a directory"),
    ("search", "out", "useddir", "useddir: Directory not empty"),
    ("random-search", "out", "useddir", "useddir: Directory not empty"),
    ("derive", "out", "adir", "adir: Is a directory"),
    ("derive", "out", "nodir/g.json", "nodir/g.json: No such file or directory"),
    ("evaluate", "out", "adir", "adir: Is a directory"),
    ("search", "config", "snapshot_every = -3", "snapshot interval must be non-negative"),
    ("search", "config", "momentum = 1.5", "momentum must be in [0, 1)"),
    ("search", "config", "momentum = -0.5", "momentum must be in [0, 1)"),
    ("search", "config", "weight_decay_weights = -1", "weight decays must be non-negative"),
    ("search", "config", "weight_decay_alpha = -5", "weight decays must be non-negative"),
    ("search", "config", "mode = random", "expected one of"),
    ("search", "config", "clip_norm = auto", "bad value for 'clip_norm'"),
    ("search", "config", "unroll_lr = none", "bad value for 'unroll_lr'"),
    ("search", "config", "weight_lr = inf", "weight_lr must be finite"),
    ("search", "config", "unroll_lr = -1", "unroll step must be non-negative"),
    ("search", "config", "data_noise = -1", "data noise must be non-negative"),
    ("search", "config", "hvp_epsilon_scale = 1e-4", "unknown key 'hvp_epsilon_scale'"),
    ("search", "config", "adam_beta1 = 0.5", "unknown key 'adam_beta1'"),
    ("search", "config", "adam_beta2 = 0.999", "unknown key 'adam_beta2'"),
    ("evaluate", "genotype", "[" * 100000, "malformed genotype document"),
], ids=["snapshot-non-numeric", "snapshot-nan", "negative-label", "label-above-classes",
        "nan-feature", "inf-feature", "single-class", "zero-eval-batch", "negative-clip-norm",
        "zero-clip-norm", "negative-arch-lr", "negative-weight-lr", "nan-unroll-lr",
        "nan-momentum", "nan-weight-decay-weights", "inf-weight-decay-alpha", "nan-data-noise",
        "float-pred", "bool-pred", "string-pred", "float-input-arity",
        "negative-seed", "negative-eval-seed", "negative-data-seed", "duplicate-snapshot-edge",
        "config-directory", "config-not-utf8", "data-directory", "data-not-utf8",
        "data-oversized-field", "snapshot-directory", "snapshot-not-utf8", "genotype-directory",
        "genotype-not-utf8", "data-no-test-rows", "data-repeated-label",
        "data-repeated-split", "data-no-label", "data-no-features", "data-non-integer-label",
        "data-unknown-split", "search-out-file",
        "random-search-out-file", "search-out-under-file", "search-out-not-empty",
        "random-search-out-not-empty", "derive-out-directory",
        "derive-out-missing-parent", "evaluate-out-directory", "negative-snapshot-every",
        "momentum-above-1", "negative-momentum", "negative-weight-decay-weights",
        "negative-weight-decay-alpha", "random-mode", "clip-norm-auto", "unroll-lr-none",
        "inf-weight-lr", "negative-unroll-lr", "negative-data-noise",
        "hvp-epsilon-scale-key", "adam-beta1-key", "adam-beta2-key",
        "genotype-deep-nesting"])
def test_malformed_inputs_exit_2_with_one_line(tmp_path, capsys, command, boundary, text,
                                               message):
    path = tmp_path / "input"
    cfg = tmp_path / "run.cfg"
    out = tmp_path / ("g.json" if command == "derive" else "run")
    if boundary == "config":
        write_input(cfg, small_cfg_with(text) if isinstance(text, str) else text)
    elif boundary == "genotype":
        write_input(path, text)
        cfg.write_text(SMALL_CFG)
    elif boundary == "out":
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        (tmp_path / "useddir").mkdir()
        (tmp_path / "useddir" / "genotype.json").write_text("")  # an earlier run's
        out = tmp_path / text
        path.write_text(small_snapshot() if command == "derive" else small_genotype())
        cfg.write_text(SMALL_CFG)
    else:
        write_input(path, text)
        cfg.write_text(SMALL_CFG.replace("data_dims = 4", "data_dims = 2")
                       + f"data_path = {path}\n")
    if command == "derive":
        argv = ["derive", "--alpha", str(path), "--config", str(cfg), "--out", str(out)]
    elif command == "evaluate":
        argv = ["evaluate", "--genotype", str(path), "--config", str(cfg)]
        argv += ["--out", str(out)] if boundary == "out" else []
    else:
        argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1, err


def dataset_columns(path) -> tuple[list, ...]:
    data = load_delimited(path)
    return data.features.tolist(), data.labels.tolist(), data.tags.tolist()


SMALL_SPEC = cli.cell_spec_from(parse_config_text(SMALL_CFG))


@pytest.mark.parametrize("text, read", [
    (SMALL_CFG, cli.load_config),
    ("label,x0,x1\n0,1.0,2.0\n1,0.5,1.0\n", dataset_columns),
    (small_snapshot(), lambda path: {k: v.tolist() for k, v in parse_alpha(
        cli.read_input(path, "logit snapshot"), SMALL_SPEC).items()}),
    (small_genotype(), lambda path: Genotype.from_json(cli.read_input(path, "genotype file"))),
], ids=["config", "dataset", "snapshot", "genotype"])
def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, text, read):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert read(marked) == read(plain)


@pytest.mark.parametrize("command", ["random-search", "evaluate"])
def test_bad_out_is_found_before_any_training(tmp_path, capsys, monkeypatch, command):
    def train(*args, **kwargs):
        raise AssertionError("trained before checking --out")

    monkeypatch.setattr(cli, "random_search", train)
    monkeypatch.setattr(cli, "train_genotype", train)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    genotype = tmp_path / "g.json"
    genotype.write_text(small_genotype())
    if command == "evaluate":  # a directory where the metrics file goes
        argv = ["evaluate", "--genotype", str(genotype), "--config", str(cfg),
                "--out", str(tmp_path)]
    else:  # a file where the output directory goes
        argv = ["random-search", "--config", str(cfg), "--out", str(genotype)]
    assert main(argv) == 2
    what = "metrics file" if command == "evaluate" else "output directory"
    assert f"cannot write {what} " in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [("search", "steps = 0"),
                                           ("random-search", "eval_steps = 0")],
                         ids=["search-steps", "random-search-eval-steps"])
def test_zero_budget_with_anneal_runs_zero_steps(tmp_path, command, line):
    cfg = tmp_path / "zero.cfg"
    samples = "n_samples = 2\n" if command == "random-search" else ""
    cfg.write_text(small_cfg_with(line) + "anneal = true\n" + samples)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "genotype.json").exists()
    if command == "search":
        assert read_trajectory(out / "trajectory.csv") == []


@pytest.mark.parametrize("command", ["random-search"])
def test_random_zero_samples_exits_2_with_one_line(tmp_path, capsys, command):
    cfg = tmp_path / "rand.cfg"
    cfg.write_text(SMALL_CFG + "n_samples = 0\n")
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "need at least one sample" in err
    assert err.count("\n") == 1, err
    assert not out.exists()


# --- grad-check command --------------------------------------------------------------


def test_grad_check_small_run_passes(capsys):
    code = main(["grad-check", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "grad-check: PASS" in out
    assert "primitive" in out and "fidelity" in out


@pytest.mark.parametrize("flag, value", [("--seed", "-1")], ids=["negative-seed"])
def test_grad_check_bad_flag_exits_2_with_one_line(capsys, flag, value):
    assert main(["grad-check", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grad-check needs --seed >= 0" in captured.err
    assert captured.err.count("\n") == 1, captured.err


# --- console entry point ----------------------------------------------------------


def test_module_entry_point_runs():
    # the child does not see pytest's ``pythonpath``, so it is given the checkout's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cellsearch", "count", "--intermediates", "1", "--ops", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "discrete_exact: 4" in proc.stdout  # C(2,2) * 2^2


# --- benchmark tracer -------------------------------------------------------------


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/layertrace.py wraps package functions by name and fails on a missing one
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import layertrace; layertrace.Tracer().install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_worker_finds_every_workload_name():
    # perfbench/worker.py looks up each workload's body on cli, and its groups
    # and marks by name, on every run, traced or not
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import layertrace, worker; from cellsearch import cli\n"
            "for w in worker.WORKLOADS.values():\n"
            "    getattr(cli, w['body'])\n"
            "    for layer, path in w['groups'] + w['marks']:\n"
            "        layertrace.resolve(layer, path)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
