import csv
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cellsearch.cell import CellSpec, block_name, sample_genotype
from cellsearch.cli import build_problem, load_config
from cellsearch.ops import OP_ORDER, PARAMETERIZED_OPS
from cellsearch.tasks import (
    DataConfig,
    DataError,
    Dataset,
    SyntheticCellTask,
    ToyBilevelTask,
    carve_test_split,
    default_task,
    holdout_split,
    load_delimited,
    make_synthetic_classification,
)
from cellsearch.tensor import Tape, Value, backward


def save_delimited(dataset: Dataset, path) -> None:
    names = [f"x{i}" for i in range(dataset.n_features)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["label", "split"])
        for row, label, tag in zip(dataset.features, dataset.labels, dataset.tags):
            writer.writerow([repr(float(v)) for v in row] + [int(label), tag])


def toy_losses(alpha: float, w: float) -> tuple[float, float]:
    """Reference only: closed-form (training loss, validation loss) of the
    analytic problem."""
    train = w * w - 2.0 * alpha * w + alpha * alpha
    val = alpha * w - 2.0 * alpha + 1.0
    return train, val


def test_toy_losses_at_start_point():
    train, val = toy_losses(2.0, -2.0)
    assert train == pytest.approx(16.0)
    assert val == pytest.approx(-7.0)


def test_toy_losses_at_analytic_solution():
    train, val = toy_losses(1.0, 1.0)
    assert train == pytest.approx(0.0)
    assert val == pytest.approx(0.0)


@pytest.mark.parametrize("alpha", [-3.0, 0.0, 0.7, 5.0])
def test_toy_train_loss_zero_iff_weights_match_alpha(alpha):
    assert toy_losses(alpha, alpha)[0] == pytest.approx(0.0)
    assert toy_losses(alpha, alpha + 0.5)[0] > 0.0


def test_toy_autodiff_gradients_match_closed_forms():
    task = ToyBilevelTask()
    rng = np.random.default_rng(2)
    for _ in range(10):
        a_val, w_val = rng.normal(scale=2.0, size=2)
        weights = {"w": Value.param(np.asarray(w_val))}
        alpha = {"alpha": Value.param(np.asarray(a_val))}
        with Tape():
            train = task.loss("train", weights, alpha, None)
        backward(train)
        assert weights["w"].grad == pytest.approx(2 * w_val - 2 * a_val, abs=1e-12)
        assert alpha["alpha"].grad == pytest.approx(2 * a_val - 2 * w_val, abs=1e-12)

        weights = {"w": Value.param(np.asarray(w_val))}
        alpha = {"alpha": Value.param(np.asarray(a_val))}
        with Tape():
            val = task.loss("val", weights, alpha, None)
        backward(val)
        assert weights["w"].grad == pytest.approx(a_val, abs=1e-12)
        assert alpha["alpha"].grad == pytest.approx(w_val - 2.0, abs=1e-12)


TOY_PASS_KINDS = {
    "train": ["elementwise-multiply", "elementwise-multiply", "scale-by-constant", "subtract",
              "elementwise-multiply", "add"],
    "val": ["elementwise-multiply", "scale-by-constant", "subtract", "add"],
}


@pytest.mark.parametrize("split", TOY_PASS_KINDS)
def test_toy_pass_records_these_kinds_in_order(split):
    weights = {"w": Value.param(np.asarray(0.3))}
    alpha = {"alpha": Value.param(np.asarray(-1.1))}
    with Tape() as tape:
        ToyBilevelTask().loss(split, weights, alpha, None)
    assert [record[0] for record in tape.records] == TOY_PASS_KINDS[split]


def test_toy_start_point_values():
    task = ToyBilevelTask()
    assert task.init_alpha()["alpha"] == pytest.approx(2.0)
    assert task.init_weights()["w"] == pytest.approx(-2.0)


def test_synthetic_dataset_deterministic_per_seed():
    a = make_synthetic_classification(100, 5, 3, 0.5, seed=9)
    b = make_synthetic_classification(100, 5, 3, 0.5, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = make_synthetic_classification(100, 5, 3, 0.5, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_dataset_balanced_within_one():
    ds = make_synthetic_classification(101, 4, 3, 0.5, seed=0)
    counts = np.bincount(ds.labels)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 101


def test_synthetic_noise_free_data_linearly_separable():
    ds = make_synthetic_classification(60, 6, 3, 0.0, seed=4)
    # least-squares linear map onto one-hot targets as an independent oracle
    x = np.hstack([ds.features, np.ones((len(ds.features), 1))])
    targets = np.eye(3)[ds.labels]
    coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
    predictions = np.argmax(x @ coef, axis=1)
    assert np.mean(predictions == ds.labels) == 1.0


def test_synthetic_rejects_bad_sizes():
    with pytest.raises(DataError):
        make_synthetic_classification(1, 4, 2, 0.5, seed=0)
    with pytest.raises(DataError):
        make_synthetic_classification(10, 4, 1, 0.5, seed=0)
    with pytest.raises(DataError):
        make_synthetic_classification(10, 4, 2, 0.5, seed=0, clusters_per_class=0)


def test_synthetic_multi_cluster_classes_stay_balanced_and_separable_noise_free():
    ds = make_synthetic_classification(80, 8, 2, 0.0, seed=6, clusters_per_class=2)
    counts = np.bincount(ds.labels)
    assert counts.max() - counts.min() <= 1
    # 4 cluster means in 8 dims: a least-squares linear map still fits exactly
    x = np.hstack([ds.features, np.ones((len(ds.features), 1))])
    coef, *_ = np.linalg.lstsq(x, np.eye(2)[ds.labels], rcond=None)
    assert np.mean(np.argmax(x @ coef, axis=1) == ds.labels) == 1.0


def test_synthetic_multi_cluster_not_linearly_solvable_with_noise():
    ds = make_synthetic_classification(2000, 8, 2, 0.8, seed=0, clusters_per_class=2)
    x = np.hstack([ds.features, np.ones((len(ds.features), 1))])
    coef, *_ = np.linalg.lstsq(x, np.eye(2)[ds.labels], rcond=None)
    linear_acc = np.mean(np.argmax(x @ coef, axis=1) == ds.labels)
    assert linear_acc < 0.9  # nonlinear structure dominates the default task


def test_holdout_split_half():
    ds = make_synthetic_classification(100, 4, 2, 0.5, seed=1)
    split = holdout_split(ds, 0.5, seed=3)
    assert split.size("train") == 50
    assert split.size("val") == 50


def test_holdout_preserves_rows_and_is_deterministic():
    ds = make_synthetic_classification(80, 4, 2, 0.5, seed=1)
    s1 = holdout_split(ds, 0.25, seed=7)
    s2 = holdout_split(ds, 0.25, seed=7)
    np.testing.assert_array_equal(s1.tags, s2.tags)
    np.testing.assert_array_equal(s1.features, ds.features)
    assert s1.size("train") + s1.size("val") == 80


def test_holdout_leaves_test_rows_alone():
    ds = make_synthetic_classification(100, 4, 2, 0.5, seed=1)
    ds = carve_test_split(ds, 0.3, seed=2)
    split = holdout_split(ds, 0.5, seed=3)
    assert split.size("test") == 30
    assert split.size("train") == 35
    assert split.size("val") == 35


def test_holdout_rejects_degenerate_fractions():
    ds = make_synthetic_classification(10, 2, 2, 0.5, seed=0)
    with pytest.raises(DataError):
        holdout_split(ds, 0.0, seed=0)
    with pytest.raises(DataError):
        holdout_split(ds, 1.0, seed=0)
    tiny = Dataset(ds.features[:1], ds.labels[:1], np.array(["train"]))
    with pytest.raises(DataError, match="empty"):
        holdout_split(tiny, 0.4, seed=0)


def test_dataset_access_counters():
    ds = make_synthetic_classification(30, 3, 2, 0.5, seed=0)
    ds = carve_test_split(ds, 0.2, seed=0)
    ds.rows("train")
    ds.rows("train")
    ds.rows("test")
    assert ds.access_counts == {"train": 2, "test": 1}


def test_delimited_round_trip_full_precision(tmp_path):
    ds = make_synthetic_classification(40, 3, 2, 0.7, seed=5)
    ds = carve_test_split(ds, 0.25, seed=5)
    ds = holdout_split(ds, 0.5, seed=5)
    path = tmp_path / "data.csv"
    save_delimited(ds, path)
    loaded = load_delimited(path)
    np.testing.assert_array_equal(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    np.testing.assert_array_equal(loaded.tags, ds.tags)


def test_delimited_skips_blank_lines_and_keeps_line_numbers(tmp_path):
    ds = make_synthetic_classification(40, 3, 2, 0.7, seed=5)
    ds = holdout_split(carve_test_split(ds, 0.25, seed=5), 0.5, seed=5)
    plain, trailing = tmp_path / "plain.csv", tmp_path / "trailing.csv"
    save_delimited(ds, plain)
    trailing.write_text(plain.read_text() + "\n")
    want, got = load_delimited(plain), load_delimited(trailing)
    for name in ("features", "labels", "tags"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    gap = tmp_path / "gap.csv"
    gap.write_text("x0,label\n1.0,0\n\n2.0,5\n")
    with pytest.raises(DataError, match="line 4: label 5 out of range"):
        load_delimited(gap)


def test_delimited_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label\n1.0,2.0,0\n3.0,1\n")
    with pytest.raises(DataError, match="line 3"):
        load_delimited(path)
    path.write_text("x0,x1,label\n1.0,oops,0\n")
    with pytest.raises(DataError, match="line 2.*non-numeric"):
        load_delimited(path)


def test_delimited_missing_and_empty_files(tmp_path):
    with pytest.raises(DataError, match="no such dataset"):
        load_delimited(tmp_path / "absent.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty dataset"):
        load_delimited(empty)
    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("x0,label\n")
    with pytest.raises(DataError, match="no rows"):
        load_delimited(headers_only)


def test_cell_task_caches_splits_and_never_reads_test():
    cfg = DataConfig(n=200, dims=4, classes=2, noise=0.8, seed=3)
    ds = cfg.build()
    task = SyntheticCellTask(ds, CellSpec(nodes=5, input_arity=2, hidden=4, k=2))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = task.batch("train", 16, rng)
        assert x.shape == (16, 4) and y.shape == (16,)
        task.batch("val", 16, rng)
        task.batch("joint", 16, rng)
    assert ds.access_counts.get("test", 0) == 0
    assert ds.access_counts["train"] == 1  # cached at construction
    assert ds.access_counts["val"] == 1


def test_cell_task_full_batch_when_size_exceeds_pool():
    cfg = DataConfig(n=100, dims=3, classes=2, noise=0.5, seed=1)
    task = SyntheticCellTask(cfg.build(), CellSpec(nodes=4, input_arity=2, hidden=4, k=1))
    x, y = task.batch("train", 10_000, np.random.default_rng(0))
    assert len(x) == task.dataset.size("train")


def test_cell_task_batches_draw_rows_without_replacement():
    cfg = DataConfig(n=100, dims=3, classes=2, noise=0.5, seed=1)
    task = SyntheticCellTask(cfg.build(), CellSpec(nodes=4, input_arity=2, hidden=4, k=1))
    rng = np.random.default_rng(0)
    for split in ("train", "val", "joint"):
        pool = len(task.batch(split, 10_000, rng)[0])
        x, _ = task.batch(split, pool - 1, rng)
        assert len(np.unique(x, axis=0)) == pool - 1, split


def test_cell_task_pools_are_train_val_and_train_then_val():
    ds = DataConfig(n=120, dims=3, classes=2, noise=0.5, seed=4).build()
    task = SyntheticCellTask(ds, CellSpec(nodes=4, input_arity=2, hidden=4, k=1))
    rng = np.random.default_rng(0)
    pools = {split: task.batch(split, 10**6, rng) for split in ("train", "val", "joint")}
    assert ds.access_counts == {"train": 1, "val": 1}
    assert ds.access_counts.get("test", 0) == 0
    for split in ("train", "val"):  # as ``rows`` returns them, read without counting
        mask = ds.tags == split
        np.testing.assert_array_equal(pools[split][0], ds.features[mask])
        np.testing.assert_array_equal(pools[split][1], ds.labels[mask])
    for k in range(2):
        np.testing.assert_array_equal(pools["joint"][k],
                                      np.concatenate([pools["train"][k], pools["val"][k]]))


def test_data_config_loading_from_file(tmp_path):
    ds = make_synthetic_classification(60, 3, 2, 0.5, seed=2)
    path = tmp_path / "raw.csv"
    save_delimited(ds, path)
    built = DataConfig(path=str(path), seed=11).build()
    assert built.size("train") > 0 and built.size("val") > 0 and built.size("test") > 0


# --- records per taped pass ----------------------------------------------------

DESK_CFG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


def recorded(build) -> tuple[Counter, set[int]]:
    """The kinds a pass records, and the ids of the parameters it reads."""
    with Tape() as tape:
        build()
    return Counter(record[0] for record in tape.records), {id(v) for v in tape.params}


def test_relaxed_desk_pass_is_one_record_per_mixed_edge():
    task = build_problem(load_config(DESK_CFG))
    weights = {k: Value.param(v) for k, v in task.init_weights(0).items()}
    alpha = {k: Value.param(v) for k, v in task.init_alpha().items()}
    batch = task.batch("train", 48, np.random.default_rng(0))
    kinds, read = recorded(lambda: task.loss("train", weights, alpha, batch))
    # 3 intermediate nodes of 2, 3 and 4 edges; 2 reduction adds; 2 stems + head;
    # the mean; the loss
    assert kinds == {"mixed-edge": 3, "add": 2, "matrix-multiply": 3,
                     "scale-by-constant": 1, "softmax-cross-entropy": 1}
    assert sum(kinds.values()) == 10
    assert len(weights) == 6  # 2 stems, a block per node, the head
    # every matrix made is read: one left out would get a zero gradient silently
    assert read == {id(v) for v in [*weights.values(), *alpha.values()]}


def test_logit_blocks_share_the_weight_block_names_and_feed_one_record_per_node():
    task = default_task()
    alpha = task.init_alpha()
    weights = task.init_weights(0)
    nodes = list(task.spec.intermediate_ids)
    assert list(alpha) == [block_name(j) for j in nodes]
    assert set(weights) == {*alpha, "stem_0", "stem_1", "head"}
    for j in nodes:
        assert alpha[block_name(j)].shape == (j, len(OP_ORDER))
        assert weights[block_name(j)].shape[0] == j  # row i is edge (i, j) in both
    alpha_v = {k: Value.param(v) for k, v in alpha.items()}
    weights_v = {k: Value.param(v) for k, v in weights.items()}
    batch = task.batch("train", 48, np.random.default_rng(0))
    with Tape() as tape:
        task.loss("train", weights_v, alpha_v, batch)
    assert len(tape.records) == 10
    mixed = [inputs for kind, inputs, *_ in tape.records if kind == "mixed-edge"]
    assert [len(inputs) for inputs in mixed] == [j + 2 for j in nodes]
    for j, inputs in zip(nodes, mixed):
        # the node's logit block, its j predecessor states, its weight block
        assert inputs[0] is alpha_v[block_name(j)] and inputs[-1] is weights_v[block_name(j)]


def test_discrete_desk_pass_records_two_per_linear_edge():
    task = build_problem(load_config(DESK_CFG))
    rng = np.random.default_rng(4)
    batch = task.batch("train", 48, rng)
    for _ in range(8):
        genotype = sample_genotype(task.spec, rng)
        linear = sum(kind in PARAMETERIZED_OPS for pairs in genotype.nodes for _, kind in pairs)
        weights = {k: Value.param(v)
                   for k, v in task.model.init_genotype_weights(genotype, 0).items()}
        kinds, read = recorded(lambda: task.discrete_loss(weights, genotype, batch))
        assert kinds["matrix-multiply"] == 3 + linear
        assert sum(kinds.values()) == 10 + 2 * linear
        assert read == {id(v) for v in weights.values()}
