import re

import numpy as np
import pytest

from cellsearch import tensor
from cellsearch.cell import (
    REDUCTIONS,
    CellError,
    CellSpec,
    Genotype,
    alpha_entropy,
    block_name,
    cell_forward,
    derive_genotype,
    discrete_forward,
    edge_key,
    format_alpha,
    init_alpha,
    mixed_edge_forward,
    parse_alpha,
    sample_genotype,
    softmax_weights,
    uniform_entropy,
)
from cellsearch.network import CellClassifier
from cellsearch.ops import (
    NON_ZERO_OPS,
    OP_ORDER,
    PARAMETERIZED_OPS,
    apply_op,
    init_linear,
)
from cellsearch.tensor import Tape, Value, backward, finite_difference, relative_error


def rows(*vals):
    return Value(np.asarray(vals, dtype=np.float64).reshape(1, -1))


def edge_matrix(block, i, k):
    """Edge i's matrix for the k-th activation term, sliced out of a node block."""
    d = block.shape[-2]
    return block[..., i, :, k * d:(k + 1) * d]


def node_blocks(spec, edge_mats):
    """Per intermediate node j, the block whose row i holds the matrices of edge
    (i, j), keyed by ``(i, j, kind)``, side by side in PARAMETERIZED_OPS order."""
    return {
        block_name(j): np.stack([
            np.concatenate([edge_mats[i, j, kind] for kind in PARAMETERIZED_OPS],
                           axis=-1)
            for i in range(j)
        ])
        for j in spec.intermediate_ids
    }


def draw_edge_matrices(spec, rng):
    """One matrix per (edge, parameterized kind), drawn in that order."""
    return {
        (i, j, kind): init_linear(rng, spec.hidden, spec.hidden)
        for i, j in spec.edges()
        for kind in PARAMETERIZED_OPS
    }


def make_params(spec, seed=0):
    blocks = node_blocks(spec, draw_edge_matrices(spec, np.random.default_rng(seed)))
    return {name: Value(block) for name, block in blocks.items()}


def zero_block(edges, d):
    return Value(np.zeros((edges, d, len(PARAMETERIZED_OPS) * d)))


OFF = -1e3  # a logit whose softmax weight is exactly 0.0 beside logits near 0


# --- mixed edge -------------------------------------------------------------


def test_mixed_edge_uniform_zero_identity_halves_input():
    x = rows(2.0, -4.0)
    out = tensor.mixed_edge(Value([[0.0, 0.0, OFF, OFF, OFF]]), [x], zero_block(1, 2))
    np.testing.assert_allclose(out.data, x.data / 2.0, rtol=0, atol=1e-15)


def test_mixed_edge_exact_softmax_arithmetic():
    x = rows(3.0, 9.0)
    out = tensor.mixed_edge(Value([[0.0, np.log(2.0), OFF, OFF, OFF]]), [x], zero_block(1, 2))
    np.testing.assert_allclose(out.data, (2.0 / 3.0) * x.data, rtol=1e-15)


def test_mixed_edge_one_hot_saturation():
    x = rows(1.0, -2.0, 0.5)
    spec_alpha = np.full(len(OP_ORDER), -40.0)
    spec_alpha[OP_ORDER.index("identity")] = 40.0
    block = Value(np.zeros((1, 3, 3 * len(PARAMETERIZED_OPS))))
    out = mixed_edge_forward(Value(spec_alpha[None]), [x], block)
    np.testing.assert_allclose(out.data, x.data, rtol=0, atol=1e-12)


def test_mixed_edge_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = softmax_weights(rng.normal(scale=5.0, size=len(OP_ORDER)))
        assert abs(w.sum() - 1.0) < 1e-12


def test_mixed_edge_rejects_wrong_logit_length():
    block = Value(np.zeros((1, 1, len(PARAMETERIZED_OPS))))
    with pytest.raises(tensor.ShapeError, match="mixed-edge"):
        mixed_edge_forward(Value([[0.0, 0.0]]), [rows(1.0)], block)


@pytest.mark.parametrize("logit_rows, state_count, block_shape", [
    (1, 2, (2, 1, 3)),
    (2, 2, (1, 1, 3)),
    (2, 2, (2, 1, 2)),
    (0, 0, (0, 1, 3)),
], ids=["logits-fewer-than-states", "block-rows-fewer-than-edges", "block-too-narrow",
        "no-edges"])
def test_mixed_edge_rejects_a_block_or_logit_count_unlike_its_edges(
        logit_rows, state_count, block_shape):
    logits = Value(np.zeros((logit_rows, len(OP_ORDER))))
    states = [rows(1.0) for _ in range(state_count)]
    with pytest.raises(tensor.ShapeError, match="mixed-edge"):
        mixed_edge_forward(logits, states, Value(np.zeros(block_shape)))


def unfused_mixed_edge(alpha_vec, x, edge_op_params, op_set):
    """Reference only: the mixed edge as one record per softmax, select,
    multiply, operation and add, with the zero term included as x scaled by 0."""
    weights = tensor.softmax(alpha_vec, axis=0)
    out = None
    for idx, kind in enumerate(op_set):
        op_out = (tensor.scale(x, 0.0) if kind == "zero"
                  else apply_op(kind, edge_op_params.get(kind), x))
        term = tensor.multiply(tensor.select(weights, idx), op_out)
        out = term if out is None else tensor.add(out, term)
    return out


def unfused_node(alpha_vecs, states, edge_params, op_set):
    """Reference only: the per-edge reference, summed over the edges in order."""
    out = None
    for alpha_vec, x, params in zip(alpha_vecs, states, edge_params):
        term = unfused_mixed_edge(alpha_vec, x, params, op_set)
        out = term if out is None else tensor.add(out, term)
    return out


FUSION_RTOL = 1e-12  # float64: the two differ only in summation order


def node_output_and_grads(fused, logits, xs, block, coeffs, op_set):
    """Output and every input gradient of one node: per edge its logits and
    state, then per edge and activation term its matrix.

    ``logits`` is ([slices,] edges, terms), ``xs`` ([slices,] edges, rows, d)
    and ``block`` ([slices,] edges, d, n * d); each slice's loss is summed over
    its own rows. The node record reads the logit and weight blocks; the
    per-edge reference (no slice axis) reads one logit row per edge and the
    matrices sliced out of the weight block.
    """
    edges = xs.shape[-3]
    kinds = [kind for kind in op_set if kind in PARAMETERIZED_OPS]
    with Tape():
        states = [Value.param(xs[..., e, :, :]) for e in range(edges)]
        if fused:
            alpha, mats = [Value.param(logits)], [Value.param(block)]
            out = mixed_edge_forward(alpha[0], states, mats[0])
        else:
            alpha = [Value.param(logits[..., e, :]) for e in range(edges)]
            per_edge = [{kind: Value.param(edge_matrix(block, e, k))
                         for k, kind in enumerate(kinds)} for e in range(edges)]
            mats = [m for params in per_edge for m in params.values()]
            out = unfused_node(alpha, states, per_edge, op_set)
        loss = tensor.sum_all(tensor.multiply(out, Value(coeffs)), axis=(-2, -1))
    inputs = [*alpha, *states, *mats]
    backward(loss)
    grads = [p.grad for p in inputs]
    if fused:
        grads[-1:] = [edge_matrix(grads[-1], e, k) for e in range(edges) for k in range(len(kinds))]
        grads[:1] = [grads[0][..., e, :] for e in range(edges)]
    return [out.data, *grads]


# Desk nodes: 48-row batches at hidden 16, with 2, 3 and 4 incoming edges.
DESK_NODES = [(edges, 48, 16) for edges in (2, 3, 4)]


def random_node(rng, op_set, slices=(), shape=None):
    """A node's logits, states, block and loss coefficients. ``shape`` fixes
    (edges, rows, hidden); by default each is drawn small."""
    edges, n_rows, hidden = shape or (
        int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 6)))
    n_act = sum(kind in PARAMETERIZED_OPS for kind in op_set)
    logits = rng.normal(scale=2.0, size=(*slices, edges, len(op_set)))
    xs = rng.normal(size=(*slices, edges, n_rows, hidden))
    block = rng.normal(size=(*slices, edges, hidden, n_act * hidden))
    coeffs = rng.normal(size=(*slices, n_rows, hidden))
    return logits, xs, block, coeffs


@pytest.mark.parametrize("op_set", [OP_ORDER])
@pytest.mark.parametrize("saturate", [False, True])
def test_fused_mixed_edge_matches_unfused_reference(op_set, saturate):
    """The node record against the per-edge reference summed over its edges,
    for one to four edges, at small shapes and at the desk's."""
    rng = np.random.default_rng(7)
    for shape in [None] * 10 + DESK_NODES:
        logits, xs, block, coeffs = random_node(rng, op_set, shape=shape)
        if saturate:
            logits = np.stack([saturated(op_set, op_set[int(rng.integers(len(op_set)))],
                                         -40.0, 40.0) for _ in logits])
        fused = node_output_and_grads(True, logits, xs, block, coeffs, op_set)
        ref = node_output_and_grads(False, logits, xs, block, coeffs, op_set)
        assert len(fused) == len(ref)
        for got, want in zip(fused, ref):
            assert relative_error(got, want) <= FUSION_RTOL


@pytest.mark.parametrize("op_set", [OP_ORDER])
def test_stacked_mixed_edge_slices_bit_identical(op_set):
    rng = np.random.default_rng(7)
    for shape in [None] * 10 + DESK_NODES:
        slices = 2 if shape else int(rng.integers(1, 5))
        logits, xs, block, coeffs = random_node(rng, op_set, (slices,), shape)
        stacked = node_output_and_grads(True, logits, xs, block, coeffs, op_set)
        for s in range(slices):
            alone = node_output_and_grads(True, logits[s], xs[s], block[s], coeffs[s], op_set)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[s], want)


def test_mixed_edge_rejects_unstacked_logits_on_stacked_input():
    block = Value(np.zeros((2, 1, 1, len(PARAMETERIZED_OPS))))
    with pytest.raises(tensor.ShapeError, match="mixed-edge"):
        mixed_edge_forward(Value(np.zeros((1, len(OP_ORDER)))), [Value(np.ones((2, 3, 1)))], block)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_mixed_edge_non_finite_input_gives_non_finite_output(bad):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3))
    x[1, 2] = bad
    block = Value(rng.normal(size=(1, 3, 3 * len(PARAMETERIZED_OPS))))
    out = mixed_edge_forward(Value(np.zeros((1, len(OP_ORDER)))), [Value(x)], block)
    assert not np.all(np.isfinite(out.data))


# --- cell forward -----------------------------------------------------------


def one_node_spec(hidden=2, k=1, reduction="mean"):
    return CellSpec(nodes=4, input_arity=2, hidden=hidden, k=k, reduction=reduction)


def saturated(op_set, kind, lo=-45.0, hi=45.0):
    vec = np.full(len(op_set), lo)
    vec[op_set.index(kind)] = hi
    return vec


def test_cell_forward_identity_edges_sum_inputs():
    a, b = rows(1.0, 2.0), rows(10.0, -3.0)
    alpha = {block_name(2): Value(np.stack([saturated(OP_ORDER, "identity")] * 2))}
    for reduction in REDUCTIONS:  # one intermediate: concat is the node, mean its average
        spec = one_node_spec(reduction=reduction)
        out = cell_forward(spec, alpha, make_params(spec), [a, b])
        np.testing.assert_allclose(out.data, a.data + b.data, atol=1e-12)


def test_cell_forward_zero_edges_give_zero_nodes():
    spec = CellSpec(nodes=5, input_arity=2, hidden=2, k=1, reduction="concat")
    alpha = {
        block_name(j): Value(np.stack([saturated(OP_ORDER, "zero")] * j))
        for j in spec.intermediate_ids
    }
    out = cell_forward(spec, alpha, make_params(spec), [rows(1.0, 2.0), rows(3.0, 4.0)])
    assert out.shape == (1, 2 * spec.n_intermediate)
    for node in np.split(out.data, spec.n_intermediate, axis=1):  # concat: side by side
        np.testing.assert_allclose(node, np.zeros((1, 2)), atol=1e-12)


def test_cell_forward_uniform_zero_identity_averages():
    spec = one_node_spec()
    a, b = rows(4.0, 0.0), rows(0.0, 2.0)
    zero_identity = np.array([0.0, 0.0, -1e3, -1e3, -1e3])  # the others get weight 0.0
    alpha = {block_name(2): Value(np.stack([zero_identity] * 2))}
    out = cell_forward(spec, alpha, make_params(spec), [a, b])
    np.testing.assert_allclose(out.data, (a.data + b.data) / 2.0, atol=1e-15)


def test_cell_forward_input_validation():
    spec = one_node_spec()
    with pytest.raises(CellError, match="expected 2 cell inputs"):
        cell_forward(spec, {}, {}, [rows(1.0, 2.0)])
    with pytest.raises(tensor.ShapeError, match="cell input"):
        cell_forward(spec, {}, {}, [rows(1.0), rows(1.0)])


def test_cell_forward_concat_reduction_width():
    spec = CellSpec(nodes=5, input_arity=2, hidden=3, k=2, reduction="concat")
    alpha = {k: Value(v) for k, v in init_alpha(spec).items()}
    params = make_params(spec, seed=1)
    x = Value(np.random.default_rng(2).normal(size=(4, 3)))
    out = cell_forward(spec, alpha, params, [x, x])
    assert out.shape == (4, 6)
    assert spec.output_width() == 6


def test_cell_alpha_gradients_match_finite_differences():
    spec = CellSpec(nodes=5, input_arity=2, hidden=3, k=2)
    rng = np.random.default_rng(9)
    raw_alpha = {block_name(j): rng.normal(size=(j, len(OP_ORDER))) for j in spec.intermediate_ids}
    param_arrays = node_blocks(spec, draw_edge_matrices(spec, rng))
    x0 = rng.normal(size=(2, 3))
    x1 = rng.normal(size=(2, 3))
    coeffs = rng.normal(size=(2, 3))
    keys = sorted(raw_alpha)

    def loss_from(arrays):
        alpha = {k: Value(a) for k, a in zip(keys, arrays)}
        params = {name: Value(w) for name, w in param_arrays.items()}
        out = cell_forward(spec, alpha, params, [Value(x0), Value(x1)])
        return tensor.sum_all(tensor.multiply(out, Value(coeffs)))

    arrays = [raw_alpha[k] for k in keys]
    with Tape():
        alpha_params = [Value.param(a) for a in arrays]
        alpha = {k: v for k, v in zip(keys, alpha_params)}
        params = {name: Value(w) for name, w in param_arrays.items()}
        out = cell_forward(spec, alpha, params, [Value(x0), Value(x1)])
        loss = tensor.sum_all(tensor.multiply(out, Value(coeffs)))
    backward(loss)

    fd = finite_difference(lambda probes: [loss_from(point).item() for point in zip(*probes)],
                           arrays, step=1e-5)
    for p, g in zip(alpha_params, fd):
        assert relative_error(p.grad, g) < 1e-4


# --- derivation -------------------------------------------------------------


def pair_oracle(spec, alpha, op_set):
    """Independent rule: greedily take the best (edge, non-zero op) pairs."""
    nodes = []
    for j in spec.intermediate_ids:
        pairs = []
        for i in range(j):
            w = softmax_weights(np.asarray(alpha[block_name(j)][i], dtype=np.float64))
            for idx, kind in enumerate(op_set):
                if kind != "zero":
                    pairs.append((-w[idx], i, idx, kind))
        pairs.sort()
        chosen, used = [], set()
        for _, i, _, kind in pairs:
            if i not in used:
                used.add(i)
                chosen.append((i, kind))
            if len(chosen) == spec.k:
                break
        nodes.append(tuple(sorted(chosen)))
    return nodes


def test_derive_prefers_strongest_nonzero_even_if_zero_dominates():
    spec = one_node_spec()
    tiny = 1e-12
    # linear_sigmoid is left out: its logit of -1e3 gives it weight 0.0
    alpha = {block_name(2): np.stack([
        np.append(np.log([0.6, 0.4, tiny, tiny]), -1e3),
        np.append(np.log([0.2, tiny, 0.5, 0.3]), -1e3),
    ])}
    geno = derive_genotype(spec, alpha)
    assert geno.nodes == (((1, "linear_tanh"),),)
    assert pair_oracle(spec, alpha, OP_ORDER) == [((1, "linear_tanh"),)]


def test_derive_matches_pair_oracle_on_random_logits():
    rng = np.random.default_rng(31)
    for nodes, k in [(4, 1), (5, 2), (6, 2)]:
        spec = CellSpec(nodes=nodes, input_arity=2, hidden=2, k=k)
        for _ in range(40):
            alpha = {
                block_name(j): rng.normal(scale=2.0, size=(j, len(OP_ORDER)))
                for j in spec.intermediate_ids
            }
            geno = derive_genotype(spec, alpha)
            expected = pair_oracle(spec, alpha, OP_ORDER)
            assert [tuple(sorted(p)) for p in geno.nodes] == expected


def test_derive_all_zero_logits_uses_tie_breaks():
    spec = CellSpec(nodes=6, input_arity=2, hidden=4, k=2)
    geno = derive_genotype(spec, init_alpha(spec))
    for pairs in geno.nodes:
        assert [p for p, _ in pairs] == [0, 1]
        assert all(kind == "identity" for _, kind in pairs)


def one_hot_encoding(spec, geno):
    """Logits that saturate retained ops and park dropped edges on zero."""
    alpha = {block_name(j): np.full((j, len(OP_ORDER)), -30.0) for j in spec.intermediate_ids}
    retained = {}
    for offset, pairs in enumerate(geno.nodes):
        for pred, kind in pairs:
            retained[pred, spec.input_arity + offset] = kind
    for i, j in spec.edges():
        alpha[block_name(j)][i, OP_ORDER.index(retained.get((i, j), "zero"))] = 30.0
    return alpha


def test_derive_one_hot_logits_reproduces_choices_and_is_idempotent():
    spec = CellSpec(nodes=6, input_arity=2, hidden=4, k=2)
    rng = np.random.default_rng(5)
    alpha, chosen = init_alpha(spec), {}
    for rank, (i, j) in enumerate(spec.edges()):
        kind = str(rng.choice(NON_ZERO_OPS))
        alpha[block_name(j)][i, OP_ORDER.index(kind)] = 8.0 + 0.1 * rank  # distinct, no ties
        chosen[i, j] = kind
    geno = derive_genotype(spec, alpha)
    for offset, pairs in enumerate(geno.nodes):
        j = spec.input_arity + offset
        for pred, kind in pairs:
            assert kind == chosen[pred, j]

    # round trip: encode the genotype as one-hot logits, derive again
    assert derive_genotype(spec, one_hot_encoding(spec, geno)) == geno


def test_derive_is_invariant_to_per_edge_logit_shifts():
    spec = CellSpec(nodes=6, input_arity=2, hidden=4, k=2)
    rng = np.random.default_rng(17)
    alpha = {block_name(j): rng.normal(size=(j, len(OP_ORDER))) for j in spec.intermediate_ids}
    shifted = {k: v + rng.normal(size=(len(v), 1)) * 10.0 for k, v in alpha.items()}  # per row
    assert derive_genotype(spec, alpha).nodes == derive_genotype(spec, shifted).nodes
    for k in alpha:
        for row, shifted_row in zip(alpha[k], shifted[k]):
            np.testing.assert_allclose(
                softmax_weights(row), softmax_weights(shifted_row), atol=1e-12
            )


def test_derived_genotypes_always_valid():
    rng = np.random.default_rng(23)
    for _ in range(30):
        nodes = int(rng.integers(4, 8))
        k = int(rng.integers(1, 3))
        spec = CellSpec(nodes=nodes, input_arity=2, hidden=2, k=k)
        alpha = {
            block_name(j): rng.normal(scale=3.0, size=(j, len(OP_ORDER)))
            for j in spec.intermediate_ids
        }
        derive_genotype(spec, alpha)


def snapshot(edges):
    """A logit snapshot with one all-zero row per named edge."""
    return "edge\t" + "\t".join(OP_ORDER) + "\n" + "".join(
        edge + "\t0.0" * len(OP_ORDER) + "\n" for edge in edges)


def test_derive_missing_edge_rejected():
    spec = one_node_spec()
    with pytest.raises(CellError, match=re.escape("missing ['1->2'], unexpected []")):
        parse_alpha(snapshot(["0->2"]), spec)


def test_derive_unexpected_edge_rejected():
    spec = one_node_spec()
    with pytest.raises(CellError, match=re.escape("do not match the cell: missing [], "
                                                  "unexpected ['2->3']")):
        parse_alpha(snapshot(["0->2", "1->2", "2->3"]), spec)


@pytest.mark.parametrize("alpha", [
    {},
    {block_name(2): np.zeros((1, len(OP_ORDER)))},
    {block_name(2): np.zeros((2, len(OP_ORDER) - 1))},
    {block_name(2): np.zeros((2, len(OP_ORDER))), block_name(3): np.zeros((3, len(OP_ORDER)))},
], ids=["no-block", "too-few-rows", "too-few-columns", "extra-block"])
def test_derive_rejects_logit_blocks_unlike_the_cell(alpha):
    with pytest.raises(CellError, match=re.escape("do not match the cell's {'node_2': (2, 5)}")):
        derive_genotype(one_node_spec(), alpha)


# --- discrete forward -------------------------------------------------------


def test_discrete_forward_identity_edges_sum_inputs():
    spec = one_node_spec(k=2)
    geno = Genotype(spec, (((0, "identity"), (1, "identity")),))
    a, b = rows(1.0, 2.0), rows(0.5, -0.5)
    out = discrete_forward(geno, {}, [a, b])
    np.testing.assert_allclose(out.data, a.data + b.data)


def test_discrete_forward_matches_saturated_mixed_forward():
    spec = CellSpec(nodes=6, input_arity=2, hidden=4, k=2)
    rng = np.random.default_rng(77)
    alpha_raw = {block_name(j): np.full((j, len(OP_ORDER)), -45.0) for j in spec.intermediate_ids}
    for i, j in spec.edges():
        alpha_raw[block_name(j)][i, int(rng.integers(1, len(OP_ORDER)))] = 45.0
    params = make_params(spec, seed=4)
    inputs = [Value(rng.normal(size=(3, 4))) for _ in range(2)]

    # the first node has exactly k = 2 incoming edges, so its discrete pass
    # keeps every edge that the saturated mixed pass runs
    first_node_spec = one_node_spec(hidden=4, k=2)
    sub_alpha = {block_name(2): alpha_raw[block_name(2)]}
    sub_params = {block_name(2): params[block_name(2)]}
    mixed_out = cell_forward(
        first_node_spec, {k: Value(v) for k, v in sub_alpha.items()}, sub_params, inputs
    )
    sub_geno = derive_genotype(first_node_spec, sub_alpha)
    edge_params = {
        edge_key(i, 2): Value(edge_matrix(params[block_name(2)].data, i,
                                          PARAMETERIZED_OPS.index(kind)))
        for i, kind in sub_geno.nodes[0] if kind in PARAMETERIZED_OPS
    }
    disc_out = discrete_forward(sub_geno, edge_params, inputs)
    np.testing.assert_allclose(mixed_out.data, disc_out.data, atol=1e-9)


def test_discrete_forward_order_within_node_is_irrelevant():
    spec = one_node_spec(k=2)
    g1 = Genotype(spec, (((0, "identity"), (1, "identity")),))
    g2 = Genotype(spec, (((1, "identity"), (0, "identity")),))
    a, b = rows(2.0, 3.0), rows(-1.0, 4.0)
    out1 = discrete_forward(g1, {}, [a, b])
    out2 = discrete_forward(g2, {}, [a, b])
    np.testing.assert_array_equal(out1.data, out2.data)


def test_discrete_forward_input_validation():
    geno = Genotype(one_node_spec(k=2), (((0, "identity"), (1, "identity")),))
    with pytest.raises(CellError, match="expected 2 cell inputs"):
        discrete_forward(geno, {}, [rows(1.0, 2.0)])
    with pytest.raises(tensor.ShapeError, match="cell input"):
        discrete_forward(geno, {}, [rows(1.0), rows(1.0)])


@pytest.mark.parametrize("nodes, message", [
    ((), "genotype has 0 nodes, spec wants 1"),
    ((((0, "identity"),),), "node 2: expected 2 edges, got 1"),
    ((((1, "identity"), (1, "linear_tanh")),), "node 2: predecessors must be distinct: [1, 1]"),
    ((((0, "identity"), (2, "identity")),), "node 2: predecessor 2 out of range"),
    ((((0, "zero"), (1, "identity")),), "node 2: zero operation is not allowed"),
    ((((0, "conv3x3"), (1, "identity")),), "node 2: unknown operation 'conv3x3'"),
    ((((0, "identity"), (1.0, "identity")),), "node 2: predecessor 1.0 is not an integer"),
    ((((0, "identity"), (True, "identity")),), "node 2: predecessor True is not an integer"),
], ids=["node-count", "edge-count", "distinct-preds", "pred-range", "zero-op", "unknown-op",
        "float-pred", "bool-pred"])
def test_genotype_construction_enforces_each_rule(nodes, message):
    with pytest.raises(CellError, match=re.escape(message)):
        Genotype(one_node_spec(k=2), nodes)


# --- init, entropy, sampling ------------------------------------------------


@pytest.mark.parametrize("reduction", REDUCTIONS)
def test_relaxed_init_blocks_hold_the_per_edge_draw(reduction):
    spec = CellSpec(nodes=6, input_arity=2, hidden=4, k=2, reduction=reduction)
    weights = CellClassifier(spec, in_dim=3, n_classes=2).init_weights(5)
    rng = np.random.default_rng(5)
    stems = {f"stem_{i}": init_linear(rng, 3, spec.hidden) for i in range(spec.input_arity)}
    blocks = node_blocks(spec, draw_edge_matrices(spec, rng))
    expected = {**stems, **blocks, "head": init_linear(rng, spec.output_width(), 2)}
    assert list(weights) == list(expected)
    for name, array in expected.items():
        assert np.array_equal(weights[name], array), name


def test_init_alpha_uniform_attention():
    spec = CellSpec(nodes=7, input_arity=2, hidden=4, k=2)
    alpha = init_alpha(spec)
    assert len(alpha) == 4  # one block per intermediate node
    assert sum(len(block) for block in alpha.values()) == 14  # 2 + 3 + 4 + 5 incoming edges
    for vec in np.concatenate(list(alpha.values())):
        np.testing.assert_allclose(softmax_weights(vec), np.full(5, 0.2), atol=1e-15)
    assert alpha_entropy(alpha) == pytest.approx(uniform_entropy(5), rel=1e-12)


def test_init_alpha_derives_canonical_genotype():
    spec = CellSpec(nodes=7, input_arity=2, hidden=4, k=2)
    geno = derive_genotype(spec, init_alpha(spec))
    assert geno.nodes == tuple(
        ((0, "identity"), (1, "identity")) for _ in range(spec.n_intermediate)
    )


def test_sampled_genotypes_valid_and_deterministic():
    spec = CellSpec(nodes=7, input_arity=2, hidden=4, k=2)
    a = [sample_genotype(spec, np.random.default_rng(s)) for s in range(20)]
    b = [sample_genotype(spec, np.random.default_rng(s)) for s in range(20)]
    for g1, g2 in zip(a, b):
        assert g1.nodes == g2.nodes
    assert len({g.nodes for g in a}) > 1


# --- serialization ----------------------------------------------------------


def test_genotype_json_round_trip():
    spec = CellSpec(nodes=6, input_arity=2, hidden=8, k=2, reduction="concat")
    geno = derive_genotype(spec, {
        block_name(j): np.tile(np.random.default_rng(8).normal(size=len(OP_ORDER)), (j, 1))
        for j in spec.intermediate_ids
    })
    again = Genotype.from_json(geno.to_json())
    assert again == geno
    assert again.to_json() == geno.to_json()


def test_genotype_from_json_rejects_garbage():
    with pytest.raises(CellError, match="malformed"):
        Genotype.from_json("{\"spec\": {}}")


def test_alpha_snapshot_round_trip_full_precision():
    spec = CellSpec(nodes=6, input_arity=2, hidden=4, k=2)
    rng = np.random.default_rng(12)
    alpha = {block_name(j): rng.normal(size=(j, len(OP_ORDER))) for j in spec.intermediate_ids}
    text = format_alpha(alpha)
    parsed = parse_alpha(text, spec)
    assert set(parsed) == set(alpha)
    for k in alpha:
        np.testing.assert_array_equal(parsed[k], alpha[k])
    assert format_alpha(parsed) == text


def test_alpha_snapshot_parse_errors():
    spec = one_node_spec()
    with pytest.raises(CellError, match="empty"):
        parse_alpha("", spec)
    with pytest.raises(CellError, match="header"):
        parse_alpha("nope\t1\t2\n", spec)
    with pytest.raises(CellError, match="columns"):
        parse_alpha("edge\tzero\tidentity\n0->2\t1.0\n", spec)
    swapped = ["edge", OP_ORDER[1], OP_ORDER[0], *OP_ORDER[2:]]
    with pytest.raises(CellError, match="operation columns .* do not match the registry"):
        parse_alpha("\t".join(swapped) + "\n0->2" + "\t0.0" * len(OP_ORDER) + "\n", spec)


def test_alpha_snapshot_rows_keep_edge_order_and_parse_back_to_the_blocks():
    spec = CellSpec(nodes=6, input_arity=2, hidden=4, k=2)  # 3 intermediate nodes
    rng = np.random.default_rng(4)
    alpha = {block_name(j): rng.normal(size=(j, len(OP_ORDER))) for j in spec.intermediate_ids}
    text = format_alpha(alpha)
    assert [line.split("\t")[0] for line in text.splitlines()[1:]] == [
        "0->2", "0->3", "0->4", "1->2", "1->3", "1->4", "2->3", "2->4", "3->4"]
    parsed = parse_alpha(text, spec)
    assert list(parsed) == list(alpha)
    for name, block in alpha.items():
        assert parsed[name].shape == block.shape
        assert parsed[name].tobytes() == block.tobytes()  # bit for bit


# --- spec validation ----------------------------------------------------------


def test_cell_spec_invariants():
    with pytest.raises(CellError):
        CellSpec(nodes=3, input_arity=2)  # no intermediate
    with pytest.raises(CellError):
        CellSpec(nodes=6, input_arity=2, k=3)  # k > arity
    with pytest.raises(CellError):
        CellSpec(nodes=6, input_arity=2, k=0)
    with pytest.raises(CellError):
        CellSpec(nodes=6, input_arity=2, reduction="max")
    spec = CellSpec(nodes=6, input_arity=2)
    assert spec.n_intermediate == 3
    assert len(spec.edges()) == 2 + 3 + 4
