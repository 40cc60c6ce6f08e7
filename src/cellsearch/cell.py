"""The DAG cell: relaxed mixed-operation forward, discrete forward, derivation.

A cell has ``input_arity`` input nodes, a run of intermediate nodes, and one
output node formed by reducing the intermediates (mean by default, concat
optionally). Every ordered pair (i, j) with j intermediate and i any earlier
node is an edge; its logits over the operation registry are row i of node j's
``(j, len(OP_ORDER))`` logit block. An intermediate node is the sum over its
incoming edges of the softmax-weighted mixture of all candidate operations.

Discretization keeps, per intermediate node, the k incoming edges whose
strongest non-zero operation has the largest softmax weight (the softmax is
taken over the full registry, zero included), then places that strongest
non-zero operation on each kept edge. Ties break toward the lower predecessor
index, then the lower registry index, so derivation is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from . import tensor
from .ops import NON_ZERO_OPS, OP_ORDER, apply_op
from .tensor import ShapeError, Value


class CellError(ValueError):
    """Invalid cell specification, logits, or genotype."""


REDUCTIONS = ("mean", "concat")


@dataclass(frozen=True)
class CellSpec:
    """Static shape of a cell.

    ``nodes`` counts everything: inputs, intermediates, and the single output
    node. ``k`` is how many incoming edges each intermediate keeps after
    discretization; it may not exceed ``input_arity`` or the first
    intermediate node would not have enough distinct predecessors.
    """

    nodes: int = 6
    input_arity: int = 2
    hidden: int = 16
    k: int = 2
    reduction: str = "mean"

    def __post_init__(self):
        if any(type(n) is not int for n in (self.nodes, self.input_arity, self.hidden, self.k)):
            raise CellError(f"cell sizes must be integers: {self}")
        if self.input_arity < 1:
            raise CellError("input arity must be at least 1")
        if self.nodes < self.input_arity + 2:
            raise CellError(
                f"need at least one intermediate and one output node: "
                f"nodes={self.nodes}, input_arity={self.input_arity}"
            )
        if not 1 <= self.k <= self.input_arity:
            raise CellError(f"k must be in [1, input_arity], got k={self.k}")
        if self.hidden < 1:
            raise CellError("hidden size must be positive")
        if self.reduction not in REDUCTIONS:
            raise CellError(f"unknown reduction {self.reduction!r}")

    @property
    def n_intermediate(self) -> int:
        return self.nodes - self.input_arity - 1

    @property
    def intermediate_ids(self) -> range:
        return range(self.input_arity, self.input_arity + self.n_intermediate)

    def edges(self) -> list[tuple[int, int]]:
        """All (predecessor, node) pairs, in canonical order."""
        return [(i, j) for j in self.intermediate_ids for i in range(j)]

    def output_width(self) -> int:
        return self.hidden if self.reduction == "mean" else self.hidden * self.n_intermediate


def edge_key(i: int, j: int) -> str:
    """Edge (i, j)'s name: its logit snapshot row, and its kept matrix in a discrete network."""
    return f"{i}->{j}"


def block_name(j: int) -> str:
    """The relaxed network's name for node j's ``(j, len(OP_ORDER))`` logit block and
    its ``(j, hidden, 3 * hidden)`` weight block. Row i of each is edge (i, j); a weight
    row holds the edge's matrices side by side, in ``PARAMETERIZED_OPS`` order."""
    return f"node_{j}"


def init_alpha(spec: CellSpec) -> dict[str, np.ndarray]:
    """Zero logits on every edge: uniform attention over all operations."""
    return {block_name(j): np.zeros((j, len(OP_ORDER))) for j in spec.intermediate_ids}


def softmax_weights(logits: np.ndarray) -> np.ndarray:
    """Operation weights over the last axis: each row of a logit block, or one row."""
    return tensor._softmax_forward(logits, -1)


def alpha_entropy(alpha: Mapping[str, np.ndarray]) -> float:
    """Mean per-edge entropy (nats) of the softmax operation weights, one per block row."""
    blocks = [softmax_weights(np.asarray(block, dtype=np.float64)) for block in alpha.values()]
    entropies = [float(e) for w in blocks
                 for e in -(w * np.log(np.maximum(w, 1e-300))).sum(axis=-1)]
    return sum(entropies) / max(len(entropies), 1)


def uniform_entropy(n_ops: int) -> float:
    return float(np.log(n_ops))


# ---------------------------------------------------------------------------
# Continuous (relaxed) forward
# ---------------------------------------------------------------------------


def mixed_edge_forward(logits: Value, states: Sequence[Value], block: Value) -> Value:
    """One intermediate node, one ``mixed-edge`` record: the sum over its
    incoming edges of each one's softmax-weighted mixture of every candidate
    operation. Edge k reads row k of the node's logit block, ``states[k]`` and
    row k of its weight block. The softmax runs over the whole registry, so the
    zero logit, whose term vanishes, still shapes the other weights."""
    return tensor.mixed_edge(logits, states, block)


def _reduce(spec: CellSpec, intermediates: list[Value]) -> Value:
    if spec.reduction == "mean":
        acc = intermediates[0]
        for node in intermediates[1:]:
            acc = tensor.add(acc, node)
        return tensor.scale(acc, 1.0 / len(intermediates))
    return tensor.concatenate(intermediates)


def _check_inputs(spec: CellSpec, inputs: Sequence[Value]) -> None:
    if len(inputs) != spec.input_arity:
        raise CellError(f"expected {spec.input_arity} cell inputs, got {len(inputs)}")
    for x in inputs:
        if not 2 <= x.ndim <= 3 or x.shape[-1] != spec.hidden:
            raise ShapeError(
                f"cell input: expected ([slices,] rows, {spec.hidden}), got {x.shape}"
            )


def cell_forward(spec: CellSpec,
                 alpha: Mapping[str, Value],
                 weights: Mapping[str, Value],
                 inputs: Sequence[Value]) -> Value:
    """Relaxed cell pass: every intermediate node sums its mixed edges.

    ``alpha`` and ``weights`` hold each intermediate node's logit and weight
    block under its ``block_name``. Returns the reduced cell output.
    """
    _check_inputs(spec, inputs)
    states: list[Value] = list(inputs)
    for j in spec.intermediate_ids:
        states.append(mixed_edge_forward(alpha[block_name(j)], states[:j],
                                         weights[block_name(j)]))
    return _reduce(spec, states[spec.input_arity:])


# ---------------------------------------------------------------------------
# Genotype: the discrete architecture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Genotype:
    """Per intermediate node, k (predecessor, operation) pairs; zero-free.

    Construction validates, so every ``Genotype`` in existence is well formed.
    """

    spec: CellSpec
    nodes: tuple[tuple[tuple[int, str], ...], ...]

    def __post_init__(self):
        if len(self.nodes) != self.spec.n_intermediate:
            raise CellError(
                f"genotype has {len(self.nodes)} nodes, spec wants {self.spec.n_intermediate}"
            )
        for offset, pairs in enumerate(self.nodes):
            node_id = self.spec.input_arity + offset
            if len(pairs) != self.spec.k:
                raise CellError(f"node {node_id}: expected {self.spec.k} edges, got {len(pairs)}")
            for pred, kind in pairs:
                if type(pred) is not int:
                    raise CellError(f"node {node_id}: predecessor {pred!r} is not an integer")
                if not 0 <= pred < node_id:
                    raise CellError(f"node {node_id}: predecessor {pred} out of range")
                if kind == "zero":
                    raise CellError(f"node {node_id}: zero operation is not allowed")
                if kind not in OP_ORDER:
                    raise CellError(f"node {node_id}: unknown operation {kind!r}")
            preds = [pred for pred, _ in pairs]
            if len(set(preds)) != len(preds):
                raise CellError(f"node {node_id}: predecessors must be distinct: {preds}")

    def to_json(self) -> str:
        doc = {
            "spec": asdict(self.spec),
            "nodes": [[{"pred": p, "op": o} for p, o in pairs] for pairs in self.nodes],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Genotype":
        try:
            doc = json.loads(text)
            spec = CellSpec(**doc["spec"])
            nodes = tuple(
                tuple((e["pred"], str(e["op"])) for e in pairs) for pairs in doc["nodes"]
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CellError(f"malformed genotype document: {exc}") from exc
        return cls(spec, nodes)


def derive_genotype(spec: CellSpec, alpha: Mapping[str, np.ndarray]) -> Genotype:
    """Discretize logits: keep the k strongest edges per node, best op each.

    ``alpha`` must hold the cell's logit blocks and no other: node j's
    ``(j, len(OP_ORDER))`` block under ``block_name(j)``, row i for edge (i, j).
    Edge strength is the largest softmax weight among that edge's non-zero
    operations (denominator includes the zero logit). Deterministic
    tie-breaks: lower predecessor index first, then lower registry index.
    """
    expected = {block_name(j): (j, len(OP_ORDER)) for j in spec.intermediate_ids}
    got = {name: np.shape(block) for name, block in alpha.items()}
    if got != expected:
        raise CellError(f"logit blocks {got} do not match the cell's {expected}")
    nodes = []
    for j in spec.intermediate_ids:
        # column 0 is the zero operation; argmax takes the first (lowest-registry) maximum
        weights = softmax_weights(np.asarray(alpha[block_name(j)], dtype=np.float64))[:, 1:]
        best = weights.argmax(axis=-1)
        strength = weights[np.arange(j), best]
        # a stable sort keeps the lower predecessor first among equal strengths
        kept = np.sort(np.argsort(-strength, kind="stable")[: spec.k])
        nodes.append(tuple((int(i), NON_ZERO_OPS[best[i]]) for i in kept))
    return Genotype(spec, tuple(nodes))


def discrete_forward(genotype: Genotype,
                     weights: Mapping[str, Value],
                     inputs: Sequence[Value]) -> Value:
    """The reduced cell output of a derived architecture: only retained edges run."""
    spec = genotype.spec
    _check_inputs(spec, inputs)
    states: list[Value] = list(inputs)
    for offset, pairs in enumerate(genotype.nodes):
        j = spec.input_arity + offset
        acc = None
        for pred, kind in pairs:
            term = apply_op(kind, weights.get(edge_key(pred, j)), states[pred])
            acc = term if acc is None else tensor.add(acc, term)
        states.append(acc)
    return _reduce(spec, states[spec.input_arity:])


def sample_genotype(spec: CellSpec, rng: np.random.Generator) -> Genotype:
    """Uniform random genotype: k distinct predecessors, uniform non-zero op."""
    nodes = []
    for j in spec.intermediate_ids:
        preds = sorted(int(p) for p in rng.choice(j, size=spec.k, replace=False))
        nodes.append(tuple((p, str(rng.choice(NON_ZERO_OPS))) for p in preds))
    return Genotype(spec, tuple(nodes))


# ---------------------------------------------------------------------------
# Logit snapshots: one row per edge, one column per operation.
# ---------------------------------------------------------------------------


def format_alpha(alpha: Mapping[str, np.ndarray]) -> str:
    """One row per edge (i, j), sorted by i, then j; node j's block has j rows."""
    rows = {(i, len(block)): vec for block in alpha.values()
            for i, vec in enumerate(np.asarray(block, dtype=np.float64))}
    lines = ["edge\t" + "\t".join(OP_ORDER)]
    for i, j in sorted(rows):
        lines.append(edge_key(i, j) + "\t" + "\t".join(repr(float(v)) for v in rows[i, j]))
    return "\n".join(lines) + "\n"


def parse_alpha(text: str, spec: CellSpec) -> dict[str, np.ndarray]:
    """Inverse of format_alpha: the logit blocks of ``spec``'s cell. The
    operation columns must be ``OP_ORDER``, and the rows the cell's edges."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CellError("empty logit snapshot")
    header = lines[0].split("\t")
    if header[0] != "edge" or len(header) < 2:
        raise CellError("logit snapshot must start with an 'edge' header row")
    if header[1:] != list(OP_ORDER):
        raise CellError(f"snapshot operation columns {header[1:]} do not match the "
                        f"registry {list(OP_ORDER)}")
    edges: dict[str, np.ndarray] = {}
    for row, ln in enumerate(lines[1:], start=1):
        parts = ln.split("\t")
        if len(parts) != len(header):
            raise CellError(f"snapshot row has {len(parts)} columns, expected {len(header)}")
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise CellError(f"snapshot row {row} (edge {parts[0]}): {exc}") from None
        if not np.all(np.isfinite(vec)):
            raise CellError(f"snapshot row {row} (edge {parts[0]}): non-finite logit")
        if parts[0] in edges:
            raise CellError(f"snapshot row {row} (edge {parts[0]}): repeated edge")
        edges[parts[0]] = vec
    expected, got = {edge_key(i, j) for i, j in spec.edges()}, set(edges)
    if got != expected:
        raise CellError(f"logit edges do not match the cell: missing {sorted(expected - got)}, "
                        f"unexpected {sorted(got - expected)}")
    return {block_name(j): np.stack([edges[edge_key(i, j)] for i in range(j)])
            for j in spec.intermediate_ids}
