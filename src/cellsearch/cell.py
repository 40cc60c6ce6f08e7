"""The DAG cell: relaxed mixed-operation forward, discrete forward, derivation.

A cell has ``input_arity`` input nodes, a run of intermediate nodes, and one
output node formed by reducing the intermediates (mean by default, concat
optionally). Every ordered pair (i, j) with j intermediate and i any earlier
node is an edge carrying a logit vector over the operation registry; an
intermediate node is the sum over its incoming edges of the softmax-weighted
mixture of all candidate operations.

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
from .ops import EDGE_TERMS, NON_ZERO_OPS, OP_ORDER, apply_op, edge_matrices
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
    return f"{i}->{j}"


def parse_edge_key(key: str) -> tuple[int, int]:
    i, _, j = key.partition("->")
    return int(i), int(j)


def init_alpha(spec: CellSpec) -> dict[str, np.ndarray]:
    """Zero logits on every edge: uniform attention over all operations."""
    return {edge_key(i, j): np.zeros(len(OP_ORDER)) for i, j in spec.edges()}


def softmax_weights(logits: np.ndarray) -> np.ndarray:
    return tensor._softmax_forward(logits, 0)


def alpha_entropy(alpha: Mapping[str, np.ndarray]) -> float:
    """Mean per-edge entropy (nats) of the softmax operation weights."""
    total = 0.0
    for vec in alpha.values():
        w = softmax_weights(np.asarray(vec, dtype=np.float64))
        total += float(-(w * np.log(np.maximum(w, 1e-300))).sum())
    return total / max(len(alpha), 1)


def uniform_entropy(n_ops: int) -> float:
    return float(np.log(n_ops))


# ---------------------------------------------------------------------------
# Continuous (relaxed) forward
# ---------------------------------------------------------------------------


def mixed_edge_forward(alpha_vec: Value, x: Value,
                       edge_op_params: Mapping[str, Value]) -> Value:
    """Softmax-weighted sum of every candidate operation applied to x.

    The softmax runs over the whole registry, zero included, so the zero
    logit still shapes the other weights even though its term vanishes. The
    whole edge is one ``mixed-edge`` tape record.
    """
    return tensor.mixed_edge(alpha_vec, x, edge_matrices(edge_op_params), EDGE_TERMS)


def _reduce(spec: CellSpec, intermediates: list[Value]) -> Value:
    if spec.reduction == "mean":
        acc = intermediates[0]
        for node in intermediates[1:]:
            acc = tensor.add(acc, node)
        return tensor.scale(acc, 1.0 / len(intermediates))
    return tensor.concatenate(intermediates, axis=1)


def _check_inputs(spec: CellSpec, inputs: Sequence[Value]) -> None:
    if len(inputs) != spec.input_arity:
        raise CellError(f"expected {spec.input_arity} cell inputs, got {len(inputs)}")
    for x in inputs:
        if x.ndim != 2 or x.shape[1] != spec.hidden:
            raise ShapeError(
                f"cell input: expected (rows, {spec.hidden}), got {x.shape}"
            )


def cell_forward(spec: CellSpec,
                 alpha: Mapping[str, Value],
                 params: Mapping[str, Mapping[str, Value]],
                 inputs: Sequence[Value]) -> tuple[Value, list[Value]]:
    """Relaxed cell pass: every intermediate node sums its mixed edges.

    Returns the reduced output and the full list of node activations
    (inputs first, then intermediates).
    """
    _check_inputs(spec, inputs)
    states: list[Value] = list(inputs)
    for j in spec.intermediate_ids:
        acc = None
        for i in range(j):
            key = edge_key(i, j)
            term = mixed_edge_forward(alpha[key], states[i], params.get(key, {}))
            acc = term if acc is None else tensor.add(acc, term)
        states.append(acc)
    return _reduce(spec, states[spec.input_arity:]), states


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
        self.validate()

    def validate(self) -> None:
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
        except (KeyError, TypeError, ValueError) as exc:
            raise CellError(f"malformed genotype document: {exc}") from exc
        return cls(spec, nodes)


def derive_genotype(spec: CellSpec, alpha: Mapping[str, np.ndarray]) -> Genotype:
    """Discretize logits: keep the k strongest edges per node, best op each.

    Edge strength is the largest softmax weight among that edge's non-zero
    operations (denominator includes the zero logit). Deterministic
    tie-breaks: lower predecessor index first, then lower registry index.
    """
    nodes = []
    for j in spec.intermediate_ids:
        scored = []
        for i in range(j):
            key = edge_key(i, j)
            if key not in alpha:
                raise CellError(f"missing logits for edge {key}")
            vec = np.asarray(alpha[key], dtype=np.float64)
            if vec.shape != (len(OP_ORDER),):
                raise CellError(f"edge {key}: logit vector {vec.shape} does not match op set")
            weights = softmax_weights(vec)
            best_idx, best_kind, best_w = None, None, -1.0
            for idx, kind in enumerate(NON_ZERO_OPS, start=1):
                if weights[idx] > best_w:
                    best_idx, best_kind, best_w = idx, kind, float(weights[idx])
            scored.append((-best_w, i, best_idx, best_kind))
        scored.sort()
        kept = sorted(scored[: spec.k], key=lambda item: item[1])
        nodes.append(tuple((i, kind) for _, i, _, kind in kept))
    return Genotype(spec, tuple(nodes))


def discrete_forward(genotype: Genotype,
                     params: Mapping[str, Mapping[str, Value]],
                     inputs: Sequence[Value]) -> tuple[Value, list[Value]]:
    """Forward pass of a derived architecture: only retained edges run."""
    spec = genotype.spec
    _check_inputs(spec, inputs)
    states: list[Value] = list(inputs)
    for offset, pairs in enumerate(genotype.nodes):
        j = spec.input_arity + offset
        acc = None
        for pred, kind in pairs:
            weights = params.get(edge_key(pred, j), {}).get(kind)
            term = apply_op(kind, weights, states[pred])
            acc = term if acc is None else tensor.add(acc, term)
        states.append(acc)
    return _reduce(spec, states[spec.input_arity:]), states


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
    lines = ["edge\t" + "\t".join(OP_ORDER)]
    for key in sorted(alpha, key=parse_edge_key):
        vec = np.asarray(alpha[key], dtype=np.float64)
        lines.append(key + "\t" + "\t".join(repr(float(v)) for v in vec))
    return "\n".join(lines) + "\n"


def parse_alpha(text: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """Inverse of format_alpha; returns the logits and the op-name header."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CellError("empty logit snapshot")
    header = lines[0].split("\t")
    if header[0] != "edge" or len(header) < 2:
        raise CellError("logit snapshot must start with an 'edge' header row")
    op_names = header[1:]
    alpha: dict[str, np.ndarray] = {}
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
        if parts[0] in alpha:
            raise CellError(f"snapshot row {row} (edge {parts[0]}): repeated edge")
        alpha[parts[0]] = vec
    return alpha, op_names
