"""Exact sizes of the discrete and relaxed cell search spaces.

All arithmetic is plain Python integers, so results are exact at any size.
Counting ignores graph isomorphism: two architectures that differ only by a
relabeling are counted separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class CountError(ValueError):
    """Query outside the supported counting formulas."""


@dataclass(frozen=True)
class SpaceQuery:
    """Shape of the space to count.

    ``intermediates`` is the number of learned nodes, ``nonzero_ops`` the
    size of the candidate set excluding zero, ``retained`` the edges kept per
    node after discretization, and ``multiplicity`` how many cell types are
    learned jointly (2 when a second cell kind shares the encoding).
    """

    intermediates: int
    nonzero_ops: int
    retained: int = 2
    input_arity: int = 2
    multiplicity: int = 1

    def __post_init__(self):
        if self.intermediates < 1:
            raise CountError("need at least one intermediate node")
        if self.nonzero_ops < 1:
            raise CountError("need at least one non-zero operation")
        if self.input_arity != 2:
            raise CountError("counting formulas assume two input nodes")
        if not 1 <= self.retained <= self.input_arity + self.intermediates - 1:
            raise CountError(
                f"retained edges {self.retained} exceeds available predecessors"
            )
        if self.multiplicity < 1:
            raise CountError("multiplicity must be at least 1")


def relaxed_edge_count(query: SpaceQuery) -> int:
    """Learnable edges of one fully connected cell: sum of (m+1) for m=1..n."""
    n = query.intermediates
    return n * (n + 3) // 2


def count_discrete(query: SpaceQuery) -> int:
    """Distinct derived architectures: product over nodes of C(m+1, 2) * p^2.

    The m-th intermediate node chooses 2 of its m+1 predecessors and one of
    p non-zero operations per chosen edge. Only k=2 has this product shape;
    other values are rejected rather than silently generalized.
    """
    if query.retained != 2:
        raise CountError(
            f"discrete count is defined for 2 retained edges per node, got {query.retained}"
        )
    per_cell = 1
    for m in range(1, query.intermediates + 1):
        per_cell *= math.comb(m + 1, 2) * query.nonzero_ops**2
    return per_cell**query.multiplicity


def count_relaxed(query: SpaceQuery) -> int:
    """Configurations of the relaxed space: (p+1) choices per learnable edge.

    The +1 counts the zero operation, i.e. dropping the connection.
    """
    per_cell = (query.nonzero_ops + 1) ** relaxed_edge_count(query)
    return per_cell**query.multiplicity


def scientific(n: int) -> str:
    """Exact-integer scientific notation, truncated to four figures, never rounded via floats."""
    text = str(n)
    if len(text) == 1:
        return text
    mantissa = text[0] + "." + text[1:4]
    return f"{mantissa}e{len(text) - 1}"
