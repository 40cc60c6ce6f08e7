import itertools
import math

import pytest

from cellsearch.counting import (
    CountError,
    SpaceQuery,
    count_discrete,
    count_relaxed,
    relaxed_edge_count,
    scientific,
)


def test_discrete_count_reference_values():
    assert count_discrete(SpaceQuery(intermediates=4, nonzero_ops=7)) == 1_037_664_180
    assert count_discrete(SpaceQuery(intermediates=4, nonzero_ops=7)) == 180 * 49**4


def test_discrete_count_two_cell_types():
    single = count_discrete(SpaceQuery(intermediates=4, nonzero_ops=7))
    double = count_discrete(SpaceQuery(intermediates=4, nonzero_ops=7, multiplicity=2))
    assert double == single**2
    assert 10**17 < double < 10**19  # order 10^18


def test_discrete_count_degenerate_single_architecture():
    assert count_discrete(SpaceQuery(intermediates=1, nonzero_ops=1)) == 1


def test_relaxed_count_reference_values():
    assert count_relaxed(SpaceQuery(intermediates=4, nonzero_ops=7)) == 4_398_046_511_104
    assert count_relaxed(SpaceQuery(intermediates=4, nonzero_ops=7)) == 8**14


def test_relaxed_count_two_cell_types():
    double = count_relaxed(SpaceQuery(intermediates=4, nonzero_ops=7, multiplicity=2))
    assert double == 8**28
    assert 10**24 < double < 10**26  # order 10^25


def test_relaxed_count_single_intermediate():
    for p in range(1, 6):
        assert count_relaxed(SpaceQuery(intermediates=1, nonzero_ops=p)) == (p + 1) ** 2


def test_relaxed_edge_count():
    assert relaxed_edge_count(SpaceQuery(intermediates=4, nonzero_ops=7)) == 14
    assert relaxed_edge_count(SpaceQuery(intermediates=1, nonzero_ops=1)) == 2
    assert relaxed_edge_count(SpaceQuery(intermediates=3, nonzero_ops=4)) == 9


def brute_force_discrete(n: int, p: int) -> int:
    """Enumerate every genotype: per node, 2 distinct predecessors and an op each."""
    per_node_choices = []
    for m in range(1, n + 1):
        node_id = m + 1  # two inputs, so node m has m+1 predecessors
        choices = [
            (pair, ops)
            for pair in itertools.combinations(range(node_id), 2)
            for ops in itertools.product(range(p), repeat=2)
        ]
        per_node_choices.append(choices)
    genotypes = set()
    for combo in itertools.product(*per_node_choices):
        genotypes.add(tuple((pair, ops) for pair, ops in combo))
    return len(genotypes)


@pytest.mark.parametrize("n,p", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_discrete_count_matches_exhaustive_enumeration(n, p):
    assert count_discrete(SpaceQuery(intermediates=n, nonzero_ops=p)) == brute_force_discrete(n, p)


def test_counts_exact_at_large_sizes():
    q = SpaceQuery(intermediates=8, nonzero_ops=16)
    expected = 1
    for m in range(1, 9):
        expected *= math.comb(m + 1, 2) * 256
    assert count_discrete(q) == expected
    assert count_relaxed(q) == 17 ** (8 * 11 // 2)
    assert isinstance(count_relaxed(q), int)


def test_query_validation():
    with pytest.raises(CountError):
        SpaceQuery(intermediates=0, nonzero_ops=7)
    with pytest.raises(CountError):
        SpaceQuery(intermediates=4, nonzero_ops=0)
    with pytest.raises(CountError):
        SpaceQuery(intermediates=4, nonzero_ops=7, multiplicity=0)


def test_scientific_formatting():
    assert scientific(1_037_664_180) == "1.037e9"
    assert scientific(4_398_046_511_104) == "4.398e12"
    assert scientific(7) == "7"
    assert scientific(8**28) == "1.934e25"
