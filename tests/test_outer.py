"""Outer factorizations: Hamilton decompositions, K44 fragments, and the
resolution ladder (builtin, imported document, bounded search, honest miss).
"""

import pytest

from hwp4m.model import (
    Solution,
    complete_graph,
    explicit_graph,
    two_factor,
)
from hwp4m.outer import (
    NONEXISTENT_OUTERS,
    SEARCHABLE_OUTERS,
    Unavailable,
    hamilton_decomposition,
    k4_minus_matching,
    k44_pair,
    outer_cm_factorization,
    walecki,
    walecki_even,
)
from hwp4m.verifier import verify_factors_cover, verify_solution

# ============================================================
# Hamilton decompositions of K_n
# ============================================================


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21])
def test_walecki_decomposes_odd_complete_graphs(n):
    factors = walecki(n)
    assert len(factors) == (n - 1) // 2
    assert all(f.cycle_length == n for f in factors)
    rep = verify_factors_cover(factors, complete_graph(n))
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("n", [4, 6, 8, 10, 14, 20])
def test_walecki_even_leaves_a_perfect_matching(n):
    factors, leftover = walecki_even(n)
    assert len(factors) == (n - 2) // 2
    assert all(f.cycle_length == n for f in factors)
    rep = verify_factors_cover(factors, complete_graph(n), leftover)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("n", range(1, 12))
def test_hamilton_decomposition_is_a_verified_outer_solution(n):
    # n = 1 and n = 2 have no cycles: one part, or two parts and a matching
    sol = hamilton_decomposition(n)
    assert (sol.v, sol.m, len(sol.factors)) == (n, n, (n - 1) // 2)
    assert (sol.one_factor is None) == (n % 2 == 1)
    rep = verify_solution(sol)
    assert rep.ok, rep.summary()


# ============================================================
# small gadgets
# ============================================================


def test_k44_pair_tiles_one_complete_bipartite_block():
    first, second = k44_pair((0, 1, 2, 3), (4, 5, 6, 7))
    edges = [
        (a, b) for a in (0, 1, 2, 3) for b in (4, 5, 6, 7)
    ]
    space = explicit_graph(8, edges)
    rep = verify_factors_cover(
        [two_factor(first, 8, 4), two_factor(second, 8, 4)], space
    )
    assert rep.ok, rep.summary()


def test_k4_minus_matching_partitions_one_clique():
    quad = (8, 9, 10, 11)
    square, matching = k4_minus_matching(quad)
    used = {frozenset({square[i], square[(i + 1) % 4]}) for i in range(4)}
    used |= {frozenset(e) for e in matching}
    want = {frozenset({a, b}) for a in quad for b in quad if a < b}
    assert used == want
    assert len(matching) == 2


# ============================================================
# the resolution ladder
# ============================================================


def test_builtin_when_the_outer_is_a_single_cycle_length():
    out = outer_cm_factorization(7, 7)
    assert isinstance(out, Solution)
    assert (out.v, out.m) == (7, 7)
    assert len(out.factors) == 3
    assert out.one_factor is None
    assert verify_solution(out).ok

    out = outer_cm_factorization(6, 6)
    assert isinstance(out, Solution)
    assert out.one_factor is not None
    rep = verify_factors_cover(out.factors, complete_graph(6), out.one_factor)
    assert rep.ok
    assert verify_solution(out).ok


def test_search_supplies_the_whitelisted_outers(tmp_path):
    assert (9, 3) in SEARCHABLE_OUTERS
    out = outer_cm_factorization(9, 3, cache_dir=tmp_path)
    assert isinstance(out, Solution)
    assert (out.v, out.m, out.one_factor) == (9, 3, None)
    assert all(f.cycle_length == 3 for f in out.factors)
    rep = verify_factors_cover(out.factors, complete_graph(9))
    assert rep.ok

    out = outer_cm_factorization(10, 5, cache_dir=tmp_path)
    assert isinstance(out, Solution)
    assert out.one_factor is not None
    assert verify_solution(out).ok


def test_search_timeout_is_reported_not_swallowed(tmp_path):
    from hwp4m import search

    search.clear_memo()  # other tests may have solved this instance already
    out = outer_cm_factorization(10, 5, cache_dir=tmp_path, time_limit=0.0)
    assert isinstance(out, Unavailable)
    assert out.reason == "timeout"


def test_known_nonexistent_outers_short_circuit():
    assert (6, 3) in NONEXISTENT_OUTERS and (12, 3) in NONEXISTENT_OUTERS
    out = outer_cm_factorization(6, 3)
    assert isinstance(out, Unavailable)
    assert out.reason == "nonexistent"


def test_unlisted_outers_are_external():
    out = outer_cm_factorization(21, 3)
    assert isinstance(out, Unavailable)
    assert out.reason == "external"


def test_shape_mismatch_is_infeasible():
    out = outer_cm_factorization(10, 3)
    assert isinstance(out, Unavailable)
    assert out.reason == "infeasible"


def test_import_is_used_when_it_proves_itself(tmp_path):
    # a valid C3-factorization of K_9 obtained from search, re-presented as
    # an imported document for an (n, m) that search would otherwise solve;
    # with time_limit=0 only the import can make this succeed
    from hwp4m import search

    found = outer_cm_factorization(9, 3, cache_dir=tmp_path)
    doc = Solution(v=9, factors=found.factors, m=3, r=0, s=4)
    search.clear_memo()
    out = outer_cm_factorization(9, 3, imports=(doc,), time_limit=0.0)
    assert isinstance(out, Solution)
    assert out.factors == doc.factors
    assert out.one_factor is None


def test_import_that_does_not_prove_itself_is_ignored(tmp_path):
    from hwp4m import search

    found = outer_cm_factorization(9, 3, cache_dir=tmp_path)
    broken = Solution(v=9, factors=found.factors[1:], m=3, r=0, s=3)
    search.clear_memo()
    out = outer_cm_factorization(
        9, 3, imports=(broken,), cache_dir=tmp_path / "empty", time_limit=0.0
    )
    assert isinstance(out, Unavailable)
    assert out.reason == "timeout"
