"""Outer factorizations: Hamilton decompositions, starters, and the
resolution ladder (builtin, imported document, bounded search, honest miss).
"""

import hashlib
import tracemalloc
from dataclasses import replace
from itertools import combinations
from operator import is_

import pytest
import reference_verifier as oracle
from reference_starters import find_starter

from hwp4m import composer, outer, search
from hwp4m.composer import _ingredient, build, plan
from hwp4m.model import (
    Solution,
    complete_graph,
    decode_solution,
    encode_solution,
)
from hwp4m.outer import (
    OUTER_LADDER,
    STARTERS,
    IngredientUnavailable,
    _zigzag,
    develop,
    hamilton_decomposition,
    outer_cm_factorization,
    walecki,
    walecki_even,
)
from hwp4m.verifier import verify_factors_cover, verify_solution


@pytest.fixture
def fresh_decompositions():
    """An empty ``hamilton_decomposition`` cache, emptied again afterwards."""
    hamilton_decomposition.cache_clear()
    yield
    hamilton_decomposition.cache_clear()


@pytest.fixture
def proven(monkeypatch):
    """Every Solution ``search.first_proven`` accepts, in order, in every
    module that calls it."""
    first_proven, accepted = search.first_proven, []

    def recorded(instance, docs):
        sol = first_proven(instance, docs)
        if sol is not None:
            accepted.append(sol)
        return sol

    monkeypatch.setattr(search, "first_proven", recorded)
    monkeypatch.setattr(composer, "first_proven", recorded)
    return accepted


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


def test_walecki_refuses_the_other_parity():
    with pytest.raises(ValueError, match=r"^needs odd n >= 1$"):
        walecki(4)
    with pytest.raises(ValueError, match=r"^needs even n >= 2$"):
        walecki_even(5)


@pytest.mark.parametrize("n", range(1, 12))
def test_hamilton_decomposition_is_a_verified_outer_solution(n):
    # n = 1 and n = 2 have no cycles: one part, or two parts and a matching
    sol = hamilton_decomposition(n)
    assert (sol.v, sol.m, len(sol.factors)) == (n, n, (n - 1) // 2)
    assert (sol.one_factor is None) == (n % 2 == 1)
    rep = verify_solution(sol)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("n, digest", [
    (300, "cec88660ce08c65143332cf806db5f5f2224ab30bd67315853357c7b7451a98a"),
    (401, "c50d5c207b1444ca04c73e7c69fdd511f1adfb0dc1d9a8719e77e54d08b208a1"),
])
def test_large_hamilton_decompositions_are_pinned(n, digest):
    # the two outers of the benchmark's large builds, beyond the v <= 120 sweep
    encoded = encode_solution(hamilton_decomposition(n))
    assert hashlib.sha256(encoded).hexdigest() == digest


@pytest.mark.parametrize("n", [*range(3, 42), 300, 401])
def test_the_kept_decomposition_is_the_developed_zigzag(n):
    kept = hamilton_decomposition(n)
    assert kept == develop([_zigzag(n)], n, n, 1)
    assert hamilton_decomposition(n) is kept


@pytest.mark.parametrize("n", [300, 401])
def test_a_decomposition_holds_one_int_object_per_vertex(n):
    # beyond 256, where CPython stops sharing small ints, every copy would show
    sol = hamilton_decomposition(n)
    ints = {id(u) for f in sol.factors for c in f.cycles for u in c}
    if sol.one_factor is not None:
        ints |= {id(u) for e in sol.one_factor.edges for u in e}
    assert len(ints) == n


@pytest.mark.parametrize("n", [9, 10])
def test_mutating_a_walecki_list_leaves_the_decompositions_alone(n):
    fresh = develop([_zigzag(n)], n, n, 1)

    def listed():
        return walecki(n) if n % 2 else walecki_even(n)[0]

    kept = hamilton_decomposition(n)
    factors = listed()
    factors.reverse()
    factors.pop()
    assert hamilton_decomposition(n) is kept and kept == fresh
    hamilton_decomposition.cache_clear()
    factors = listed()
    factors.clear()
    assert hamilton_decomposition(n) == fresh
    assert listed() == list(fresh.factors)


@pytest.mark.parametrize("n", [9, 10])
def test_a_walecki_decomposition_is_proven_once_per_order(n, certify_calls, fresh_decompositions):
    kept = hamilton_decomposition(n)
    assert [call[1] for call in certify_calls] == [complete_graph(n)]
    certify_calls.clear()
    assert hamilton_decomposition(n) is kept
    assert certify_calls == []


@pytest.mark.parametrize("n", [9, 10])
def test_a_broken_zigzag_does_not_develop(n, monkeypatch, fresh_decompositions):
    zigzag = outer._zigzag

    def swapped(n):
        base = list(zigzag(n))
        base[2], base[3] = base[3], base[2]
        return tuple(base)

    monkeypatch.setattr(outer, "_zigzag", swapped)
    with pytest.raises(RuntimeError, match="does not develop"):
        outer_cm_factorization(n, n)


def _uncovered(factors, n):
    # the reference rule: every pair of 0..n-1 that no cycle of the factors joins
    used = {frozenset(e) for f in factors for c in f.cycles for e in zip(c, c[1:] + c[:1])}
    return [e for e in combinations(range(n), 2) if frozenset(e) not in used]


@pytest.mark.parametrize("n", [*range(2, 41, 2), 300])
def test_the_leftover_is_every_pair_the_rotated_zigzags_miss(n):
    sol = develop([_zigzag(n)], n, n, 1)
    assert list(sol.one_factor.edges) == _uncovered(sol.factors, n)


def test_developing_k_1000_peaks_under_12_mb():
    # about 4n^2 bytes of cycles, n^2 bytes of leftover rows and the proof's own rows
    tracemalloc.start()
    try:
        develop([_zigzag(1000)], 1000, 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


@pytest.mark.parametrize("request_", [(100, 25, 23, 26), (40, 5, 19, 0)])
def test_a_request_built_twice_in_one_process_writes_the_same_bytes(request_, tmp_path):
    # over a decomposition built for the first, kept for the second, and built again
    first, second = (encode_solution(build(*request_, cache_dir=tmp_path)) for _ in range(2))
    hamilton_decomposition.cache_clear()
    assert first == second == encode_solution(build(*request_, cache_dir=tmp_path))


# ============================================================
# starters
# ============================================================


@pytest.mark.parametrize("n, m", sorted(STARTERS))
def test_every_starter_is_rederived_and_develops_into_a_factorization(n, m):
    # the starter search under the entry's action meets its literal first,
    # and its development passes the reference verifier
    action, base = STARTERS[n, m]
    assert find_starter(n, m, action) == base
    sol = develop(base, n, m, action)
    assert len(sol.factors) == (n - 1) // 2
    assert all(f.cycle_length == m for f in sol.factors)
    rep = oracle.verify_solution(sol)
    assert rep.ok, rep.summary()


def test_every_development_keeps_its_bytes():
    # Walecki's zigzag for n = 3..59, then each starter in sorted key order
    digest = hashlib.sha256()
    for n in range(3, 60):
        digest.update(encode_solution(develop([_zigzag(n)], n, n, 1)))
    for n, m in sorted(STARTERS):
        action, base = STARTERS[n, m]
        digest.update(encode_solution(develop(base, n, m, action)))
    assert digest.hexdigest() == "643afc378b30a2da5cbf61b8f874fd85ea34684bf9f75845dea930544bf35063"


def test_the_searched_10_5_has_no_2_pyramidal_starter():
    assert find_starter(10, 5, 2) is None


def test_14_7_starter_removes_difference_3_and_the_infinities():
    action, base = STARTERS[14, 7]
    matching = develop(base, 14, 7, action).one_factor
    assert matching.edges == ((0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11), (12, 13))


@pytest.mark.parametrize("n, m", sorted(STARTERS))
def test_a_starter_is_proven_on_every_use(n, m, certify_calls):
    space = search.cm_factorization_instance(n, m).space
    for _ in range(2):
        certify_calls.clear()  # count this use's proofs only
        out = outer_cm_factorization(n, m)
        assert [call[1] for call in certify_calls] == [space]
        assert isinstance(out, Solution)
        action, base = STARTERS[n, m]
        assert out == develop(base, n, m, action)


@pytest.mark.parametrize("request_", [(56, 7, 3, 24), (60, 5, 5, 24)])
def test_cold_builds_over_starters_run_no_search(request_, tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(search, "solve", no_search)
    sol = build(*request_, cache_dir=tmp_path, time_limit=0.0)
    rep = verify_solution(sol)
    assert rep.ok, rep.summary()
    assert (rep.r_found, rep.s_found) == request_[2:]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, m", sorted(STARTERS))
def test_a_broken_starter_raises_and_writes_nothing(n, m, tmp_path, monkeypatch):
    # one vertex of the first cycle changed to another of the same factor
    action, (first, *rest) = STARTERS[n, m]
    broken = (first[:-1] + (rest[0][0],), *rest)
    monkeypatch.setitem(STARTERS, (n, m), (action, broken))
    with pytest.raises(RuntimeError, match="does not develop"):
        outer_cm_factorization(n, m, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, m", sorted(STARTERS))
def test_a_starter_under_the_other_action_raises_naming_it_and_writes_nothing(
    n, m, tmp_path, monkeypatch
):
    # the literal is developed under the action its entry names, and no other
    action, base = STARTERS[n, m]
    other = 3 - action
    monkeypatch.setitem(STARTERS, (n, m), (other, base))
    with pytest.raises(RuntimeError, match=rf"under cyclic_action\({n}, {other}\) does not develop"):
        outer_cm_factorization(n, m, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


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
    assert OUTER_LADDER[9, 3] == OUTER_LADDER[10, 5] == "searchable"
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
    with pytest.raises(IngredientUnavailable, match="timeout"):
        outer_cm_factorization(10, 5, cache_dir=tmp_path, time_limit=0.0)


def test_known_nonexistent_outers_short_circuit():
    assert OUTER_LADDER[6, 3] == OUTER_LADDER[12, 3] == "nonexistent"
    with pytest.raises(IngredientUnavailable, match="nonexistent"):
        outer_cm_factorization(6, 3)


def test_an_exhaustive_unsat_search_is_nonexistent_and_caches_nothing(tmp_path, monkeypatch):
    # no ladder entry searches an unsat outer, so (6, 3) is marked searchable here
    monkeypatch.setitem(OUTER_LADDER, (6, 3), "searchable")
    with pytest.raises(IngredientUnavailable) as caught:
        outer_cm_factorization(6, 3, cache_dir=tmp_path)
    assert str(caught.value) == (
        "outer (6, 3) factorization: nonexistent (exhaustive search: no (6, 3) factorization)"
    )
    assert list(tmp_path.iterdir()) == []


def test_unlisted_outers_are_external():
    with pytest.raises(IngredientUnavailable, match="external"):
        outer_cm_factorization(21, 3)


def test_shape_mismatch_is_infeasible():
    with pytest.raises(IngredientUnavailable, match="infeasible"):
        outer_cm_factorization(10, 3)


def test_import_is_used_when_it_proves_itself(tmp_path):
    # a valid C3-factorization of K_9 obtained from search, re-presented as
    # an imported document for an (n, m) that search would otherwise solve;
    # the planner proves it, and with time_limit=0 only the import can make
    # the build succeed
    found = outer_cm_factorization(9, 3, cache_dir=tmp_path)
    doc = Solution(v=9, factors=found.factors, m=3, r=0, s=4)
    ing = _ingredient("outer_cm", (9, 3), (doc,))
    assert ing.availability == "import"
    assert ing.proven is doc
    assert plan(36, 3, 1, 16, imports=(doc,)).ingredients == (ing,)
    sol = build(36, 3, 1, 16, imports=(doc,), cache_dir=tmp_path / "empty", time_limit=0.0)
    assert verify_solution(sol).ok


def test_import_with_wrong_declared_counts_builds_as_the_right_one(tmp_path):
    # every factor of the document is a C3-factor, though it declares r = 4,
    # s = 0; the proof reads its cycles, and so does the build, which counts
    # the outer's C4-factors from them, never from the declared r
    found = outer_cm_factorization(9, 3, cache_dir=tmp_path)
    right = Solution(v=9, factors=found.factors, m=3, r=0, s=4)
    wrong = Solution(v=9, factors=found.factors, m=3, r=4, s=0)
    (ing,) = plan(36, 3, 1, 16, imports=(wrong,)).ingredients
    assert ing.availability == "import" and ing.proven is wrong
    built = [
        encode_solution(build(36, 3, 1, 16, imports=(doc,), cache_dir=tmp_path / "empty",
                              time_limit=0.0))
        for doc in (wrong, right)
    ]
    assert built[0] == built[1]


def _searched(tmp_path):
    return outer_cm_factorization(9, 3, cache_dir=tmp_path)


def _reloaded(tmp_path):
    _searched(tmp_path)
    return outer_cm_factorization(9, 3, cache_dir=tmp_path, time_limit=0.0)


def _imported(tmp_path):
    # a copy read back, so that no factor object is shared with the search's proof
    doc = replace(decode_solution(encode_solution(_searched(tmp_path))), r=0, s=4)
    return _ingredient("outer_cm", (9, 3), (doc,)).proven


OUTER_SOURCES = {
    "starter 15": lambda tmp_path: outer_cm_factorization(15, 5),
    "starter 14": lambda tmp_path: outer_cm_factorization(14, 7),
    "walecki 9": lambda tmp_path: hamilton_decomposition(9),
    "walecki 10": lambda tmp_path: hamilton_decomposition(10),
    "search": _searched,
    "cache": _reloaded,
    "import": _imported,
}


@pytest.mark.parametrize("source", OUTER_SOURCES)
def test_every_outer_source_hands_over_what_first_proven_accepted(
    source, tmp_path, proven, fresh_decompositions
):
    # the caller's factors and matching are the very objects of the last proof
    out = OUTER_SOURCES[source](tmp_path)
    last = proven[-1]
    assert len(out.factors) == len(last.factors) and all(map(is_, out.factors, last.factors))
    assert out.one_factor is last.one_factor
    assert verify_solution(out).ok


def test_import_that_does_not_prove_itself_is_ignored(tmp_path):
    found = outer_cm_factorization(9, 3, cache_dir=tmp_path)
    broken = Solution(v=9, factors=found.factors[1:], m=3, r=0, s=3)
    ing = _ingredient("outer_cm", (9, 3), (broken,))
    assert (ing.availability, ing.proven) == ("searchable", None)
    assert plan(36, 3, 1, 16, imports=(broken,)).ingredients == (ing,)
    with pytest.raises(IngredientUnavailable, match="timeout"):
        outer_cm_factorization(9, 3, cache_dir=tmp_path / "empty", time_limit=0.0)
