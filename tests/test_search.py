"""Bounded backtracking over factor slots: budgets, outcomes, and caching.

The engine fills cycle slots one factor at a time over an explicit ambient
edge set, re-verifies anything it claims to have found, and caches only
Found results (a longer time limit could upgrade unsat-reported-as-timeout,
so negative outcomes are never persisted).
"""

import os

import pytest

from hwp4m.model import complete_graph
from hwp4m.search import (
    _MEMO,
    SearchInstance,
    _cache_path,
    c4_cm3_split_instance,
    check_budget,
    clear_memo,
    cm_factorization_instance,
    equipartite_cm_search,
    equipartite_instance,
    kts9_instance,
    solve,
    solve_cached,
)
from hwp4m.verifier import verify_factors_cover

# ============================================================
# budgets
# ============================================================


def test_budget_distinguishes_exact_cover_from_leftover_matching():
    assert check_budget(kts9_instance()) is False
    assert check_budget(cm_factorization_instance(10, 5)) is True


def test_budget_rejects_malformed_instances():
    bad_length = SearchInstance("bad", complete_graph(9), ((4, 4),))
    with pytest.raises(ValueError):
        check_budget(bad_length)
    bad_count = SearchInstance("bad", complete_graph(9), ((3, 3),))
    with pytest.raises(ValueError):
        check_budget(bad_count)


# ============================================================
# outcomes on named instances
# ============================================================


def test_triangle_system_on_nine_points_is_found():
    outcome = solve(kts9_instance())
    assert outcome.status == "found"
    assert outcome.matching is None
    rep = verify_factors_cover(outcome.factors, complete_graph(9))
    assert rep.ok


def test_pentagon_factorization_of_k10_found_with_matching():
    outcome = solve(cm_factorization_instance(10, 5))
    assert outcome.status == "found"
    assert outcome.matching is not None
    rep = verify_factors_cover(outcome.factors, complete_graph(10), outcome.matching)
    assert rep.ok


def test_k6_minus_matching_has_no_triangle_factorization():
    outcome = solve(cm_factorization_instance(6, 3))
    assert outcome.status == "unsat"
    assert outcome.factors is None


def test_blowup_split_search_agrees_with_the_exhaustive_check():
    # independent confirmation that C_3[4] has no {three C3, one C4} split
    outcome = solve(c4_cm3_split_instance(3))
    assert outcome.status == "unsat"


def test_expired_limit_means_no_search_at_all():
    outcome = solve(kts9_instance(), time_limit=0.0)
    assert outcome.status == "timeout"
    assert outcome.nodes == 0


def test_search_is_deterministic():
    a = solve(kts9_instance())
    b = solve(kts9_instance())
    assert a.factors == b.factors
    assert a.nodes == b.nodes


# ============================================================
# packaged ingredients
# ============================================================


def test_equipartite_search_solves_three_groups_of_four():
    outcome = equipartite_cm_search(4, 3, 3)
    assert outcome.status == "found"
    from hwp4m.model import equipartite_graph

    rep = verify_factors_cover(outcome.factors, equipartite_graph(4, 3))
    assert rep.ok


def test_equipartite_instance_rejects_odd_degree():
    with pytest.raises(ValueError):
        equipartite_instance(3, 4, 3)


# ============================================================
# caching
# ============================================================


def test_disk_cache_round_trips_found_results(tmp_path):
    clear_memo()
    first = solve_cached(kts9_instance(), cache_dir=tmp_path)
    assert first.status == "found"
    cached_files = list(tmp_path.iterdir())
    assert len(cached_files) == 1

    # a fresh process would have an empty memo; the expired limit proves the
    # result now comes from disk, not from a rerun of the search
    clear_memo()
    second = solve_cached(kts9_instance(), cache_dir=tmp_path, time_limit=0.0)
    assert second.status == "found"
    assert second.factors == first.factors


def test_memo_hit_still_fills_a_second_cache_directory(tmp_path):
    clear_memo()
    first = solve_cached(kts9_instance(), cache_dir=tmp_path / "a")
    second = solve_cached(kts9_instance(), cache_dir=tmp_path / "b")
    assert second.factors == first.factors
    assert len(list((tmp_path / "b").iterdir())) == 1


def test_corrupted_cache_is_ignored_and_recomputed(tmp_path):
    clear_memo()
    first = solve_cached(kts9_instance(), cache_dir=tmp_path)
    path = next(tmp_path.iterdir())
    path.write_bytes(b"{ not json")
    clear_memo()
    again = solve_cached(kts9_instance(), cache_dir=tmp_path)
    assert again.status == "found"
    assert again.factors == first.factors


def test_cache_write_does_not_collide_with_a_leftover_temporary(tmp_path):
    # whatever sits at path + ".tmp" (here a directory, which cannot be
    # opened for writing) belongs to another writer and must not block this one
    clear_memo()
    path = _cache_path(kts9_instance(), str(tmp_path))
    os.mkdir(path + ".tmp")
    assert solve_cached(kts9_instance(), cache_dir=tmp_path).status == "found"
    assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(path), os.path.basename(path) + ".tmp"])
    clear_memo()
    assert solve_cached(kts9_instance(), cache_dir=tmp_path, time_limit=0.0).status == "found"


def test_timeouts_are_never_cached(tmp_path):
    clear_memo()
    out = solve_cached(cm_factorization_instance(15, 5), cache_dir=tmp_path, time_limit=0.0)
    assert out.status == "timeout"
    assert list(tmp_path.iterdir()) == []
    assert _MEMO == {}
