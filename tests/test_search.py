"""Bounded backtracking over factor slots: budgets, outcomes, and caching.

The engine fills cycle slots one factor at a time over a named ambient
edge space, re-verifies anything it claims to have found, and caches only
Found results (a longer time limit could upgrade unsat-reported-as-timeout,
so negative outcomes are never persisted).
"""

import inspect
import os
import sys
from itertools import chain, repeat
from types import SimpleNamespace

import pytest
import reference_search as oracle
from reference_audit import check_c4_cm3_nonexistence

import hwp4m.search
from hwp4m.model import Solution, complete_graph, encode_solution, two_factor
from hwp4m.search import (
    SearchInstance,
    _cache_path,
    c4_cm3_split_instance,
    check_budget,
    cm_factorization_instance,
    equipartite_instance,
    solve,
    solve_cached,
)
from hwp4m.verifier import verify_factors_cover

# ============================================================
# budgets
# ============================================================


def test_budget_distinguishes_exact_cover_from_leftover_matching():
    assert check_budget(cm_factorization_instance(9, 3)) is False
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
    outcome = solve(cm_factorization_instance(9, 3))
    assert outcome.status == "found"
    assert outcome.solution.one_factor is None
    rep = verify_factors_cover(outcome.solution.factors, complete_graph(9))
    assert rep.ok


def test_pentagon_factorization_of_k10_found_with_matching():
    outcome = solve(cm_factorization_instance(10, 5))
    assert outcome.status == "found"
    assert outcome.solution.one_factor is not None
    rep = verify_factors_cover(outcome.solution.factors, complete_graph(10), outcome.solution.one_factor)
    assert rep.ok


def test_a_found_result_is_proven_once(certify_calls):
    instance = cm_factorization_instance(9, 3)
    assert solve(instance).status == "found"
    assert [call[1] for call in certify_calls] == [instance.space]


def test_k6_minus_matching_has_no_triangle_factorization():
    outcome = solve(cm_factorization_instance(6, 3))
    assert outcome.status == "unsat"
    assert outcome.solution is None


def test_blowup_split_search_agrees_with_the_exhaustive_check():
    # the engine does not assume that m-cycles are transversals, so its
    # unsat verdict confirms the audited check independently at m = 3
    outcome = solve(c4_cm3_split_instance(3))
    assert outcome.status == "unsat"
    assert check_c4_cm3_nonexistence(3) == 4 ** 3


def test_expired_limit_means_no_search_at_all():
    outcome = solve(cm_factorization_instance(9, 3), time_limit=0.0)
    assert outcome.status == "timeout"
    assert outcome.nodes == 0


def _expiring_clock():
    """Stands in for the search module's ``time``: the start and the
    pre-search check read 0, and every later reading is far past any limit."""
    return SimpleNamespace(monotonic=chain((0.0, 0.0), repeat(1e9)).__next__)


@pytest.mark.parametrize(
    "instance",
    [
        cm_factorization_instance(15, 5),
        # triangle slots, whose closing nodes the node opening the cycle expands
        c4_cm3_split_instance(3),
        SearchInstance("hwp12", complete_graph(12), ((4, 1), (3, 4)), canonical_first=True),
    ],
    ids=lambda inst: inst.name,
)
def test_a_limit_that_expires_during_the_search_times_out_and_caches_nothing(instance, tmp_path, monkeypatch):
    # the in-loop clock is read once every 1024 nodes, by the engine and its oracle alike
    monkeypatch.setattr(hwp4m.search, "time", _expiring_clock())
    outcome = solve(instance, time_limit=1.0)
    assert (outcome.status, outcome.nodes) == ("timeout", 1024)
    monkeypatch.setattr(oracle, "time", _expiring_clock())
    reference = oracle.solve(instance, time_limit=1.0)
    assert (reference.status, reference.nodes) == ("timeout", 1024)
    monkeypatch.setattr(hwp4m.search, "time", _expiring_clock())
    assert solve_cached(instance, cache_dir=tmp_path, time_limit=1.0).status == "timeout"
    assert list(tmp_path.iterdir()) == []


# (instance, mask, nodes at the timeout) reaching each clock check in turn:
# start_cycle's entry, a triangle's child, its closers and its remainder,
# then extend's entry, its closers and its remainder
_CLOCK_CHECKS = [
    (cm_factorization_instance(15, 5), 0, 1),
    (c4_cm3_split_instance(3), 1, 2),
    (c4_cm3_split_instance(3), 3, 5),
    (c4_cm3_split_instance(3), 51, 56),
    (cm_factorization_instance(15, 5), 1, 2),
    (cm_factorization_instance(15, 5), 15, 16),
    (cm_factorization_instance(10, 5), 31, 32),
]


def test_every_clock_check_in_the_search_can_end_it(tmp_path, monkeypatch):
    reached = []

    class Recorded(hwp4m.search._Timeout):
        def __init__(self):
            super().__init__()
            reached[-1].add(sys._getframe(1).f_lineno)  # the line that raised it

    monkeypatch.setattr(hwp4m.search, "_Timeout", Recorded)
    source, first = inspect.getsourcelines(solve)
    checks = {first + i for i, line in enumerate(source) if line.strip() == "raise _Timeout"}
    for instance, mask, nodes in _CLOCK_CHECKS:
        reached.append(set())
        monkeypatch.setattr(hwp4m.search, "_TIME_CHECK_MASK", mask)
        monkeypatch.setattr(hwp4m.search, "time", _expiring_clock())
        outcome = solve(instance, time_limit=1.0)
        assert (outcome.status, outcome.nodes) == ("timeout", nodes) and nodes > mask
        monkeypatch.setattr(hwp4m.search, "time", _expiring_clock())
        assert solve_cached(instance, cache_dir=tmp_path, time_limit=1.0).status == "timeout"
    assert list(tmp_path.iterdir()) == []
    assert all(len(lines) == 1 for lines in reached)  # each case, solved twice, ends at one check
    assert set().union(*reached) == checks and len(checks) == len(_CLOCK_CHECKS)


def test_a_search_never_returns_or_caches_an_unproven_result(tmp_path, monkeypatch):
    monkeypatch.setattr(hwp4m.search, "first_proven", lambda instance, docs: None)
    instance = cm_factorization_instance(9, 3)
    invalid = "^search produced an invalid result for cmfact-n9-m3$"
    with pytest.raises(RuntimeError, match=invalid):
        solve(instance)
    with pytest.raises(RuntimeError, match=invalid):
        solve_cached(instance, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_search_is_deterministic():
    a = solve(cm_factorization_instance(9, 3))
    b = solve(cm_factorization_instance(9, 3))
    assert a.solution.factors == b.solution.factors
    assert a.nodes == b.nodes


# ============================================================
# packaged ingredients
# ============================================================


def test_equipartite_search_solves_three_groups_of_four():
    outcome = solve_cached(equipartite_instance(4, 3, 3))
    assert outcome.status == "found"
    from hwp4m.model import equipartite_graph

    rep = verify_factors_cover(outcome.solution.factors, equipartite_graph(4, 3))
    assert rep.ok


def test_equipartite_instance_rejects_odd_degree():
    with pytest.raises(ValueError):
        equipartite_instance(3, 4, 3)


# ============================================================
# caching
# ============================================================


def test_disk_cache_round_trips_found_results(tmp_path):
    first = solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path)
    assert first.status == "found"
    cached_files = list(tmp_path.iterdir())
    assert len(cached_files) == 1

    # the expired limit proves the result now comes from disk, not from a
    # rerun of the search
    second = solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path, time_limit=0.0)
    assert second.status == "found"
    assert second.solution.factors == first.solution.factors


def test_a_second_cache_directory_is_filled_too(tmp_path):
    first = solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path / "a")
    second = solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path / "b")
    assert second.solution.factors == first.solution.factors
    assert len(list((tmp_path / "b").iterdir())) == 1


def test_corrupted_cache_is_ignored_and_recomputed(tmp_path):
    first = solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path)
    path = next(tmp_path.iterdir())
    # text json.loads rejects, and nesting past its depth
    for corrupted in (b"{ not json", b"[" * 100000 + b"]" * 100000):
        path.write_bytes(corrupted)
        again = solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path)
        assert again.status == "found"
        assert again.solution.factors == first.solution.factors


def test_a_deleted_cache_file_is_not_remembered(tmp_path):
    instance = cm_factorization_instance(9, 3)
    assert solve_cached(instance, cache_dir=tmp_path).status == "found"
    os.unlink(_cache_path(instance, str(tmp_path)))
    # no copy is kept in the process: with no search budget, nothing is found
    assert solve_cached(instance, cache_dir=tmp_path, time_limit=0.0).status == "timeout"


def test_a_rewritten_cache_file_is_read_and_proven_again(tmp_path):
    # another process replaces the file with a different valid factorization
    # (the found one, relabelled); the next call returns what the file holds
    instance = cm_factorization_instance(9, 3)
    first = solve_cached(instance, cache_dir=tmp_path)
    other = tuple(
        two_factor([[(x + 1) % 9 for x in c] for c in f.cycles], 9, cycle_length=3)
        for f in first.solution.factors
    )
    assert other != first.solution.factors
    path = _cache_path(instance, str(tmp_path))
    with open(path, "wb") as fh:
        fh.write(encode_solution(Solution(v=9, factors=other)))
    again = solve_cached(instance, cache_dir=tmp_path, time_limit=0.0)
    assert again.status == "found"
    assert again.solution.factors == other


def test_cache_write_does_not_collide_with_a_leftover_temporary(tmp_path):
    # whatever sits at path + ".tmp" (here a directory, which cannot be
    # opened for writing) belongs to another writer and must not block this one
    path = _cache_path(cm_factorization_instance(9, 3), str(tmp_path))
    os.mkdir(path + ".tmp")
    assert solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path).status == "found"
    assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(path), os.path.basename(path) + ".tmp"])
    again = solve_cached(cm_factorization_instance(9, 3), cache_dir=tmp_path, time_limit=0.0)
    assert again.status == "found"


def test_a_failed_cache_publish_leaves_no_temporary(tmp_path):
    # a directory at the cache path cannot be replaced by the written file
    instance = cm_factorization_instance(9, 3)
    path = _cache_path(instance, str(tmp_path))
    os.mkdir(path)
    assert solve_cached(instance, cache_dir=tmp_path).status == "found"
    assert os.listdir(tmp_path) == [os.path.basename(path)]
    assert os.listdir(path) == []


def test_cache_files_keep_their_names():
    # a cache directory filled by an earlier release is still found: each
    # name carries a hash of the instance key, which must not drift
    names = {
        cm_factorization_instance(9, 3): "cmfact-n9-m3-311b409c5defcfbe.json",
        cm_factorization_instance(10, 5): "cmfact-n10-m5-f69fda34e6214300.json",
        equipartite_instance(4, 3, 3): "equi-a4-b3-c3-02c87665f8ad978a.json",
        c4_cm3_split_instance(3): "blowup-split-m3-c139a7042da9d601.json",
    }
    for instance, name in names.items():
        assert _cache_path(instance, "D") == os.path.join("D", name)


def test_timeouts_are_never_cached(tmp_path):
    out = solve_cached(cm_factorization_instance(15, 5), cache_dir=tmp_path, time_limit=0.0)
    assert out.status == "timeout"
    assert list(tmp_path.iterdir()) == []
