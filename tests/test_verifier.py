"""The independent oracle: factor structure, matchings, and edge accounting.

Everything here certifies objects against their ambient edge sets from
scratch: a 2-factor must span and be 2-regular, the removed 1-factor must be
a perfect matching, and the multiset union of all factor edges (plus the
matching) must tile the ambient exactly; duplication, absence, and
foreignness are reported separately.
"""

import ast
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import reference_verifier as oracle

import hwp4m.model
import hwp4m.verifier
from test_acceptance import _mutate
from test_codec_differential import Label, _packed

from hwp4m.blocks import c4_block, switch_block
from hwp4m.composer import build
from hwp4m.k24 import k24_solution
from hwp4m.model import (
    EdgeSpace,
    OneFactor,
    Solution,
    TwoFactor,
    complete_graph,
    cycle_blowup4,
    decode_solution,
    encode_solution,
    equipartite_graph,
    one_factor,
    switch_graph,
    switch_matching_edges,
    two_factor,
    vertex_view,
)
from hwp4m.outer import hamilton_decomposition, walecki
from hwp4m.verifier import (
    Report,
    Violation,
    _tables_tile,
    certifies,
    verify_block,
    verify_factors_cover,
    verify_solution,
)

# ============================================================
# single factors and matchings
# ============================================================


def _alone(factor):
    """The fault codes of a lone factor covered against K_n, but for the
    edges it leaves missing, so that only its vertex structure can fail."""
    return verify_factors_cover([factor], complete_graph(factor.n)).codes() - {"EdgeMissing"}


def test_two_disjoint_triangles_on_six_vertices_ok():
    f = two_factor([(0, 1, 2), (3, 4, 5)], 6, 3)
    assert _alone(f) == set()


def test_one_triangle_on_six_vertices_not_spanning():
    f = two_factor([(0, 1, 2)], 6, 3)
    assert "NotSpanning" in _alone(f)


def test_cycles_sharing_a_vertex_violate():
    f = two_factor([(0, 1, 2), (2, 3, 4)], 5, 3)
    assert _alone(f) == {"NotTwoRegular"}


def _matching_alone(edges, n):
    return verify_factors_cover([], complete_graph(n), one_factor(edges)).codes() - {"EdgeMissing"}


def test_matching_must_be_perfect():
    assert _matching_alone([(0, 1), (2, 3)], 4) == set()
    assert _matching_alone([(0, 1)], 4) == {"MatchingInvalid"}
    assert _matching_alone([(0, 1), (1, 2), (0, 3)], 4) == {"MatchingInvalid"}


def test_matching_against_allowed_edge_set():
    m = 5
    block = switch_block(m)
    assert verify_block(block).ok
    # a perfect matching inside the parts, outside the blow-up C_m[4]
    inside_parts = [(4 * p + a, 4 * p + a + 1) for p in range(m) for a in (0, 2)]
    rep = verify_block(Solution(v=4 * m, factors=block.factors, one_factor=one_factor(inside_parts)))
    assert "MatchingInvalid" in rep.codes()


# ============================================================
# edge cover accounting
# ============================================================


def test_edge_cover_reports_each_failure_mode_separately():
    first, second = walecki(5)
    space = complete_graph(5)
    assert verify_factors_cover([first, second], space).ok
    assert verify_factors_cover([first], space).codes() == {"EdgeMissing"}
    assert verify_factors_cover([first, first, second], space).codes() == {"EdgeDuplicated"}
    # a switch block with its matching is the blow-up plus a K_4 in each part
    block = switch_block(5)
    rep = verify_factors_cover(block.factors, cycle_blowup4(5), block.one_factor)
    assert rep.codes() == {"EdgeForeign"}


# ============================================================
# full solutions
# ============================================================


def test_k24_table_is_certified():
    rep = verify_solution(k24_solution())
    assert rep.ok
    assert (rep.r_found, rep.s_found) == (4, 7)


def _mutate_k24(edit):
    sol = k24_solution()
    factors = list(sol.factors)
    edit(factors)
    return Solution(
        v=24, factors=tuple(factors), m=3, r=4, s=7, one_factor=sol.one_factor
    )


def test_deleting_a_cycle_reports_missing_edges_and_spanning():
    def drop_first_cycle(factors):
        f = factors[1]
        factors[1] = two_factor(f.cycles[1:], 24, f.cycle_length)

    rep = verify_solution(_mutate_k24(drop_first_cycle))
    assert not rep.ok
    assert "EdgeMissing" in rep.codes()
    assert "NotSpanning" in rep.codes()


def test_rewiring_one_square_reports_foreign_or_duplicated():
    def rewire(factors):
        f = factors[0]
        cycles = [(0, 1, 10, 8) if c == (0, 1, 10, 9) else c for c in f.cycles]
        assert (0, 1, 10, 8) in cycles
        factors[0] = two_factor(cycles, 24, 4)

    rep = verify_solution(_mutate_k24(rewire))
    assert not rep.ok
    assert rep.codes() & {"EdgeForeign", "EdgeDuplicated"}


def test_wrong_declared_split_is_a_count_mismatch():
    sol = k24_solution()
    wrong = Solution(
        v=24, factors=sol.factors, m=3, r=5, s=6, one_factor=sol.one_factor
    )
    rep = verify_solution(wrong)
    assert not rep.ok
    assert "CountMismatch" in rep.codes()


def test_declared_split_without_m_must_match_the_factors():
    # all-C4 documents are written without m; without m, r counts the
    # C4-factors and s every factor of another uniform length
    all_c4 = build(12, 3, 5, 0)
    mixed = replace(build(12, 3, 1, 4), m=None)
    assert all_c4.m is None
    assert verify_solution(all_c4).ok and verify_solution(mixed).ok
    for wrong in (replace(all_c4, r=0, s=5), replace(mixed, r=4, s=1)):
        rep = verify_solution(wrong)
        assert rep.codes() == {"CountMismatch"}
        assert f"declared r={wrong.r} s={wrong.s}, found lengths" in rep.summary()


def test_each_declared_count_is_audited_on_its_own():
    # two C5-factors of K_5: a document declaring r alone or s alone is
    # held to that count, with or without m
    pentagons = Solution(v=5, factors=(two_factor([(0, 1, 2, 3, 4)], 5), two_factor([(0, 2, 4, 1, 3)], 5)))
    for ok in (replace(pentagons, r=0), replace(pentagons, s=2), replace(pentagons, m=5, s=2)):
        assert verify_solution(ok).ok
    for wrong, declared in (
        (replace(pentagons, r=1), "declared r=1"),
        (replace(pentagons, s=1), "declared s=1"),
        (replace(pentagons, m=3, s=2), "declared s=2 m=3"),
        (replace(pentagons, m=5, r=2), "declared r=2 m=5"),
    ):
        rep = verify_solution(wrong)
        assert rep.codes() == {"CountMismatch"}
        assert rep.summary() == f"CountMismatch: {declared}, found lengths {{5: 2}}"
    # the document that verified with r_found 0 before single counts were audited
    doc = b'{"v":5,"r":1,"factors":[{"cycles":[[0,1,2,3,4]]},{"cycles":[[0,2,4,1,3]]}]}'
    rep = verify_solution(decode_solution(doc))
    assert (rep.ok, rep.r_found, rep.codes()) == (False, 0, {"CountMismatch"})


def test_even_order_requires_a_removed_matching():
    sol = k24_solution()
    bare = Solution(v=24, factors=sol.factors, m=3, r=4, s=7, one_factor=None)
    rep = verify_solution(bare)
    assert not rep.ok
    assert "MatchingInvalid" in rep.codes()
    # and the edges of I are then unaccounted for
    assert "EdgeMissing" in rep.codes()


def test_non_uniform_factor_is_flagged():
    f1 = two_factor([(0, 1, 2), (3, 4, 5, 6)], 7, None)
    f2 = two_factor([(0, 2, 4, 6, 1, 3, 5)], 7, 7)
    f3 = two_factor([(0, 3, 6, 2, 5, 1, 4)], 7, 7)
    rep = verify_solution(Solution(v=7, factors=(f1, f2, f3)))
    assert not rep.ok
    assert "NonUniformCycleLength" in rep.codes()


def test_odd_order_complete_graph_solution():
    # K_5 as two Hamilton cycles, no matching
    f1 = two_factor([(0, 1, 2, 3, 4)], 5, 5)
    f2 = two_factor([(0, 2, 4, 1, 3)], 5, 5)
    rep = verify_solution(Solution(v=5, factors=(f1, f2), m=5, r=0, s=2))
    assert rep.ok
    assert (rep.r_found, rep.s_found) == (0, 2)


def test_a_spanning_factor_of_1_and_2_cycles_is_explained_on_the_dense_path():
    """Factor 0 spans 0..4, so it passes the sorted spanning compare, and its
    pairs go straight into the bitmap: the loop 4-4 is foreign and each
    2-cycle writes its edge twice.  A factor that does not span, and the
    matching, pass the filter that keeps a pair (a, b) only when
    0 <= a <= b < n; a loop passes it too, so a loop listed on both sides
    sets one diagonal byte and is quoted once, while a reversed matching
    pair is a stray.  The reference oracle refuses a loop, so the reports
    are pinned as the byte-explained ones."""
    sol = Solution(5, (TwoFactor(((0, 1), (2, 3), (4,)), 5), TwoFactor(((0, 2, 4, 1, 3),), 5, 5)))
    assert verify_solution(sol).summary() == (
        "NonUniformCycleLength: factor 0: cycle lengths [1, 2]; "
        "EdgeMissing: 0-4, 1-2, 3-4; EdgeDuplicated: 0-1, 2-3; EdgeForeign: 4-4"
    )
    loops = TwoFactor(tuple((u,) for u in range(5)), 5)
    fewer = TwoFactor(tuple((u,) for u in range(4)), 5)
    assert verify_factors_cover([loops, fewer], complete_graph(5)).summary() == (
        "NotSpanning: factor 1: vertices uncovered: [4]; "
        "EdgeMissing: 0-1, 0-2, 0-3, 0-4, 1-2, 1-3, ... (10 total); "
        "EdgeForeign: 0-0, 1-1, 2-2, 3-3, 4-4"
    )
    loops = TwoFactor(tuple((u,) for u in range(6)), 6)
    matching = OneFactor(((0, 0), (1, 1), (5, 2), (3, 4)))
    assert verify_factors_cover([loops], complete_graph(6), matching).summary() == (
        "MatchingInvalid: vertices covered twice: [0, 1]; "
        "EdgeMissing: 0-1, 0-2, 0-3, 0-4, 0-5, 1-2, ... (14 total); "
        "EdgeForeign: 0-0, 1-1, 2-2, 3-3, 4-4, 5-2, ... (7 total)"
    )


# ============================================================
# block ambients
# ============================================================


def test_verify_block_infers_blowup_ambient():
    # hand-rolled C4-factorization of C_3[4] is checked in test_blocks; here
    # just confirm the inference path rejects a wrong-sized document
    f = two_factor([(0, 4, 1, 5), (2, 6, 3, 7), (8, 9, 10, 11)], 12, None)
    rep = verify_block(Solution(v=12, factors=(f, f, f, f)))
    assert not rep.ok


def test_verify_factors_cover_with_matching():
    f = two_factor([(0, 1, 2, 3)], 4, 4)
    rep = verify_factors_cover([f], complete_graph(4), one_factor([(0, 2), (1, 3)]))
    assert rep.ok
    rep = verify_factors_cover([f], complete_graph(4), one_factor([(0, 1), (2, 3)]))
    assert not rep.ok


def test_switch_matching_shape():
    m = 7
    edges = switch_matching_edges(m)
    seen = [False] * (4 * m)
    for u, v in edges:
        seen[u] = seen[v] = True
    assert all(seen)
    blowup = set(cycle_blowup4(m).edges())
    assert all(e in blowup for e in edges)


def test_report_summary_is_readable():
    rep = Report(ok=True, violations=[], r_found=2, s_found=3)
    assert "r=2" in rep.summary()


def test_certifies_checks_space_and_cycle_length_multiset():
    sol = Solution(v=5, factors=tuple(walecki(5)))
    assert certifies(sol, complete_graph(5), [5, 5])
    assert not certifies(sol, complete_graph(5), [5, 3])
    assert not certifies(sol, complete_graph(5), [5])
    assert not certifies(sol, complete_graph(6), [5, 5])
    assert not certifies(Solution(v=5, factors=sol.factors[:1]), complete_graph(5), [5])


def test_blowup_of_fewer_than_three_parts_is_refused():
    # around a cycle of 2 parts the two part pairs coincide: no ambient graph
    for make in (cycle_blowup4, switch_graph, lambda m: EdgeSpace("blowup4", (m,))):
        with pytest.raises(ValueError, match="at least 3 parts"):
            make(2)


# ============================================================
# bounded work
# ============================================================


def test_accepting_a_valid_solution_tests_no_membership(monkeypatch):
    """A valid tiling is accepted without the membership test, which only
    explains rejections."""
    sol = build(404, 101, 3, 198)

    def guarded_multiplicity(space):
        raise AssertionError(f"membership test of {space.kind} on a valid solution")

    monkeypatch.setattr(EdgeSpace, "multiplicity", guarded_multiplicity)
    rep = verify_solution(sol)
    assert rep.ok and (rep.r_found, rep.s_found) == (3, 198)


def test_hostile_document_is_rejected_without_enumerating_the_ambient(monkeypatch):
    """Small documents with a huge v, routed as ``hwp4m verify`` routes them:
    rejecting them must not draw more than 10^6 ambient edges from the
    walk, list the switch matching, nor walk the vertex range once per
    factor."""
    v = 200001
    hostile = [
        # ~1.5 MB: a full solution with (v - 1)/2 empty factors names 2*10^10 edges
        (
            b'{"factors":[' + b",".join([b'{"cycles":[]}'] * ((v - 1) // 2)) + b'],"v":%d}' % v,
            {"NotSpanning", "EdgeMissing"},
            "EdgeMissing: 0-1, 0-2, 0-3, 0-4, 0-5, 0-6, ... (20000100000 total)",
        ),
        # 25 bytes: a block of C_100000[4]
        (
            b'{"factors":[],"v":400000}',
            {"CountMismatch", "EdgeMissing"},
            "EdgeMissing: 0-4, 0-5, 0-6, 0-7, 0-399996, 0-399997, ... (1600000 total)",
        ),
        # with a matching: a block of the switch graph on 100000 parts
        (
            b'{"factors":[],"one_factor":[],"v":400000}',
            {"CountMismatch", "EdgeMissing", "MatchingInvalid"},
            "EdgeMissing: 0-1, 0-2, 0-3, 0-4, 0-5, 0-7, ... (2000000 total)",
        ),
    ]

    walk = EdgeSpace.edges

    def guarded_edges(space):
        for drawn, edge in enumerate(walk(space), 1):
            if drawn > 10**6:
                raise AssertionError("drew more than 10^6 ambient edges")
            yield edge

    def guarded_matching(m):
        raise AssertionError(f"listed the switch matching on {m} parts")

    budget = [0]

    def guarded_range(*args):
        for x in range(*args):
            budget[0] -= 1
            if budget[0] < 0:
                raise AssertionError("walked more than 10^6 vertices")
            yield x

    monkeypatch.setattr(EdgeSpace, "edges", guarded_edges)
    monkeypatch.setattr(hwp4m.verifier, "switch_matching_edges", guarded_matching)
    monkeypatch.setattr(hwp4m.verifier, "range", guarded_range, raising=False)
    monkeypatch.setattr(hwp4m.model, "range", guarded_range, raising=False)
    for data, codes, quoted in hostile:
        sol = decode_solution(data)
        budget[0] = 10**6
        full = len(sol.factors) == (sol.v - 1) // 2
        rep = verify_solution(sol) if full else verify_block(sol)
        assert not rep.ok
        assert codes <= rep.codes()
        assert quoted in rep.summary()


def _traced_peak(check):
    """The result of ``check()`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        result = check()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_accepting_a_dense_tiling_walks_no_ambient_edge(monkeypatch):
    """A valid tiling of K_v or K_v - I is accepted by counting its bitmap
    rows from the ambient's row ends, row by row: the sorted walk of the
    ambient is not drawn, and its row ends are drawn once."""
    sol = build(404, 101, 3, 198)

    def guarded_walk(space):
        raise AssertionError(f"walked the edges of {space.kind} on a valid solution")

    drawn = []
    row_ends = EdgeSpace.row_ends
    monkeypatch.setattr(EdgeSpace, "edges", guarded_walk)
    monkeypatch.setattr(EdgeSpace, "row_ends", lambda space: drawn.append(space.kind) or row_ends(space))
    rep = verify_solution(sol)
    assert rep.ok and (rep.r_found, rep.s_found) == (3, 198)
    assert drawn == ["complete"]


def test_verifying_a_v804_solution_allocates_under_1_mb():
    """The accept path holds one v^2 bitmap (646 KB here, as 804 rows), the
    ambient's 804 row ends and one factor's vertex lists: it never draws
    the ambient as bytes, nor lists all 322806 codes (over 11 MB)."""
    sol = build(804, 201, 5, 396)
    rep, peak = _traced_peak(lambda: verify_solution(sol))
    assert rep.ok
    assert peak < 1_000_000


def test_rejecting_single_edits_of_a_v804_solution_allocates_under_1_mb():
    """A rejection is explained from the rows and row ends the tiling was
    checked against: it never joins the rows into v^2 bytes, nor lists
    every edge code."""
    sol = build(804, 201, 5, 396)
    for op in range(4):
        rep, peak = _traced_peak(lambda: verify_solution(_mutate(sol, random.Random(op), op)))
        assert not rep.ok
        assert peak < 1_000_000, (op, peak)


def test_rejecting_a_dense_tiling_walks_no_ambient_edge(monkeypatch):
    """Each single edit of a K_v - I tiling is explained from the v^2
    bitmaps: the sorted walk of the ambient is not drawn."""
    sol = build(404, 101, 3, 198)

    def guarded_walk(space):
        raise AssertionError(f"walked the edges of {space.kind} to reject a dense tiling")

    monkeypatch.setattr(EdgeSpace, "edges", guarded_walk)
    for op in range(4):
        rep = verify_solution(_mutate(sol, random.Random(op), op))
        assert not rep.ok and rep.codes() & {"EdgeMissing", "EdgeDuplicated", "EdgeForeign"}


def test_a_document_listing_few_dense_edges_never_allocates_a_bitmap(monkeypatch):
    """A complete ambient takes a bitmap only when its v^2 bytes are at
    most four per listed edge; a shorter document is explained by the
    sorted compare, and never draws the ambient's row ends."""

    def guarded_bitmap(space):
        raise AssertionError(f"drew the row ends of {space.kind}")

    v = 101
    factors = tuple(walecki(v))  # before the guard: walecki's own proof draws K_101's row ends
    monkeypatch.setattr(EdgeSpace, "row_ends", guarded_bitmap)
    for kept in (factors[:12], factors[:25]):  # 4 * 101 * 25 < 101^2
        rep = verify_solution(Solution(v=v, factors=kept))
        assert rep.codes() == {"CountMismatch", "EdgeMissing"}


def test_spaces_without_dense_edges_never_allocate_a_bitmap(monkeypatch):
    """An edgeless equipartite(a, 1) space and the sparse block ambients
    are certified without a v^2 bitmap, whose check would draw the row
    ends, even for large v."""

    def guarded_bitmap(space):
        raise AssertionError(f"drew the row ends of {space.kind}")

    monkeypatch.setattr(EdgeSpace, "row_ends", guarded_bitmap)
    edgeless = equipartite_graph(3000, 1)  # v^2 = 9 MB
    c4, switch = c4_block(2001), switch_block(1001)  # v^2 = 64 MB and 16 MB
    for check in (
        lambda: certifies(Solution(v=3000, factors=()), edgeless, []),
        lambda: verify_factors_cover([two_factor([(0, 1, 2)], 3000, 3)], edgeless).ok is False,
        lambda: verify_block(c4).ok,
        lambda: verify_block(switch).ok,
    ):
        ok, peak = _traced_peak(check)
        assert ok and peak < 4_000_000


def test_a_tiny_document_with_a_huge_v_allocates_under_1_mb():
    """A 46-byte document costs what it lists, not what its v names: no
    vertex range 0..v-1 is built for a factor that lists three vertices,
    when it is decoded or when it is verified."""
    data = b'{"factors":[{"cycles":[[0,1,2]]}],"v":2000000}'
    summaries = {
        verify_solution: "CountMismatch: v=2000000 needs 999999 two-factors, got 1; "
        "MatchingInvalid: even order but no removed 1-factor; "
        "NotSpanning: factor 0: vertices uncovered: [3, 4, 5, 6, 7, 8]; "
        "EdgeMissing: 0-3, 0-4, 0-5, 0-6, 0-7, 0-8, ... (1999998999997 total)",
        verify_block: "CountMismatch: ambient blowup4 needs 4 two-factors, got 1; "
        "NotSpanning: factor 0: vertices uncovered: [3, 4, 5, 6, 7, 8]; "
        "EdgeMissing: 0-4, 0-5, 0-6, 0-7, 0-1999996, 0-1999997, ... (8000000 total); "
        "EdgeForeign: 0-1, 0-2, 1-2",
    }
    for entry, summary in summaries.items():
        sol, peak = _traced_peak(lambda: decode_solution(data))
        assert peak < 1_000_000, ("decode_solution", peak)
        rep, peak = _traced_peak(lambda: entry(sol))
        assert rep.summary() == summary
        assert peak < 1_000_000, (entry.__name__, peak)


def test_the_first_uncovered_vertices_follow_a_long_covered_run():
    # the scan for missing vertices stops after six, past the 100 000 covered
    v = 10 ** 9
    sol = Solution(v=v, factors=(two_factor([tuple(range(100_000))], v, 100_000),))
    rep = verify_solution(sol)
    assert Violation(
        "NotSpanning", "factor 0: vertices uncovered: [100000, 100001, 100002, 100003, 100004, 100005]"
    ) in rep.violations


def test_a_nan_vertex_is_out_of_range():
    # NaN fails every comparison: a range test written as v < 0 or v >= n
    # passes it, one written as not 0 <= u < n refuses it
    nan = float("nan")

    def spoiled(sol):
        f = sol.factors[0]
        cycles = ((nan, *f.cycles[0][1:]), *f.cycles[1:])
        return replace(sol, factors=(replace(f, cycles=cycles), *sol.factors[1:]))

    for check, reference, sol in (
        (verify_solution, oracle.verify_solution, build(12, 3, 3, 2)),
        (verify_block, oracle.verify_block, c4_block(3)),
    ):
        rep, ref = check(spoiled(sol)), reference(spoiled(sol))
        assert Violation("NotSpanning", "factor 0: vertices out of range: [nan]") in rep.violations
        # pairs that hold NaN have no sort order, so only the span lines are compared
        spans = [[x for x in r.violations if x.code == "NotSpanning"] for r in (rep, ref)]
        assert spans[0] == spans[1]
    assert certifies(c4_block(3), cycle_blowup4(3), [4] * 4)
    assert not certifies(spoiled(c4_block(3)), cycle_blowup4(3), [4] * 4)


# ============================================================
# the byte-table proof of small dense tilings
# ============================================================


def _tables(sol, space=None):
    """What the byte tables decide on ``sol`` packed as a build is: its
    factor counts, or None, also when it cannot be packed."""
    packed = _packed(sol)
    if packed is None:
        return None
    return _tables_tile(packed.factors, packed.one_factor, space or complete_graph(sol.v), vertex_view(packed))


def _relabelled(sol, old, new):
    """``sol`` with every factor vertex ``old`` listed as ``new``."""
    factors = (TwoFactor(tuple(tuple(new if u == old else u for u in c) for c in f.cycles), f.n, f.cycle_length)
               for f in sol.factors)
    return replace(sol, factors=tuple(factors))


def test_the_tables_accept_k255_and_leave_order_256_to_the_bitmap(monkeypatch):
    k255, k256 = _packed(hamilton_decomposition(255)), hamilton_decomposition(256)
    drawn = []
    row_ends = EdgeSpace.row_ends
    monkeypatch.setattr(EdgeSpace, "row_ends", lambda space: drawn.append(space.vertex_count) or row_ends(space))
    assert _tables(k255) == Counter({255: 127})
    assert verify_solution(k255).summary() == "ok (r=0, s=127)" and drawn == []
    assert _tables(k256) is None
    assert verify_solution(k256).summary() == "ok (r=0, s=127)" and drawn == [256]
    f = k256.factors[0]
    cyc = list(f.cycles[0])
    cyc[1], cyc[2] = cyc[2], cyc[1]
    swapped = replace(k256, factors=(TwoFactor((tuple(cyc),), f.n, f.cycle_length), *k256.factors[1:]))
    assert verify_solution(swapped).summary() == "EdgeMissing: 0-1, 2-254; EdgeDuplicated: 0-254, 1-2"
    assert drawn == [256, 256]


def test_the_tables_reject_one_and_two_cycles_in_a_spanning_factor():
    # each vertex is its own successor, or a 2-cycle's successor is also its predecessor
    loops = Solution(v=3, factors=(TwoFactor(((0,), (1,), (2,)), 3, 1),))
    pairs = Solution(v=4, factors=(TwoFactor(((0, 1), (2, 3)), 4, 2),), one_factor=one_factor([(0, 2), (1, 3)]))
    for sol, summary in (
        (loops, "EdgeMissing: 0-1, 0-2, 1-2; EdgeForeign: 0-0, 1-1, 2-2"),
        (pairs, "EdgeMissing: 0-3, 1-2; EdgeDuplicated: 0-1, 2-3"),
    ):
        assert _tables(sol) is None
        assert verify_solution(sol).summary() == summary


def test_the_tables_reject_a_factor_that_lists_a_vertex_twice():
    k5 = hamilton_decomposition(5)
    twice = replace(k5, factors=(TwoFactor(((0, 1, 3, 3, 4),), 5, 5), k5.factors[1]))
    assert _tables(twice) is None
    assert verify_solution(twice).summary() == (
        "NotTwoRegular: factor 0: vertices in several cycles: [3]; NotSpanning: factor 0: vertices uncovered: [2]; "
        "EdgeMissing: 2-3, 2-4; EdgeDuplicated: 3-4; EdgeForeign: 3-3"
    )


def test_the_tables_reject_reversed_and_repeated_matching_pairs():
    k6 = hamilton_decomposition(6)
    assert k6.one_factor.edges == ((0, 4), (1, 3), (2, 5))
    for edges, summary in (
        (((4, 0), (1, 3), (2, 5)), "EdgeMissing: 0-4; EdgeForeign: 4-0"),
        (
            ((0, 4), (0, 4), (2, 5)),
            "MatchingInvalid: vertices covered twice: [0, 4]; MatchingInvalid: vertices uncovered: [1, 3]; "
            "EdgeMissing: 1-3; EdgeDuplicated: 0-4",
        ),
    ):
        sol = replace(k6, one_factor=OneFactor(edges))
        assert _tables(sol) is None
        assert verify_solution(sol).summary() == summary


@pytest.mark.parametrize("edges", [((0, 4, 1), (1, 3), (2, 5)), ((0,), (4, 1, 3), (2, 5))], ids=["3-tuple", "1-tuple"])
def test_a_matching_pair_of_other_than_two_ends_still_raises(edges):
    sol = replace(hamilton_decomposition(6), one_factor=OneFactor(edges))
    assert _tables(sol) is None
    with pytest.raises(ValueError):
        verify_solution(sol)


def test_the_tables_decline_a_wrong_declared_length_and_mixed_lengths():
    k5 = hamilton_decomposition(5)
    declared = replace(k5, factors=(replace(k5.factors[0], cycle_length=4), k5.factors[1]))
    # K_7 as a 3 + 4 factor and two Hamilton cycles: a tiling but for the mixed lengths
    mixed = Solution(v=7, factors=(
        TwoFactor(((0, 1, 2), (3, 4, 5, 6)), 7),
        TwoFactor(((0, 3, 1, 4, 6, 2, 5),), 7),
        TwoFactor(((0, 6, 1, 5, 3, 2, 4),), 7),
    ))
    # the C4-factor of a v = 12 build, its vertex list cut as 3 + 4 + 5: cut
    # in fours, at the mean length, the same list would tile K_12 - I
    hwp12 = build(12, 3, 1, 4)
    assert hwp12.factors[0].cycles == ((0, 1, 3, 2), (4, 5, 7, 6), (8, 9, 11, 10))
    recut = TwoFactor(((0, 1, 3), (2, 4, 5, 7), (6, 8, 9, 11, 10)), 12)
    recut = replace(hwp12, factors=(recut, *hwp12.factors[1:]))
    for sol, summary in (
        (declared, "NonUniformCycleLength: factor 0: declared 4, actual 5"),
        (mixed, "NonUniformCycleLength: factor 0: cycle lengths [3, 4]"),
        (
            recut,
            "NonUniformCycleLength: factor 0: cycle lengths [3, 4, 5]; EdgeMissing: 0-2, 2-3, 4-6, 6-7, 8-10; "
            "EdgeDuplicated: 0-3, 2-4, 2-7, 6-8, 6-10; CountMismatch: declared r=1 s=4 m=3, found lengths {3: 4}",
        ),
    ):
        assert _tables(sol) is None
        assert verify_solution(sol).summary() == summary


class _Indexed:
    """An object whose index is 2 but that equals no int."""

    def __index__(self):
        return 2


def test_the_full_pass_reads_a_vertex_as_the_int_it_equals():
    """True, False, an int subclass and 2.0 are accepted as the ints they
    equal, and an object that has an index but does not equal it is no
    vertex, on which the full pass raises.  None of them is packed as a
    build is, so none reaches the byte tables."""
    k5 = hamilton_decomposition(5)
    for old, new in ((1, True), (0, False), (2, Label(2)), (2, 2.0)):
        assert _packed(_relabelled(k5, old, new)) is None
        assert verify_solution(_relabelled(k5, old, new)).summary() == "ok (r=0, s=2)"
    assert _packed(_relabelled(k5, 2, _Indexed())) is None
    with pytest.raises(TypeError):
        verify_solution(_relabelled(k5, 2, _Indexed()))


def test_verify_solution_hands_the_tables_only_a_packed_solutions_view(monkeypatch):
    """The tables read a packed Solution's view, and still check the
    matching themselves; a Solution with no view, built by hand, replaced
    or decoded, is decided by the full pass alone."""
    k5, k6 = _packed(hamilton_decomposition(5)), _packed(hamilton_decomposition(6))
    reversed_pair = _packed(replace(k6, one_factor=OneFactor(((4, 0), (1, 3), (2, 5)))))
    for sol, counts in ((k5, Counter({5: 2})), (k6, Counter({6: 2})), (reversed_pair, None)):
        assert _tables_tile(sol.factors, sol.one_factor, complete_graph(sol.v), vertex_view(sol)) == counts
    tables_tile, given = hwp4m.verifier._tables_tile, []

    def recorded(factors, matching, space, view):
        given.append(view)
        return tables_tile(factors, matching, space, view)

    monkeypatch.setattr(hwp4m.verifier, "_tables_tile", recorded)
    others = (hamilton_decomposition(6), replace(k6), decode_solution(encode_solution(k6)), hamilton_decomposition(257))
    for sol in (k6, *others):
        assert verify_solution(sol).ok
    assert given == [vertex_view(k6)]


def _shape_cases():
    k5, k7 = hamilton_decomposition(5), hamilton_decomposition(7)
    return {
        "non_uniform": (
            replace(k7, factors=(TwoFactor(((0, 1, 2), (3, 4, 5, 6)), 7), *k7.factors[1:])),
            None,
            "NonUniformCycleLength: factor 0: cycle lengths [3, 4]; EdgeMissing: 0-6, 1-5, 2-4, 2-5; "
            "EdgeDuplicated: 0-2, 1-2, 4-5, 5-6",
        ),
        "no_cycles": (
            replace(k5, factors=(k5.factors[0], TwoFactor((), 5, 5))),
            ((5, 1), (0, 0)),
            "NotSpanning: factor 1: vertices uncovered: [0, 1, 2, 3, 4]; NotSpanning: factor 1: factor has no "
            "cycles; EdgeMissing: 0-2, 0-3, 1-2, 1-4, 3-4",
        ),
        "declared_4_listed_5": (
            replace(k5, factors=(TwoFactor(k5.factors[0].cycles, 5, 4), k5.factors[1])),
            ((5, 1), (5, 1)),
            "NonUniformCycleLength: factor 0: declared 4, actual 5",
        ),
    }


@pytest.mark.parametrize("name", sorted(_shape_cases()))
def test_the_tables_decline_a_view_whose_shapes_do_not_tile(name):
    """Each factor's shape in the view must be one cycle length k, as
    declared, whose cycles cover the order; else the tables decline and the
    full pass reports the document as before.  Mixed lengths cannot be
    packed, so they have no view."""
    sol, shapes, summary = _shape_cases()[name]
    packed = _packed(sol)
    assert (packed and vertex_view(packed).shapes) == shapes
    assert _tables(sol) is None
    assert verify_solution(sol).summary() == verify_solution(packed or sol).summary() == summary


def test_the_tables_reject_an_edge_inside_a_part_of_k_a_b():
    space = equipartite_graph(3, 3)
    triangles = [
        TwoFactor(((0, 3, 6), (1, 4, 7), (2, 5, 8)), 9, 3),
        TwoFactor(((0, 4, 8), (1, 5, 6), (2, 3, 7)), 9, 3),
        TwoFactor(((0, 5, 7), (1, 3, 8), (2, 4, 6)), 9, 3),
    ]
    assert _tables(Solution(v=9, factors=tuple(triangles)), space) == Counter({3: 3})
    assert certifies(Solution(v=9, factors=tuple(triangles)), space, [3, 3, 3])
    # 1 and 3 trade cycles in factor 0, which still spans: 0-1 and 3-4 lie in parts
    inside = [TwoFactor(((0, 1, 6), (3, 4, 7), (2, 5, 8)), 9, 3), *triangles[1:]]
    assert _tables(Solution(v=9, factors=tuple(inside)), space) is None
    assert not certifies(Solution(v=9, factors=tuple(inside)), space, [3, 3, 3])
    assert verify_factors_cover(inside, space).summary() == (
        "EdgeMissing: 0-3, 1-4, 1-7, 3-6; EdgeDuplicated: 1-6, 3-7; EdgeForeign: 0-1, 3-4"
    )


class _Untouchable:
    """A factor, or a view, that must not be read."""

    cycle_length = None

    @property
    def cycles(self):
        raise AssertionError("read a cycle of a document the tables decline by its counts")

    def __iter__(self):
        raise AssertionError("read the view of a document the tables decline by its counts")


def test_the_tables_decline_a_misfit_document_before_reading_a_cycle():
    """The order, the part size and the factor count decide whether the
    tables apply; a document they do not fit costs O(1).  The 46-byte
    document of v = 2 * 10^6 is one such (see the tiny-document test)."""
    for count, matching, space in (
        (2, None, complete_graph(7)),  # 2 * 2 + 1 != 7
        (3, one_factor([(0, 1)]), complete_graph(7)),  # 2 * 3 + 1 + 1 != 7
        (5, None, equipartite_graph(3, 3)),  # 2 * 5 + 3 != 9
        (128, None, complete_graph(257)),  # each of these two fits, but is above 255
        (127, one_factor([(0, 1)]), complete_graph(256)),
        (4, None, cycle_blowup4(4)),  # a ring
        (1, None, complete_graph(2_000_000)),
        (0, None, complete_graph(0)),
    ):
        assert _tables_tile([_Untouchable()] * count, matching, space, _Untouchable()) is None


# ============================================================
# independence
# ============================================================


@pytest.mark.parametrize("module", ["verifier", "blocks"])
def test_verifier_imports_only_the_data_layer(module):
    # the verifier certifies, and the blocks are built, from model alone
    tree = ast.parse(Path(hwp4m.verifier.__file__).with_name(f"{module}.py").read_text())
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package_imports.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hwp4m"):
            package_imports.add(node.module.removeprefix("hwp4m."))
        elif isinstance(node, ast.Import):
            package_imports.update(
                a.name.removeprefix("hwp4m.") for a in node.names if a.name.startswith("hwp4m")
            )
    assert package_imports <= {"model"}
