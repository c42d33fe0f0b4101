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
from dataclasses import replace
from pathlib import Path

import pytest

import hwp4m.model
import hwp4m.verifier
from test_acceptance import _mutate

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
    equipartite_graph,
    one_factor,
    switch_graph,
    switch_matching_edges,
    two_factor,
)
from hwp4m.outer import walecki
from hwp4m.verifier import (
    Report,
    Violation,
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
    rejecting them must not draw more than 10^6 ambient edges or edge codes
    from the walks, list the switch matching, nor walk the vertex range once
    per factor."""
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

    walk, code_walk = EdgeSpace.edges, EdgeSpace.edge_codes

    def guarded_edges(space):
        for drawn, edge in enumerate(walk(space), 1):
            if drawn > 10**6:
                raise AssertionError("drew more than 10^6 ambient edges")
            yield edge

    def guarded_codes(space):
        for drawn, code in enumerate(code_walk(space), 1):
            if drawn > 10**6:
                raise AssertionError("drew more than 10^6 ambient edge codes")
            yield code

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
    monkeypatch.setattr(EdgeSpace, "edge_codes", guarded_codes)
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
    """A valid tiling of K_v or K_v - I is accepted by comparing its bitmap
    rows with the ambient's, row by row: neither sorted walk of the
    ambient is drawn, and its rows are drawn once."""
    sol = build(404, 101, 3, 198)

    def guarded_walk(space):
        raise AssertionError(f"walked the edges of {space.kind} on a valid solution")

    drawn = []
    rows = EdgeSpace.rows
    monkeypatch.setattr(EdgeSpace, "edges", guarded_walk)
    monkeypatch.setattr(EdgeSpace, "edge_codes", guarded_walk)
    monkeypatch.setattr(EdgeSpace, "rows", lambda space: drawn.append(space.kind) or rows(space))
    rep = verify_solution(sol)
    assert rep.ok and (rep.r_found, rep.s_found) == (3, 198)
    assert drawn == ["complete"]


def test_verifying_a_v804_solution_allocates_under_1_mb():
    """The accept path holds one v^2 bitmap (646 KB here, as 804 rows), one
    ambient row at a time and one factor's vertex lists: it never joins
    either bitmap into v^2 bytes, nor lists all 322806 codes (over 11 MB)."""
    sol = build(804, 201, 5, 396)
    rep, peak = _traced_peak(lambda: verify_solution(sol))
    assert rep.ok
    assert peak < 1_000_000


def test_rejecting_single_edits_of_a_v804_solution_allocates_under_1_mb():
    """A rejection is explained from the rows the tiling was checked
    against, one ambient row at a time: it never joins the rows into v^2
    bytes, nor lists every edge code."""
    sol = build(804, 201, 5, 396)
    for op in range(4):
        rep, peak = _traced_peak(lambda: verify_solution(_mutate(sol, random.Random(op), op)))
        assert not rep.ok
        assert peak < 1_000_000, (op, peak)


def test_rejecting_a_dense_tiling_walks_no_ambient_edge(monkeypatch):
    """Each single edit of a K_v - I tiling is explained from the v^2
    bitmaps: neither sorted walk of the ambient is drawn."""
    sol = build(404, 101, 3, 198)

    def guarded_walk(space):
        raise AssertionError(f"walked the edges of {space.kind} to reject a dense tiling")

    monkeypatch.setattr(EdgeSpace, "edges", guarded_walk)
    monkeypatch.setattr(EdgeSpace, "edge_codes", guarded_walk)
    for op in range(4):
        rep = verify_solution(_mutate(sol, random.Random(op), op))
        assert not rep.ok and rep.codes() & {"EdgeMissing", "EdgeDuplicated", "EdgeForeign"}


def test_a_document_listing_few_dense_edges_never_allocates_a_bitmap(monkeypatch):
    """A complete ambient takes a bitmap only when its v^2 bytes are at
    most four per listed edge; a shorter document is explained by the
    sorted compare, and never draws the ambient's rows."""

    def guarded_bitmap(space):
        raise AssertionError(f"drew the bitmap rows of {space.kind}")

    v = 101
    factors = tuple(walecki(v))  # before the guard: walecki's own proof draws K_101's rows
    monkeypatch.setattr(EdgeSpace, "rows", guarded_bitmap)
    for kept in (factors[:12], factors[:25]):  # 4 * 101 * 25 < 101^2
        rep = verify_solution(Solution(v=v, factors=kept))
        assert rep.codes() == {"CountMismatch", "EdgeMissing"}


def test_spaces_without_dense_edges_never_allocate_a_bitmap(monkeypatch):
    """An edgeless equipartite(a, 1) space and the sparse block ambients
    are certified without drawing the rows of a v^2 bitmap, even for large
    v."""

    def guarded_bitmap(space):
        raise AssertionError(f"drew the bitmap rows of {space.kind}")

    monkeypatch.setattr(EdgeSpace, "rows", guarded_bitmap)
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
