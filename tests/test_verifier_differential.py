"""The verifier against its reference oracle.

``reference_verifier`` keeps the Counter-based implementation that lists
every ambient edge.  On every input here both must reach the same verdict,
the same set of codes and the same r/s counts, and the same (code, detail)
pairs in any order.  The one exception is a block's wrong switch matching,
where only the oracle adds an "edges outside allowed set" detail.
The inputs are the single-edit mutants of acceptance test 10, mutants of
v = 404 documents, the block sweep of acceptance test 01, edits of the
k24 table, inputs aimed at the verifier's integer edge codes (a stray
whose code aliases a missing edge, reversed matching pairs, an equal-count
edit of every ambient kind, seeded single edits of Walecki covers), inputs
aimed at the bitmap accept of complete and equipartite spaces (valid
solutions of odd and even order, ``certifies`` on equipartite instances,
and edits that keep the listed edge count), inputs aimed at the bitmap's
row-by-row compare and its repeat finder (stray vertices -1 and v, codes
repeated inside a factor and across a factor and the matching, and
equal-count rejections whose in-place clearing pass filters a factor that
does not span), inputs aimed at the pigeonhole span test (2.0 listed for 2,
True for 1, and one vertex repeated in place of another), a span set lent
by a first spanning factor that lists 2.0, True, False or an int subclass,
to a later factor that misses a vertex, or to none when no factor spans,
one vertex u listed as u + 0.5 in a block, a solution or a matching, a
factor listed twice with 2.0 for 2 in the copy, a foreign pair with an
end 8.0, small hostile documents, and documents of negative order.

Every document here that the byte tables accept (a packed Solution on a
dense space of order at most 255) is certified once more with no view,
which leaves the tables out, and both runs must give the same violations
and factor counts; seeded edits of builds and of searched
factorizations, each packed as a build is, aim at that check.
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import chain

import pytest
import reference_verifier as oracle
from test_acceptance import _mutate
from test_codec_differential import Label, _packed

from hwp4m import verifier
from hwp4m.blocks import c4_block, cm_block, mixed_block, switch_block
from hwp4m.composer import build
from hwp4m.k24 import k24_solution
from hwp4m.model import (
    EdgeSpace,
    OneFactor,
    Solution,
    TwoFactor,
    complete_graph,
    cycle_blowup4,
    equipartite_graph,
    one_factor,
    switch_graph,
    switch_matching_edges,
    two_factor,
    vertex_view,
)
from hwp4m.outer import walecki, walecki_even
from hwp4m.search import cm_factorization_instance, equipartite_instance, first_proven, solve
from hwp4m.verifier import certifies, verify_block, verify_factors_cover, verify_solution


@pytest.fixture(autouse=True)
def tables_accepted(monkeypatch):
    """The factor counts of every document the byte tables accept, each
    certified once more with no view, which leaves the tables out: the full
    pass must give the same (violations, by_length), so the tables never
    accept what the bitmap or the sorted pairs reject.  A document the
    tables decline is certified by that full pass as it stands, so it needs
    no second run."""
    tables_tile, accepted = verifier._tables_tile, []

    def checked(factors, matching, space, view):
        counts = tables_tile(factors, matching, space, view)
        if counts is not None:
            assert verifier._certify(factors, matching, space) == ([], counts)
            accepted.append(counts)
        return counts

    monkeypatch.setattr(verifier, "_tables_tile", checked)
    return accepted


def _pairs(report):
    return sorted((v.code, v.detail) for v in report.violations)


def _agree(new, old, details: bool):
    assert (new.ok, new.codes(), new.r_found, new.s_found) == (
        old.ok, old.codes(), old.r_found, old.s_found,
    ), f"new: {new.summary()}\nold: {old.summary()}"
    if details:
        assert _pairs(new) == _pairs(old)


def _agree_solution(sol):
    _agree(verify_solution(sol), oracle.verify_solution(sol), details=True)


def _agree_block(sol):
    new, old = verify_block(sol), oracle.verify_block(sol)
    _agree(new, old, details=False)
    # only the oracle adds this detail to a wrong switch matching
    quoted = [p for p in _pairs(old) if not p[1].startswith("edges outside allowed set")]
    assert _pairs(new) == quoted


def _agree_cover(factors, space, matching=None):
    _agree(
        verify_factors_cover(factors, space, matching),
        oracle.verify_factors_cover(factors, space, matching),
        details=True,
    )


# ============================================================
# mutants of built solutions
# ============================================================


def test_acceptance_10_mutants_agree_with_the_oracle():
    sol = build(28, 7, 5, 8)
    _agree_solution(sol)
    rng = random.Random(20280407)
    for _ in range(400):
        _agree_solution(_mutate(sol, rng))


@pytest.mark.parametrize("request_", [(404, 101, 3, 198), (404, 101, 4, 197)])
def test_v404_document_mutants_agree_with_the_oracle(request_):
    sol = build(*request_)
    _agree_solution(sol)
    rng = random.Random(request_[2])
    for _ in range(6):
        _agree_solution(_mutate(sol, rng))


def test_k24_edits_agree_with_the_oracle():
    sol = k24_solution()
    _agree_solution(sol)
    f = sol.factors[1]
    dropped = list(sol.factors)
    dropped[1] = two_factor(f.cycles[1:], 24, f.cycle_length)
    rewired = list(sol.factors)
    rewired[0] = two_factor(
        [(0, 1, 10, 8) if c == (0, 1, 10, 9) else c for c in sol.factors[0].cycles], 24, 4
    )
    for edit in (
        replace(sol, factors=tuple(dropped)),
        replace(sol, factors=tuple(rewired)),
        replace(sol, r=5, s=6),
        replace(sol, one_factor=None),
        replace(sol, m=None),
        replace(sol, factors=sol.factors[:-1]),
    ):
        _agree_solution(edit)


def test_declared_split_without_m_agrees_with_the_oracle():
    all_c4 = build(12, 3, 5, 0)
    mixed = replace(build(12, 3, 1, 4), m=None)
    for sol in (all_c4, mixed, replace(all_c4, r=0, s=5), replace(mixed, r=4, s=1)):
        _agree_solution(sol)


def test_single_declared_counts_agree_with_the_oracle():
    mixed = build(12, 3, 1, 4)
    for m in (None, 3, 4, 5):
        for r, s in ((1, None), (2, None), (0, None), (None, 4), (None, 3), (None, 5)):
            _agree_solution(replace(mixed, m=m, r=r, s=s))


# ============================================================
# blocks
# ============================================================


def test_acceptance_01_block_sweep_agrees_with_the_oracle(unbent_cm_block):
    for m in range(3, 31):
        for builder in (c4_block, cm_block, mixed_block):
            _agree_block(builder(m))
    for m in range(3, 30, 2):
        _agree_block(switch_block(m))
    _agree_block(unbent_cm_block(7))


def test_block_edits_agree_with_the_oracle():
    rng = random.Random(5)
    for m in (3, 5, 9):
        block = switch_block(m)
        for _ in range(40):
            _agree_block(_mutate(block, rng))
        _agree_block(replace(block, one_factor=None))
        _agree_block(replace(block, one_factor=one_factor([(0, 1), (2, 3)])))
        _agree_cover(block.factors, switch_graph(m + 2))
    mixed = mixed_block(6)
    _agree_cover(mixed.factors, cycle_blowup4(7))
    _agree_block(replace(mixed, factors=mixed.factors[1:]))
    _agree_block(replace(mixed, factors=mixed.factors + mixed.factors[:1]))
    _agree_block(replace(mixed, v=10))
    for m in (3, 4, 10):
        _agree_block(Solution(v=4 * m, factors=()))
        _agree_block(Solution(v=4 * m, factors=(), one_factor=one_factor([])))
        _agree_block(Solution(v=4 * m, factors=(), one_factor=one_factor(switch_matching_edges(m)[1:])))


# ============================================================
# factor covers and hostile documents
# ============================================================


def test_factor_covers_agree_with_the_oracle():
    _agree_cover(walecki(9), complete_graph(9))
    factors, leftover = walecki_even(10)
    _agree_cover(factors, complete_graph(10), leftover)
    _agree_cover(factors, complete_graph(10))
    _agree_cover(factors[1:], complete_graph(10), leftover)
    _agree_cover(factors, complete_graph(10), one_factor([(0, 1), (2, 3)]))
    _agree_cover(walecki(9), equipartite_graph(3, 3))
    tri = [two_factor([(0, 3, 6), (1, 4, 7), (2, 5, 8)], 9, 3)]
    _agree_cover(tri, equipartite_graph(3, 3))
    # missing, duplicated and foreign at once against the sparse kinds
    mixed = list(switch_block(5).factors[:2]) + [c4_block(5).factors[0]] * 2
    _agree_cover(mixed, cycle_blowup4(5))
    _agree_cover(mixed, switch_graph(5))


def _retyped(factor, u, value):
    """``factor`` with vertex ``u`` listed as ``value``."""
    cycles = tuple(tuple(value if w == u else w for w in cyc) for cyc in factor.cycles)
    return replace(factor, cycles=cycles)


def test_the_span_test_keeps_the_set_compares_equality():
    """A factor spans when it lists n vertices and misses none of 0..n-1,
    since it then lists each of them once.  That test keeps the equality of
    the set compare it replaced: a factor that lists 2.0 for 2 or True for
    1 still spans, and one of n in-range vertices with one repeated and one
    missing does not.  The sparse path and K_9's dense path take all three
    edits: 2.0 indexes no bitmap row, so the dense path certifies that
    factor's document on the sorted codes instead."""
    block = c4_block(5)
    k9 = Solution(v=9, factors=tuple(walecki(9)), m=9, r=0, s=4)
    for sol, edits, verify, agree in (
        (block, ((2, 2.0), (1, True)), verify_block, _agree_block),
        (k9, ((2, 2.0), (1, True)), verify_solution, _agree_solution),
    ):
        first = sol.factors[0]
        assert sorted(chain(*first.cycles)) == list(range(sol.v))
        cycles = [list(cyc) for cyc in first.cycles]
        cycles[0][2] = cycles[-1][0]
        repeated = replace(first, cycles=tuple(map(tuple, cycles)))
        for factor in (*(_retyped(first, u, value) for u, value in edits), repeated):
            doc = replace(sol, factors=(factor, *sol.factors[1:]))
            agree(doc)
            spans = factor is not repeated
            report = verify(doc)
            assert report.ok == spans and ("NotSpanning" in report.codes()) != spans


def _edited(factor, kind, n):
    """``factor`` with the third vertex u of its first cycle listed as
    another vertex of the factor (``repeat``), as n (``stray``) or as
    u + 0.5 (``half``): it lists n vertices and misses u."""
    cycles = [list(cyc) for cyc in factor.cycles]
    u = cycles[0][2]
    cycles[0][2] = {"repeat": cycles[-1][0], "stray": n, "half": u + 0.5}[kind]
    return replace(factor, cycles=tuple(map(tuple, cycles)))


@pytest.mark.parametrize(
    "u, value", [(2, 2.0), (1, True), (0, False), (2, Label(2))], ids=["float", "true", "false", "label"],
)
def test_a_span_set_lent_by_a_factor_of_equal_objects_keeps_every_verdict(u, value):
    """The first factor that spans lends its own vertex set to the later
    factors.  Lent by a factor that lists 2.0 for 2, True for 1, False for
    0 or an int subclass, the set still equals 0..n-1, so an unedited later
    factor spans, and one that lists n vertices but misses one is rejected
    and quoted as the oracle does.  When no factor spans, each is checked
    against 0..n-1 itself, and the duplicated edges at a bool are quoted as
    listed.  The sparse path, K_9's dense path (2.0 takes it to the sorted
    pairs) and K_40 - I's dense path take every case."""
    for sol, verify, agree in (
        (c4_block(5), verify_block, _agree_block),
        (Solution(v=9, factors=tuple(walecki(9)), m=9, r=0, s=4), verify_solution, _agree_solution),
        (build(40, 5, 3, 16), verify_solution, _agree_solution),
    ):
        first, *middle, last = sol.factors
        first = _retyped(first, u, value)
        assert verify(replace(sol, factors=(first, *middle, last))).ok
        cases = [(len(middle) + 1, (first, *middle, _edited(last, kind, sol.v)))
                 for kind in ("repeat", "stray", "half")]
        cases.append((None, tuple(_edited(f, "repeat", sol.v) for f in (first, *middle, last))))
        for faulty, factors in cases:
            doc = replace(sol, factors=factors)
            agree(doc)
            named = {d.split(":")[0] for code, d in _pairs(verify(doc)) if code == "NotSpanning"}
            want = range(len(sol.factors)) if faulty is None else [faulty]
            assert named == {f"factor {k}" for k in want}


def _halved(sol, u):
    """``sol`` with vertex ``u`` of factor 0's first cycle listed as u + 0.5."""
    first = sol.factors[0]
    cyc = tuple(w + 0.5 if w == u else w for w in first.cycles[0])
    return replace(sol, factors=(replace(first, cycles=(cyc, *first.cycles[1:])), *sol.factors[1:]))


@pytest.mark.parametrize("block, m, u", [
    (c4_block, 5, 6), (switch_block, 5, 18), (cm_block, 5, 8), (mixed_block, 7, 21),
], ids=["c4", "switch", "cm", "mixed"])
def test_a_block_vertex_listed_as_a_half_agrees_with_the_oracle(block, m, u):
    # u + 0.5 lies in range yet covers no vertex, and no pair with it as an
    # end is an edge: each edit is rejected and quoted as listed
    doc = _halved(block(m), u)
    report = verify_block(doc)
    _agree(report, oracle.verify_block(doc), details=True)
    assert "NotSpanning" in report.codes()


@pytest.mark.parametrize("make, u", [
    (lambda: build(60, 5, 5, 24), 6),
    (lambda: build(40, 5, 3, 16), 3),
    (lambda: Solution(v=7, factors=tuple(walecki(7)), m=7, r=0, s=3), 6),
    (lambda: Solution(v=9, factors=tuple(walecki(9)), m=9, r=0, s=4), 1),
], ids=["build60", "build40", "walecki7", "walecki9"])
def test_a_solution_vertex_listed_as_a_half_agrees_with_the_oracle(make, u):
    doc = _halved(make(), u)
    _agree_solution(doc)
    assert "NotSpanning" in verify_solution(doc).codes()


def test_a_matching_end_listed_as_a_half_is_never_certified():
    # (0, 6) listed as (0, 6.5), in range but no edge
    factors, leftover = walecki_even(8)
    sol = Solution(v=8, factors=tuple(factors), m=8, r=0, s=3, one_factor=leftover)
    assert verify_solution(sol).ok and (0, 6) in leftover.edges
    edges = tuple((0, 6.5) if e == (0, 6) else e for e in sol.one_factor.edges)
    doc = replace(sol, one_factor=OneFactor(edges))
    _agree_solution(doc)
    assert [(v.code, v.detail) for v in verify_solution(doc).violations] == [
        ("MatchingInvalid", "vertices uncovered: [6]"),
        ("EdgeMissing", "0-6"),
        ("EdgeForeign", "0-6.5"),
    ]
    assert first_proven(cm_factorization_instance(8, 8), [sol]) is sol
    assert first_proven(cm_factorization_instance(8, 8), [doc]) is None


@pytest.mark.parametrize("copy_first", [True, False], ids=["copy_first", "copy_last"])
def test_a_factor_repeated_with_an_integral_float_is_quoted_as_listed(copy_first):
    """Factor 1 listed twice, the copy naming 2 as 2.0: K_9's dense path
    falls back to the sorted pairs, as a block's ring ambient always takes
    them, and each repeated edge is quoted as it was first listed, 0-2.0
    after a copy listed first and 0-2 after one listed last."""
    k9 = Solution(v=9, factors=tuple(walecki(9)), m=9, r=0, s=4)
    summaries = []
    for sol, verify, check in (
        (k9, verify_solution, oracle.verify_solution),
        (c4_block(5), verify_block, oracle.verify_block),
    ):
        copy = _retyped(sol.factors[1], 2, 2.0)
        doc = replace(sol, factors=(copy, *sol.factors) if copy_first else (*sol.factors, copy))
        report = verify(doc)
        _agree(report, check(doc), details=True)
        summaries.append(report.summary())
    quoted = "0-2.0, 0-3, 1-2.0" if copy_first else "0-2, 0-3, 1-2"
    assert f"EdgeDuplicated: {quoted}, 1-8" in summaries[0]
    # a foreign pair is quoted as listed too: parts 0 and 2 of C_5[4] are not neighbours
    extra = two_factor([(0, 8.0, 1)], 20)
    _agree_cover([*c4_block(5).factors, extra], cycle_blowup4(5))
    assert "EdgeForeign: 0-1, 0-8.0, 1-8.0" in verify_factors_cover([extra], cycle_blowup4(5)).summary()


# ============================================================
# the integer edge codes
# ============================================================


def test_a_stray_whose_code_aliases_a_missing_edge_agrees_with_the_oracle():
    # at n = 7 the pair (0, 9) would code as 9, the code of the missing (1, 2)
    edges = [(u, w) for u in range(7) for w in range(u + 1, 7) if (u, w) != (1, 2)]
    _agree_cover([], complete_graph(7), OneFactor(tuple(edges) + ((0, 9),)))
    _agree_cover([], complete_graph(7), OneFactor(((0, 9),) + tuple(edges)))


def test_reversed_matching_pairs_agree_with_the_oracle():
    # matching edges are taken raw: (w, u) with u < w is foreign, as "w-u"
    factors, leftover = walecki_even(10)
    reversed_ = OneFactor(tuple((w, u) for u, w in leftover.edges))
    _agree_cover(factors, complete_graph(10), reversed_)
    _agree_cover(factors, complete_graph(10), OneFactor(leftover.edges[1:] + ((9, 8),)))
    # off the bitmap, where pairs are sorted: a sparse block ambient, and one
    # factor of K_9, too few edges for its bitmap; a reversed pair must not
    # be read as the real edge it reverses, repeated or next to a stray
    sparse = [
        (c4_block(5).factors, cycle_blowup4(5), ((4, 0), (1, 5), (1, 5))),
        (switch_block(5).factors, switch_graph(5), ((1, 0), (0, 1), (25, 3))),
        (list(walecki(9))[:1], complete_graph(9), ((3, 1), (1, 3), (3, 1), (-1, 2))),
    ]
    for factors, space, edges in sparse:
        assert space.kind != "complete" or not _takes_bitmap(Solution(9, tuple(factors), OneFactor(edges)), space)
        _agree_cover(list(factors), space, OneFactor(edges))


def _swapped(factor):
    """``factor`` with two vertices exchanged, the first of its first cycle
    and the second of its last: the edge count stays, the edges change."""
    a, b = factor.cycles[0][0], factor.cycles[-1][1]
    swap = {a: b, b: a}
    return two_factor([[swap.get(u, u) for u in cyc] for cyc in factor.cycles], factor.n, factor.cycle_length)


def _latin_triangles():
    """Three triangle factors of K_{3:3}, parts {0,1,2}, {3,4,5}, {6,7,8}."""
    return [two_factor([(i, 3 + (i + d) % 3, 6 + (i + 2 * d) % 3) for i in range(3)], 9, 3) for d in range(3)]


def test_equal_count_edits_of_every_kind_agree_with_the_oracle():
    covers = [
        (list(walecki(9)), complete_graph(9)),
        (_latin_triangles(), equipartite_graph(3, 3)),
        (list(c4_block(5).factors), cycle_blowup4(5)),
        (list(switch_block(5).factors), switch_graph(5)),
    ]
    for factors, space in covers:
        _agree_cover(factors, space)
        assert verify_factors_cover(factors, space).ok, space
        edited = [_swapped(factors[0]), *factors[1:]]
        _agree_cover(edited, space)
        assert not verify_factors_cover(edited, space).ok, space


def _single_edits(factors, matching, seed: int, count: int = 200):
    """``count`` seeded single edits of a cover: swap two vertices in a
    cycle, drop a cycle, copy a factor edge into the matching, or drop a
    matching edge when there is one."""
    rng = random.Random(seed)
    kept = list(matching.edges) if matching is not None else []
    for _ in range(count):
        op = rng.randrange(4 if kept else 3)
        fi = rng.randrange(len(factors))
        f = factors[fi]
        cycles = list(f.cycles)
        ci = rng.randrange(len(cycles))
        edited, edges = list(factors), kept
        if op == 0:
            cyc = list(cycles[ci])
            i, j = rng.sample(range(len(cyc)), 2)
            cyc[i], cyc[j] = cyc[j], cyc[i]
            cycles[ci] = cyc
        elif op == 1:
            cycles.pop(ci)
        elif op == 2:
            cyc = cycles[ci]
            i = rng.randrange(len(cyc))
            edges = kept + [(cyc[i], cyc[(i + 1) % len(cyc)])]
        else:
            edges = kept[:]
            edges.pop(rng.randrange(len(edges)))
        edited[fi] = two_factor(cycles, f.n, f.cycle_length)
        yield edited, (one_factor(edges) if edges or matching is not None else None)


@pytest.mark.parametrize(
    "space", [complete_graph(9), complete_graph(10), equipartite_graph(3, 3)], ids=["K9", "K10", "K3x3"]
)
def test_seeded_single_edits_of_walecki_covers_agree_with_the_oracle(space):
    factors, leftover = walecki_even(10)
    for seed, (base, matching) in enumerate([(walecki(9), None), (factors, leftover)]):
        for edited, edit_matching in _single_edits(list(base), matching, seed):
            _agree_cover(edited, space, edit_matching)


# ============================================================
# the bitmap accept
# ============================================================


def _odd(v):
    """Walecki's Hamilton cycles of K_v, odd v, as a solution."""
    factors = walecki(v)
    return Solution(v=v, factors=tuple(factors), m=v, r=0, s=len(factors))


def _even(v):
    """Walecki's Hamilton cycles of K_v - I, even v, with the matching I."""
    factors, leftover = walecki_even(v)
    return Solution(v=v, factors=tuple(factors), m=v, r=0, s=len(factors), one_factor=leftover)


# K_301 and K_300 - I have hundreds of rows: an equal-count edit there
# fails the row compare at its first changed row, and the rejection is
# explained from the same rows
DENSE = {
    "K5": lambda: _odd(5),
    "K9": lambda: _odd(9),
    "K301": lambda: _odd(301),
    "K10-I": lambda: _even(10),
    "K300-I": lambda: _even(300),
    "hwp12": lambda: build(12, 3, 1, 4),
    "hwp28": lambda: build(28, 7, 5, 8),
}


def _equal_count_edits(sol, rng):
    """Edits that keep the listed edge count: two neighbours swapped in a
    cycle of four or more (in a triangle factor, two vertices of two
    cycles), one factor replaced by a copy of another, and with a matching,
    one matching pair reversed and one matching edge replaced by a copy of
    a factor edge, which duplicates that edge and drops the other."""
    factors = list(sol.factors)
    fi = rng.randrange(len(factors))
    f = factors[fi]
    cycles = [list(cyc) for cyc in f.cycles]
    long = [cyc for cyc in cycles if len(cyc) >= 4]
    if long:
        cyc = rng.choice(long)
        i = rng.randrange(len(cyc) - 1)
        cyc[i], cyc[i + 1] = cyc[i + 1], cyc[i]
        factors[fi] = two_factor(cycles, f.n, f.cycle_length)
    else:
        factors[fi] = _swapped(f)
    yield replace(sol, factors=tuple(factors))
    factors = list(sol.factors)
    yield replace(sol, factors=tuple(factors[:-1] + factors[:1]))
    if sol.one_factor is not None:
        edges = list(sol.one_factor.edges)
        k = rng.randrange(len(edges))
        u, w = edges[k]
        yield replace(sol, one_factor=OneFactor(tuple(edges[:k] + [(w, u)] + edges[k + 1:])))
        a, b = f.cycles[0][:2]
        yield replace(sol, one_factor=OneFactor(tuple(edges[:k] + [(min(a, b), max(a, b))] + edges[k + 1:])))


@pytest.mark.parametrize("name", DENSE)
def test_valid_dense_solutions_and_their_equal_count_edits_agree_with_the_oracle(name):
    sol = DENSE[name]()
    assert verify_solution(sol).ok
    _agree_solution(sol)
    rng = random.Random(name)
    for edited in _equal_count_edits(sol, rng):
        assert not verify_solution(edited).ok
        _agree_solution(edited)


def _round_robin(v):
    """The v - 1 perfect matchings of K_v, even v: matching d pairs the hub
    v - 1 with d and d + i with d - i modulo v - 1."""
    k = v - 1
    return [[(d, k)] + [tuple(sorted(((d + i) % k, (d - i) % k))) for i in range(1, v // 2)] for d in range(k)]


@pytest.mark.parametrize("v", [8, 12])
def test_factors_of_2_cycles_agree_with_the_oracle(v):
    """Each factor is a perfect matching read as 2-cycles.  It spans, so it
    passes the sorted spanning compare, and the document lists exactly
    edge_count() edges, so each factor writes its codes straight into the
    bitmap: every edge twice."""
    matchings = _round_robin(v)
    factors = tuple(TwoFactor(tuple(sorted(matching)), v, 2) for matching in matchings[: (v - 1) // 2])
    sol = Solution(v=v, factors=factors, one_factor=one_factor(matchings[-1]))
    assert _listed_edges(sol) == complete_graph(v).edge_count()
    _agree_solution(sol)
    _agree_solution(replace(sol, m=2, r=0, s=len(factors)))


def _latin_triangles_of(a):
    """Triangle factors of K_{a:3}, odd a: factor d holds (i, i + d, i + 2d)
    with one vertex in each part."""
    return [two_factor([(i, a + (i + d) % a, 2 * a + (i + 2 * d) % a) for i in range(a)], 3 * a, 3) for d in range(a)]


def _oracle_certifies(sol, space, lengths):
    shapes = ({len(c) for c in f.cycles} for f in sol.factors)
    found = Counter(s.pop() for s in shapes if len(s) == 1)
    return (
        sol.v == space.vertex_count
        and len(sol.factors) == len(lengths)
        and oracle.verify_factors_cover(sol.factors, space, sol.one_factor).ok
        and found == Counter(lengths)
    )


def test_certifies_on_equipartite_instances_agrees_with_the_oracle():
    proofs = []
    for params in ((4, 3, 3), (2, 4, 4), (4, 3, 4), (2, 5, 5), (4, 4, 4), (2, 6, 4)):
        instance = equipartite_instance(*params)
        outcome = solve(instance)
        assert outcome.status == "found", params
        proofs.append((instance.space, outcome.solution.factors, instance.slots()))
    for a in (3, 5, 7):
        proofs.append((equipartite_graph(a, 3), _latin_triangles_of(a), [3] * a))
    rng = random.Random(11)
    for space, factors, lengths in proofs:
        sol = Solution(v=space.vertex_count, factors=tuple(factors))
        assert certifies(sol, space, lengths)
        edits = [*_equal_count_edits(sol, rng), replace(sol, factors=sol.factors[1:])]
        for candidate, want in [(sol, lengths), (sol, [lengths[0] + 1, *lengths[1:]])] + [(e, lengths) for e in edits]:
            assert certifies(candidate, space, want) == _oracle_certifies(candidate, space, want)
        assert not any(certifies(e, space, lengths) for e in edits)


# ============================================================
# the bitmap explanation of a changed edge count
# ============================================================


def _listed_edges(sol):
    matched = len(sol.one_factor.edges) if sol.one_factor is not None else 0
    return sum(len(c) for f in sol.factors for c in f.cycles) + matched


def _takes_bitmap(sol, space):
    """Whether ``sol`` is certified against the v^2 bitmap of ``space``:
    the bitmap has at most four bytes per ambient and per listed edge."""
    total = space.edge_count()
    return total > 0 and space.vertex_count**2 <= 4 * min(total, _listed_edges(sol))


def _count_changing_edits(sol, rng):
    """Edits of a dense solution that change its listed edge count: a
    dropped cycle, a factor edge added to the matching, the same edge
    listed three times, a foreign (reversed) edge listed twice, and
    out-of-range strays next to a repeated edge, a dropped matching edge
    and a stray factor vertex.  With a matching, also a dropped matching edge
    and a reversed matching pair whose neighbour is dropped."""
    factors = list(sol.factors)
    fi = rng.randrange(len(factors))
    f = factors[fi]
    cycles = list(f.cycles)
    cycles.pop(rng.randrange(len(cycles)))
    dropped = [*factors[:fi], TwoFactor(tuple(cycles), f.n, f.cycle_length), *factors[fi + 1:]]
    yield replace(sol, factors=tuple(dropped))

    edges = list(sol.one_factor.edges) if sol.one_factor is not None else []
    a, b = rng.choice(f.cycles)[:2]
    edge, back = (min(a, b), max(a, b)), (max(a, b), min(a, b))
    yield replace(sol, one_factor=OneFactor((*edges, edge)))
    yield replace(sol, one_factor=OneFactor((*edges, edge, edge)))
    yield replace(sol, one_factor=OneFactor((*edges, back, back)))
    if edges:
        k = rng.randrange(len(edges) - 1)
        yield replace(sol, one_factor=OneFactor((*edges[:k], *edges[k + 1:])))
        yield replace(sol, one_factor=OneFactor((*edges[:k], edges[k][::-1], *edges[k + 2:])))

    v = sol.v
    stray = (tuple(v + 2 if u == f.cycles[0][0] else u for u in f.cycles[0]), *f.cycles[1:])
    factors[fi] = TwoFactor(stray, f.n, f.cycle_length)
    strays = ((-1, 0), (v, 1), (2, v + 3), (2, v + 3))
    yield replace(sol, factors=tuple(factors), one_factor=OneFactor((*edges[1:], edge, *strays)))


@pytest.mark.parametrize("name", DENSE)
def test_dense_edits_that_change_the_listed_count_agree_with_the_oracle(name, monkeypatch):
    sol = DENSE[name]()
    space = complete_graph(sol.v)
    drawn = []
    row_ends = EdgeSpace.row_ends
    monkeypatch.setattr(EdgeSpace, "row_ends", lambda space: drawn.append(space.kind) or row_ends(space))
    edits = list(_count_changing_edits(sol, random.Random(name)))
    for edited in edits:
        assert _listed_edges(edited) != space.edge_count()
        _agree_solution(edited)
    assert len(drawn) == sum(_takes_bitmap(edited, space) for edited in edits) > 0


def test_equipartite_edits_that_change_the_listed_count_agree_with_the_oracle():
    for a in (3, 5, 7):
        space = equipartite_graph(a, 3)
        factors = _latin_triangles_of(a)
        f = factors[0]
        rewired = [two_factor([(0, 1, 2 * a), *f.cycles[1:]], 3 * a, 3), *factors[1:]]  # 0-1 lies in a part
        dropped = [TwoFactor(f.cycles[1:], 3 * a, 3), *factors[1:]]
        edge = f.cycles[0][:2]
        matchings = [
            None,
            one_factor([(0, 1)]),
            OneFactor(((0, 1), (0, 1))),
            OneFactor((edge,)),
            OneFactor((edge, edge[::-1])),
        ]
        for candidate in (factors, rewired, dropped, factors[1:]):
            for matching in matchings:
                sol = Solution(v=3 * a, factors=tuple(candidate), one_factor=matching)
                _agree_cover(candidate, space, matching)
                for lengths in ([3] * a, [3] * len(candidate)):
                    assert certifies(sol, space, lengths) == _oracle_certifies(sol, space, lengths)


# ============================================================
# the row-by-row compare and the repeat finder
# ============================================================


def _with_factor(sol, fi, cycles):
    f = sol.factors[fi]
    factor = TwoFactor(tuple(map(tuple, cycles)), f.n, f.cycle_length)
    return replace(sol, factors=(*sol.factors[:fi], factor, *sol.factors[fi + 1:]))


@pytest.mark.parametrize("stray", [-1, 60])
def test_a_stray_vertex_on_the_dense_path_agrees_with_the_oracle(stray):
    """Edge (a, b), a < b, is written as byte b of row a.  A
    vertex -1 would silently write into the last row and a vertex v would
    index past a row's end, so the pairs of a factor that does not span
    0..n-1 pass the same range filter as the matching's, and its
    out-of-range edges are quoted as foreign."""
    sol = build(60, 5, 5, 24)
    space = complete_graph(60)
    cycles = [list(cyc) for cyc in sol.factors[3].cycles]
    cycles[0][1] = stray
    edges = list(sol.one_factor.edges)
    edges[0] = (edges[0][0], stray)
    edited = [_with_factor(sol, 3, cycles), replace(sol, one_factor=OneFactor(tuple(edges)))]
    for doc in edited:
        assert _listed_edges(doc) == space.edge_count() and _takes_bitmap(doc, space)
        report = verify_solution(doc)
        _agree(report, oracle.verify_solution(doc), details=True)
        foreign = [viol.detail for viol in report.violations if viol.code == "EdgeForeign"]
        assert len(foreign) == 1 and str(stray) in foreign[0]


def _duplicated(report):
    return [viol.detail for viol in report.violations if viol.code == "EdgeDuplicated"]


def test_the_repeat_finder_quotes_the_oracles_duplicated_edges():
    """With more edges listed than K_v - I holds, the repeats are collected
    in the loop that writes the bitmap: a code listed twice inside one
    factor (a 2-cycle on an edge of that factor), a code listed in a factor
    and in the matching, and every edge of two 4-cycles listed again in
    their factor, past the quoting cap.  With exactly edge_count() edges
    listed (two neighbours swapped in a 4-cycle, which then lists its
    diagonals), a second pass writes the edges again into the same rows,
    clearing each byte, and an edge whose byte is already clear repeats.
    That pass takes each factor's span bit from the first, so the pairs of a
    factor that does not span still pass the range filter: a vertex 60 or
    -1 in another factor next to the swap, and a vertex moved into a second
    cycle of its factor, all with the edge count unchanged."""
    sol = build(60, 5, 5, 24)
    space = complete_graph(60)
    f0, f1 = sol.factors[0], sol.factors[1]
    a, b = f0.cycles[0][:2]
    c, d = f1.cycles[0][:2]
    twice = _with_factor(sol, 0, [*f0.cycles, (a, b)])
    twice = replace(twice, one_factor=OneFactor((*sol.one_factor.edges, (min(c, d), max(c, d)))))
    doubled = _with_factor(sol, 0, [*f0.cycles, *f0.cycles[:2]])
    swapped = [list(cyc) for cyc in f0.cycles]
    swapped[0][1], swapped[0][2] = swapped[0][2], swapped[0][1]
    swapped = _with_factor(sol, 0, swapped)
    assert _listed_edges(twice) > space.edge_count() and _listed_edges(doubled) > space.edge_count()
    assert _listed_edges(swapped) == space.edge_count()
    assert len(f0.cycles[0]) == 4
    for doc, total in ((twice, 2), (doubled, 8), (swapped, 2)):
        assert _takes_bitmap(doc, space)
        report, old = verify_solution(doc), oracle.verify_solution(doc)
        _agree(report, old, details=True)
        assert _duplicated(report) == _duplicated(old) != []
        (detail,) = _duplicated(report)
        assert detail.count("-") == min(total, 6) and detail.endswith(f"({total} total)") == (total > 6)
    ab, cd = f"{min(a, b)}-{max(a, b)}", f"{min(c, d)}-{max(c, d)}"
    assert sorted(_duplicated(verify_solution(twice))[0].split(", ")) == sorted([ab, cd])

    equal_count = []
    for stray in (60, -1):
        strayed = [list(cyc) for cyc in f1.cycles]
        strayed[0][0] = stray
        equal_count.append(_with_factor(swapped, 1, strayed))
    moved = [list(cyc) for cyc in f0.cycles]
    moved[0][1] = moved[1][0]
    equal_count.append(_with_factor(sol, 0, moved))
    for doc in equal_count:
        assert _listed_edges(doc) == space.edge_count() and _takes_bitmap(doc, space)
        report, old = verify_solution(doc), oracle.verify_solution(doc)
        _agree(report, old, details=True)
        assert _duplicated(report) == _duplicated(old) != []


# ============================================================
# seeded random documents
# ============================================================


def _random_split(rng, v):
    """The vertices 0..v-1 in random order, cut into cycles of three or more."""
    rest, cycles = rng.sample(range(v), v), []
    while rest:
        k = rng.randint(3, len(rest))
        k = len(rest) if len(rest) - k < 3 else k
        cycles.append(rest[:k])
        rest = rest[k:]
    return cycles


def _random_document(rng):
    """A document for K_v, 5 <= v <= 13: Walecki's factors or random cycle
    splits, maybe one factor too many or too few, vertices replaced by
    out-of-range ones or by vertices of other cycles, and a matching with
    pairs reversed, added or dropped.  No edit makes a loop."""
    v = rng.randint(5, 13)
    matching = []
    if rng.random() < 0.5:
        if v % 2:
            factors = walecki(v)
        else:
            factors, leftover = walecki_even(v)
            matching = list(leftover.edges)
        factors = [[list(cyc) for cyc in f.cycles] for f in factors]
    else:
        factors = [_random_split(rng, v) for _ in range((v - 1) // 2)]
        if v % 2 == 0:
            perm = rng.sample(range(v), v)
            matching = list(zip(perm[::2], perm[1::2]))
    roll = rng.random()
    if roll < 0.1:
        factors.pop(rng.randrange(len(factors)))
    elif roll < 0.2:
        factors.append(_random_split(rng, v))
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        if factors:
            cyc = rng.choice(rng.choice(factors))
            i = rng.randrange(len(cyc))
            u = rng.choice((-2, -1, v, v + 3, *range(v)))
            if u not in (cyc[i - 1], cyc[(i + 1) % len(cyc)]):
                cyc[i] = u
    if matching or rng.random() < 0.1:
        for _ in range(rng.choice((0, 1, 2))):
            op = rng.randrange(3)
            if op == 0 and matching:
                k = rng.randrange(len(matching))
                matching[k] = matching[k][::-1]
            elif op == 1:
                u, w = rng.sample((-1, v, *range(v)), 2)
                matching.append((u, w))
            elif matching:
                matching.pop(rng.randrange(len(matching)))
        one = OneFactor(tuple(matching))
    else:
        one = None
    lengths = [rng.choice((None, len(cycles[0]))) for cycles in factors]
    m = rng.choice((None, 3, 5, v))
    r, s = rng.choice(((None, None), (0, len(factors)), (1, None), (None, len(factors) - 1)))
    return Solution(
        v=v,
        factors=tuple(TwoFactor(tuple(map(tuple, cycles)), v, k) for cycles, k in zip(factors, lengths)),
        m=m,
        r=r,
        s=s,
        one_factor=one,
    )


def test_seeded_random_documents_agree_with_the_oracle():
    rng = random.Random(1312)
    for _ in range(3000):
        _agree_solution(_random_document(rng))


def test_hostile_documents_agree_with_the_oracle():
    empty = TwoFactor(cycles=(), n=41, cycle_length=3)
    _agree_solution(Solution(v=41, factors=(empty,) * 20))
    _agree_solution(Solution(v=40, factors=(empty,) * 19))
    _agree_solution(Solution(v=40, factors=(), one_factor=one_factor([(0, 1)])))
    _agree_solution(Solution(v=9, factors=(), one_factor=OneFactor(((3, 1), (1, 3), (0, 12)))))
    stray = TwoFactor(cycles=((-2, 0, 1), (2, 3, 9), (4, 5, 6, 7)), n=7, cycle_length=3)
    below = TwoFactor(cycles=((-1, 0, 1, 2, 3, 4, 5, 6),), n=7)
    above = TwoFactor(cycles=((0, 1, 2, 3, 4, 5, 6, 7),), n=7)
    _agree_solution(Solution(v=7, factors=(stray, below, above), m=3, r=0, s=3))
    shared = TwoFactor(cycles=((0, 1, 2), (0, 3, 4), (0, 5, 6)), n=7, cycle_length=4)
    _agree_solution(Solution(v=7, factors=(shared,) * 3, m=7, r=1, s=2))
    factors = tuple(walecki(9))
    _agree_solution(Solution(v=9, factors=factors + factors, m=9, r=0, s=8))
    _agree_solution(Solution(v=12, factors=tuple(walecki(9))))


# ============================================================
# the byte tables against the full pass
# ============================================================


def _fuzzed(factors, v, rng):
    """``factors`` after one to three seeded edits, each in one factor
    unless named: two vertices swapped, one vertex listed in place of
    another, a run of a cycle reversed (2-opt), or two vertices trading
    names in two factors.  Declared lengths, and every cycle's length, are
    kept."""
    edited = [[list(cyc) for cyc in f.cycles] for f in factors]
    for _ in range(rng.randint(1, 3)):
        op, cycles = rng.randrange(4), rng.choice(edited)
        slots = [(cyc, i) for cyc in cycles for i in range(len(cyc))]
        if op == 0:
            (c, i), (d, j) = rng.sample(slots, 2)
            c[i], d[j] = d[j], c[i]
        elif op == 1:
            (c, i), (d, j) = rng.sample(slots, 2)
            c[i] = d[j]
        elif op == 2:
            cyc = rng.choice(cycles)
            i, j = sorted(rng.sample(range(len(cyc) + 1), 2))
            cyc[i:j] = cyc[i:j][::-1]
        else:
            u, w = rng.sample(range(v), 2)
            for named in rng.sample(edited, min(2, len(edited))):
                for cyc in named:
                    cyc[:] = [w if x == u else u if x == w else x for x in cyc]
    return tuple(TwoFactor(tuple(map(tuple, cycles)), v, f.cycle_length) for cycles, f in zip(edited, factors))


@pytest.mark.parametrize("request_", [(12, 3, 1, 4), (28, 7, 5, 8), (36, 3, 17, 0), (60, 5, 5, 24), (116, 29, 11, 46)])
def test_seeded_edits_of_builds_are_decided_alike_with_and_without_the_tables(request_, tables_accepted):
    sol = build(*request_)
    accepted = len(tables_accepted)
    rng = random.Random(str(request_))
    # each edit is packed as a build is, so the tables try it before the full pass
    edits = (_packed(replace(sol, factors=_fuzzed(sol.factors, sol.v, rng))) for _ in range(150))
    verdicts = Counter(verify_solution(edited).ok for edited in edits)
    assert verdicts[False] > 0 and len(tables_accepted) > accepted


def test_seeded_edits_of_searched_factorizations_are_decided_alike_with_and_without_the_tables(tables_accepted):
    instances = [cm_factorization_instance(9, 3), cm_factorization_instance(10, 5)]
    instances += [equipartite_instance(*params) for params in ((4, 3, 3), (2, 4, 4), (2, 5, 5))]
    rng = random.Random(44)
    for instance in instances:
        sol, lengths = solve(instance).solution, instance.slots()
        accepted, verdicts = len(tables_accepted), Counter()
        for _ in range(300):
            # certifies leaves the tables out, so they are tried on the packed edit's view directly
            edited = _packed(replace(sol, factors=_fuzzed(sol.factors, sol.v, rng)))
            verifier._certify(edited.factors, edited.one_factor, instance.space, vertex_view(edited))
            verdicts[certifies(edited, instance.space, lengths)] += 1
        assert verdicts[False] > 0 and len(tables_accepted) > accepted, instance.name


@pytest.mark.parametrize("v", [-4, -3, -1])
def test_a_negative_order_has_no_edges_and_agrees_with_the_oracle(v):
    """K_v for v < 0 has no vertices, so no edge is missing from it."""
    triangle = two_factor([(0, 1, 2)], 3, 3)
    for factors in ((), (triangle,)):
        for matching in (None, one_factor([(0, 1)])):
            _agree_solution(Solution(v=v, factors=factors, one_factor=matching))
    assert complete_graph(v).edge_count() == 0
