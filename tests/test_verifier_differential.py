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
and edits that keep the listed edge count), and small hostile documents.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest
import reference_verifier as oracle
from test_acceptance import _mutate

from hwp4m.blocks import c4_block, cm_block, mixed_block, switch_block
from hwp4m.composer import build
from hwp4m.k24 import k24_solution
from hwp4m.model import (
    OneFactor,
    Solution,
    TwoFactor,
    complete_graph,
    cycle_blowup4,
    equipartite_graph,
    explicit_graph,
    one_factor,
    switch_graph,
    switch_matching_edges,
    two_factor,
)
from hwp4m.outer import walecki, walecki_even
from hwp4m.search import equipartite_instance, solve
from hwp4m.verifier import certifies, verify_block, verify_factors_cover, verify_solution


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


def _agree_block(sol, space=None):
    new, old = verify_block(sol, space), oracle.verify_block(sol, space)
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


def test_acceptance_01_block_sweep_agrees_with_the_oracle():
    for m in range(3, 31):
        for builder in (c4_block, cm_block, mixed_block):
            _agree_block(builder(m))
    for m in range(3, 30, 2):
        _agree_block(switch_block(m))
    _agree_block(cm_block(7, adjust=False))


def test_block_edits_agree_with_the_oracle():
    rng = random.Random(5)
    for m in (3, 5, 9):
        block = switch_block(m)
        for _ in range(40):
            _agree_block(_mutate(block, rng))
        _agree_block(replace(block, one_factor=None))
        _agree_block(replace(block, one_factor=one_factor([(0, 1), (2, 3)])))
        _agree_block(block, switch_graph(m + 2))
    mixed = mixed_block(6)
    _agree_block(mixed, cycle_blowup4(6))
    _agree_block(mixed, cycle_blowup4(7))
    _agree_block(replace(mixed, factors=mixed.factors[1:]))
    _agree_block(replace(mixed, factors=mixed.factors + mixed.factors[:1]))
    _agree_block(replace(mixed, v=10))
    _agree_block(replace(mixed, one_factor=one_factor([(0, 4)])), cycle_blowup4(6))
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
    square = two_factor([(0, 1, 2, 3)], 4, 4)
    _agree_cover([square], explicit_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1)]))
    _agree_cover([square, square], explicit_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    _agree_cover([square], explicit_graph(5, [(0, 1), (1, 2), (2, 4)]))


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
    square = two_factor([(0, 1, 2, 3)], 4, 4)
    doubled = explicit_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)] * 2)
    covers = [
        (list(walecki(9)), complete_graph(9)),
        (_latin_triangles(), equipartite_graph(3, 3)),
        (list(c4_block(5).factors), cycle_blowup4(5)),
        (list(switch_block(5).factors), switch_graph(5)),
        ([square, square], doubled),
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


# K_301 and K_300 - I list more codes than one bitmap batch, so a failed
# byte compare there re-derives codes the bitmap has already taken
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
        proofs.append((instance.space, outcome.factors, instance.slots()))
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
