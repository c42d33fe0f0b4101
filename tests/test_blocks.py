"""Block ingredients on the blown-up cycle C_m[4] and their algebra.

Covers the walk-driven C4 block, the GF(4) product table and the Cm
block built over it (including the wrap-around bend it needs when
m = 1 mod 3 and the scaling automorphism it gains from the field
structure), the Z4 mixed block, the switch block that trades a matching
for the part K4s, the pinned bytes of all four kinds, the constant pieces
K_4 - I and K_{4,4}, and the brute-force audit of every m-cycle behind the
{3 Cm + 1 C4} nonexistence check.
"""

import hashlib

import pytest
from reference_audit import audit_m_cycles, check_c4_cm3_nonexistence

from hwp4m.blocks import (
    K4_MINUS_I,
    K44,
    c4_block,
    GF4_MUL,
    cm_block,
    gf4_base_layers,
    johnson_walk,
    mixed_block,
    switch_block,
)
from hwp4m.model import (
    canonicalize_cycle,
    cycle_blowup4,
    encode_solution,
    equipartite_graph,
    switch_graph,
)
from hwp4m.verifier import verify_block, verify_factors_cover, verify_solution

# ============================================================
# the walk behind the C4 block
# ============================================================


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 10, 13])
def test_johnson_walk_changes_one_element_per_step(m):
    walk = johnson_walk(m)
    assert len(walk) == m
    for i in range(m):
        a, b = walk[i], walk[(i + 1) % m]
        assert len(a) == 2 and a <= {0, 1, 2, 3}
        assert len(a & b) == 1


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9])
def test_cm2_one_factorization_partitions_the_edges(m):
    # each C4-block cycle is the doubling of one C_m[2] edge: C_m[2] vertex
    # (layer a, part i) stands for C_m[4] vertices 4i + 2a and 4i + 2a + 1
    factors = c4_block(m).factors
    assert len(factors) == 4
    seen = set()
    for factor in factors:
        assert len(factor.cycles) == m
        covered = set()
        for cyc in factor.cycles:
            ends = {((u % 4) // 2, u // 4) for u in cyc}
            assert len(ends) == 2
            assert sorted(cyc) == sorted(4 * i + 2 * a + d for a, i in ends for d in (0, 1))
            (_, i), (_, j) = ends
            assert (i + 1) % m == j or (j + 1) % m == i
            covered |= ends
            seen.add(frozenset(ends))
        assert len(covered) == 2 * m
    assert len(seen) == 4 * m


# ============================================================
# the four block kinds against their ambient
# ============================================================


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_c4_block_factorizes_the_blowup(m):
    sol = c4_block(m)
    assert [f.cycle_length for f in sol.factors] == [4, 4, 4, 4]
    rep = verify_factors_cover(sol.factors, cycle_blowup4(m))
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 10])
def test_cm_block_factorizes_the_blowup(m):
    sol = cm_block(m)
    assert [f.cycle_length for f in sol.factors] == [m, m, m, m]
    rep = verify_factors_cover(sol.factors, cycle_blowup4(m))
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("m", [4, 7, 10])
def test_cm_block_needs_the_bend_when_m_is_one_mod_three(m, unbent_cm_block):
    layers = gf4_base_layers(m)
    assert layers[m - 1] != layers[0]
    sol = unbent_cm_block(m)
    rep = verify_factors_cover(sol.factors, cycle_blowup4(m))
    assert not rep.ok


@pytest.mark.parametrize("m", [3, 5, 6, 9])
def test_cm_block_bend_is_a_no_op_off_one_mod_three(m, unbent_cm_block):
    adjusted = cm_block(m)
    plain = unbent_cm_block(m)
    assert adjusted.factors == plain.factors


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 9])
def test_mixed_block_factorizes_the_blowup(m):
    sol = mixed_block(m)
    assert [f.cycle_length for f in sol.factors] == [4, 4, m, m]
    rep = verify_factors_cover(sol.factors, cycle_blowup4(m))
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_switch_block_factorizes_blowup_plus_part_cliques(m):
    sol = switch_block(m)
    assert [f.cycle_length for f in sol.factors] == [4, 4, m, m, m]
    assert sol.one_factor is not None
    rep = verify_factors_cover(sol.factors, switch_graph(m))
    assert rep.ok, rep.summary()


def test_switch_block_rejects_even_m():
    with pytest.raises(ValueError):
        switch_block(4)


def test_verify_block_dispatch_covers_both_ambients():
    assert verify_block(mixed_block(5)).ok
    assert verify_block(switch_block(5)).ok


def test_block_bytes_are_pinned():
    # every kind at small, bent (m = 1 mod 3), even and large m; the digest
    # is the one `hwp4m block --out -` gives for the same sequence
    digest = hashlib.sha256()
    for kind in (c4_block, cm_block, mixed_block, switch_block):
        for m in (3, 4, 5, 7, 9, 10, 13, 31, 101):
            if kind is switch_block and m % 2 == 0:
                continue
            digest.update(encode_solution(kind(m)))
    assert digest.hexdigest() == "d13abb4ec11427d278b4e27029566a7bafbbcf367170ce0b98400ee2a9a934ed"


# ============================================================
# GF(4) and the scaling automorphism
# ============================================================

GF4 = range(4)


def test_gf4_sum_is_xor():
    # x^2 = x + 1 under XOR, and every element is its own negative
    assert GF4_MUL[2][2] == 2 ^ 1
    for a in GF4:
        assert a ^ 0 == a and a ^ a == 0


def test_gf4_one_is_the_identity_and_zero_absorbs():
    for a in GF4:
        assert GF4_MUL[1][a] == GF4_MUL[a][1] == a
        assert GF4_MUL[0][a] == GF4_MUL[a][0] == 0


def test_gf4_powers_of_x():
    x, x2 = 2, 3
    assert GF4_MUL[x][x] == x2
    assert GF4_MUL[x][x2] == 1
    assert gf4_base_layers(6) == [1, x, x2, 1, x, x2]


def test_gf4_field_axioms_exhaustive():
    for a in GF4:
        for b in GF4:
            assert GF4_MUL[a][b] == GF4_MUL[b][a]
            for c in GF4:
                assert GF4_MUL[a][GF4_MUL[b][c]] == GF4_MUL[GF4_MUL[a][b]][c]
                assert GF4_MUL[a][b ^ c] == GF4_MUL[a][b] ^ GF4_MUL[a][c]


def test_gf4_nonzero_products_are_nonzero():
    for a in range(1, 4):
        for b in range(1, 4):
            assert GF4_MUL[a][b] != 0


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_scaling_layers_by_x_fixes_the_scaled_factor(m):
    cycles = list(cm_block(m).factors[0].cycles)  # the untranslated factor
    image = sorted(
        canonicalize_cycle(tuple(4 * (u // 4) + GF4_MUL[2][u % 4] for u in cyc))
        for cyc in cycles
    )
    assert image == cycles


# ============================================================
# the two constant pieces of a blow-up by 4
# ============================================================


def test_k44_pair_tiles_one_complete_bipartite_block():
    # the K44 piece: two C4-factors on the 8 vertices of parts 0..3 and 4..7
    assert K44.v == 8 and K44.one_factor is None
    assert [f.cycle_length for f in K44.factors] == [4, 4]
    rep = verify_factors_cover(K44.factors, equipartite_graph(4, 2))
    assert rep.ok, rep.summary()


def test_k4_minus_matching_partitions_one_clique():
    # the K4_MINUS_I piece: one 4-cycle plus its 2-edge removed matching
    (factor,) = K4_MINUS_I.factors
    (square,) = factor.cycles
    matching = K4_MINUS_I.one_factor.edges
    used = {frozenset({square[i], square[(i + 1) % 4]}) for i in range(4)}
    used |= {frozenset(e) for e in matching}
    quad = range(4)
    want = {frozenset({a, b}) for a in quad for b in quad if a < b}
    assert used == want
    assert len(matching) == 2
    assert verify_solution(K4_MINUS_I).ok


# ============================================================
# nonexistence of {three Cm, one C4} on C_m[4]
# ============================================================


def test_audit_counts_m_cycles():
    assert audit_m_cycles(3) == 64


@pytest.mark.parametrize("m", [4, 6])
def test_audit_rejects_even_m_where_m_cycles_turn_back(m):
    with pytest.raises(RuntimeError, match="off the transversal pattern"):
        audit_m_cycles(m)


def test_no_three_cm_one_c4_factorization_for_m_three():
    assert check_c4_cm3_nonexistence(3) == 4 ** 3


def test_nonexistence_check_rejects_even_m():
    with pytest.raises(ValueError):
        check_c4_cm3_nonexistence(4)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_nonexistence_check_rejects_m_below_three(m):
    with pytest.raises(ValueError):
        check_c4_cm3_nonexistence(m)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_built_m_cycles_wind_once_round_the_parts(m):
    # the audited premise, seen on the m-cycles the blocks actually build:
    # each one steps to the next part every edge, always the same way round
    for sol in (cm_block(m), mixed_block(m)):
        for factor in sol.factors:
            if factor.cycle_length != m:
                continue
            for cyc in factor.cycles:
                steps = {(w // 4 - u // 4) % m for u, w in zip(cyc, cyc[1:] + cyc[:1])}
                assert steps in ({1}, {m - 1})
