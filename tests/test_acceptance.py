"""End-to-end acceptance: the contract of the whole package in eleven checks.

Each test is one criterion.  Everything a criterion needs is built inside
it; expected values (matchings, unsupported corners, route censuses) are
frozen literals so a regression in any construction is an immediate,
attributable failure.  Time bounds are generous ceilings, not benchmarks.
"""

import hashlib
import random
import time
from dataclasses import replace

import pytest

from hwp4m.blocks import (
    c4_block,
    check_c4_cm3_nonexistence,
    cm_block,
    cm_block_scaled_factor,
    mixed_block,
    switch_block,
)
from hwp4m.composer import CONSTRUCTIVE_ROUTES, build, plan
from hwp4m.k24 import k24_solution
from hwp4m.model import (
    Solution,
    canonicalize_cycle,
    encode_solution,
    one_factor,
    two_factor,
)
from hwp4m.search import clear_memo, kts9_instance, solve_cached
from hwp4m.verifier import verify_block, verify_solution

# ============================================================
# 1. the block family across small m
# ============================================================


def test_01_blocks_verify_for_all_small_m():
    start = time.monotonic()
    for m in range(3, 31):
        for builder in (c4_block, cm_block, mixed_block):
            rep = verify_block(builder(m))
            assert rep.ok, f"{builder.__name__}({m}): {rep.summary()}"
    for m in range(3, 30, 2):
        rep = verify_block(switch_block(m))
        assert rep.ok, f"switch_block({m}): {rep.summary()}"
    assert time.monotonic() - start < 10.0


# ============================================================
# 2. the wrap-around bend when m = 1 mod 3
# ============================================================


def test_02_bend_is_required_exactly_when_m_is_one_mod_three():
    for m in (4, 7, 10, 13):
        rep = verify_block(cm_block(m))
        assert rep.ok, f"adjusted cm_block({m}): {rep.summary()}"
    assert not verify_block(cm_block(7, adjust=False)).ok


# ============================================================
# 3. the field-scaling automorphism of the Cm block
# ============================================================


def test_03_layer_scaling_fixes_the_scaled_factor_setwise():
    from hwp4m.algebra import X, gf4_mul

    for m in range(3, 21):
        cycles = cm_block_scaled_factor(m)
        image = sorted(
            canonicalize_cycle(tuple(4 * (u // 4) + gf4_mul(X, u % 4) for u in cyc))
            for cyc in cycles
        )
        assert image == cycles, f"m={m}: scaling by x moved the factor"


# ============================================================
# 4. exhaustive nonexistence of the {three Cm, one C4} split
# ============================================================


def test_04_triangle_blowup_has_no_three_cm_one_c4_split():
    check = check_c4_cm3_nonexistence(3, time_limit=60.0)
    assert check.status == "nonexistent"
    assert check.witness is None


@pytest.mark.slow
def test_04_pentagon_blowup_has_no_three_cm_one_c4_split():
    check = check_c4_cm3_nonexistence(5, time_limit=900.0)
    assert check.status == "nonexistent"
    assert check.witness is None


# ============================================================
# 5. the single-block spectrum (t = 1)
# ============================================================


def test_05_single_block_solutions_cover_the_promised_spectrum():
    start = time.monotonic()
    for m in (3, 5, 7, 9, 11, 13, 15):
        v = 4 * m
        total = (v - 1) // 2
        constructive = set()
        for r in range(total + 1):
            p = plan(v, m, r, total - r)
            if p.route in CONSTRUCTIVE_ROUTES:
                constructive.add(r)
                sol = build(v, m, r, total - r)
                rep = verify_solution(sol)
                assert rep.ok, f"(4,{m})-HWP({v}; {r}, {total - r}): {rep.summary()}"
        required = set(range(1, 2 * m, 2)) | {2} | {total}
        assert required <= constructive, f"m={m}: missing {required - constructive}"
    assert time.monotonic() - start < 60.0


# ============================================================
# 6. three outer triangle factors (v = 36) from the searched system
# ============================================================


def test_06_searched_triangle_system_drives_the_v36_spectrum(tmp_path):
    start = time.monotonic()
    clear_memo()
    constructive = set()
    for r in range(18):
        p = plan(36, 3, r, 17 - r)
        if p.route in CONSTRUCTIVE_ROUTES:
            constructive.add(r)
            sol = build(36, 3, r, 17 - r, cache_dir=tmp_path)
            rep = verify_solution(sol)
            assert rep.ok, f"(4,3)-HWP(36; {r}, {17 - r}): {rep.summary()}"
    assert constructive == set(range(1, 18, 2)) | {2, 4, 6, 8, 10, 12, 14}
    assert time.monotonic() - start < 60.0


# ============================================================
# 7. the hand-built v = 24 boundary object
# ============================================================


def test_07_k24_object_verifies_with_its_frozen_matching():
    sol = k24_solution()
    rep = verify_solution(sol)
    assert rep.ok
    assert (rep.r_found, rep.s_found) == (4, 7)
    assert sol.one_factor.edges == (
        (0, 22), (1, 23), (2, 11), (3, 12), (4, 13), (5, 14),
        (6, 20), (7, 21), (8, 17), (9, 18), (10, 19), (15, 16),
    )


# ============================================================
# 8. v = 48 composites from the built 12-point seed
# ============================================================


def test_08_v48_composites_from_the_built_seed(tmp_path):
    seed = build(12, 3, 1, 4)
    rep = verify_solution(seed)
    assert rep.ok and (rep.r_found, rep.s_found) == (1, 4), rep.summary()

    # the seed is built, not searched: with an empty memo, a fresh cache and
    # no search budget at all, every composite still builds and nothing is
    # written to the cache
    clear_memo()
    for r in range(8, 21, 2):
        sol = build(48, 3, r, 23 - r, cache_dir=tmp_path, time_limit=0.0)
        rep = verify_solution(sol)
        assert rep.ok, f"(4,3)-HWP(48; {r}, {23 - r}): {rep.summary()}"
        assert (rep.r_found, rep.s_found) == (r, 23 - r)
    assert list(tmp_path.iterdir()) == []


# ============================================================
# 9. the full planner truth table up to v = 120
# ============================================================


def test_09_truth_table_up_to_v120():
    route_census = {}
    unsupported = set()
    artifacts = hashlib.sha256()
    for m in range(3, 31, 2):
        for t in range(1, 120 // (4 * m) + 1):
            v = 4 * m * t
            total = (v - 2) // 2
            for r in range(total + 1):
                p = plan(v, m, r, total - r)
                route_census[p.route] = route_census.get(p.route, 0) + 1
                if p.route == "unsupported":
                    unsupported.add((v, m, r))
                elif p.route in CONSTRUCTIVE_ROUTES:
                    sol = build(v, m, r, total - r)
                    rep = verify_solution(sol)
                    assert rep.ok, f"(4,{m})-HWP({v}; {r}, {total - r}): {rep.summary()}"
                    artifacts.update(encode_solution(sol))

    assert unsupported == {
        (24, 3, 2), (24, 3, 6), (40, 5, 2), (48, 3, 6), (56, 7, 2),
        (72, 9, 2), (88, 11, 2), (104, 13, 2), (120, 15, 2),
    }
    assert route_census == {
        "external": 805,
        "odd_r_odd_t": 232,
        "even_r_switch": 234,
        "all_c4": 36,
        "odd_r_even_t": 20,
        "k48_compose": 7,
        "k24_table": 1,
        "unsupported": 9,
    }
    assert plan(12, 3, 4, 1).route == "external"
    # the bytes of every constructive build above, in table order
    assert artifacts.hexdigest() == "e526e7363f2cfa5b90232e837ae811a7b1a790b6bad77639dd9ac8dc7844d2ce"


# ============================================================
# 10. single-edit mutations never verify
# ============================================================


def _mutate(sol: Solution, rng: random.Random) -> Solution:
    op = rng.randrange(4)
    if op == 0:  # delete a matching edge
        edges = list(sol.one_factor.edges)
        edges.pop(rng.randrange(len(edges)))
        return replace(sol, one_factor=one_factor(edges))
    if op == 1:  # duplicate a factor edge into the matching
        f = sol.factors[rng.randrange(len(sol.factors))]
        cyc = f.cycles[rng.randrange(len(f.cycles))]
        i = rng.randrange(len(cyc))
        extra = (cyc[i], cyc[(i + 1) % len(cyc)])
        return replace(sol, one_factor=one_factor(list(sol.one_factor.edges) + [extra]))
    if op == 2:  # swap two vertices inside one cycle
        fi = rng.randrange(len(sol.factors))
        f = sol.factors[fi]
        ci = rng.randrange(len(f.cycles))
        cyc = list(f.cycles[ci])
        i, j = rng.sample(range(len(cyc)), 2)
        cyc[i], cyc[j] = cyc[j], cyc[i]
        cycles = list(f.cycles)
        cycles[ci] = tuple(cyc)
        factors = list(sol.factors)
        factors[fi] = two_factor(cycles, f.n, f.cycle_length)
        return replace(sol, factors=tuple(factors))
    fi = rng.randrange(len(sol.factors))  # drop a whole cycle
    f = sol.factors[fi]
    cycles = list(f.cycles)
    cycles.pop(rng.randrange(len(cycles)))
    factors = list(sol.factors)
    factors[fi] = two_factor(cycles, f.n, f.cycle_length)
    return replace(sol, factors=tuple(factors))


def test_10_random_single_edit_mutations_are_all_rejected():
    sol = build(28, 7, 5, 8)
    baseline = encode_solution(sol)
    rng = random.Random(20280407)
    rejected = 0
    attempts = 0
    while rejected < 100:
        attempts += 1
        assert attempts < 1000, "mutation generator kept producing no-ops"
        mutant = _mutate(sol, rng)
        if encode_solution(mutant) == baseline:
            continue  # canonically identical edit (e.g. a reflecting swap)
        rep = verify_solution(mutant)
        assert not rep.ok, f"mutation {rejected} was accepted: {mutant}"
        rejected += 1


# ============================================================
# 11. byte-identical artifacts across independent runs
# ============================================================


def _artifact_run(cache_dir) -> dict[str, bytes]:
    clear_memo()
    arts = {}
    arts["build-36"] = encode_solution(build(36, 3, 5, 12, cache_dir=cache_dir))
    arts["build-48"] = encode_solution(build(48, 3, 10, 13, cache_dir=cache_dir))
    for name, doc in (
        ("block-c4", c4_block(6)),
        ("block-cm", cm_block(7)),
        ("block-mixed", mixed_block(8)),
        ("block-switch", switch_block(5)),
    ):
        arts[name] = encode_solution(doc)
    kts = solve_cached(kts9_instance(), cache_dir=cache_dir)
    arts["kts9"] = encode_solution(Solution(v=9, factors=kts.factors))
    arts["build-12"] = encode_solution(build(12, 3, 1, 4, cache_dir=cache_dir))
    arts["k24"] = encode_solution(k24_solution())
    return arts


def test_11_two_full_runs_produce_byte_identical_artifacts(tmp_path):
    first = _artifact_run(tmp_path / "run1")
    second = _artifact_run(tmp_path / "run2")
    assert first == second
