"""Planner and assembler: routing, recipes, gating, and end-to-end builds.

plan() is pure and total: every request gets a route, either constructive
(with a recipe and ingredient list) or an honest status.  build() assembles
the constructive routes from blocks and outer factorizations and verifies
its own output before returning it.
"""

import hashlib
import random
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
import reference_codec as oracle
from test_codec_differential import ENCODED_REQUESTS

from hwp4m import cli, composer, outer
from hwp4m.blocks import BLOCK_BUILDERS, K4_MINUS_I, K44, PART, c4_block
from hwp4m.composer import (
    CONSTRUCTIVE_ROUTES,
    STATUS_ERRORS,
    ExternalRequired,
    Infeasible,
    Ingredient,
    IngredientUnavailable,
    Plan,
    Unsupported,
    _copier,
    _copiers,
    _ingredient,
    _part_table,
    _parts,
    _resolve,
    build,
    build_planned,
    describe_plan,
    necessary_violations,
    plan,
)
from hwp4m.k24 import k24_solution
from hwp4m.model import Solution, encode_solution, two_factor, vertex_view
from hwp4m.outer import outer_availability
from hwp4m.search import cm_factorization_instance, equipartite_instance, solve_cached
from hwp4m.verifier import verify_solution

# ============================================================
# necessary conditions
# ============================================================


def test_counting_conditions_are_reported_verbatim():
    assert necessary_violations(16, 3, 1, 6) == ["m ∤ v (required when s > 0)"]
    assert necessary_violations(18, 3, 1, 7) == ["4 ∤ v (required when r > 0)"]
    assert necessary_violations(24, 3, 4, 6) == [
        "r + s must equal floor((v - 1)/2) = 11"
    ]
    assert necessary_violations(24, 3, 4, 7) == []
    assert necessary_violations(24, 3, -1, 12) == ["r and s must be nonnegative"]
    assert necessary_violations(3, 3, 0, 1) == ["v must be at least 4"]
    assert necessary_violations(8, 2, 0, 3) == ["no cycle is shorter than 3, so s > 0 needs m >= 3"]


# ============================================================
# routing
# ============================================================


def test_route_names_are_partitioned():
    assert CONSTRUCTIVE_ROUTES & frozenset(STATUS_ERRORS) == frozenset()


def test_pure_c4_requests_take_the_direct_route():
    p = plan(16, 3, 7, 0)
    assert p.route == "all_c4"
    # m is irrelevant without Cm-factors, even an unsupported one
    assert plan(16, 4, 7, 0).route == "all_c4"


def test_even_m_with_cm_factors_is_unsupported():
    p = plan(16, 4, 3, 4)
    assert p.route == "unsupported"


def test_pure_cm_requests_are_external():
    assert plan(12, 3, 0, 5).route == "external"


def test_odd_r_odd_t_recipe():
    p = plan(12, 3, 3, 2)
    assert p.route == "odd_r_odd_t"
    assert (p.t, p.r1, p.s1, p.x) == (1, 0, 0, 1)
    assert 4 * p.r1 + 2 * p.x + 1 == 3


def test_even_r_switch_recipe_at_odd_t():
    p = plan(12, 3, 2, 3)
    assert p.route == "even_r_switch"
    assert (p.t, p.r1, p.s1, p.x) == (1, 0, 0, 0)


@pytest.mark.parametrize(
    "v,m,r,s,const",
    [
        (20, 5, 5, 4, 1),  # t = 1
        (36, 3, 7, 10, 1),  # t = 3
        (36, 3, 8, 9, 2),
        (60, 5, 11, 18, 1),
        (120, 5, 10, 49, 4),  # t = 6, even switch recipe
        (120, 5, 9, 50, 3),  # odd r, even t
    ],
)
def test_generic_recipes_balance(v, m, r, s, const):
    p = plan(v, m, r, s)
    assert p.route in CONSTRUCTIVE_ROUTES or p.underlying_route in CONSTRUCTIVE_ROUTES
    assert 4 * p.r1 + 2 * p.x + const == r
    n = m * (v // (4 * m))
    budget = {1: (n - 1) // 2, 2: (n - 3) // 2, 3: (n - 2) // 2, 4: (n - 4) // 2}[const]
    assert p.r1 + p.s1 + p.x == budget


def test_recipe_corner_with_no_solution_is_external():
    p = plan(12, 3, 4, 1)
    assert p.route == "external"
    assert p.underlying_route == "even_r_switch"
    with pytest.raises(ExternalRequired):
        build(12, 3, 4, 1)


def test_hand_built_k24_corner_routing():
    assert plan(24, 3, 4, 7).route == "k24_table"
    assert plan(24, 3, 2, 9).route == "unsupported"
    assert plan(24, 3, 6, 5).route == "unsupported"
    assert plan(24, 3, 3, 8).route == "external"
    # outside the table, v = 24 falls through to the general planner, which
    # names what each route lacks
    assert plan(24, 3, 3, 8).underlying_route == "odd_r_even_t"
    assert plan(24, 3, 1, 10).underlying_route == "r1_equipartite"


def test_inner_blowup_routing():
    p = plan(48, 3, 8, 15)
    assert p.route == "inner_blowup"
    assert (p.r1, p.s1, p.x) == (0, 3, 0)
    assert plan(48, 3, 20, 3).route == "inner_blowup"
    assert plan(48, 3, 6, 17).route == "unsupported"
    assert plan(48, 3, 22, 1).route == "external"
    # odd r at v = 48 blows up the same inner solution
    p = plan(48, 3, 7, 16)
    assert p.route == "inner_blowup"
    assert p.ingredients == (Ingredient("recursive", (12, 3, 1, 4), "builtin"),)
    # the inner solution may itself come from the k24 table
    p = plan(96, 3, 19, 28)
    assert p.route == "inner_blowup"
    assert p.ingredients == (Ingredient("recursive", (24, 3, 4, 7), "builtin"),)
    # an inner build is no more available than what its own plan needs:
    # builtin over the (14, 7) starter, searchable over the searched (10, 5)
    p = plan(224, 7, 20, 91)
    assert p.route == "inner_blowup"
    assert p.ingredients == (Ingredient("recursive", (56, 7, 3, 24), "builtin"),)
    p = plan(160, 5, 15, 64)
    assert p.route == "inner_blowup"
    assert p.ingredients == (Ingredient("recursive", (40, 5, 3, 16), "searchable"),)


def test_single_c4_factor_at_even_t_needs_an_equipartite_import():
    p = plan(40, 5, 1, 18)
    assert p.route == "external"
    assert p.underlying_route == "r1_equipartite"
    assert any(i.kind == "equipartite_cm" for i in p.ingredients)


def test_two_c4_factors_at_even_t_needs_an_equipartite_import():
    p = plan(80, 5, 2, 37)
    assert p.route == "external"
    assert p.underlying_route == "r2_equipartite"


def test_two_c4_factors_at_t_two_is_structurally_unsupported():
    # the recipe would need odd cycles in a bipartite graph
    p = plan(40, 5, 2, 17)
    assert p.route == "unsupported"
    assert "bipartite" in p.note


def test_two_c4_factors_at_v_24_fall_under_the_v_8m_rule():
    # (24, 3, 2) is the m = 3 case of r = 2 at v = 8m, not a corner of its own
    p = plan(24, 3, 2, 9)
    assert (p.route, p.t) == ("unsupported", 2)
    assert p.note == plan(40, 5, 2, 17).note


def test_availability_ladder():
    assert outer_availability(3, 3) == "builtin"
    assert outer_availability(9, 3) == "searchable"
    assert outer_availability(15, 5) == "builtin"
    assert outer_availability(14, 7) == "builtin"
    assert outer_availability(6, 3) == "nonexistent"
    assert outer_availability(21, 3) == "unavailable"
    # the planner reads the same ladder
    assert _ingredient("outer_cm", (9, 3), ()) == Ingredient("outer_cm", (9, 3), "searchable")
    assert _ingredient("equipartite_cm", (4, 10, 5), ()).availability == "unavailable"
    assert _ingredient("recursive", (12, 3, 2, 3), ()).availability == "builtin"
    # an inner plan that is not constructive, the open corner (24, 3, 2)
    assert plan(24, 3, 2, 9).route == "unsupported"
    assert _ingredient("recursive", (24, 3, 2, 9), ()).availability == "unavailable"
    with pytest.raises(ValueError):
        _ingredient("hwp12", (), ())
    # the inner solution of an inner blow-up is an inner build, never a search
    p = plan(48, 3, 10, 13)
    assert p.route == "inner_blowup"
    assert p.ingredients == (Ingredient("recursive", (12, 3, 1, 4), "builtin"),)


def test_describe_plan_is_informative():
    text = describe_plan(12, 3, 3, 2, plan(12, 3, 3, 2))
    assert "route=odd_r_odd_t" in text
    assert "(4,3)-HWP(12; 3, 2)" in text
    text = describe_plan(40, 5, 1, 18, plan(40, 5, 1, 18))
    assert "intended=r1_equipartite" in text
    text = describe_plan(96, 3, 19, 28, plan(96, 3, 19, 28))
    assert "route=inner_blowup t=8 recipe (r1, s1, x)=(0, 7, 0)" in text


# ============================================================
# builds
# ============================================================


def test_build_orders_c4_factors_first():
    sol = build(12, 3, 3, 2)
    assert [f.cycle_length for f in sol.factors] == [4, 4, 4, 3, 3]
    assert (sol.m, sol.r, sol.s) == (3, 3, 2)
    assert sol.one_factor is not None
    assert verify_solution(sol).ok


def test_build_switch_route_at_t_one():
    sol = build(12, 3, 2, 3)
    assert [f.cycle_length for f in sol.factors] == [4, 4, 3, 3, 3]
    assert verify_solution(sol).ok


def test_all_c4_solution_leaves_m_unset():
    # one and two parts are the outers without cycles: K_1, and K_2 - I
    for v in (4, 8, 12, 16):
        sol = build(v, 3, v // 2 - 1, 0)
        assert sol.m is None and sol.s == 0
        assert verify_solution(sol).ok


def test_build_returns_the_k24_table_object():
    assert encode_solution(build(24, 3, 4, 7)) == encode_solution(k24_solution())


@pytest.mark.parametrize("request_, route, calls", [
    ((24, 3, 4, 7), "k24_table", 1),
    ((12, 3, 5, 0), "all_c4", 1),
    ((12, 3, 3, 2), "odd_r_odd_t", 1),
    ((56, 7, 3, 24), "odd_r_even_t", 1),
    ((12, 3, 2, 3), "even_r_switch", 1),
    ((48, 3, 10, 13), "inner_blowup", 2),
])
def test_every_route_is_assembled_once_per_build(request_, route, calls, monkeypatch):
    # one placement core: each build places its pieces through _assemble,
    # and inner_blowup's inner build is a build of its own
    seen = []
    assemble = composer._assemble

    def counted(*args):
        seen.append(args[:4])
        return assemble(*args)

    monkeypatch.setattr(composer, "_assemble", counted)
    assert plan(*request_).route == route
    assert verify_solution(build(*request_)).ok
    assert len(seen) == calls and seen[-1] == request_


@pytest.mark.parametrize("request_, kinds", [
    ((16, 3, 7, 0), [["c4"]]),  # Walecki's K_4 - I, whose one factor is a 4-cycle
    ((60, 5, 5, 24), [["c4"] + ["cm"] * 6]),
    ((56, 7, 3, 24), [["cm"] * 6]),
    ((60, 5, 6, 23), [["c4"] + ["cm"] * 5 + ["switch"]]),
    # the inner (12, 3, 1, 4), then its five factors, its own C4-factor first
    ((48, 3, 10, 13), [["cm"], ["c4", "mixed", "cm", "cm", "switch"]]),
    ((4, 3, 1, 0), [[]]),  # K_1 has no factor
    ((8, 3, 3, 0), [[]]),  # nor K_2 - I
], ids=["all_c4", "odd_r_odd_t", "odd_r_even_t", "even_r_switch", "inner_blowup", "v4", "v8"])
def test_each_blow_up_gives_one_kind_per_outer_factor(request_, kinds, monkeypatch):
    seen = []
    blow_up = composer._blow_up

    def recorded(outer, kinds_):
        kinds_ = list(kinds_)
        assert len(kinds_) == len(outer.factors)
        seen.append(kinds_)
        return blow_up(outer, kinds_)

    monkeypatch.setattr(composer, "_blow_up", recorded)
    assert verify_solution(build(*request_)).ok
    assert seen == kinds


def test_build_raises_by_plan_status():
    with pytest.raises(Infeasible):
        build(16, 3, 1, 6)
    with pytest.raises(Unsupported):
        build(24, 3, 2, 9)
    with pytest.raises(ExternalRequired):
        build(12, 3, 0, 5)


def test_a_build_never_returns_an_unverified_solution(tmp_path, monkeypatch):
    # an assembler fault: two vertices of factor 0's first cycle swapped
    assemble = composer._assemble

    def swapped(*args):
        sol = assemble(*args)
        first = sol.factors[0]
        cyc = list(first.cycles[0])
        cyc[1], cyc[2] = cyc[2], cyc[1]
        factors = (replace(first, cycles=(tuple(cyc), *first.cycles[1:])), *sol.factors[1:])
        return replace(sol, factors=factors)

    monkeypatch.setattr(composer, "_assemble", swapped)
    out, cache = tmp_path / "sol.json", tmp_path / "cache"
    failed = "^internal error: assembled solution failed verification: "
    with pytest.raises(RuntimeError, match=failed + "EdgeMissing: 0-6, 1-7; EdgeDuplicated: 0-1, 6-7$"):
        build(60, 5, 5, 24, cache_dir=str(cache))
    with pytest.raises(RuntimeError, match=failed):
        cli.main(["build", "--v", "60", "--m", "5", "--r", "5", "--s", "24",
                  "--cache", str(cache), "--out", str(out)])
    assert not out.exists()
    assert not cache.exists()


def test_a_kept_copy_is_never_trusted(monkeypatch):
    # (60, 5, 5, 24) places a block on the three outer cycles of each
    # (15, 5) starter factor; one kept copy with two vertices swapped
    composer._block.cache_clear()
    build(60, 5, 5, 24)
    kept = composer._block("cm", 5)[2]
    assert len(kept) == 6  # one per outer factor that takes the cm kind
    key, data = next(iter(kept.items()))
    swapped = bytearray(data)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    monkeypatch.setitem(kept, key, bytes(swapped))
    with pytest.raises(RuntimeError, match="^internal error: assembled solution failed verification: "):
        build(60, 5, 5, 24)


@pytest.mark.parametrize("request_", [
    (24, 3, 4, 7), (256, 3, 127, 0), (252, 63, 3, 122), (252, 63, 6, 119), (48, 3, 10, 13), (56, 7, 3, 24),
], ids=["k24_table", "all_c4", "odd_r_odd_t_mixed", "even_r_switch", "inner_blowup", "odd_r_even_t"])
def test_a_build_holds_the_view_of_its_own_factors(request_, monkeypatch):
    """At v <= 256 model makes a build's vertex view with its factors, from
    the same bytes, before the build's verification starts.  It holds the
    build's own vertices and shapes, on a first build and on one that
    slices every block placement from its kept copy; a replaced copy has
    no view."""
    verify, held = composer.verify_solution, []

    def checked(sol):
        held.append(vars(sol).get("_view"))
        return verify(sol)

    monkeypatch.setattr(composer, "verify_solution", checked)
    for _ in range(2):
        sol = build(*request_)
        view = held[-1]  # an inner build is verified first
        assert view is not None and vertex_view(sol) is view
        assert view.data == bytes(chain.from_iterable(chain.from_iterable(f.cycles for f in sol.factors)))
        assert vertex_view(replace(sol)) is None
        assert view.shapes == tuple((len(f.cycles[0]), len(f.cycles)) for f in sol.factors)


def test_only_model_makes_a_vertex_view_and_none_above_order_256(monkeypatch):
    source = Path(composer.__file__).read_text()
    assert "_view" not in source and "VertexView" not in source
    verify, held = composer.verify_solution, []

    def checked(sol):
        held.append("_view" in vars(sol))
        return verify(sol)

    monkeypatch.setattr(composer, "verify_solution", checked)
    big = build(260, 65, 1, 128)
    assert held == [False]
    assert verify_solution(big).ok and encode_solution(big) == oracle.encode_solution(big)
    assert "_view" not in vars(big) and vertex_view(big) is None


def _stores(*ms):
    """The stores of kept copies of every block kind at each m of ``ms``
    (the switch block only at odd m)."""
    return [composer._block(kind, m)[2] for kind in BLOCK_BUILDERS for m in ms
            if m % 2 or kind != "switch"]


@pytest.mark.parametrize("request_, ms", [
    ((60, 5, 13, 16), (5,)), ((56, 7, 3, 24), (7,)), ((60, 5, 14, 15), (5,)),
    ((48, 3, 10, 13), (3,)), ((40, 5, 19, 0), (10,)),
], ids=["odd_r_odd_t", "odd_r_even_t", "even_r_switch", "inner_blowup", "all_c4"])
def test_kept_copies_rebuild_the_bytes_of_fresh_copies(request_, ms):
    once = encode_solution(build(*request_))
    kept = [dict(store) for store in _stores(*ms)]
    assert any(kept)
    again = encode_solution(build(*request_))  # every placement found kept
    assert [dict(store) for store in _stores(*ms)] == kept
    composer._block.cache_clear()
    assert not any(_stores(*ms))
    fresh = encode_solution(build(*request_))
    assert once == again == fresh


def test_kept_copies_stop_above_order_256():
    composer._block.cache_clear()
    build(256, 3, 127, 0)  # the largest order that keeps copies
    assert any(_stores(64))
    build(260, 65, 1, 128)
    assert not any(_stores(65))


def test_build_reports_missing_searched_outer_honestly(tmp_path):
    # the outer module raises it, and the composer re-exports the same class
    assert IngredientUnavailable is outer.IngredientUnavailable
    with pytest.raises(IngredientUnavailable, match=r"^outer \(9, 3\) factorization: timeout \("):
        build(36, 3, 1, 16, cache_dir=tmp_path, time_limit=0.0)


# ============================================================
# imports and the group assembler, driven directly with searched parts
# ============================================================


def _kts9_doc(cache_dir):
    outcome = solve_cached(cm_factorization_instance(9, 3), cache_dir=cache_dir)
    return Solution(v=9, factors=outcome.solution.factors, m=3, r=0, s=4)


def test_a_proven_import_rides_in_the_plan_outside_equality(tmp_path):
    doc = _kts9_doc(tmp_path)
    (ing,) = plan(36, 3, 1, 16, imports=(doc,)).ingredients
    assert ing == Ingredient("outer_cm", (9, 3), "import")
    assert "proven" not in repr(ing)
    assert ing.proven.factors == doc.factors and ing.proven.m == 3
    assert _resolve(ing, None, 0.0) is ing.proven


def test_a_build_proves_each_import_once(tmp_path, certify_calls):
    doc = _kts9_doc(tmp_path)
    certify_calls.clear()  # count the build's proofs only
    sol = build(36, 3, 1, 16, imports=(doc,), cache_dir=tmp_path / "empty", time_limit=0.0)
    assert verify_solution(sol).ok
    assert len(certify_calls) == 1


def _equipartite_doc(a, b, m, cache_dir):
    outcome = solve_cached(equipartite_instance(a, b, m), cache_dir=cache_dir)
    assert outcome.status == "found"
    return Solution(v=a * b, factors=outcome.solution.factors, m=m)


def _sha256(sol):
    return hashlib.sha256(encode_solution(sol)).hexdigest()


def _assert_canonical(sol):
    # the assembler sorts its copies and never canonicalizes them
    for f in sol.factors:
        assert f == two_factor(f.cycles, f.n, f.cycle_length)


def test_single_c4_assembler_with_a_searched_ingredient(tmp_path):
    # the r1 route's placement: K_4 - I on every part, the K_{4:3} between
    doc = _equipartite_doc(4, 3, 3, tmp_path)
    ing = _ingredient("equipartite_cm", (4, 3, 3), (doc,))
    sol = build_planned(12, 3, 1, 4, Plan(route="r1_equipartite", ingredients=(ing,)))
    rep = verify_solution(sol)
    assert rep.ok and (rep.r_found, rep.s_found) == (1, 4)
    _assert_canonical(sol)
    assert _sha256(sol) == "f7dff646731a6063eeacaf3d6587c9e1c8d3e3ce3da1880a8cd59acc0b60d7da"


def test_single_c4_assembler_requires_the_ingredient():
    ing = _ingredient("equipartite_cm", (4, 3, 3), ())
    assert (ing.availability, ing.proven) == ("unavailable", None)
    with pytest.raises(IngredientUnavailable):
        _resolve(ing, None, None)


def test_double_c4_assembler_with_a_searched_ingredient(tmp_path):
    # the r2 route's placement: the inner HWP(12; 2, 3) on every group of
    # 12, the K_{12:3} between
    doc = _equipartite_doc(12, 3, 3, tmp_path)
    ings = (
        _ingredient("equipartite_cm", (12, 3, 3), (doc,)),
        _ingredient("recursive", (12, 3, 2, 3), ()),
    )
    sol = build_planned(
        36, 3, 2, 15, Plan(route="r2_equipartite", ingredients=ings), cache_dir=tmp_path
    )
    rep = verify_solution(sol)
    assert rep.ok and (rep.r_found, rep.s_found) == (2, 15)
    _assert_canonical(sol)
    assert _sha256(sol) == "a4771aff30723fb9f857de0cc7d8e8da5939d4a2659f36df2e466c93b8ef05ed"


# ============================================================
# the largest builds keep their bytes
# ============================================================


@pytest.mark.parametrize("request_, digest", [
    ((1604, 401, 5, 796), "4d6bf7c953206fae898e61317c52ec63098ff1fa0a86e3e711ea4af1fd85d98d"),
    ((1604, 401, 6, 795), "7192ac0448ef3aa1e0c803e3285a6c1fb6fc17f159075e5b51828e16191a8d12"),
    ((1200, 3, 599, 0), "d1e37c3426f73c549fa173ca3aa96625dae2968b61761a230bca68c224e2636a"),
], ids=["odd_r_odd_t", "even_r_switch", "all_c4"])
def test_large_builds_keep_their_pinned_bytes(request_, digest):
    # odd_r_odd_t (Cm blocks), even_r_switch (switch blocks at m = 401,
    # where two-part 4-cycles of every shape occur) and all_c4 over
    # walecki_even(300): larger than anything test 09 hashes
    assert _sha256(build(*request_)) == digest


# ============================================================
# canonical copies: the copier rule against the reference
# ============================================================


def _contract_maps(parts, rng, count=12, p=PART):
    """The identity and seeded maps under the contract of ``_assemble``:
    distinct cells, cells[0] the smallest, each part of p kept in order,
    joined from one part table as ``_blow_up`` joins them."""
    table = _part_table(3 * parts + 2, p)
    yield _parts(table, range(parts))
    for _ in range(count):
        cells = rng.sample(range(3 * parts + 2), parts)
        low = cells.index(min(cells))
        cells[0], cells[low] = cells[low], cells[0]
        yield _parts(table, cells)


def _copier_shape(cyc, copier):
    a, b, _, g = copier
    if a == b:
        return "fallback"
    return "reversed" if a == cyc[1] else "two parts"


def test_copies_match_the_reference_canonical_form():
    rng = random.Random(17)
    pieces = [BLOCK_BUILDERS[kind](m) for kind in sorted(BLOCK_BUILDERS) for m in range(3, 15, 2)]
    # the constants, an even-m block, a blow-up of the (15, 5) outer, some
    # of whose 5-cycles avoid part 0, and the v = 24 table, whose one-part
    # 4-cycles take the orientation rule
    pieces += [c4_block(4), K4_MINUS_I, K44, build(60, 5, 5, 24), k24_solution()]
    shapes = set()
    for piece in pieces:
        factors = _copiers(piece, PART)[0]
        for vmap in _contract_maps(piece.v // 4, rng):
            for f, (length, copiers) in zip(piece.factors, factors):
                assert length == len(f.cycles[0])
                for cyc, (a, b, get, alt) in zip(f.cycles, copiers):
                    got = get(vmap) if vmap[a] < vmap[b] else alt(get(vmap))
                    assert got == oracle.canonicalize_cycle(vmap[u] for u in cyc)
        shapes.update(_copier_shape(c, k) for f, (_, ks) in zip(piece.factors, factors)
                      for c, k in zip(f.cycles, ks))
    assert shapes == {"two parts", "reversed", "fallback"}
    # random canonical cycles on parts of p, for part sizes in use and not,
    # each under four maps from a part table of p; every rule at every p
    for p in (2, 3, 4, 5, 7):
        shapes = set()
        for _ in range(2900):
            parts = rng.randint(-(-3 // p), 5)  # room for a triangle
            cyc = tuple(oracle.canonicalize_cycle(
                rng.sample(range(parts * p), rng.randint(3, min(parts * p, 8)))))
            a, b, get, alt = copier = _copier(cyc, p)
            for vmap in _contract_maps(parts, rng, 3, p):
                got = get(vmap) if vmap[a] < vmap[b] else alt(get(vmap))
                assert got == oracle.canonicalize_cycle(vmap[u] for u in cyc)
            shapes.add(_copier_shape(cyc, copier))
        assert shapes == {"two parts", "reversed", "fallback"}, p


def test_no_route_canonicalizes_a_copy(tmp_path, monkeypatch):
    # every placement reads its piece on its own part size, so no copier
    # falls back to canonicalizing: one build per constructive route at
    # least, the r = 1 and r = 2 routes over searched imports
    fallbacks, routes = [], set()
    copier = composer._copier

    def recorded(cyc, p):
        made = copier(cyc, p)
        if made[0] == made[1]:
            fallbacks.append((cyc, p))
        return made

    monkeypatch.setattr(composer, "_copier", recorded)
    composer._block.cache_clear()  # so that the blocks' copiers are made here
    for request in ENCODED_REQUESTS:
        routes.add(plan(*request).route)
        assert verify_solution(build(*request)).ok
    r1 = _ingredient("equipartite_cm", (4, 3, 3), (_equipartite_doc(4, 3, 3, tmp_path),))
    r2 = _ingredient("equipartite_cm", (12, 3, 3), (_equipartite_doc(12, 3, 3, tmp_path),))
    inner = _ingredient("recursive", (12, 3, 2, 3), ())
    for request, planned in (
        ((12, 3, 1, 4), Plan(route="r1_equipartite", ingredients=(r1,))),
        ((36, 3, 2, 15), Plan(route="r2_equipartite", ingredients=(r2, inner))),
    ):
        routes.add(planned.route)
        assert verify_solution(build_planned(*request, planned, cache_dir=tmp_path)).ok
    assert routes == CONSTRUCTIVE_ROUTES
    assert fallbacks == []


@pytest.mark.parametrize("request_", [(48, 3, 10, 13), (60, 5, 6, 23)],
                         ids=["inner_blowup", "even_r_switch"])
def test_blow_up_builds_are_canonical(request_):
    _assert_canonical(build(*request_))
