"""Planner and assembler: routing, recipes, gating, and end-to-end builds.

plan() is pure and total: every request gets a route, either constructive
(with a recipe and ingredient list) or an honest status.  build() assembles
the constructive routes from blocks and outer factorizations and verifies
its own output before returning it.
"""

import pytest

from hwp4m.composer import (
    CONSTRUCTIVE_ROUTES,
    STATUS_ROUTES,
    ExternalRequired,
    Infeasible,
    Ingredient,
    IngredientUnavailable,
    Plan,
    Unsupported,
    _assemble_r1,
    _assemble_r2,
    _availability,
    build,
    describe_plan,
    necessary_violations,
    plan,
)
from hwp4m.k24 import k24_solution
from hwp4m.model import Solution, encode_solution
from hwp4m.search import clear_memo, equipartite_cm_search
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


# ============================================================
# routing
# ============================================================


def test_route_names_are_partitioned():
    assert CONSTRUCTIVE_ROUTES & STATUS_ROUTES == frozenset()


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


def test_k48_composite_routing():
    p = plan(48, 3, 8, 15)
    assert p.route == "k48_compose"
    assert (p.r1, p.s1, p.x) == (0, 3, 0)
    assert plan(48, 3, 20, 3).route == "k48_compose"
    assert plan(48, 3, 6, 17).route == "unsupported"
    assert plan(48, 3, 7, 16).route == "external"
    assert plan(48, 3, 22, 1).route == "external"


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


def test_availability_ladder():
    assert _availability("outer_cm", (3, 3), ()) == "builtin"
    assert _availability("outer_cm", (9, 3), ()) == "searchable"
    assert _availability("outer_cm", (6, 3), ()) == "nonexistent"
    assert _availability("outer_cm", (21, 3), ()) == "unavailable"
    assert _availability("equipartite_cm", (4, 10, 5), ()) == "unavailable"
    assert _availability("recursive", (12, 3, 2, 3), ()) == "builtin"
    with pytest.raises(ValueError):
        _availability("hwp12", (), ())
    # the v = 48 seed is an inner build, never a search
    p = plan(48, 3, 10, 13)
    assert p.route == "k48_compose"
    assert p.ingredients == (Ingredient("recursive", (12, 3, 1, 4), "builtin"),)


def test_describe_plan_is_informative():
    text = describe_plan(12, 3, 3, 2, plan(12, 3, 3, 2))
    assert "route=odd_r_odd_t" in text
    assert "(4,3)-HWP(12; 3, 2)" in text
    text = describe_plan(40, 5, 1, 18, plan(40, 5, 1, 18))
    assert "intended=r1_equipartite" in text


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


def test_build_raises_by_plan_status():
    with pytest.raises(Infeasible):
        build(16, 3, 1, 6)
    with pytest.raises(Unsupported):
        build(24, 3, 2, 9)
    with pytest.raises(ExternalRequired):
        build(12, 3, 0, 5)


def test_build_reports_missing_searched_outer_honestly(tmp_path):
    clear_memo()
    with pytest.raises(IngredientUnavailable):
        build(36, 3, 1, 16, cache_dir=tmp_path, time_limit=0.0)


# ============================================================
# the two equipartite assemblers, driven directly with searched parts
# ============================================================


def _equipartite_doc(a, b, m, cache_dir):
    outcome = equipartite_cm_search(a, b, m, cache_dir=cache_dir)
    assert outcome.status == "found"
    return Solution(v=a * b, factors=outcome.factors, m=m)


def test_single_c4_assembler_with_a_searched_ingredient(tmp_path):
    doc = _equipartite_doc(4, 3, 3, tmp_path)
    sol = _assemble_r1(12, 3, 1, 4, imports=(doc,))
    rep = verify_solution(sol)
    assert rep.ok and (rep.r_found, rep.s_found) == (1, 4)


def test_single_c4_assembler_requires_the_ingredient():
    with pytest.raises(IngredientUnavailable):
        _assemble_r1(12, 3, 1, 4, imports=())


def test_double_c4_assembler_with_a_searched_ingredient(tmp_path):
    doc = _equipartite_doc(12, 3, 3, tmp_path)
    p = Plan(route="r2_equipartite", t=3, s1=3)
    sol = _assemble_r2(36, 3, 2, 15, p, imports=(doc,), cache_dir=tmp_path, time_limit=None)
    rep = verify_solution(sol)
    assert rep.ok and (rep.r_found, rep.s_found) == (2, 15)
