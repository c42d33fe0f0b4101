"""Planner and assembler for uniform C4/Cm 2-factorizations of K_v minus I.

A (4, m)-HWP(v; r, s) object is a 2-factorization of K_v - I into r
C4-factors and s Cm-factors, r + s = (v - 2)/2.  For odd m and v = 4mt the
assembly rests on one decomposition: group the vertices into mt parts of
size 4, so that

    K_{4mt} - I  =  (blow-up of K_{mt} by 4)  +  mt K_4  -  I.

An outer Cm-factorization of K_{mt} (for odd mt; of K_{mt} - I' with a
leftover matching for even mt) turns each outer factor into t vertex
disjoint copies of the blow-up C_m[4].  Each copy then carries one block
factorization: all-C4, all-Cm, or the mixed 2+2 split, contributing 4
global factors, while the switch block trades a perfect matching of C_m[4]
for the K_4 edges on its parts and contributes 5.  Summing the per-kind
contributions over a budget of B outer factors gives the route recipes

    odd  r, t odd :  r = 4 r1 + 2 x + 1,  B = (mt - 1)/2
    odd  r, t even:  r = 4 r1 + 2 x + 3,  B = (mt - 2)/2
    even r, t odd :  r = 4 r1 + 2 x + 2,  B = (mt - 3)/2
    even r, t even:  r = 4 r1 + 2 x + 4,  B = (mt - 4)/2

with r1 + s1 + x = B: r1 copies of the all-C4 kind, x mixed, s1 all-Cm.
The odd-r constant counts the K_4 factor (each part yields one 4-cycle plus
two matching edges); the even-r routes spend one outer factor on switch
blocks instead; even t adds two C4-factors from the K_{4,4}s sitting over
the leftover outer matching.  One assembler performs every such blow-up:
it takes any verified outer 2-factorization on v/4 parts and a block kind
per outer factor.  The all-C4 route blows up Walecki's Hamilton
decomposition of K_{v/4} with the all-C4 kind throughout.  v = 24 is
settled by a hand-built table at r = 4, and v = 48 by blowing up the
(4,3)-HWP(12; 1, 4) that the odd-r route itself builds: its C4-factor
takes the all-C4 kind, its four C3-factors the recipe, and its removed
matching the K_{4,4} pairs.  The remaining shapes either need ingredients
we can only import (equipartite Cm-factorizations), are genuinely open
(r = 2 at v = 8m; r = 6 at v = 24, 48), or fall to known results we do
not reconstruct (route "external").

Every constructive build is verified in-process before it is returned.
"""

from dataclasses import dataclass
from functools import lru_cache

from .blocks import c4_block, cm_block, mixed_block, switch_block
from .k24 import k24_solution
from .model import Solution, complete_graph, equipartite_graph, one_factor, two_factor
from .outer import (
    NONEXISTENT_OUTERS,
    SEARCHABLE_OUTERS,
    Unavailable,
    expected_outer_factors,
    hamilton_decomposition,
    k4_minus_matching,
    k44_pair,
    outer_cm_factorization,
)
from .verifier import certifies, verify_solution

# ============================================================
# plan model and status exceptions
# ============================================================

CONSTRUCTIVE_ROUTES = frozenset({
    "all_c4",
    "odd_r_odd_t",
    "odd_r_even_t",
    "even_r_switch",
    "r1_equipartite",
    "r2_equipartite",
    "k24_table",
    "k48_compose",
})

STATUS_ROUTES = frozenset({"infeasible", "unsupported", "external"})


@dataclass(frozen=True)
class Ingredient:
    """A capability the assembler must obtain before it can run.

    kind "outer_cm" with params (n, m) is a Cm-factorization of K_n (or
    K_n - I' for even n); "equipartite_cm" with params (a, b, m) is a
    Cm-factorization of K_{a:b}; "recursive" with params (v, m, r, s) is an
    inner build, such as the (4,3)-HWP(12; 1, 4) the v = 48 route blows up.
    Availability is static: builtin, searchable, import, nonexistent, or
    unavailable; no search runs at planning time.
    """

    kind: str
    params: tuple
    availability: str


@dataclass(frozen=True)
class Plan:
    route: str
    t: int = 0
    r1: int = 0
    s1: int = 0
    x: int = 0
    ingredients: tuple[Ingredient, ...] = ()
    note: str = ""
    underlying_route: str = ""


class Infeasible(Exception):
    """The necessary counting conditions rule the request out."""


class Unsupported(Exception):
    """The request sits on a genuinely open corner of the problem."""


class ExternalRequired(Exception):
    """A solution is known or possible, but not built by these recipes."""


class IngredientUnavailable(Exception):
    """A planned ingredient could not be produced (search timeout, no import)."""


def _raise_for_status(p: Plan):
    if p.route == "infeasible":
        raise Infeasible(p.note)
    if p.route == "unsupported":
        raise Unsupported(p.note)
    if p.route == "external":
        raise ExternalRequired(p.note)


# ============================================================
# necessary conditions and recipe arithmetic
# ============================================================

def necessary_violations(v: int, m: int, r: int, s: int) -> list[str]:
    """Counting conditions every (4, m)-HWP(v; r, s) must satisfy."""
    out = []
    if r < 0 or s < 0:
        out.append("r and s must be nonnegative")
        return out
    if v < 4:
        out.append("v must be at least 4")
        return out
    total = (v - 1) // 2
    if r + s != total:
        out.append(f"r + s must equal floor((v - 1)/2) = {total}")
    if r > 0 and v % 4 != 0:
        out.append("4 ∤ v (required when r > 0)")
    if s > 0 and m >= 3 and v % m != 0:
        out.append("m ∤ v (required when s > 0)")
    if s > 0 and m < 3:
        out.append("no cycle is shorter than 3, so s > 0 needs m >= 3")
    return out


def _solve_recipe(r: int, const: int, budget: int):
    """Smallest x in 0..3 with r = 4 r1 + 2 x + const, r1, s1 >= 0,
    r1 + s1 + x = budget.  None when no such triple exists."""
    for x in range(4):
        rem = r - const - 2 * x
        if rem < 0 or rem % 4 != 0:
            continue
        r1 = rem // 4
        s1 = budget - r1 - x
        if s1 >= 0:
            return r1, s1, x
    return None


# ============================================================
# ingredient availability (static; imports are proven, not trusted)
# ============================================================

def _imported(kind: str, params: tuple, imports) -> Solution | None:
    """The first import that proves itself as the ingredient, else None."""
    if kind == "outer_cm":
        n, m = params
        space, lengths = complete_graph(n), [m] * expected_outer_factors(n)
    else:  # equipartite_cm
        a, b, m = params
        space, lengths = equipartite_graph(a, b), [m] * (a * (b - 1) // 2)
    return next((sol for sol in imports if certifies(sol, space, lengths)), None)


def _availability(kind: str, params: tuple, imports) -> str:
    if kind == "outer_cm":
        n, m = params
        if n == m:
            return "builtin"
        if _imported(kind, params, imports) is not None:
            return "import"
        if (n, m) in NONEXISTENT_OUTERS:
            return "nonexistent"
        if (n, m) in SEARCHABLE_OUTERS:
            return "searchable"
        return "unavailable"
    if kind == "equipartite_cm":
        if _imported(kind, params, imports) is not None:
            return "import"
        return "unavailable"
    if kind == "recursive":
        return "builtin"
    raise ValueError(f"unknown ingredient kind {kind!r}")


def _ingredient(kind: str, params: tuple, imports) -> Ingredient:
    return Ingredient(kind, params, _availability(kind, params, imports))


# ============================================================
# the planner
# ============================================================

def plan(v: int, m: int, r: int, s: int, imports: tuple[Solution, ...] = ()) -> Plan:
    """Route a request.  Pure: consults static availability plus any
    imported documents (which are verified, never trusted)."""
    violations = necessary_violations(v, m, r, s)
    if violations:
        return Plan(route="infeasible", note="; ".join(violations))

    if s == 0:
        t = v // (4 * m) if m >= 3 and v % (4 * m) == 0 else 0
        return Plan(route="all_c4", t=t)

    if m % 2 == 0:
        return Plan(
            route="unsupported",
            note="even m is outside the scope of these recipes (solutions may exist)",
        )

    if r == 0:
        return Plan(
            route="external",
            t=v // (4 * m) if v % (4 * m) == 0 else 0,
            note="r = 0 needs a full Cm-factorization of K_v or K_v - I; "
            "known in the literature, not constructed here",
        )

    if (v, m) == (24, 3):
        if r == 4:
            return Plan(route="k24_table", t=2)
        if r in (2, 6):
            return Plan(
                route="unsupported", t=2,
                note=f"r = {r} at v = 24 is an open corner not reached by any "
                "implemented construction",
            )
        return Plan(
            route="external", t=2,
            note="v = 24 outside the hand-built r = 4 table relies on external results",
        )

    if (v, m) == (48, 3):
        if r % 2 == 0 and 8 <= r <= 20:
            sol = _solve_recipe(r, 8, 3)
            r1, s1, x = sol
            return Plan(
                route="k48_compose", t=4, r1=r1, s1=s1, x=x,
                ingredients=(_ingredient("recursive", (12, 3, 1, 4), imports),),
            )
        if r == 6:
            return Plan(
                route="unsupported", t=4,
                note="r = 6 at v = 48 is an open corner not reached by any "
                "implemented construction",
            )
        return Plan(
            route="external", t=4,
            note="v = 48 outside the even 8 <= r <= 20 composite route relies "
            "on external results",
        )

    t = v // (4 * m)
    n = m * t

    if r % 2 == 1:
        if t % 2 == 1:
            route, const, budget = "odd_r_odd_t", 1, (n - 1) // 2
        elif r == 1:
            ing = _ingredient("equipartite_cm", (4, n, m), imports)
            return _gate(Plan(
                route="r1_equipartite", t=t, s1=s, ingredients=(ing,),
            ))
        else:
            route, const, budget = "odd_r_even_t", 3, (n - 2) // 2
    else:
        if t % 2 == 1:
            route, const, budget = "even_r_switch", 2, (n - 3) // 2
        elif r == 2:
            if t == 2:
                return Plan(
                    route="unsupported", t=t,
                    note="r = 2 at v = 8m is an open corner: the recipe needs a "
                    "Cm-factorization of the bipartite K_{4m:4m}, and a "
                    "bipartite graph has no odd cycles",
                )
            ings = (
                _ingredient("equipartite_cm", (4 * m, t, m), imports),
                _ingredient("recursive", (4 * m, m, 2, 2 * m - 3), imports),
            )
            return _gate(Plan(
                route="r2_equipartite", t=t, s1=2 * m - 3, ingredients=ings,
            ))
        else:
            route, const, budget = "even_r_switch", 4, (n - 4) // 2

    solved = _solve_recipe(r, const, budget)
    if solved is None:
        return Plan(
            route="external", t=t,
            note=f"no nonnegative (r1, s1, x) solves the {route} recipe "
            f"r = 4·r1 + 2·x + {const} within budget {budget}",
            underlying_route=route,
        )
    r1, s1, x = solved
    ing = _ingredient("outer_cm", (n, m), imports)
    return _gate(Plan(
        route=route, t=t, r1=r1, s1=s1, x=x, ingredients=(ing,),
    ))


def _gate(p: Plan) -> Plan:
    """Downgrade a constructive plan to external when an ingredient is
    missing; the intended route is kept for reporting."""
    missing = [i for i in p.ingredients if i.availability in ("unavailable", "nonexistent")]
    if not missing:
        return p
    bits = ", ".join(
        f"{i.kind}{i.params} is {i.availability}" for i in missing
    )
    return Plan(
        route="external", t=p.t, r1=p.r1, s1=p.s1, x=p.x,
        ingredients=p.ingredients,
        note=f"route {p.route} needs an ingredient beyond builtin blocks and "
        f"bounded search: {bits}",
        underlying_route=p.route,
    )


def describe_plan(v: int, m: int, r: int, s: int, p: Plan) -> str:
    """One-line human report: route, recipe, and anything blocking it."""
    head = f"(4,{m})-HWP({v}; {r}, {s}): route={p.route}"
    if p.route in ("odd_r_odd_t", "odd_r_even_t", "even_r_switch", "k48_compose"):
        head += f" t={p.t} recipe (r1, s1, x)=({p.r1}, {p.s1}, {p.x})"
    elif p.route in ("r1_equipartite", "r2_equipartite", "k24_table", "all_c4"):
        head += f" t={p.t}"
    if p.underlying_route:
        head += f" intended={p.underlying_route}"
    for i in p.ingredients:
        head += f" ingredient[{i.kind}{i.params}]={i.availability}"
    if p.note:
        head += f" note: {p.note}"
    return head


# ============================================================
# the blow-up assembler
# ============================================================

BLOCK_BUILDERS = {
    "c4": c4_block,
    "cm": cm_block,
    "mixed": mixed_block,
    "switch": switch_block,
}


@lru_cache(maxsize=None)
def _block(kind: str, m: int) -> Solution:
    return BLOCK_BUILDERS[kind](m)


def _part_quad(p: int) -> tuple[int, int, int, int]:
    return (4 * p, 4 * p + 1, 4 * p + 2, 4 * p + 3)


def _relabel(tuples, part_map):
    """Block cycles or edges moved from parts 0, 1, ... onto the parts
    ``part_map`` lists in that order."""
    return [tuple(4 * part_map[u // 4] + u % 4 for u in tup) for tup in tuples]


def _parts_factor(part_count: int):
    """One global C4-factor plus matching from K_4 - I on every part."""
    cycles, matching = [], []
    for p in range(part_count):
        cyc, pair = k4_minus_matching(_part_quad(p))
        cycles.append(cyc)
        matching.extend(pair)
    return cycles, matching


def _k44_factors(part_pairs):
    """Two global C4-factor fragments over the K_{4,4}s of matched parts."""
    first_cycles, second_cycles = [], []
    for p, q in part_pairs:
        first, second = k44_pair(_part_quad(p), _part_quad(q))
        first_cycles.extend(first)
        second_cycles.extend(second)
    return first_cycles, second_cycles


def _kind_sequence(p: Plan, with_switch: bool) -> list[str]:
    kinds = ["c4"] * p.r1 + ["mixed"] * p.x + ["cm"] * p.s1
    if with_switch:
        kinds.append("switch")
    return kinds


def _finish(v, m, r, s, c4_factor_cycles, cm_factor_cycles, matching_edges) -> Solution:
    if len(c4_factor_cycles) != r or len(cm_factor_cycles) != s:
        raise RuntimeError(
            f"assembly mismatch: built {len(c4_factor_cycles)} C4-factors and "
            f"{len(cm_factor_cycles)} Cm-factors, wanted ({r}, {s})"
        )
    factors = [two_factor(c, v, 4) for c in c4_factor_cycles]
    factors += [two_factor(c, v, m) for c in cm_factor_cycles]
    return Solution(
        v=v, factors=tuple(factors), m=m if s > 0 else None, r=r, s=s,
        one_factor=one_factor(matching_edges),
    )


def _assemble(v: int, m: int, r: int, s: int, outer: Solution, kinds) -> Solution:
    """Blow a verified outer 2-factorization on v/4 parts up by 4.

    Outer factor i lays block ``kinds[i]`` on every one of its cycles; the
    K_4s on the parts give one C4-factor unless a switch block took their
    edges; the outer's removed matching, if any, gives two C4-factors from
    the K_{4,4}s over its pairs."""
    if len(kinds) != len(outer.factors):
        raise RuntimeError(
            f"outer factor count {len(outer.factors)} does not match the "
            f"kind sequence of length {len(kinds)}"
        )
    c4_factors, cm_factors, matching = [], [], []
    for fac, kind in zip(outer.factors, kinds):
        block = _block(kind, len(fac.cycles[0]))
        buckets = [[] for _ in block.factors]
        for cyc in fac.cycles:  # each outer cycle blows up to one C_k[4]
            for bucket, f in zip(buckets, block.factors):
                bucket.extend(_relabel(f.cycles, cyc))
            if block.one_factor is not None:
                matching.extend(_relabel(block.one_factor.edges, cyc))
        for bucket, f in zip(buckets, block.factors):
            (c4_factors if f.cycle_length == 4 else cm_factors).append(bucket)
    if "switch" not in kinds:
        cycles, part_matching = _parts_factor(v // 4)
        c4_factors.append(cycles)
        matching.extend(part_matching)
    if outer.one_factor is not None:
        c4_factors.extend(_k44_factors(outer.one_factor.edges))
    return _finish(v, m, r, s, c4_factors, cm_factors, matching)


def _outer_and_kinds(v, m, p: Plan, imports, cache_dir, time_limit):
    """The outer solution a blow-up route assembles over, and its block kinds."""
    if p.route == "all_c4":
        outer = hamilton_decomposition(v // 4)
        return outer, ["c4"] * len(outer.factors)
    if p.route == "k48_compose":
        (seed,) = p.ingredients
        outer = build(*seed.params, cache_dir=cache_dir, time_limit=time_limit)
        return outer, ["c4"] + _kind_sequence(p, with_switch=True)
    n = m * p.t
    outer = outer_cm_factorization(
        n, m, imports=imports, cache_dir=cache_dir, time_limit=time_limit
    )
    if isinstance(outer, Unavailable):
        raise IngredientUnavailable(
            f"outer ({n}, {m}) factorization: {outer.reason} ({outer.detail})"
        )
    return outer, _kind_sequence(p, with_switch=p.route == "even_r_switch")


def _assemble_r1(v, m, r, s, imports) -> Solution:
    parts = v // 4
    eq = _imported("equipartite_cm", (4, parts, m), imports)
    if eq is None:
        raise IngredientUnavailable(
            f"no imported Cm-factorization of K_{{4:{parts}}} was provided"
        )
    cycles, matching = _parts_factor(parts)
    cm_factors = [list(f.cycles) for f in eq.factors]
    return _finish(v, m, r, s, [cycles], cm_factors, matching)


def _assemble_r2(v, m, r, s, p: Plan, imports, cache_dir, time_limit) -> Solution:
    t = p.t
    eq = _imported("equipartite_cm", (4 * m, t, m), imports)
    if eq is None:
        raise IngredientUnavailable(
            f"no imported Cm-factorization of K_{{{4 * m}:{t}}} was provided"
        )
    inner = build(4 * m, m, 2, 2 * m - 3, cache_dir=cache_dir, time_limit=time_limit)
    buckets = [[] for _ in inner.factors]
    matching = []
    for g in range(t):
        offset = 4 * m * g
        for i, f in enumerate(inner.factors):
            buckets[i].extend(tuple(u + offset for u in cyc) for cyc in f.cycles)
        matching.extend((u + offset, w + offset) for u, w in inner.one_factor.edges)
    c4_factors = [b for b, f in zip(buckets, inner.factors) if f.cycle_length == 4]
    cm_factors = [b for b, f in zip(buckets, inner.factors) if f.cycle_length != 4]
    cm_factors += [list(f.cycles) for f in eq.factors]
    return _finish(v, m, r, s, c4_factors, cm_factors, matching)


# ============================================================
# the builder
# ============================================================

def build(
    v: int,
    m: int,
    r: int,
    s: int,
    imports: tuple[Solution, ...] = (),
    cache_dir=None,
    time_limit: float | None = None,
) -> Solution:
    """Plan, assemble, and verify a (4, m)-HWP(v; r, s) solution.

    Raises Infeasible / Unsupported / ExternalRequired for non-constructive
    plans and IngredientUnavailable when a planned ingredient cannot be
    produced.  Never returns an unverified object."""
    p = plan(v, m, r, s, imports=imports)
    _raise_for_status(p)

    if p.route == "k24_table":
        sol = k24_solution()
    elif p.route == "r1_equipartite":
        sol = _assemble_r1(v, m, r, s, imports)
    elif p.route == "r2_equipartite":
        sol = _assemble_r2(v, m, r, s, p, imports, cache_dir, time_limit)
    else:
        outer, kinds = _outer_and_kinds(v, m, p, imports, cache_dir, time_limit)
        sol = _assemble(v, m, r, s, outer, kinds)

    report = verify_solution(sol)
    if not report.ok:
        raise RuntimeError(
            "internal error: assembled solution failed verification: "
            + report.summary()
        )
    return sol
