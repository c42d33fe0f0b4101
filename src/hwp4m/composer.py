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
for the K_4 edges on its parts and contributes 5.  The K_4s on the parts
give one C4-factor (each part yields one 4-cycle plus two matching edges)
unless switch blocks took them, and the K_{4,4}s over the leftover outer
matching give two.  Summing these contributions gives the recipe

    r = 4 r1 + 2 x + const,   r1 + s1 + x = budget,

r1 copies of the all-C4 kind, x mixed, s1 all-Cm, which ``_recipe``
derives for an outer Cm-factorization on n parts,

    const  = (2 if r is even else 1) + (2 if n is even else 0)
    budget = (n - 1) // 2 - (1 if r is even else 0),

the routes odd_r_odd_t (const 1), odd_r_even_t (3) and even_r_switch (2
or 4).  The v -> 4v rule, route inner_blowup, blows up for n = v/4 a
multiple of 4m a (4, m)-HWP(n; c, s') instead, c the least count that
``plan`` itself routes constructively without imports.  Each of its c
C4-factors takes the all-C4 kind, adding 4 to const and taking 1 from
budget, so it solves exactly when c <= r1 and takes (r1 - c, s1, x).
The all-C4 route blows up Walecki's Hamilton decomposition of K_{v/4}
with the all-C4 kind throughout, and v = 24 is settled by a hand-built
table at r = 4.

Every route is assembled by one placement core, ``_assemble``: it places
copies of verified pieces and merges them, factor i of every copy of a
piece joining one global factor and every removed matching the global
matching.  A blow-up places a block on the blow-up of every outer cycle,
K_4 - I (``blocks.K4_MINUS_I``) on every part and K_{4,4} (``blocks.K44``)
over every leftover pair.  r1_equipartite and r2_equipartite (r = 1 and
r = 2 at even t) place a small solution on every group, K_4 - I for r = 1
and the inner build(4m, m, 2, 2m - 3) for r = 2, and the imported
Cm-factors of the complete equipartite graph between the groups, and
k24_table places the table.  One part table, ``_part_table(n, p)``, makes
every vertex map, on parts of p: ``blocks.PART`` for a blow-up, the small
solution's size on the groups, and the whole piece for an import or the
table.  Every map keeps the order inside each part of p and sends part 0
below the others, so one comparison decides whether a piece cycle's copy
is canonical as read or takes a reordering fixed once per piece cycle,
and no route canonicalizes a copy.  A block's copies through one
placement's maps are a pure function of the block and the maps, so at
v <= 256 each cached block keeps them, one byte per vertex, keyed by the
maps, and a sweep that places it again rebuilds them from those bytes; no
kept copy is trusted, since every build is verified.  The remaining
shapes are genuinely open (r = 2 at v = 8m, and ``OPEN_CORNERS``), or fall
to known results we do not reconstruct (route "external").

The planner's precedence: the open corners, the v = 24 table, the r1/r2
routes, the c = 0 recipe when its outer is available (an import included),
inner_blowup, and last the external plan of the c = 0 recipe.  The planner
reads each ingredient's availability from one static ladder
(``outer.outer_availability`` for outer factorizations, the inner plan's
least available ingredient for a recursive one).  ``_ingredient`` is the
one place an import is proven: an outer or equipartite import, once,
against the kind's search instance, while planning.  The plan carries the
proven document as given, and ``build_planned`` (which ``build`` and the
CLI call after planning once) resolves every ingredient through
``_resolve``.  Every blow-up, all-C4 included, is one rule: the recipe
names x mixed, s1 all-Cm and, for even r, one switch factor, and every
other outer factor takes the all-C4 kind, the outer's own C4-factors
among them, so no declared r is read.  Every constructive build is one
``_assemble`` call, which checks its counts, verified in-process before
it is returned.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import chain, islice
from operator import itemgetter

from .blocks import BLOCK_BUILDERS, K4_MINUS_I, K44, PART
from .k24 import k24_solution
from .model import Solution, TwoFactor, canonicalize_cycle, one_factor
from .outer import (
    IngredientUnavailable,
    hamilton_decomposition,
    outer_availability,
    outer_cm_factorization,
)
from .search import cm_factorization_instance, equipartite_instance, first_proven
from .verifier import verify_solution

# ============================================================
# plan model and status exceptions
# ============================================================

# the routes that solve the recipe r = 4 r1 + 2 x + const, and every route
# that builds
RECIPE_ROUTES = frozenset({"odd_r_odd_t", "odd_r_even_t", "even_r_switch", "inner_blowup"})
CONSTRUCTIVE_ROUTES = RECIPE_ROUTES | {"all_c4", "r1_equipartite", "r2_equipartite", "k24_table"}

# ingredient availabilities, most available first
AVAILABILITY = ("builtin", "import", "searchable", "nonexistent", "unavailable")

# (v, m, r) requests no implemented construction reaches
OPEN_CORNERS = frozenset({(24, 3, 6), (48, 3, 6)})


@dataclass(frozen=True)
class Ingredient:
    """A capability the assembler must obtain before it can run.

    kind "outer_cm" with params (n, m) is a Cm-factorization of K_n (or
    K_n - I' for even n); "equipartite_cm" with params (a, b, m) is a
    Cm-factorization of K_{a:b}; "recursive" with params (v, m, r, s) is an
    inner build: the small solution on every group of r2_equipartite, or the
    inner solution inner_blowup blows up, such as the (4,3)-HWP(12; 1, 4).
    Availability is static: builtin, searchable, import, nonexistent, or
    unavailable, and a recursive ingredient takes the least available one
    of its inner plan's ingredients; no search runs at planning time.  An
    import that proved itself while planning rides along as ``proven``,
    which takes no part in equality or repr, so build uses it without
    proving it again.
    """

    kind: str
    params: tuple
    availability: str
    proven: Solution | None = field(default=None, compare=False, repr=False)


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


# the exception each non-constructive route raises
STATUS_ERRORS = {"infeasible": Infeasible, "unsupported": Unsupported, "external": ExternalRequired}


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


def _recipe(r: int, n: int) -> tuple[int, int]:
    """(const, budget) of the recipe r = 4 r1 + 2 x + const, r1 + s1 + x =
    budget, for blowing up by 4 an outer Cm-factorization on n parts (see
    the module docstring)."""
    even = r % 2 == 0
    const = (2 if even else 1) + (2 if n % 2 == 0 else 0)
    budget = (n - 1) // 2 - (1 if even else 0)
    return const, budget


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
# ingredients (availability is static; imports are proven, not trusted)
# ============================================================

def _ingredient(kind: str, params: tuple, imports) -> Ingredient:
    if kind == "recursive":
        # an inner build is as available as the least available ingredient
        # of its own plan, and unavailable when that plan is not constructive
        inner = plan(*params)
        ladder = [i.availability for i in inner.ingredients]
        if inner.route not in CONSTRUCTIVE_ROUTES:
            ladder.append("unavailable")
        return Ingredient(kind, params, max(ladder, key=AVAILABILITY.index, default="builtin"))
    if kind == "outer_cm":
        availability, instance = outer_availability(*params), cm_factorization_instance
    elif kind == "equipartite_cm":
        availability, instance = "unavailable", equipartite_instance
    else:
        raise ValueError(f"unknown ingredient kind {kind!r}")
    # the one proof of an import: against the kind's search instance
    if imports and availability != "builtin":
        proven = first_proven(instance(*params), imports)
        if proven is not None:
            return Ingredient(kind, params, "import", proven)
    return Ingredient(kind, params, availability)


def _resolve(ing: Ingredient, cache_dir, time_limit) -> Solution:
    """The solution a planned ingredient stands for: its proven import, an
    inner build, or the outer factorization from builtin or search."""
    if ing.proven is not None:
        return ing.proven
    if ing.kind == "recursive":
        return build(*ing.params, cache_dir=cache_dir, time_limit=time_limit)
    if ing.kind == "outer_cm":
        return outer_cm_factorization(*ing.params, cache_dir=cache_dir, time_limit=time_limit)
    raise IngredientUnavailable(f"no imported {ing.kind}{ing.params} was provided")


# ============================================================
# the planner
# ============================================================

def plan(v: int, m: int, r: int, s: int, imports: tuple[Solution, ...] = ()) -> Plan:
    """Route a request.  Pure: consults static availability plus any
    imported documents (which are verified, never trusted)."""
    violations = necessary_violations(v, m, r, s)
    if violations:
        return Plan(route="infeasible", note="; ".join(violations))

    t = v // (4 * m) if m >= 3 and v % (4 * m) == 0 else 0
    if s == 0:
        return Plan(route="all_c4", t=t)

    if m % 2 == 0:
        return Plan(
            route="unsupported",
            note="even m is outside the scope of these recipes (solutions may exist)",
        )

    if r == 0:
        return Plan(
            route="external", t=t,
            note="r = 0 needs a full Cm-factorization of K_v or K_v - I; "
            "known in the literature, not constructed here",
        )

    if (v, m, r) in OPEN_CORNERS:
        note = f"r = {r} at v = {v} is an open corner not reached by any implemented construction"
        return Plan(route="unsupported", t=t, note=note)

    if (v, m, r) == (24, 3, 4):
        return Plan(route="k24_table", t=t)

    n = m * t

    if t % 2 == 0 and r == 1:
        ing = _ingredient("equipartite_cm", (4, n, m), imports)
        return _gate(Plan(
            route="r1_equipartite", t=t, s1=s, ingredients=(ing,),
        ))
    if t % 2 == 0 and r == 2:
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

    if r % 2 == 0:
        route = "even_r_switch"
    else:
        route = "odd_r_odd_t" if t % 2 == 1 else "odd_r_even_t"
    const, budget = _recipe(r, n)
    solved = _solve_recipe(r, const, budget)
    if solved is None:
        p = Plan(
            route="external", t=t,
            note=f"no nonnegative (r1, s1, x) solves the {route} recipe "
            f"r = 4·r1 + 2·x + {const} within budget {budget}",
            underlying_route=route,
        )
    else:
        p = _gate(Plan(route, t, *solved, ingredients=(_ingredient("outer_cm", (n, m), imports),)))
    # blow up an inner (4, m)-HWP(n; c, s') this planner builds itself: its c
    # C4-factors stand in for c of the r1 all-C4 copies, and c = 0 is external
    if p.route == "external" and n % (4 * m) == 0 and solved and solved[0]:
        r1, s1, x = solved
        if (c := _least_inner_c4_count(n, m)) <= r1:
            ing = _ingredient("recursive", (n, m, c, (n - 2) // 2 - c), imports)
            return Plan("inner_blowup", t, r1 - c, s1, x, ingredients=(ing,))
    return p


@lru_cache(maxsize=None)
def _least_inner_c4_count(n: int, m: int) -> int:
    """The least c > 0 of a (4, m)-HWP(n; c, s') that ``plan`` routes
    constructively without imports; c = (n - 2)/2, all C4, always is one."""
    half = (n - 2) // 2
    return next(c for c in range(1, half + 1) if plan(n, m, c, half - c).route in CONSTRUCTIVE_ROUTES)


def _gate(p: Plan) -> Plan:
    """Downgrade a constructive plan to external when an ingredient is
    missing; the intended route is kept for reporting."""
    missing = [i for i in p.ingredients if i.availability in ("unavailable", "nonexistent")]
    if not missing:
        return p
    bits = ", ".join(
        f"{i.kind}{i.params} is {i.availability}" for i in missing
    )
    return replace(
        p, route="external",
        note=f"route {p.route} needs an ingredient beyond builtin blocks and "
        f"bounded search: {bits}",
        underlying_route=p.route,
    )


def describe_plan(v: int, m: int, r: int, s: int, p: Plan) -> str:
    """One-line human report: route, recipe, and anything blocking it."""
    head = f"(4,{m})-HWP({v}; {r}, {s}): route={p.route}"
    if p.route in CONSTRUCTIVE_ROUTES:
        head += f" t={p.t}"
    if p.route in RECIPE_ROUTES:
        head += f" recipe (r1, s1, x)=({p.r1}, {p.s1}, {p.x})"
    if p.underlying_route:
        head += f" intended={p.underlying_route}"
    for i in p.ingredients:
        head += f" ingredient[{i.kind}{i.params}]={i.availability}"
    if p.note:
        head += f" note: {p.note}"
    return head


# ============================================================
# the one assembler: copies of verified pieces
# ============================================================

def _copier(cyc, p):
    """(a, b, f, g) for one canonical piece cycle on parts of p: under the
    contract of ``_assemble`` its canonical copy through a vertex map is
    f(vmap) if vmap[a] < vmap[b], else g(f(vmap)), by three rules: a
    two-part cycle's parts swap; one through part 0, or on one part, turns;
    any other (no placement has one) is canonicalized.  g is a shared
    position getter."""
    f = itemgetter(*cyc)
    first = cyc[0] // p  # cyc[0] is the minimum, so its part is the lowest
    others = [u for u in cyc if u // p != first]
    if len({u // p for u in others}) == 1:
        # two parts: the image is ordered as the cycle, or as this probe
        # with the two parts swapped
        probe = [u % p + (p if u // p == first else 0) for u in cyc]
        return cyc[0], min(others), f, _reorder(*map(probe.index, canonicalize_cycle(probe)))
    if first == 0 or not others:  # the least vertex stays first
        return cyc[1], cyc[-1], f, _reorder(0, *range(len(cyc) - 1, 0, -1))
    return cyc[0], cyc[0], f, canonicalize_cycle


_reorder = lru_cache(maxsize=None)(itemgetter)  # one getter per reordering


def _copiers(piece: Solution, p: int, kept: dict | None = None):
    """What ``_assemble`` reads of a piece on parts of p: per factor, its
    cycle length and cycle copiers, one itemgetter per matching edge, and
    ``kept``, the store of the piece's copies, or None to keep none."""
    matched = piece.one_factor.edges if piece.one_factor is not None else ()
    return (
        [(len(f.cycles[0]), [_copier(c, p) for c in f.cycles]) for f in piece.factors],
        [itemgetter(*e) for e in matched],
        kept,
    )


@lru_cache(maxsize=None)
def _block(kind: str, m: int):
    """A block's copiers and the store of its copies at v <= 256: per
    placement, a ``bytes`` key, its maps' vertices, and a ``bytes`` value,
    its sorted factors' vertices.  An entry takes at most 6 * 256 bytes
    plus about 100 of object overhead, one per distinct placement of the
    process, at most 4 kinds times the factors of each outer it blows up at
    v <= 256: a v <= 120 sweep keeps 497 in 0.25 MB.  The store lives as
    long as the cached block: ``_block.cache_clear()`` drops it."""
    return _copiers(BLOCK_BUILDERS[kind](m), PART, {})


_K4_MINUS_I, _K44 = _copiers(K4_MINUS_I, PART), _copiers(K44, PART)


def _part_table(n: int, p: int) -> list[tuple[int, ...]]:
    """Part c of n parts of p vertices: p c .. p c + p - 1, in order."""
    return [tuple(range(p * c, p * c + p)) for c in range(n)]


def _tiled(piece: Solution, n: int):
    """A piece placed whole, as one part, on each of n parts of its size."""
    return _copiers(piece, piece.v), _part_table(n, piece.v)


def _parts(table: list, cells) -> tuple[int, ...]:
    """The vertex map of a piece on the blow-up of outer vertices ``cells``:
    piece part i goes to the part ``table[cells[i]]``, layer for layer."""
    return tuple(chain.from_iterable(map(table.__getitem__, cells)))


def _assemble(v: int, m: int, r: int, s: int, placed) -> Solution:
    """Merge copies of verified pieces into one (4, m)-HWP(v; r, s).

    ``placed`` lists (piece copiers, vertex maps); each map sends piece
    vertex u to map[u].  Factor i of every copy of a piece joins one global
    factor, C4-factors first, and every copy's removed matching joins the
    global matching.  The map contract, for copiers made on parts of p: a
    map sends each part of p onto p consecutive vertices in order, and part
    0 below the others.  Maps joined from a ``_part_table``'s rows keep it,
    so every copy is canonical and the factors are only sorted, each
    piece's once its maps are used up: no two pieces' buckets live at once.
    When v <= 256 and the piece is a block, whose copiers carry a store,
    its sorted factors are kept as bytes keyed by its maps' vertices, and a
    placement met again is rebuilt from them, with no copier and no sort;
    above 256, and for every other piece, every copy is made afresh."""
    c4_factors, cm_factors, matching = [], [], []
    for (factors, edge_getters, kept), maps in placed:
        data = key = None
        if kept is not None and v <= 256:  # every vertex fits a byte
            maps = list(maps)
            data = kept.get(key := bytes(chain.from_iterable(maps)))
        if data is None:
            buckets = [[] for _ in factors]
            for vmap in maps:
                for bucket, (_, copiers) in zip(buckets, factors):
                    bucket += [f(vmap) if vmap[a] < vmap[b] else g(f(vmap)) for a, b, f, g in copiers]
                matching += [g(vmap) for g in edge_getters]
            copies = [tuple(sorted(bucket)) for bucket in buckets]
            if key is not None:
                kept[key] = bytes(chain.from_iterable(chain.from_iterable(copies)))
        else:  # a placement met before: its kept copy, rebuilt
            matching += [g(vmap) for vmap in maps for g in edge_getters]
            vertices = iter(data)
            copies = [tuple(islice(zip(*[vertices] * length), len(maps) * len(copiers)))
                      for length, copiers in factors]
        for (length, _), copy in zip(factors, copies):
            (c4_factors if length == 4 else cm_factors).append(copy)
    if len(c4_factors) != r or len(cm_factors) != s:
        raise RuntimeError(
            f"assembly mismatch: built {len(c4_factors)} C4-factors and "
            f"{len(cm_factors)} Cm-factors, wanted ({r}, {s})"
        )
    factors = [TwoFactor(c, v, 4) for c in c4_factors]
    factors += [TwoFactor(c, v, m) for c in cm_factors]
    return Solution(
        v=v, factors=tuple(factors), m=m if s > 0 else None, r=r, s=s,
        one_factor=one_factor(matching),
    )


def _blow_up(outer: Solution, kinds) -> list:
    """The (piece copiers, vertex maps) that blow a verified outer
    2-factorization up by PART: block ``kinds[i]`` on every cycle of outer
    factor i (a kinds list of another length raises ValueError), K_4 - I on
    every part unless a switch block took those edges, and K_{4,4} over
    every pair of the outer's removed matching.  Each map comes from one
    part table made for this call: a cycle's joins its cells' parts."""
    table = _part_table(outer.v, PART)
    placed = [
        (_block(kind, len(f.cycles[0])), map(partial(_parts, table), f.cycles))
        for f, kind in zip(outer.factors, kinds, strict=True)
    ]
    if "switch" not in kinds:
        placed.append((_K4_MINUS_I, table))
    if outer.one_factor is not None:
        placed.append((_K44, [table[a] + table[b] for a, b in outer.one_factor.edges]))
    return placed


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
    return build_planned(v, m, r, s, p, cache_dir=cache_dir, time_limit=time_limit)


def build_planned(v: int, m: int, r: int, s: int, p: Plan, cache_dir=None,
                  time_limit: float | None = None) -> Solution:
    """``build`` for a request already planned as ``p``: resolve its
    ingredients, place them, and verify the result; a blow-up's outer is
    its one ingredient, or Walecki's K_{v/4} (all-C4).  Raises as ``build``."""
    if p.route in STATUS_ERRORS:
        raise STATUS_ERRORS[p.route](p.note)
    got = [_resolve(i, cache_dir, time_limit) for i in p.ingredients]

    if p.route == "k24_table":
        placed = [_tiled(k24_solution(), 1)]
    elif p.route in ("r1_equipartite", "r2_equipartite"):
        # a small solution on every group, the equipartite factors between
        small = got[1] if p.route == "r2_equipartite" else K4_MINUS_I
        placed = [_tiled(small, v // small.v), _tiled(got[0], 1)]
    else:  # every outer factor the recipe does not name takes c4, the
        # outer's own C4-factors, which come first, among them
        outer = got[0] if got else hamilton_decomposition(v // PART)
        named = ["mixed"] * p.x + ["cm"] * p.s1 + ["switch"] * (r % 2 == 0)
        placed = _blow_up(outer, ["c4"] * (len(outer.factors) - len(named)) + named)

    sol = _assemble(v, m, r, s, placed)
    if not (report := verify_solution(sol)).ok:
        raise RuntimeError(f"internal error: assembled solution failed verification: {report.summary()}")
    return sol
