"""Factorizations of the outer graphs the composition step consumes.

The composer blows each part of an outer graph up to 4 vertices.  What it
needs from this module:

  walecki(n)         K_n (odd n) split into (n-1)/2 Hamilton cycles
  walecki_even(n)    K_n (even n) split into (n-2)/2 Hamilton cycles plus
                     a leftover perfect matching
  hamilton_decomposition(n)
                     either of the two as one Solution, with the leftover
                     matching of even n as its one-factor, built once per
                     order per process and shared
  STARTERS, develop(base, n, m, fixed)
                     one base Cm-factor per outer, developed under a cyclic
                     group into a Cm-factorization and proven as it is made
  outer_availability(n, m)
                     the one static ladder for a Cm-factorization of K_n
                     (odd n) or K_n - I (even n): builtin when n = m or a
                     starter exists, known nonexistent, searchable, or
                     unavailable; the planner and outer_cm_factorization
                     both read it, and the planner proves imported ones
  outer_cm_factorization(n, m, ...)
                     that factorization as a Solution, resolved along the
                     ladder (searching when it says searchable); raises
                     IngredientUnavailable when it cannot be produced

Every outer factorization, developed, searched, imported or cached, is
proven by ``search.first_proven`` where it is made.

A starter is one Cm-factor whose translates tile the graph, and
``develop`` is the one place that translates.  For odd n it is
1-rotational (Buratti and Rinaldi, J. Combin. Des. 16, 2008): the ring
Z_{n-1} plus a fixed infinity, the factor invariant under +(n-1)/2, and the
translates by g < (n-1)/2 are the factors.  For even n it is 2-pyramidal
(Buratti and Traetta, J. Combin. Des. 20, 2012): two copies of Z_h,
h = (n-2)/2, plus two fixed points, and the h translates are the factors;
the edges none of them uses are the removed matching.  A literal that does
not develop into a factorization raises; nothing unproven is returned.
tests/reference_starters.py re-derives every literal by a starter search.

The Hamilton decompositions are the classical rotating zigzag, itself a
1-rotational starter of one cycle for either parity: the hub n - 1, then
0, +1, -1, +2, -2, ... over the ring Z_{n-1}; rotating it sweeps each ring
difference exactly once.  For even n the (n-2)/2 rotations leave a perfect
matching, each vertex's one free neighbour, proven with them, not assumed.
Every request of one (v, m) blows up the same one, of order m when t = 1
or v/4 on the all-C4 route, so ``hamilton_decomposition`` keeps it.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from operator import itemgetter

from . import search
from .model import OneFactor, Solution, TwoFactor, one_factor, two_factor

# Base factors of the starter outers (see the module docstring).  (15, 5):
# ring Z_14 and infinity 14, developed by x -> x + g mod 14 for g < 7.
# (14, 7): x + 6 * side for x in Z_6, infinities 12 and 13, developed by
# x -> x + g mod 6 on each side; the removed matching is {12 13} and pure
# difference 3 on each side.
STARTERS = {
    (15, 5): ((0, 1, 3, 12, 4), (7, 8, 10, 5, 11), (2, 9, 6, 14, 13)),
    (14, 7): ((0, 1, 3, 6, 2, 7, 8), (4, 10, 12, 5, 13, 9, 11)),
}

# The outers without a builtin that the ladder knows.  Searchable: the
# Cm-factorizations of K_n (or K_n - I) that bounded search can supply.
# Kept deliberately small: an entry here promises the acceptance suite a
# result within seconds, measured: (9,3) takes 45 nodes and (10,5) 556;
# (15,3), (18,3) and (21,3) blow past 30 s and stay out.  (10,5) has no
# 2-pyramidal starter, and (9,3) stays searched for the import, cache and
# CLI tests that rest on it.  Nonexistent: no C3-factorization of K_6 - I
# or K_12 - I exists; the planner treats recipes needing one as dead ends
# rather than searching forever.
OUTER_LADDER = {
    (9, 3): "searchable", (10, 5): "searchable",
    (6, 3): "nonexistent", (12, 3): "nonexistent",
}


# ============================================================
# starters: base factors developed under a cyclic group
# ============================================================

def develop(base, n: int, m: int, fixed: int) -> Solution:
    """The translates of the base Cm-factor ``base`` as one Solution on n
    vertices, proven by ``search.first_proven`` or raised against.  The group
    translates within blocks of h vertices and fixes the ``fixed`` vertices
    above them: one block Z_{n-1} and one fixed point (1-rotational starters,
    Walecki's zigzag), or two blocks Z_h, h = (n-2)/2, and two fixed points
    (2-pyramidal starters).  The (n-1)//2 translates g = 0, 1, ... are the
    factors; for even n each vertex's one free neighbour in n bytearray rows
    gives the one-factor.  Every image, and both ends of each leftover edge,
    is drawn from one list of 0..n-1, so the Solution holds n int objects."""
    ring = n - fixed
    h = ring // fixed
    verts = list(range(n))
    getters = [itemgetter(*c) for c in base]
    factors = []
    for g in range((n - 1) // 2):
        image = []
        for b in range(0, ring, h):
            image += verts[b + g:b + h] + verts[b:b + g]
        image += verts[ring:]
        factors.append(two_factor([get(image) for get in getters], n, m))
    leftover = None
    if n % 2 == 0:
        rows = [bytearray(n) for _ in verts]
        for f in factors:
            for c in f.cycles:
                prev = c[-1]
                for u in c:
                    rows[prev][u] = rows[u][prev] = 1
                    prev = u
        leftover = one_factor(  # each vertex's one free neighbour above it
            (u, verts[w]) for u, row in zip(verts, rows) if (w := row.find(0, u + 1)) > u)
    sol = Solution(v=n, factors=tuple(factors), m=m, one_factor=leftover)
    if search.first_proven(search.cm_factorization_instance(n, m), [sol]) is None:
        raise RuntimeError(f"the base {base} does not develop into C{m}-factors on {n} vertices")
    return sol


# ============================================================
# Hamilton decompositions of complete graphs
# ============================================================

def _zigzag(n: int) -> tuple[int, ...]:
    # Walecki's base cycle: the hub n - 1, then 0, +1, -1, +2, -2, ... mod n - 1
    ring = n - 1
    return (ring, *(((k + 1) // 2 if k % 2 else -k // 2) % ring for k in range(ring)))


def walecki(n: int) -> list[TwoFactor]:
    """Partition E(K_n), odd n, into (n-1)/2 Hamilton cycles (none for n = 1)."""
    if n < 1 or n % 2 == 0:
        raise ValueError("needs odd n >= 1")
    return list(develop([_zigzag(n)], n, n, 1).factors)


def walecki_even(n: int) -> tuple[list[TwoFactor], OneFactor]:
    """Partition E(K_n), even n, into (n-2)/2 Hamilton cycles and one
    perfect matching (the edges the rotated zigzags never touch)."""
    if n < 2 or n % 2 == 1:
        raise ValueError("needs even n >= 2")
    sol = develop([_zigzag(n)], n, n, 1)
    return list(sol.factors), sol.one_factor


@lru_cache(maxsize=32)
def hamilton_decomposition(n: int) -> Solution:
    """K_n (odd n) or K_n - I (even n) split into Hamilton cycles, as one
    Solution whose one-factor is the leftover matching of even n.

    Built and proven once per order per process, by ``walecki`` or
    ``walecki_even``, and shared: the Solution is frozen.  It costs about
    4n^2 bytes, (n-1)/2 cycles of n pointers to n shared ints, where a block costs O(m); the 32
    orders kept cover the 25 of a v <= 120 sweep and hold at most 32 * 4n^2
    bytes, 128 MB were all of them near n = 1000."""
    if n % 2 == 1:
        return Solution(v=n, factors=tuple(walecki(n)), m=n)
    factors, leftover = walecki_even(n)
    return Solution(v=n, factors=tuple(factors), m=n, one_factor=leftover)


# ============================================================
# Cm-factorizations of K_n via builtin / import / search
# ============================================================

class IngredientUnavailable(Exception):
    """A planned ingredient could not be produced (search timeout, no import)."""


def _unavailable(n: int, m: int, reason: str, detail: str) -> IngredientUnavailable:
    return IngredientUnavailable(f"outer {(n, m)} factorization: {reason} ({detail})")


def outer_availability(n: int, m: int) -> str:
    """The static ladder for a Cm-factorization of K_n (odd n) or K_n - I
    (even n): builtin when n = m (Hamilton decomposition) or (n, m) has a
    starter, else nonexistent or searchable by OUTER_LADDER, else
    unavailable.  Runs no search; the planner upgrades it to import when an
    imported document proves itself."""
    if n == m or (n, m) in STARTERS:
        return "builtin"
    return OUTER_LADDER.get((n, m), "unavailable")


def outer_cm_factorization(n: int, m: int, cache_dir=None, time_limit: float | None = None):
    """Resolve a Cm-factorization of K_n (odd n) or K_n - I (even n), as a
    Solution whose one-factor is the removed matching I.

    Follows ``outer_availability`` (the planner proves imported documents,
    and its plan carries them): the builtin is returned, a starter developed and
    proven on every call; a searchable (n, m) is searched within
    ``time_limit``; everything else raises IngredientUnavailable.  Nothing
    unverified is ever returned.
    """
    if m < 3 or n < 3 or n % m != 0:
        raise _unavailable(n, m, "infeasible", f"no Cm-factorization shape for (n={n}, m={m})")

    availability = outer_availability(n, m)
    if availability == "builtin":
        return hamilton_decomposition(n) if n == m else develop(STARTERS[n, m], n, m, 2 - n % 2)
    if availability == "nonexistent":
        raise _unavailable(n, m, "nonexistent", f"K_{n} minus a 1-factor has no C{m}-factorization")
    if availability == "unavailable":
        raise _unavailable(
            n, m, "external", f"({n}, {m}) outer factorization is beyond builtin and search"
        )

    outcome = search.solve_cached(
        search.cm_factorization_instance(n, m), cache_dir=cache_dir, time_limit=time_limit
    )
    if outcome.status == "found":
        return replace(outcome.solution, m=m)
    if outcome.status == "timeout":
        raise _unavailable(n, m, "timeout", f"search for ({n}, {m}) hit the time limit")
    raise _unavailable(n, m, "nonexistent", f"exhaustive search: no ({n}, {m}) factorization")
