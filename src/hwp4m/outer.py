"""Factorizations of the outer graphs the composition step consumes.

The composer blows each part of an outer graph up to 4 vertices.  What it
needs from this module:

  walecki(n)         K_n (odd n) split into (n-1)/2 Hamilton cycles
  walecki_even(n)    K_n (even n) split into (n-2)/2 Hamilton cycles plus
                     a leftover perfect matching
  hamilton_decomposition(n)
                     either of the two as one Solution, with the leftover
                     matching of even n as its one-factor
  k44_pair           two C4-factor fragments of one K_{4,4}
  k4_minus_matching  4-cycle + matching partition of one K_4
  outer_cm_factorization(n, m, ...)
                     Cm-factorization of K_n (odd n) or K_n - I (even n) as
                     a Solution, resolved through builtin / imported file /
                     bounded search, or an honest Unavailable

The Hamilton decompositions use the classical rotating zigzag: fix a hub
vertex, run the path j, j+1, j-1, j+2, j-2, ... over the remaining ring
Z_{n-1}, and close through the hub; rotating j sweeps each ring difference
exactly once.  For even n the same zigzag leaves a perfect matching, which
is computed by edge accounting and checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    OneFactor,
    Solution,
    TwoFactor,
    complete_graph,
    normalize_edge,
    one_factor,
    two_factor,
)
from .verifier import certifies

# Cm-factorizations of K_n (or K_n - I) that bounded search can supply.
# Kept deliberately small: an entry here promises the acceptance suite a
# result within seconds, measured: (9,3) and (10,5) are instant, (15,5)
# takes under a second, (14,7) about 2.2 s; (15,3), (18,3) and (21,3) blow
# past 30 s and stay out.
SEARCHABLE_OUTERS = frozenset({(9, 3), (10, 5), (15, 5), (14, 7)})

# No C3-factorization of K_6 - I or K_12 - I exists; the planner treats
# recipes needing one as dead ends rather than searching forever.
NONEXISTENT_OUTERS = frozenset({(6, 3), (12, 3)})


# ============================================================
# Hamilton decompositions of complete graphs
# ============================================================

def _zigzag_offsets(count: int) -> list[int]:
    # 0, +1, -1, +2, -2, ... until ``count`` offsets exist
    out = [0]
    d = 1
    while len(out) < count:
        out.append(d)
        if len(out) < count:
            out.append(-d)
        d += 1
    return out


def walecki(n: int) -> list[TwoFactor]:
    """Partition E(K_n), odd n, into (n-1)/2 Hamilton cycles (none for n = 1)."""
    if n < 1 or n % 2 == 0:
        raise ValueError("needs odd n >= 1")
    ring = n - 1
    hub = n - 1
    offsets = _zigzag_offsets(ring)
    factors = []
    for j in range((n - 1) // 2):
        path = [(j + off) % ring for off in offsets]
        factors.append(two_factor([tuple([hub] + path)], n, cycle_length=n))
    return factors


def walecki_even(n: int) -> tuple[list[TwoFactor], OneFactor]:
    """Partition E(K_n), even n, into (n-2)/2 Hamilton cycles and one
    perfect matching (the edges the rotated zigzags never touch)."""
    if n < 2 or n % 2 == 1:
        raise ValueError("needs even n >= 2")
    if n == 2:
        return [], one_factor([(0, 1)])
    ring = n - 1
    hub = n - 1
    offsets = _zigzag_offsets(ring)
    factors = []
    used = set()
    for j in range((n - 2) // 2):
        path = [(j + off) % ring for off in offsets]
        cycle = tuple([hub] + path)
        factors.append(two_factor([cycle], n, cycle_length=n))
        k = len(cycle)
        for idx in range(k):
            used.add(normalize_edge(cycle[idx], cycle[(idx + 1) % k]))
    leftover = [e for u in range(n) for w in range(u + 1, n) if (e := (u, w)) not in used]
    if len(leftover) != n // 2 or len({x for e in leftover for x in e}) != n:
        raise RuntimeError(f"zigzag leftover for n={n} is not a perfect matching")
    return factors, one_factor(leftover)


def hamilton_decomposition(n: int) -> Solution:
    """K_n (odd n) or K_n - I (even n) split into Hamilton cycles, as one
    Solution whose one-factor is the leftover matching of even n."""
    if n % 2 == 1:
        return Solution(v=n, factors=tuple(walecki(n)), m=n)
    factors, leftover = walecki_even(n)
    return Solution(v=n, factors=tuple(factors), m=n, one_factor=leftover)


# ============================================================
# four-vertex gadgets
# ============================================================

def k44_pair(side_a, side_b):
    """Two C4-factor fragments covering all 16 edges between two 4-sets."""
    a0, a1, a2, a3 = side_a
    b0, b1, b2, b3 = side_b
    first = [(a0, b0, a1, b1), (a2, b2, a3, b3)]
    second = [(a0, b2, a1, b3), (a2, b0, a3, b1)]
    return first, second


def k4_minus_matching(quad):
    """One 4-cycle plus a 2-edge matching partitioning the six K_4 edges."""
    x0, x1, x2, x3 = quad
    return (x0, x1, x3, x2), [(x0, x3), (x1, x2)]


# ============================================================
# Cm-factorizations of K_n via builtin / import / search
# ============================================================

@dataclass(frozen=True)
class Unavailable:
    reason: str  # "nonexistent" | "timeout" | "external" | "infeasible"
    detail: str = ""


def expected_outer_factors(n: int) -> int:
    return (n - 1) // 2


def outer_cm_factorization(
    n: int,
    m: int,
    imports: tuple[Solution, ...] = (),
    cache_dir=None,
    time_limit: float | None = None,
):
    """Resolve a Cm-factorization of K_n (odd n) or K_n - I (even n), as a
    Solution whose one-factor is the removed matching I.

    Resolution order: builtin (n = m: Hamilton decomposition), then any
    imported document that proves itself against the verifier, then bounded
    search for whitelisted (n, m).  Everything else is an honest
    Unavailable; nothing unverified is ever returned.
    """
    if m < 3 or n < 3 or n % m != 0:
        return Unavailable("infeasible", f"no Cm-factorization shape for (n={n}, m={m})")

    if n == m:
        return hamilton_decomposition(n)

    lengths = [m] * expected_outer_factors(n)
    for sol in imports:
        if certifies(sol, complete_graph(n), lengths):
            return Solution(v=n, factors=sol.factors, m=m, one_factor=sol.one_factor)

    if (n, m) in NONEXISTENT_OUTERS:
        return Unavailable("nonexistent", f"K_{n} minus a 1-factor has no C{m}-factorization")

    if (n, m) in SEARCHABLE_OUTERS:
        from . import search

        outcome = search.solve_cached(
            search.cm_factorization_instance(n, m), cache_dir=cache_dir, time_limit=time_limit
        )
        if outcome.status == "found":
            return Solution(v=n, factors=outcome.factors, m=m, one_factor=outcome.matching)
        if outcome.status == "timeout":
            return Unavailable("timeout", f"search for ({n}, {m}) hit the time limit")
        return Unavailable("nonexistent", f"exhaustive search: no ({n}, {m}) factorization")

    return Unavailable("external", f"({n}, {m}) outer factorization is beyond builtin and search")
