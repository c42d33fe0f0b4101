"""Every piece of a blow-up by 4, on parts of PART = 4 vertices, and the
registry of block kinds: a block on each blown-up outer cycle C_m[4],
K_4 - I on each part (K4_MINUS_I: one C4-factor and the removed matching
it leaves) and K_{4,4} over each leftover outer pair (K44: two C4-factors).

C_m[4] has m parts of 4 vertices arranged around a cycle, with every
vertex joined to all 4 vertices of each neighbouring part (16m edges,
vertex (g, i) stored flat as 4i + g).  BLOCK_BUILDERS registers its four
factorizations by kind:

  c4_block(m)      four C4-factors               (any m >= 3)
  cm_block(m)      four Cm-factors               (any m >= 3)
  mixed_block(m)   two C4- and two Cm-factors    (any m >= 3)
  switch_block(m)  two C4- and three Cm-factors of the switch graph
                   (C_m[4] - I) + m*K4, odd m; emits the removed matching I

c4_block reads its 4-cycles off a closed walk on 2-subsets of {0,1,2,3}
(one subset per part, one element changed per step), which drives a
1-factorization of C_m[2].  cm_block works over GF(4), held here as its
4x4 product table GF4_MUL with XOR for addition: scale a base cycle by
each field element, then translate by each element additively.
mixed_block and switch_block work over Z4 with two moves on (layer, part)
cycles: ``_layers`` translates a base cycle through the four layers, and
``_swept`` sweeps a 4-cycle gadget around the parts; ``_factor`` flattens
the cycles into one factor.  Every construction is certified by the
independent verifier in tests; nothing here is trusted blindly.
"""

from __future__ import annotations

from .model import Solution, one_factor, switch_matching_edges, two_factor

PART = 4

# ============================================================
# C4-factorization via a 1-factorization of C_m[2]
# ============================================================

def johnson_walk(m: int) -> list[frozenset[int]]:
    """Closed length-m walk on 2-subsets of {0,1,2,3}, changing one
    element per step (cyclically).  Drives c4_block."""
    if m < 3:
        raise ValueError("walk needs m >= 3")
    if m % 2 == 0:
        return [frozenset({0, 1}) if i % 2 == 0 else frozenset({0, 2}) for i in range(m)]
    walk = [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})]
    for i in range(3, m):
        walk.append(frozenset({0, 1}) if i % 2 == 1 else frozenset({0, 2}))
    return walk


def c4_block(m: int) -> Solution:
    """Four C4-factors of C_m[4].

    C_m[2] splits into four perfect matchings: matching f leaves part i at
    layer 0 iff f lies in walk subset W_i, and enters part i+1 at layer 1
    iff f lies in W_{i+1}; consecutive subsets share exactly one element, so
    between two parts the four matchings take the four distinct edges.
    Layer a of C_m[2] stands for layers {2a, 2a+1} of C_m[4], and each
    matching edge expands to the 4-cycle through its four doubled
    endpoints, which covers the K_{2,2} between the doubled pairs.
    """
    walk = johnson_walk(m)
    v = 4 * m
    factors = []
    for f in range(4):
        cycles = []
        for i in range(m):
            j = (i + 1) % m
            a = 4 * i + 2 * (f not in walk[i])
            b = 4 * j + 2 * (f in walk[j])
            cycles.append((a, b, a + 1, b + 1))
        factors.append(two_factor(cycles, v, cycle_length=4))
    return Solution(v=v, factors=tuple(factors))


# ============================================================
# Cm-factorization via GF(4)
# ============================================================

# GF(4) = {0, 1, x, x^2} with x^2 = x + 1, encoded as 0, 1, 2, 3: addition
# is XOR, and GF4_MUL[a][b] is the product a * b.
GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def gf4_base_layers(m: int) -> list[int]:
    """Layers of the base m-cycle: x^i at part i.  When m = 1 (mod 3) the
    wrap-around would repeat layer 1 at both ends, collapsing the factor
    structure, so the last layer is bent to x instead."""
    layers = [1 + i % 3 for i in range(m)]
    if m % 3 == 1:
        layers[m - 1] = 2
    return layers


def cm_block(m: int) -> Solution:
    """Four Cm-factors of C_m[4].

    One factor is the base cycle scaled by each of 1, x, x2, 0 (scaling by 0
    gives the all-layer-0 cycle, so the four cycles cover every layer at
    every part).  The four factors are its additive translates by 0, 1, x,
    x2.  Distinct consecutive layers in the base cycle make the sixteen
    edges between adjacent parts split exactly across scale and translate.
    """
    if m < 3:
        raise ValueError("block needs m >= 3")
    base = gf4_base_layers(m)
    v = 4 * m
    factors = []
    for beta in (0, 1, 2, 3):
        cycles = [
            tuple(4 * i + (GF4_MUL[alpha][g] ^ beta) for i, g in enumerate(base))
            for alpha in (1, 2, 3, 0)
        ]
        factors.append(two_factor(cycles, v, cycle_length=m))
    return Solution(v=v, factors=tuple(factors))


# ============================================================
# mixed and switch factorizations over Z4
# ============================================================

def _layers(base, shifts=range(4)) -> list[list[tuple[int, int]]]:
    """The translates of a (layer, part) base cycle by each layer shift."""
    return [[(g + d, i) for g, i in base] for d in shifts]


def _swept(gadget, turns: int) -> list[list[tuple[int, int]]]:
    """A (layer, part) gadget swept round the parts: its part translates
    by 0, 1, ..., turns - 1."""
    return [[(g, i + t) for g, i in gadget] for t in range(turns)]


def _factor(cycles, m: int, length: int, lift: int = 0):
    """(layer, part) cycles as one factor of C_m[4], every layer raised by
    ``lift``; layers are read mod 4 and parts mod m."""
    return two_factor(
        [tuple(4 * (i % m) + (g + lift) % 4 for g, i in c) for c in cycles], 4 * m, length
    )


def mixed_block(m: int) -> Solution:
    """Two C4-factors followed by two Cm-factors tiling C_m[4], over Z4.

    The Cm-factors are the layer translates of a snake cycle (layers
    0,2,0,2,..., last bent to 1 for odd m) and of the all-layer-0 cycle;
    they consume the layer-difference classes {2-ish} and {0}.  The
    C4-factors sweep a two-part 4-cycle gadget around the parts (odd m:
    the last two parts are finished by a bent gadget and its +2 translate),
    once as is and once a layer up, and consume the remaining difference
    classes.
    """
    if m < 3:
        raise ValueError("block needs m >= 3")
    snake = [(2 * i, i) for i in range(m)]
    if m % 2 == 1:
        snake[m - 1] = (1, m - 1)
    quad = [(0, 1), (1, 0), (2, 1), (3, 0)]
    if m % 2 == 0:
        sweep = _swept(quad, m)
    else:  # the last two parts take a bent gadget and its +2 translate
        bent = [(0, 0), (2, m - 1), (1, m - 2), (3, m - 1)]
        sweep = _swept(quad, m - 2) + _layers(bent, (0, 2))
    factors = (
        _factor(sweep, m, 4),
        _factor(sweep, m, 4, lift=1),
        _factor(_layers(snake), m, m),
        _factor(_layers([(0, i) for i in range(m)]), m, m),
    )
    return Solution(v=4 * m, factors=factors)


def switch_block(m: int) -> Solution:
    """Two C4-factors and three Cm-factors of (C_m[4] - I) + m*K4, odd m,
    together with the removed perfect matching I.

    The three Cm-factors are layer translates of three base cycles (constant
    layer 0, layers i^2 mod 4, layers -i^2 mod 4, the first two with their
    last layer bent so the wrap-around differences work out).  One C4-factor
    sweeps a gadget using two K4 edges and the two layer-difference-2 block
    edges that I does not remove; the other C4-factor is the 4-cycle
    (0,1,3,2) inside every K4.  Between them the factors use each K4 edge
    and each surviving block edge exactly once.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("switch block needs odd m >= 3")
    bases = (
        [(0, i) for i in range(m - 1)] + [(3, m - 1)],
        [(i * i, i) for i in range(m - 1)] + [(1, m - 1)],
        [(-i * i, i) for i in range(m)],
    )
    factors = (
        _factor(_swept([(1, 0), (2, 0), (0, 1), (3, 1)], m), m, 4),
        _factor(_swept([(0, 0), (1, 0), (3, 0), (2, 0)], m), m, 4),
        *(_factor(_layers(base), m, m) for base in bases),
    )
    return Solution(v=4 * m, factors=factors, one_factor=one_factor(switch_matching_edges(m)))


BLOCK_BUILDERS = {
    "c4": c4_block,
    "cm": cm_block,
    "mixed": mixed_block,
    "switch": switch_block,
}


# ============================================================
# the two constant pieces of a blow-up by 4
# ============================================================

# K_4 on one part: the 4-cycle 0-1-3-2 and the matching {03, 12} it leaves
K4_MINUS_I = Solution(
    v=4, factors=(two_factor([(0, 1, 3, 2)], 4, 4),), one_factor=one_factor([(0, 3), (1, 2)])
)

# the 16 edges between two parts, 0..3 and 4..7, as two C4-factors
K44 = Solution(v=8, factors=(
    two_factor([(0, 4, 1, 5), (2, 6, 3, 7)], 8, 4),
    two_factor([(0, 6, 1, 7), (2, 4, 3, 5)], 8, 4),
))
