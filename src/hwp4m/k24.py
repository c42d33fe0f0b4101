"""Explicit 2-factorization of K_24 - I with four C4-factors and seven C3-factors.

The case v = 24, m = 3, r = 4 sits at the v = 8m boundary where the block
recipes run out of budget: an even-r switch plan needs (mt-4)/2 = 1 spare
outer factor and the lone leftover slot cannot host both the switch and the
required C4 surplus.  A hand-built table settles it instead.  The eleven
factors below partition E(K_24) minus the perfect matching I: factors F1..F4
are C4-factors (six squares each) and F5..F11 are C3-factors (eight
triangles each), giving r = 4 and s = 7 with r + s = 11 = (24 - 2)/2.

The table is data, not construction: it is kept verbatim, not derived at
runtime.  Every build of (24, 3, 4, 7) places it, on range(24), through
the assembler every route shares, which checks its factor counts, and
verifies the result before returning it; the test suite certifies the
table itself with the independent verifier.
"""

from .model import Solution, one_factor, two_factor

# === The table ===============================================================

_C4_FACTORS = (
    # F1
    ((0, 1, 10, 9), (2, 3, 17, 16), (4, 5, 19, 18),
     (6, 7, 8, 15), (11, 12, 21, 20), (13, 14, 23, 22)),
    # F2
    ((0, 2, 4, 6), (1, 3, 5, 7), (10, 12, 14, 8),
     (16, 18, 20, 22), (17, 19, 21, 23), (9, 11, 13, 15)),
    # F3
    ((0, 3, 4, 7), (1, 2, 5, 6), (10, 11, 14, 15),
     (16, 19, 20, 23), (17, 18, 21, 22), (9, 12, 13, 8)),
    # F4
    ((0, 4, 1, 5), (2, 6, 3, 7), (11, 15, 12, 8),
     (16, 20, 17, 21), (18, 22, 19, 23), (9, 13, 10, 14)),
)

_C3_FACTORS = (
    # F5
    ((0, 8, 16), (1, 9, 17), (2, 10, 18), (3, 11, 19),
     (4, 12, 20), (5, 13, 21), (6, 14, 22), (7, 15, 23)),
    # F6
    ((0, 13, 19), (1, 14, 20), (2, 15, 21), (3, 8, 22),
     (4, 9, 23), (5, 10, 16), (6, 11, 17), (7, 12, 18)),
    # F7
    ((0, 14, 18), (1, 15, 19), (2, 8, 20), (3, 9, 21),
     (4, 10, 22), (5, 11, 23), (6, 12, 16), (7, 13, 17)),
    # F8
    ((0, 15, 20), (1, 8, 21), (2, 9, 22), (3, 10, 23),
     (4, 11, 16), (5, 12, 17), (6, 13, 18), (7, 14, 19)),
    # F9
    ((0, 12, 23), (1, 13, 16), (2, 14, 17), (3, 15, 18),
     (4, 8, 19), (5, 9, 20), (6, 10, 21), (7, 11, 22)),
    # F10
    ((0, 11, 21), (1, 12, 22), (2, 13, 23), (3, 14, 16),
     (4, 15, 17), (5, 8, 18), (6, 9, 19), (7, 10, 20)),
    # F11
    ((0, 10, 17), (1, 11, 18), (2, 12, 19), (3, 13, 20),
     (4, 14, 21), (5, 15, 22), (6, 8, 23), (7, 9, 16)),
)

K24_MATCHING = (
    (0, 22), (1, 23), (2, 11), (3, 12), (4, 13), (5, 14),
    (6, 20), (7, 21), (8, 17), (9, 18), (10, 19), (15, 16),
)


# === Assembly ================================================================

def k24_solution():
    """Return the table as a Solution for (v, m, r, s) = (24, 3, 4, 7)."""
    factors = [two_factor(cycles, 24, 4) for cycles in _C4_FACTORS]
    factors += [two_factor(cycles, 24, 3) for cycles in _C3_FACTORS]
    return Solution(v=24, factors=tuple(factors), m=3, r=4, s=7,
                    one_factor=one_factor(K24_MATCHING))
