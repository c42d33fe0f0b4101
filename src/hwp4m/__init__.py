"""Constructive solver, ingredient search, and independent verifier for
2-factorizations of K_v minus a perfect matching into r C4-factors and
s Cm-factors (odd m), the uniform-cycle Hamilton-Waterloo setting.

The package splits along trust lines: `verifier` certifies objects from
scratch and is imported by everything else; `blocks` builds every piece
of a blow-up by 4 (the four C_m[4] blocks, K_4 - I and K_{4,4}); `outer`
and `search` supply cycle factorizations of the quotient complete graphs;
`composer` routes a request (v, m, r, s) to a recipe and assembles a
verified solution; `cli` wires it all to deterministic JSON artifacts.
"""

__version__ = "0.1.0"

from .composer import build, plan
from .model import Solution, decode_solution, encode_solution
from .verifier import verify_block, verify_solution

__all__ = [
    "Solution",
    "build",
    "decode_solution",
    "encode_solution",
    "plan",
    "verify_block",
    "verify_solution",
    "__version__",
]
