"""Nonexistence of a {three Cm, one C4} factorization of C_m[4], odd m.

For odd m every m-cycle of C_m[4] meets all m parts once, so three Cm-factors
leave each vertex one edge to each neighbouring part: the fourth factor's
cycles wind round all m parts, so m divides their lengths and none is a C4.
This is the boundary case the constructive routes must avoid, and the reason
the switch block exists.  ``audit_m_cycles`` checks the premise by brute
force over every m-cycle; the winding argument does the rest.
"""

from reference_search import adjacency

from hwp4m.model import cycle_blowup4


def audit_m_cycles(m: int) -> int:
    """Enumerate every m-cycle of C_m[4] by DFS and confirm each one visits
    every part exactly once.  Returns the count, which must be 4**m (one
    free layer choice per part).  Raises if either property fails."""
    adj = adjacency(cycle_blowup4(m))
    n = 4 * m
    count = 0
    for start in range(n):
        # only count cycles whose minimum vertex is the start
        stack = [(start, [start], {start})]
        while stack:
            last, path, used = stack.pop()
            if len(path) == m:
                if start in adj[last] and path[1] < path[-1]:
                    parts = {p // 4 for p in path}
                    if len(parts) != m:
                        raise RuntimeError(f"m-cycle off the transversal pattern: {path}")
                    count += 1
                continue
            for nxt in adj[last]:
                if nxt > start and nxt not in used:
                    stack.append((nxt, path + [nxt], used | {nxt}))
    if count != 4 ** m:
        raise RuntimeError(f"expected {4 ** m} m-cycles in C_{m}[4], found {count}")
    return count


def check_c4_cm3_nonexistence(m: int) -> int:
    """Confirm that C_m[4] (odd m >= 3) has no factorization into three
    Cm-factors plus one C4-factor, and return the audited m-cycle count,
    4**m.

    audit_m_cycles checks the premise of the module docstring by brute
    force over every m-cycle; the winding argument does the rest.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("check defined for odd m >= 3")
    return audit_m_cycles(m)
