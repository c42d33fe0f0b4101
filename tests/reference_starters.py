"""Starter search for outer Cm-factorizations, kept in the tests to re-derive
``outer.STARTERS``.

A starter is one Cm-factor F whose images under the group of
``outer.cyclic_action(n, fixed)``, which describes both groups, tile K_n
(odd n) or K_n - I (even n); ``outer.develop`` turns it into the
factorization.  The factors are the images of F under the first
q = (n-1)//2 elements, and sigma, element q of the group (the identity for
even n), maps F onto itself.  I is the edge between the infinities plus
pure difference q/2 on both sides (q even) or mixed difference 0 (q odd).

The images tile the graph exactly when F meets every edge orbit of the
group in its capacity, |orbit| // q edges; the orbits of I have capacity 0.
The depth-first search opens each cycle at the smallest uncovered vertex,
extends with candidates in ascending order, accepts a closed cycle only in
the orientation whose second vertex is smaller than its last, and never lets
an orbit exceed its capacity.  For odd n a closed cycle C is either
sigma-invariant, as the cycle through infinity is, or kept together with its
image C + sigma, listed right after it.
"""

from itertools import combinations

from hwp4m.outer import cyclic_action


def _orbits(n: int, group) -> tuple[dict, dict]:
    """The orbit key of every ordered edge, and each orbit's capacity."""
    q = (n - 1) // 2
    key, capacity = {}, {}
    for u, w in combinations(range(n), 2):
        orbit = {tuple(sorted((g[u], g[w]))) for g in group}
        key[u, w] = key[w, u] = least = min(orbit)
        capacity[least] = len(orbit) // q
    if n % 4 == 0:
        capacity[0, q] = 0  # q is odd: mixed difference 0 joins I
    return key, capacity


def _ring_edges(cycle) -> list[tuple[int, int]]:
    return [(cycle[i - 1], cycle[i]) for i in range(len(cycle))]


def _edge_set(cycle) -> set[frozenset[int]]:
    return {frozenset(e) for e in _ring_edges(cycle)}


def find_starter(n: int, m: int, fixed: int):
    """The first starter under ``cyclic_action(n, fixed)`` the search meets,
    as the tuple of F's cycles, or None when there is none (the search is
    exhaustive)."""
    group = list(cyclic_action(n, fixed))
    key, capacity = _orbits(n, group)
    sigma = group[(n - 1) // 2 % len(group)]
    used = dict.fromkeys(capacity, 0)
    covered: set[int] = set()
    cycles: list[tuple[int, ...]] = []

    def take(edges) -> bool:
        orbits = [key[e] for e in edges]
        for o in orbits:
            used[o] += 1
        if all(used[o] <= capacity[o] for o in orbits):
            return True
        give(edges)
        return False

    def give(edges) -> None:
        for e in edges:
            used[key[e]] -= 1

    def start() -> bool:
        if len(covered) == n:
            return True
        return extend([min(set(range(n)) - covered)])

    def extend(path: list[int]) -> bool:
        last = path[-1]
        if len(path) == m:
            closing = [(last, path[0])]
            if path[1] < last and take(closing):
                if close(tuple(path)):
                    return True
                give(closing)
            return False
        for u in range(n):
            if u in covered or u in path or not take([(last, u)]):
                continue
            path.append(u)
            if extend(path):
                return True
            path.pop()
            give([(last, u)])
        return False

    def close(cycle: tuple[int, ...]) -> bool:
        image = tuple(sigma[x] for x in cycle)
        if set(image) == set(cycle):  # sigma-invariant; always so for even n
            if _edge_set(image) != _edge_set(cycle):
                return False
            new, extra = [cycle], []
        elif covered.isdisjoint(image) and set(cycle).isdisjoint(image):
            new, extra = [cycle, image], _ring_edges(image)
            if not take(extra):
                return False
        else:
            return False
        covered.update(*new)
        cycles.extend(new)
        if start():
            return True
        del cycles[-len(new):]
        covered.difference_update(*new)
        give(extra)
        return False

    return tuple(cycles) if start() else None
