"""Starter search for outer Cm-factorizations, kept in the tests to re-derive
``outer.STARTERS``.

A starter is one Cm-factor F whose translates tile K_n (odd n) or K_n - I
(even n); ``outer.develop`` turns it into the factorization.

- 1-rotational, odd n: the ring Z_{n-1} and a fixed infinity n - 1.  F is
  invariant under sigma: x -> x + (n-1)/2, and its translates by
  g < (n-1)/2 are the factors.  Buratti and Rinaldi, J. Combin. Des. 16
  (2008).
- 2-pyramidal, even n: vertex x + h * side stands for (x, side), x in Z_h,
  h = (n-2)/2, with fixed infinities 2h and 2h + 1; the h translates are
  the factors.  I is the edge between the infinities plus pure difference
  h/2 on both sides (h even) or mixed difference 0 (h odd).  Buratti and
  Traetta, J. Combin. Des. 20 (2012).

The translates tile the graph exactly when F meets every edge orbit of the
group in its capacity: |orbit| * k / h edges, where k = 2 for 1-rotational
(F and F + sigma coincide) and k = 1 for 2-pyramidal; the orbits of I have
capacity 0.  The depth-first search opens each cycle at the smallest
uncovered vertex, extends with candidates in ascending order, accepts a
closed cycle only in the orientation whose second vertex is smaller than
its last, and never lets an orbit exceed its capacity.  For 1-rotational n
a closed cycle C is either sigma-invariant, as the cycle through infinity
is, or kept together with its image C + sigma, listed right after it.
"""

from itertools import combinations


def _action(n: int) -> tuple[int, int]:
    """(ring, h): the vertices below ``ring`` are translated within blocks
    of h, the ones above are fixed."""
    fixed = 2 - n % 2
    ring = n - fixed
    return ring, ring // fixed


def _orbits(n: int) -> tuple[dict, dict]:
    """The orbit key of every ordered edge, and each orbit's capacity."""
    ring, h = _action(n)
    k = 2 if n % 2 else 1

    def shift(x, g):
        return x if x >= ring else x - x % h + (x + g) % h

    key, capacity = {}, {}
    for u, w in combinations(range(n), 2):
        orbit = {tuple(sorted((shift(u, g), shift(w, g)))) for g in range(h)}
        key[u, w] = key[w, u] = least = min(orbit)
        capacity[least] = len(orbit) * k // h
    if n % 2 == 0 and h % 2 == 1:
        capacity[0, h] = 0  # mixed difference 0 joins I
    return key, capacity


def _ring_edges(cycle) -> list[tuple[int, int]]:
    return [(cycle[i - 1], cycle[i]) for i in range(len(cycle))]


def _edge_set(cycle) -> set[frozenset[int]]:
    return {frozenset(e) for e in _ring_edges(cycle)}


def find_starter(n: int, m: int):
    """The first starter the search meets, as the tuple of F's cycles, or
    None when there is none (the search is exhaustive)."""
    ring, h = _action(n)
    key, capacity = _orbits(n)
    step = ring // 2 if n % 2 else 0  # sigma; the identity for even n
    sigma = [x if x >= ring else (x + step) % ring for x in range(n)]
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
