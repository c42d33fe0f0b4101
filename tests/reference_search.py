"""The set-based search engine, kept as the reference oracle for ``search.solve``.

This is the backtracking engine as it stood before the bitmask rewrite,
copied verbatim: adjacency as a list of sets with edges removed and restored
as the path grows, candidates from ``sorted(adj[x])``, and one recursive call
per node, closing nodes included.  ``test_search_differential`` requires the
bitmask engine to return the same status, node count, factors and matching.
"""

import time

from hwp4m.model import EdgeSpace, Solution, one_factor, two_factor
from hwp4m.search import _TIME_CHECK_MASK, SearchInstance, SearchOutcome, _Timeout, check_budget
from hwp4m.verifier import verify_factors_cover


def adjacency(space: EdgeSpace) -> list[set[int]]:
    """Each vertex's neighbours in ``space``, as a list of sets."""
    adj: list[set[int]] = [set() for _ in range(space.vertex_count)]
    for u, v in space.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def solve(instance: SearchInstance, time_limit: float | None = None) -> SearchOutcome:
    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit
    # a limit that has already expired means "do not search at all"; the
    # in-loop clock check only fires every 1024 nodes, so tiny instances
    # would otherwise complete under time_limit=0
    if deadline is not None and time.monotonic() >= deadline:
        return SearchOutcome("timeout", nodes=0, elapsed=0.0)
    leftover_expected = check_budget(instance)

    n = instance.space.vertex_count
    adj = adjacency(instance.space)
    slots = instance.slots()
    total_slots = len(slots)
    all_vertices = frozenset(range(n))

    factor_cycles: list[list[tuple[int, ...]]] = [[] for _ in slots]
    nodes = 0
    result: dict = {}

    def tick():
        nonlocal nodes
        nodes += 1
        if deadline is not None and nodes & _TIME_CHECK_MASK == 0:
            if time.monotonic() > deadline:
                raise _Timeout

    def use_edge(u, w):
        adj[u].discard(w)
        adj[w].discard(u)

    def free_edge(u, w):
        adj[u].add(w)
        adj[w].add(u)

    def degree_ok(si: int) -> bool:
        # after finishing factor si every vertex still needs 2 edges per
        # remaining factor plus 1 if a matching must survive
        need = 2 * (total_slots - si - 1) + (1 if leftover_expected else 0)
        return all(len(adj[v]) >= need for v in range(n))

    def finish() -> bool:
        if leftover_expected:
            if any(len(adj[v]) != 1 for v in range(n)):
                return False
            result["matching"] = one_factor(
                (v, w) for v in range(n) for w in adj[v] if v < w
            )
        else:
            result["matching"] = None
        return True

    def place(si: int, covered: frozenset[int], path: list[int]) -> bool:
        tick()
        length = slots[si]
        if not path:
            if covered == all_vertices:
                if not degree_ok(si):
                    return False
                return finish() if si + 1 == total_slots else place(si + 1, frozenset(), [])
            v0 = min(all_vertices - covered)
            for u in sorted(adj[v0]):
                if u in covered:
                    continue
                use_edge(v0, u)
                if place(si, covered, [v0, u]):
                    return True
                free_edge(v0, u)
            return False
        if len(path) == length:
            v0, last = path[0], path[-1]
            if path[1] < last and v0 in adj[last]:
                use_edge(v0, last)
                factor_cycles[si].append(tuple(path))
                if place(si, covered | frozenset(path), []):
                    return True
                factor_cycles[si].pop()
                free_edge(v0, last)
            return False
        last = path[-1]
        in_path = set(path)
        for u in sorted(adj[last]):
            if u in covered or u in in_path:
                continue
            use_edge(last, u)
            path.append(u)
            if place(si, covered, path):
                return True
            path.pop()
            free_edge(last, u)
        return False

    def forced_first_cycle() -> tuple[int, ...] | None:
        """Lexicographically least cycle of the first slot's length through
        vertex 0 (DFS candidate order is lexicographic, so first hit wins)."""
        length = slots[0]
        found: list[tuple[int, ...]] = []

        def walk(path: list[int]) -> bool:
            if len(path) == length:
                if path[1] < path[-1] and path[0] in adj[path[-1]]:
                    found.append(tuple(path))
                    return True
                return False
            for u in sorted(adj[path[-1]]):
                if u not in path and walk(path + [u]):
                    return True
            return False

        return found[0] if walk([0]) else None

    try:
        if instance.canonical_first:
            first = forced_first_cycle()
            if first is None:
                return SearchOutcome("unsat", nodes=nodes, elapsed=time.monotonic() - start)
            for i in range(len(first)):
                use_edge(first[i], first[(i + 1) % len(first)])
            factor_cycles[0].append(first)
            ok = place(0, frozenset(first), [])
        else:
            ok = place(0, frozenset(), [])
    except _Timeout:
        return SearchOutcome("timeout", nodes=nodes, elapsed=time.monotonic() - start)

    elapsed = time.monotonic() - start
    if not ok:
        return SearchOutcome("unsat", nodes=nodes, elapsed=elapsed)

    factors = tuple(
        two_factor(cycles, n, cycle_length=slots[i]) for i, cycles in enumerate(factor_cycles)
    )
    report = verify_factors_cover(factors, instance.space, result["matching"])
    if not report.ok:
        raise RuntimeError(f"search produced an invalid result: {report.summary()}")
    return SearchOutcome("found", Solution(v=n, factors=factors, one_factor=result["matching"]), nodes, elapsed)
