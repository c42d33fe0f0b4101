"""Deterministic backtracking search for small 2-factorization instances.

An instance names an ambient graph and an ordered list of factor specs
(cycle_length, count).  The solver fills factors one at a time; inside a
factor it starts each cycle at the smallest vertex the factor has not
covered yet, extends with candidates in ascending order, and accepts a
closed cycle only in the orientation whose second vertex is smaller than
its last (so each cycle is generated once, already canonical).  If the
edge budget leaves exactly v/2 edges over, those edges must come out as a
perfect matching, which the solver checks at every full assignment.

Unsat is meaningful only because the enumeration is exhaustive; the one
admissible shortcut is the ``canonical_first`` flag, which pins the first
factor's first cycle to the lexicographically least cycle through vertex 0.
That is only sound when the ambient graph's automorphisms act transitively
on the candidate cycles of the first slot (true for complete graphs, for
triangles of complete equipartite graphs, and for the m-cycles of C_m[4],
which all run through one part per position); instances here set the flag
only in those cases.

Found results are re-checked by the verifier before being returned, and
positive results can be cached on disk keyed by a hash of the instance.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from .model import (
    EdgeSpace,
    OneFactor,
    Solution,
    TwoFactor,
    complete_graph,
    cycle_blowup4,
    decode_solution,
    encode_solution,
    equipartite_graph,
    normalize_edge,
    one_factor,
    two_factor,
)
from .verifier import certifies, verify_factors_cover

_TIME_CHECK_MASK = 0x3FF  # consult the clock every 1024 nodes


@dataclass(frozen=True)
class SearchInstance:
    name: str
    space: EdgeSpace
    factor_specs: tuple[tuple[int, int], ...]  # (cycle_length, count)
    canonical_first: bool = False

    def slots(self) -> list[int]:
        out = []
        for length, count in self.factor_specs:
            out.extend([length] * count)
        return out

    def leftover_expected(self) -> bool:
        n = self.space.vertex_count
        return self.space.edge_count() - n * len(self.slots()) == n // 2

    def key(self) -> str:
        doc = {
            "name": self.name,
            "space": [self.space.kind, list(self.space.params)],
            "specs": [list(sp) for sp in self.factor_specs],
            "canonical_first": self.canonical_first,
        }
        if self.space.kind == "explicit":
            edge_blob = json.dumps(sorted(self.space.edges())).encode()
            doc["edges_sha"] = hashlib.sha256(edge_blob).hexdigest()
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class SearchOutcome:
    status: str  # "found" | "unsat" | "timeout"
    factors: tuple[TwoFactor, ...] | None = None
    matching: OneFactor | None = None
    nodes: int = 0
    elapsed: float = 0.0


class _Timeout(Exception):
    pass


def check_budget(instance: SearchInstance) -> bool:
    """True when the leftover is a matching, False when it is zero;
    raises for any other shape (malformed instance)."""
    n = instance.space.vertex_count
    slots = instance.slots()
    for length in slots:
        if length < 3 or n % length != 0:
            raise ValueError(f"cycle length {length} does not tile {n} vertices")
    rem = instance.space.edge_count() - n * len(slots)
    if rem == 0:
        return False
    if n % 2 == 0 and rem == n // 2:
        return True
    raise ValueError(f"edge budget off by {rem} (not zero, not a perfect matching)")


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
    adj: list[set[int]] = instance.space.adjacency()
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
    return SearchOutcome("found", factors, result["matching"], nodes, elapsed)


# ============================================================
# named instances
# ============================================================

def cm_factorization_instance(n: int, m: int) -> SearchInstance:
    """K_n into Cm-factors (odd n), or K_n minus a matching (even n)."""
    count = (n - 1) // 2
    return SearchInstance(
        name=f"cmfact-n{n}-m{m}",
        space=complete_graph(n),
        factor_specs=((m, count),),
        canonical_first=True,
    )


def kts9_instance() -> SearchInstance:
    return cm_factorization_instance(9, 3)


def hwp12_instance() -> SearchInstance:
    """K_12 minus a matching into one C4-factor and four C3-factors."""
    return SearchInstance(
        name="hwp12",
        space=complete_graph(12),
        factor_specs=((4, 1), (3, 4)),
        canonical_first=True,
    )


def equipartite_instance(a: int, b: int, length: int) -> SearchInstance:
    """K_{a:b} into C_length-factors.  canonical_first only for triangles:
    every triangle meets three distinct parts, a single automorphism orbit."""
    if (a * (b - 1)) % 2 != 0:
        raise ValueError(f"K_{{{a}:{b}}} has odd degree, no 2-factorization")
    count = a * (b - 1) // 2
    return SearchInstance(
        name=f"equi-a{a}-b{b}-c{length}",
        space=equipartite_graph(a, b),
        factor_specs=((length, count),),
        canonical_first=length == 3,
    )


def c4_cm3_split_instance(m: int) -> SearchInstance:
    """C_m[4] into three Cm-factors and one C4-factor (expected unsat)."""
    return SearchInstance(
        name=f"blowup-split-m{m}",
        space=cycle_blowup4(m),
        factor_specs=((m, 3), (4, 1)),
        canonical_first=True,
    )


def hwp12_ingredient(cache_dir=None, time_limit: float | None = None) -> Solution | None:
    """Searched solution with v=12, r=1, s=4: the seed of the v=48 composite
    route.  None on timeout (caller turns that into an honest failure)."""
    outcome = solve_cached(hwp12_instance(), cache_dir=cache_dir, time_limit=time_limit)
    if outcome.status != "found":
        return None
    return Solution(
        v=12, m=3, r=1, s=4, factors=outcome.factors, one_factor=outcome.matching
    )


def equipartite_cm_search(
    a: int, b: int, length: int, cache_dir=None, time_limit: float | None = None
) -> SearchOutcome:
    return solve_cached(
        equipartite_instance(a, b, length), cache_dir=cache_dir, time_limit=time_limit
    )


# ============================================================
# caching
# ============================================================

_MEMO: dict[str, SearchOutcome] = {}


def default_cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "hwp4m")


def _cache_path(instance: SearchInstance, cache_dir: str) -> str:
    digest = hashlib.sha256(instance.key().encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"{instance.name}-{digest}.json")


def solve_cached(
    instance: SearchInstance, cache_dir: str | None = None, time_limit: float | None = None
) -> SearchOutcome:
    """solve() with an in-process memo and an on-disk cache of Found results.

    Cached files are re-verified on load; anything unreadable or invalid is
    ignored and recomputed.  Unsat/timeout outcomes are never cached (a
    longer time limit could change them).
    """
    key = instance.key()
    if key in _MEMO:
        return _MEMO[key]
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    path = _cache_path(instance, cache_dir)
    n = instance.space.vertex_count
    try:
        with open(path, "rb") as fh:
            sol = decode_solution(fh.read())
        if certifies(sol, instance.space, instance.slots()):
            outcome = SearchOutcome("found", sol.factors, sol.one_factor)
            _MEMO[key] = outcome
            return outcome
    except (OSError, ValueError):
        pass

    outcome = solve(instance, time_limit=time_limit)
    if outcome.status == "found":
        _MEMO[key] = outcome
        doc = Solution(v=n, factors=outcome.factors, one_factor=outcome.matching)
        payload = encode_solution(doc)
        try:
            os.makedirs(cache_dir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            pass  # cache is best effort
    return outcome
