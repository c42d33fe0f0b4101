"""Deterministic backtracking search for small 2-factorization instances.

An instance names an ambient graph and an ordered list of factor specs
(cycle_length, count).  The solver fills factors one at a time; inside a
factor it starts each cycle at the smallest vertex the factor has not
covered yet, extends with candidates in ascending order, and accepts a
closed cycle only in the orientation whose second vertex is smaller than
its last (so each cycle is generated once, already canonical).  If the
edge budget leaves exactly v/2 edges over, those edges must come out as a
perfect matching; the last factor's degree test implies it, since v/2
edges that leave every vertex a degree of at least 1 leave each exactly 1.

Unsat is meaningful only because the enumeration is exhaustive; the one
admissible shortcut is the ``canonical_first`` flag, which pins the first
factor's first cycle to the lexicographically least cycle through vertex 0.
That is only sound when the ambient graph's automorphisms act transitively
on the candidate cycles of the first slot (true for complete graphs, for
triangles of complete equipartite graphs, and for the m-cycles of C_m[4],
which all run through one part per position); instances here set the flag
only in those cases.

The engine works on integer bitmasks: each vertex's unused edges, the
covered vertices and the open path are ints, candidates are walked lowest
bit first (the ascending order), and the children that would close a cycle
are tested inline rather than by a call of their own, each still counted
as one node.  In a triangle slot every child of the node that opens the
cycle is such a closing node, so that node counts and expands them itself.
A finished factor leaves ``adj``, and returns to it, by one write per
vertex that flips both of its cycle edges.  The engine visits the same
tree in the same order as the set-based engine kept in
``tests/reference_search.py``, so node counts and first solutions match
that oracle exactly.

A found result is proven by ``first_proven``, and that very Solution is
returned and may be cached on disk, keyed by a hash of the instance.  The
disk is the only cache: each use re-reads the file and returns what
``first_proven`` accepts, as read; each file is written through a
temporary file of the writing process's own and moved into place whole.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass

from .model import (
    EdgeSpace,
    Solution,
    complete_graph,
    cycle_blowup4,
    decode_solution,
    encode_solution,
    equipartite_graph,
    one_factor,
    two_factor,
)
from .verifier import certifies

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

    def key(self) -> str:
        doc = {
            "name": self.name,
            "space": [self.space.kind, list(self.space.params)],
            "specs": [list(sp) for sp in self.factor_specs],
            "canonical_first": self.canonical_first,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class SearchOutcome:
    """``solution`` is the proven Solution when found, else None."""

    status: str  # "found" | "unsat" | "timeout"
    solution: Solution | None = None
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
    deadline = math.inf if time_limit is None else start + time_limit
    leftover_expected = check_budget(instance)  # a malformed instance raises under any limit
    # a limit that has already expired means "do not search at all"; the
    # in-loop clock check only fires every 1024 nodes, so tiny instances
    # would otherwise complete under time_limit=0
    if time.monotonic() >= deadline:
        return SearchOutcome("timeout", nodes=0, elapsed=0.0)

    n = instance.space.vertex_count
    bit = [1 << u for u in range(n)]
    adj = [0] * n  # adj[u] has bit w set while edge uw is unused by earlier factors
    for u, w in instance.space.edges():
        adj[u] |= bit[w]
        adj[w] |= bit[u]
    full = (1 << n) - 1
    slots = instance.slots()
    total_slots = len(slots)
    clock = time.monotonic
    check_mask = _TIME_CHECK_MASK

    factor_cycles: list[list[tuple[int, ...]]] = [[] for _ in slots]
    nodes = 0

    # Every candidate set is masked by the covered and path vertices, and an
    # edge of the factor being filled joins two such vertices; so a factor's
    # edges leave ``adj`` only when the factor is complete.

    def toggle_factor(si: int) -> None:
        for cyc in factor_cycles[si]:
            prev, cur = cyc[-2], cyc[-1]
            for nxt in cyc:
                adj[cur] ^= bit[prev] | bit[nxt]
                prev, cur = cur, nxt

    def degree_ok(si: int) -> bool:
        # after finishing factor si every vertex still needs 2 edges per
        # remaining factor plus 1 if a matching must survive
        need = 2 * (total_slots - si - 1) + (1 if leftover_expected else 0)
        return min(map(int.bit_count, adj)) >= need

    def start_cycle(si: int, covered: int) -> bool:
        """A node with an empty path: complete factor si, or open a cycle at
        its first uncovered vertex."""
        nonlocal nodes
        nodes += 1
        if not nodes & check_mask and clock() > deadline:
            raise _Timeout
        if covered == full:
            toggle_factor(si)
            if degree_ok(si) and (si + 1 == total_slots or start_cycle(si + 1, 0)):
                return True
            toggle_factor(si)
            return False
        low = ~covered & (covered + 1)
        v0 = low.bit_length() - 1
        cand = adj[v0] & ~covered
        left = slots[si] - 2
        if left == 1:
            # a triangle: each child (v0, u) is a closing node, expanded here as
            # extend expands one, and it closes only at a candidate of v0 above u
            cycles = factor_cycles[si]
            while cand:
                b = cand & -cand
                cand ^= b
                nodes += 1
                if not nodes & check_mask and clock() > deadline:
                    raise _Timeout
                u = b.bit_length() - 1
                blocked = covered | low | b
                third = adj[u] & ~blocked
                closers = third & cand
                while closers:
                    c = closers & -closers
                    closers ^= c
                    upto = third & ((c << 1) - 1)
                    third ^= upto
                    before = nodes
                    nodes += upto.bit_count()
                    if before | check_mask < nodes and clock() > deadline:
                        raise _Timeout
                    cycles.append((v0, u, c.bit_length() - 1))
                    if start_cycle(si, blocked | c):
                        return True
                    cycles.pop()
                before = nodes
                nodes += third.bit_count()
                if before | check_mask < nodes and clock() > deadline:
                    raise _Timeout
            return False
        while cand:
            b = cand & -cand
            cand ^= b
            u = b.bit_length() - 1
            # a cycle closes back to v0 only from a vertex above its second one
            if extend(si, [v0, u], covered | low | b, u, left, adj[v0] & -(b << 1)):
                return True
        return False

    def extend(si: int, path: list[int], blocked: int, last: int, left: int, closable: int) -> bool:
        """A node whose open path still needs ``left`` vertices; ``blocked``
        holds the covered and path vertices."""
        nonlocal nodes
        nodes += 1
        if not nodes & check_mask and clock() > deadline:
            raise _Timeout
        cand = adj[last] & ~blocked
        if left > 1:
            left -= 1
            while cand:
                b = cand & -cand
                cand ^= b
                u = b.bit_length() - 1
                path.append(u)
                if extend(si, path, blocked | b, u, left, closable):
                    return True
                path.pop()
            return False
        # each child would close the cycle: it is one node, tested here, and
        # only a child that does close it goes on to the next cycle
        closers = cand & closable
        while closers:
            b = closers & -closers
            closers ^= b
            upto = cand & ((b << 1) - 1)
            cand ^= upto
            before = nodes
            nodes += upto.bit_count()
            if before | check_mask < nodes and clock() > deadline:
                raise _Timeout
            path.append(b.bit_length() - 1)
            factor_cycles[si].append(tuple(path))
            if start_cycle(si, blocked | b):
                return True
            factor_cycles[si].pop()
            path.pop()
        before = nodes
        nodes += cand.bit_count()
        if before | check_mask < nodes and clock() > deadline:
            raise _Timeout
        return False

    def forced_first_cycle() -> tuple[int, ...] | None:
        """Lexicographically least cycle of the first slot's length through
        vertex 0 (DFS candidate order is lexicographic, so first hit wins)."""
        length = slots[0]

        def walk(path: list[int], on_path: int) -> tuple[int, ...] | None:
            if len(path) == length:
                return tuple(path) if path[1] < path[-1] and adj[path[-1]] & 1 else None
            cand = adj[path[-1]] & ~on_path
            while cand:
                b = cand & -cand
                cand ^= b
                found = walk(path + [b.bit_length() - 1], on_path | b)
                if found:
                    return found
            return None

        return walk([0], 1)

    try:
        if instance.canonical_first:
            first = forced_first_cycle()
            if first is None:
                return SearchOutcome("unsat", nodes=nodes, elapsed=time.monotonic() - start)
            factor_cycles[0].append(first)
            ok = start_cycle(0, sum(bit[u] for u in first))
        else:
            ok = start_cycle(0, 0)
    except _Timeout:
        return SearchOutcome("timeout", nodes=nodes, elapsed=time.monotonic() - start)

    elapsed = time.monotonic() - start
    if not ok:
        return SearchOutcome("unsat", nodes=nodes, elapsed=elapsed)

    matching = None
    if leftover_expected:
        # a success toggles no factor back, so ``adj`` holds the leftover edges
        matching = one_factor((u, a.bit_length() - 1) for u, a in enumerate(adj) if u < a.bit_length() - 1)
    factors = tuple(
        two_factor(cycles, n, cycle_length=slots[i]) for i, cycles in enumerate(factor_cycles)
    )
    sol = Solution(v=n, factors=factors, one_factor=matching)
    if first_proven(instance, [sol]) is None:
        raise RuntimeError(f"search produced an invalid result for {instance.name}")
    return SearchOutcome("found", sol, nodes, elapsed)


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


def equipartite_instance(a: int, b: int, length: int) -> SearchInstance:
    """K_{a:b} into C_length-factors.  canonical_first only for triangles:
    every triangle meets three distinct parts, a single automorphism orbit."""
    if a < 1 or b < 2:
        raise ValueError(f"K_{{{a}:{b}}} needs a >= 1 vertices per part and b >= 2 parts")
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


def first_proven(instance: SearchInstance, docs) -> Solution | None:
    """The first of ``docs`` that certifies as a solution of ``instance``:
    the one proof of every outer factorization (developed, found by
    ``solve``, imported or cached) and of every searched ingredient."""
    return next((sol for sol in docs if certifies(sol, instance.space, instance.slots())), None)


# ============================================================
# caching
# ============================================================

def default_cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "hwp4m")


def _cache_path(instance: SearchInstance, cache_dir: str) -> str:
    digest = hashlib.sha256(instance.key().encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"{instance.name}-{digest}.json")


def solve_cached(
    instance: SearchInstance, cache_dir: str | None = None, time_limit: float | None = None
) -> SearchOutcome:
    """solve() behind an on-disk cache of Found results.

    Every call reads the instance's cache file and proves it afresh, so a
    file another process rewrote or corrupted is caught by the next call;
    anything unreadable or invalid is ignored and recomputed.  Unsat/timeout
    outcomes are never cached (a longer time limit could change them).
    """
    cache_dir = default_cache_dir() if cache_dir is None else cache_dir
    path = _cache_path(instance, cache_dir)
    try:
        with open(path, "rb") as fh:
            sol = first_proven(instance, [decode_solution(fh.read())])
        if sol is not None:
            return SearchOutcome("found", sol)
    except (OSError, ValueError):
        pass

    outcome = solve(instance, time_limit=time_limit)
    if outcome.status == "found":
        _write_cache(path, encode_solution(outcome.solution))
    return outcome


def _write_cache(path: str, payload: bytes) -> None:
    """Best effort: publish ``payload`` at ``path`` whole, through a
    temporary file of this process's own, so concurrent writers never share
    one."""
    cache_dir = os.path.dirname(path)
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
