"""Reference oracle for the verifier: the Counter-based implementation that
materializes every ambient edge, kept verbatim for differential tests.

It lists each ambient kind's edges itself (``listed_edges``, the per-kind
listing the package used before ``EdgeSpace`` answered from closed forms),
so it shares no membership formula or edge walk with the verifier.  It is
O(v^2) on complete graphs and must only be fed small documents.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from hwp4m.model import (
    Edge,
    EdgeSpace,
    OneFactor,
    Solution,
    TwoFactor,
    complete_graph,
    cycle_blowup4,
    normalize_edge,
    switch_graph,
    switch_matching_edges,
)
from hwp4m.verifier import Report, Violation

_EXAMPLE_CAP = 6  # edges quoted per violation before truncating


def _report(violations: list[Violation], factors=(), m: int | None = None) -> Report:
    r_found, s_found = _rs_counts(factors, m)
    return Report(ok=not violations, violations=violations, r_found=r_found, s_found=s_found)


def _rs_counts(factors, m: int | None) -> tuple[int, int]:
    """Recomputed factor counts by uniform cycle length: 4-cycles vs m-cycles."""
    counts: Counter[int] = Counter()
    for factor in factors:
        lengths = {len(c) for c in factor.cycles}
        if len(lengths) == 1:
            counts[lengths.pop()] += 1
    r_found = counts[4]
    if m is None:
        s_found = sum(k for length, k in counts.items() if length != 4)
    elif m == 4:
        s_found = 0
    else:
        s_found = counts[m]
    return r_found, s_found


def factor_edges(cycles) -> list[Edge]:
    """The edges of ``cycles``: each cycle's consecutive pairs, its closing
    pair last, each normalized."""
    return [normalize_edge(u, w) for c in cycles for u, w in zip(c, (*c[1:], *c[:1]))]


def _fmt_edges(edges) -> str:
    shown = ", ".join(f"{u}-{v}" for u, v in edges[:_EXAMPLE_CAP])
    if len(edges) > _EXAMPLE_CAP:
        shown += f", ... ({len(edges)} total)"
    return shown


# ============================================================
# ambient edges, listed
# ============================================================

def listed_edges(space: EdgeSpace) -> list[Edge]:
    if space.kind == "complete":
        return [tuple(e) for e in combinations(range(space.params[0]), 2)]
    if space.kind == "blowup4":
        return _blowup_edges(space.params[0])
    if space.kind == "switch":
        m = space.params[0]
        removed = set(switch_matching_edges(m))
        out = [e for e in _blowup_edges(m) if e not in removed]
        for p in range(m):
            out.extend(
                normalize_edge(4 * p + a, 4 * p + b)
                for a, b in combinations(range(4), 2)
            )
        return out
    if space.kind == "equipartite":
        a, b = space.params
        return [
            (u, v)
            for u, v in combinations(range(a * b), 2)
            if u // a != v // a
        ]
    raise ValueError(f"unknown edge space kind {space.kind!r}")


def _blowup_edges(m: int) -> list[Edge]:
    # Parts around a cycle; for m = 3 the three part pairs are still distinct.
    if m < 3:
        raise ValueError("blow-up needs at least 3 parts")
    out = []
    for i in range(m):
        j = (i + 1) % m
        for a in range(4):
            for b in range(4):
                out.append(normalize_edge(4 * i + a, 4 * j + b))
    return out


# ============================================================
# single-factor structure
# ============================================================

def check_factor(factor: TwoFactor, n: int) -> list[Violation]:
    """Spanning, disjoint, uniform; declared length must match reality."""
    out: list[Violation] = []
    seen: Counter[int] = Counter()
    for cyc in factor.cycles:
        seen.update(cyc)
    repeated = sorted(v for v, k in seen.items() if k > 1)
    missing = sorted(set(range(n)) - set(seen))
    stray = sorted(v for v in seen if not 0 <= v < n)
    if repeated:
        out.append(Violation("NotTwoRegular", f"vertices in several cycles: {repeated[:_EXAMPLE_CAP]}"))
    if missing:
        out.append(Violation("NotSpanning", f"vertices uncovered: {missing[:_EXAMPLE_CAP]}"))
    if stray:
        out.append(Violation("NotSpanning", f"vertices out of range: {stray[:_EXAMPLE_CAP]}"))

    lengths = sorted({len(c) for c in factor.cycles})
    if len(lengths) > 1:
        out.append(Violation("NonUniformCycleLength", f"cycle lengths {lengths}"))
    elif factor.cycle_length is not None and lengths and lengths[0] != factor.cycle_length:
        out.append(
            Violation(
                "NonUniformCycleLength",
                f"declared {factor.cycle_length}, actual {lengths[0]}",
            )
        )
    if not factor.cycles:
        out.append(Violation("NotSpanning", "factor has no cycles"))
    return out


def check_matching(matching: OneFactor, n: int, allowed: set[Edge] | None = None) -> list[Violation]:
    out: list[Violation] = []
    seen: Counter[int] = Counter()
    for u, v in matching.edges:
        seen.update((u, v))
    repeated = sorted(v for v, k in seen.items() if k > 1)
    missing = sorted(set(range(n)) - set(seen))
    stray = sorted(v for v in seen if not 0 <= v < n)
    if repeated:
        out.append(Violation("MatchingInvalid", f"vertices covered twice: {repeated[:_EXAMPLE_CAP]}"))
    if missing:
        out.append(Violation("MatchingInvalid", f"vertices uncovered: {missing[:_EXAMPLE_CAP]}"))
    if stray:
        out.append(Violation("MatchingInvalid", f"vertices out of range: {stray[:_EXAMPLE_CAP]}"))
    if allowed is not None:
        outside = sorted(set(matching.edges) - allowed)
        if outside:
            out.append(Violation("MatchingInvalid", f"edges outside allowed set: {_fmt_edges(outside)}"))
    return out


# ============================================================
# edge accounting
# ============================================================

def check_edge_cover(edge_lists, space: EdgeSpace) -> list[Violation]:
    """The concatenation of ``edge_lists`` must equal the ambient edge multiset."""
    actual: Counter[Edge] = Counter()
    for edges in edge_lists:
        actual.update(edges)
    expected: Counter[Edge] = Counter(listed_edges(space))

    missing = sorted(e for e, k in expected.items() if actual.get(e, 0) < k)
    duplicated = sorted(e for e, k in actual.items() if e in expected and k > expected[e])
    foreign = sorted(e for e in actual if e not in expected)

    out: list[Violation] = []
    if missing:
        out.append(Violation("EdgeMissing", _fmt_edges(missing)))
    if duplicated:
        out.append(Violation("EdgeDuplicated", _fmt_edges(duplicated)))
    if foreign:
        out.append(Violation("EdgeForeign", _fmt_edges(foreign)))
    return out


# ============================================================
# whole solutions
# ============================================================

def verify_solution(sol: Solution) -> Report:
    """Check a claimed uniform-cycle-length 2-factorization of K_v (minus a
    1-factor when v is even), including each declared count of r and s."""
    v = sol.v
    out: list[Violation] = []

    expected_factors = (v - 1) // 2
    if len(sol.factors) != expected_factors:
        out.append(
            Violation(
                "CountMismatch",
                f"v={v} needs {expected_factors} two-factors, got {len(sol.factors)}",
            )
        )

    if v % 2 == 0 and sol.one_factor is None:
        out.append(Violation("MatchingInvalid", "even order but no removed 1-factor"))
    if v % 2 == 1 and sol.one_factor is not None:
        out.append(Violation("MatchingInvalid", "odd order cannot remove a 1-factor"))

    for idx, factor in enumerate(sol.factors):
        for viol in check_factor(factor, v):
            out.append(Violation(viol.code, f"factor {idx}: {viol.detail}"))

    if sol.one_factor is not None:
        out.extend(check_matching(sol.one_factor, v))

    if sol.r is not None or sol.s is not None:
        by_length: Counter[int] = Counter()
        for factor in sol.factors:
            lengths = {len(c) for c in factor.cycles}
            if len(lengths) == 1:
                by_length[lengths.pop()] += 1
        declared = "declared " + " ".join(
            f"{name}={val}" for name, val in (("r", sol.r), ("s", sol.s), ("m", sol.m)) if val is not None
        )
        if sol.m is None:
            # without m, every uniform factor of another length counts toward s
            others = sum(k for length, k in by_length.items() if length != 4)
            fits = sol.r in (None, by_length[4]) and sol.s in (None, others)
        elif sol.r is None or sol.s is None:
            # each declared count is audited on its own
            fits = sol.r in (None, by_length[4]) and sol.s in (None, by_length[sol.m])
        else:
            want: Counter[int] = Counter()
            want[4] += sol.r
            want[sol.m] += sol.s
            fits = by_length == want
        if not fits:
            out.append(
                Violation(
                    "CountMismatch",
                    f"{declared}, found lengths {dict(sorted(by_length.items()))}",
                )
            )

    edge_lists = [factor_edges(f.cycles) for f in sol.factors]
    if sol.one_factor is not None:
        edge_lists.append(list(sol.one_factor.edges))
    out.extend(check_edge_cover(edge_lists, complete_graph(v)))
    return _report(out, sol.factors, sol.m)


# ============================================================
# building blocks over named ambient graphs
# ============================================================

def verify_block(sol: Solution, space: EdgeSpace | None = None) -> Report:
    """Check a factor list against its ambient graph.

    Without an explicit ``space`` the ambient is inferred from the document:
    a removed 1-factor means the switch graph on v/4 parts, otherwise the
    4-fold blow-up C_{v/4}[4].  The removed 1-factor of a switch block must be
    a perfect matching inside the blow-up (that is what the factorization
    earns the right to delete).
    """
    v = sol.v
    out: list[Violation] = []
    if space is None:
        if v % 4 != 0 or v < 12:
            return _report(
                [Violation("CountMismatch", f"no ambient graph for v={v}")], sol.factors
            )
        m = v // 4
        space = switch_graph(m) if sol.one_factor is not None else cycle_blowup4(m)
    block_m = space.params[0] if space.kind in ("blowup4", "switch") else None

    n = space.vertex_count
    if n != v:
        out.append(Violation("CountMismatch", f"document v={v}, ambient has {n} vertices"))

    factor_edge_total = space.edge_count()
    if space.kind == "switch" and sol.one_factor is None:
        out.append(Violation("MatchingInvalid", "switch block without removed 1-factor"))
    expected = factor_edge_total // n if n else 0
    if n and factor_edge_total % n == 0 and len(sol.factors) != expected:
        out.append(
            Violation(
                "CountMismatch",
                f"ambient {space.kind} needs {expected} two-factors, got {len(sol.factors)}",
            )
        )

    for idx, factor in enumerate(sol.factors):
        for viol in check_factor(factor, n):
            out.append(Violation(viol.code, f"factor {idx}: {viol.detail}"))

    if sol.one_factor is not None:
        if space.kind == "switch":
            blowup = set(listed_edges(cycle_blowup4(space.params[0])))
            out.extend(check_matching(sol.one_factor, n, allowed=blowup))
            standard = set(switch_matching_edges(space.params[0]))
            if set(sol.one_factor.edges) != standard:
                out.append(
                    Violation("MatchingInvalid", "removed 1-factor is not the declared one")
                )
        else:
            out.extend(check_matching(sol.one_factor, n))

    edge_lists = [factor_edges(f.cycles) for f in sol.factors]
    out.extend(check_edge_cover(edge_lists, space))
    return _report(out, sol.factors, block_m)


def verify_factors_cover(factors, space: EdgeSpace, matching: OneFactor | None = None) -> Report:
    """Loose helper: factors (plus optional matching) tile the ambient graph."""
    n = space.vertex_count
    out: list[Violation] = []
    for idx, factor in enumerate(factors):
        for viol in check_factor(factor, n):
            out.append(Violation(viol.code, f"factor {idx}: {viol.detail}"))
    edge_lists = [factor_edges(f.cycles) for f in factors]
    if matching is not None:
        out.extend(check_matching(matching, n))
        edge_lists.append(list(matching.edges))
    out.extend(check_edge_cover(edge_lists, space))
    return _report(out, factors)
