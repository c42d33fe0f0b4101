"""Independent checker for 2-factorizations and building blocks.

Everything is recomputed from the cycle lists: declared cycle lengths, factor
counts and edge coverage are audited, never trusted.  The only import from the
rest of the package is the data layer, so a bug in a construction cannot leak
into its own certificate.

One core, ``_certify``, makes one pass over the cycles and the matching:
spanning and 2-regularity of each factor, uniform and declared cycle lengths,
the perfect matching, and the missing, duplicated and foreign edges against
the ambient edge space.  ``verify_solution``, ``verify_block`` and
``verify_factors_cover`` are adapters that add only their document-level
rules, and ``certifies``, behind ``search.first_proven``, is the one proof
every outer factorization and every imported or cached ingredient passes.
``verify_block`` takes no ambient: the document's v and matching name it,
and ``model.EdgeSpace`` refuses to make a space that names no graph, so
every entry point sees only real graphs.

The work is bounded by the size of the document, whatever its v: for E
listed vertices and edges, O(E) against a dense ambient, apart from the
sorts behind the examples a rejection quotes, and O(E log E) against the
others.  A factor is read as two flat lists, its vertices and each one's
successor on its cycle, and the spanning check and the edges both come
from that pair.  A factor that lists exactly n vertices and misses none
of 0..n-1 lists each of them once (pigeonhole), so it spans with no repeat
and no stray vertex (the set 0..n-1 is built only once a factor lists n
vertices), and its edges are taken as they come.  Any other factor is
checked vertex by vertex, for the fault texts, and its edges, smaller end
first, and the matching's pairs, taken as given, pass one filter: a pair
(a, b) is kept only when 0 <= a <= b < n.  Every other pair is a stray
and foreign, since its code a * n + b would alias a real edge; so a
reversed matching pair is foreign by that rule, not by where its code
falls.  A loop (a, a) is kept, as a spanning factor's one-vertex cycle
is: its code is foreign, and counted once however many factors list it.

A complete or equipartite ambient is dense: its n * n membership bytes are
at most four per edge.  When they are also at most four per listed edge,
the kept edges are written by a plain loop into a bitmap of n separate
bytearray rows: edge (a, b), a < b, is byte b of row a, so no code is
computed and no code list is built.  The tiling is accepted when the
document lists exactly the edge count, with no stray, and each row equals
the ambient's row, drawn lazily: equal bytes from that many codes leave no
edge missing, foreign or duplicated.  A rejection is explained from the
same rows.  The ambient's row u is zeros up to the end of u's part and
ones after it, so its count of ones gives that end: an unset byte of row u
after it is a missing edge, a set byte before it a foreign one, and more
kept edges than set bytes means that some code repeats.  The repeats are
read in the write loop: as the edges whose byte is already set, in the
first pass, when the document lists more edges than the ambient holds;
otherwise by writing the edges once more into the same rows, clearing each
byte, so an edge whose byte is already clear repeats.  That pass only
writes: each factor's span bit, kept from the first pass, says whether its
edges pass the filter.  The repeats inside the ambient are duplicated
edges.  Every other case (a sparse block ambient, a dense document too
small for its bitmap, or one that lists a vertex equal to an int without
being one, as 2.0, which indexes no row) sorts the kept edges' codes,
accepts by one element-wise compare with the ambient's sorted code walk,
and explains a rejection by one membership test per distinct code: every
ambient is a simple graph, so a code is foreign or hits one edge.  The
ambient's edge count, bitmap rows, code walk and membership test all come
from ``model.EdgeSpace``; the verifier keeps no copy of them.  The walk
for missing-edge examples stops after ``_EXAMPLE_CAP`` misses, and so does
the scan of 0..n-1 for missing vertices, which never sorts the covered
ones.

A report carries a list of violations, each tagged with a stable code:

  NotSpanning            a factor misses vertices or repeats them
  NotTwoRegular          some vertex has degree != 2 inside a factor
  NonUniformCycleLength  mixed cycle lengths, or declared length is wrong
  EdgeMissing            ambient edge covered by no factor
  EdgeDuplicated         ambient edge covered more than once
  EdgeForeign            factor edge outside the ambient graph
  MatchingInvalid        removed 1-factor is absent, not perfect, or misplaced
  CountMismatch          factor counts disagree with v, r, s
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, filterfalse, islice, repeat
from operator import eq

from .model import (
    EdgeSpace,
    OneFactor,
    Solution,
    complete_graph,
    cycle_blowup4,
    switch_graph,
    switch_matching_edges,
)

_EXAMPLE_CAP = 6  # edges quoted per violation before truncating
_UNSET, _SET = re.compile(b"\0"), re.compile(b"\1")  # an unset and a set bitmap byte


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass
class Report:
    ok: bool
    violations: list[Violation]
    r_found: int = 0
    s_found: int = 0

    def codes(self) -> set[str]:
        return {viol.code for viol in self.violations}

    def summary(self) -> str:
        if self.ok:
            return f"ok (r={self.r_found}, s={self.s_found})"
        return "; ".join(f"{v.code}: {v.detail}" for v in self.violations)


def _report(violations: list[Violation], by_length: Counter, m: int | None) -> Report:
    """Factor counts by uniform cycle length: 4-cycles vs m-cycles."""
    if m is None:
        s_found = sum(k for length, k in by_length.items() if length != 4)
    elif m == 4:
        s_found = 0
    else:
        s_found = by_length[m]
    return Report(ok=not violations, violations=violations, r_found=by_length[4], s_found=s_found)


def _fmt_edges(examples, total: int) -> str:
    shown = ", ".join(f"{u}-{v}" for u, v in examples[:_EXAMPLE_CAP])
    if total > _EXAMPLE_CAP:
        shown += f", ... ({total} total)"
    return shown


# ============================================================
# the certification core
# ============================================================

def _vertex_faults(verts: list, n: int, code: str, repeat_code: str, repeat_text: str) -> list[Violation]:
    """Each of 0..n-1 must occur exactly once in ``verts``.  The scan for
    uncovered vertices stops at the _EXAMPLE_CAP-th: the first k absent
    vertices lie below len(seen) + k, so it is bounded by the document."""
    out: list[Violation] = []
    seen = set(verts)
    if len(seen) < len(verts):
        repeated = sorted(u for u, k in Counter(verts).items() if k > 1)
        out.append(Violation(repeat_code, f"{repeat_text}: {repeated[:_EXAMPLE_CAP]}"))
    stray = sorted(u for u in seen if not 0 <= u < n)
    if len(seen) - len(stray) < n:
        uncovered = list(islice(filterfalse(seen.__contains__, range(n)), _EXAMPLE_CAP))
        out.append(Violation(code, f"vertices uncovered: {uncovered}"))
    if stray:
        out.append(Violation(code, f"vertices out of range: {stray[:_EXAMPLE_CAP]}"))
    return out


def _matching_faults(matching: OneFactor, n: int) -> list[Violation]:
    verts = list(chain.from_iterable(matching.edges))
    return _vertex_faults(verts, n, "MatchingInvalid", "MatchingInvalid", "vertices covered twice")


def _in_range(pairs, n: int, strays: list):
    """The pairs (a, b) with 0 <= a <= b < n; every other pair joins
    ``strays``, since its code a * n + b would alias a real edge."""
    for a, b in pairs:
        if 0 <= a <= b < n:
            yield a, b
        else:
            strays.append((a, b))


def _pairs(cycles, verts: list, lengths: set, spans: bool, n: int, strays: list):
    """A factor's pairs (vertex, successor on its cycle, the cycle's first
    after its last): as they come when the factor ``spans``, else smaller
    end first through ``_in_range``.  ``verts`` is the factor's vertices in
    cycle order and ``lengths`` the set of its cycle lengths."""
    if len(lengths) == 1 and verts:
        (length,) = lengths
        succ = verts[1:] + verts[:1]
        succ[length - 1::length] = verts[::length]
    else:
        succ = list(chain.from_iterable(cyc[1:] + cyc[:1] for cyc in cycles))
    pairs = zip(verts, succ)
    return pairs if spans else _in_range(((a, b) if a < b else (b, a) for a, b in pairs), n, strays)


def _listed(
    factors, matching: OneFactor | None, n: int, out: list, by_length: Counter, strays: list, spanning: list,
):
    """The listed edges as pairs, one iterable per factor and one for the
    optional matching, whose edges join the cover.  On the way the vertex
    and cycle-length faults join ``out``, the factor counts by uniform
    cycle length join ``by_length``, the pairs ``_in_range`` rejects join
    ``strays``, and each factor's span bit joins ``spanning``.  A factor
    that lists n vertices and misses none of 0..n-1 spans, since it then
    lists each of them once, and needs no vertex check; any other factor
    runs ``_vertex_faults``.  ``_pairs`` draws each factor's pairs, and the
    matching's, taken as given, pass ``_in_range``."""
    span = None  # 0..n-1, built once a factor lists n vertices
    for idx, factor in enumerate(factors):
        cycles = factor.cycles
        verts = list(chain.from_iterable(cycles))
        if len(verts) == n and span is None:
            span = frozenset(range(n))
        spans = len(verts) == n and not span.difference(verts)
        spanning.append(spans)
        if not spans:
            for viol in _vertex_faults(verts, n, "NotSpanning", "NotTwoRegular", "vertices in several cycles"):
                out.append(Violation(viol.code, f"factor {idx}: {viol.detail}"))

        lengths = set(map(len, cycles))
        if len(lengths) > 1:
            out.append(Violation("NonUniformCycleLength", f"factor {idx}: cycle lengths {sorted(lengths)}"))
        elif lengths:
            (length,) = lengths
            by_length[length] += 1
            if factor.cycle_length is not None and length != factor.cycle_length:
                out.append(
                    Violation(
                        "NonUniformCycleLength",
                        f"factor {idx}: declared {factor.cycle_length}, actual {length}",
                    )
                )
        else:
            out.append(Violation("NotSpanning", f"factor {idx}: factor has no cycles"))
        yield _pairs(cycles, verts, lengths, spans, n, strays)

    if matching is not None:
        out.extend(_matching_faults(matching, n))
        yield _in_range(matching.edges, n, strays)


def _relisted(factors, spanning: list, matching: OneFactor | None, n: int):
    """The pairs ``_listed`` yielded, drawn again for the pass that clears
    the bitmap rows, with each factor's span bit read from ``spanning``: no
    fault is checked, and strays are dropped."""
    for factor, spans in zip(factors, spanning):
        cycles = factor.cycles
        yield _pairs(cycles, list(chain.from_iterable(cycles)), set(map(len, cycles)), spans, n, [])
    if matching is not None:
        yield _in_range(matching.edges, n, [])


def _dense_listed(factors, matching: OneFactor | None, space: EdgeSpace) -> int:
    """The number of listed edges when the bitmap applies, else 0: the space
    is complete or equipartite and has edges, and its n * n bytes are at
    most four per ambient edge and four per listed edge, so the bitmap is
    bounded by the document."""
    if space.kind not in ("complete", "equipartite"):
        return 0
    n, total = space.vertex_count, space.edge_count()
    listed = sum(map(len, chain.from_iterable(f.cycles for f in factors)))
    if matching is not None:
        listed += len(matching.edges)
    return listed if total > 0 and n * n <= 4 * min(total, listed) else 0


def _write(rows: list, parts, n: int, value: int, repeats: set | None) -> None:
    """Write ``value`` to the byte of every pair (a, b) in ``parts``, the
    in-range pairs ``_listed`` yields, in the n bytearray ``rows``: edge
    (a, b), a < b, is byte b of row a, so no code is computed.  Given a
    set, ``repeats`` gains the code a * n + b of each edge whose byte
    already holds ``value`` instead."""
    for pairs in parts:
        if repeats is None:
            for a, b in pairs:
                if a < b:
                    rows[a][b] = value
                else:
                    rows[b][a] = value
        else:
            for a, b in pairs:
                if a > b:
                    a, b = b, a
                row = rows[a]
                if row[b] == value:
                    repeats.add(a * n + b)
                else:
                    row[b] = value


def _quoted(rows: list, pattern: re.Pattern, bounds) -> list:
    """The first _EXAMPLE_CAP edges (u, w), in row order, whose byte w of
    row u matches ``pattern``, with lo <= w < hi for the pair (lo, hi) that
    ``bounds`` gives for row u."""
    hits = (pattern.finditer(row, lo, hi) for row, (lo, hi) in zip(rows, bounds))
    found = ((u, hit.start()) for u, row_hits in enumerate(hits) for hit in row_hits)
    return list(islice(found, _EXAMPLE_CAP))


def _bitmap_faults(
    rows: list, repeats: set | None, listed: int, strays: list, factors, spanning: list, matching,
    space: EdgeSpace,
):
    """The ``listed`` edges must tile the complete or equipartite ``space``:
    the kept ones are written into the n bitmap ``rows``, and the others are
    the ``strays``.  Rows equal to the space's rows, from exactly
    edge_count() kept edges, accept them.  A rejection is explained from
    the same rows and ``ends``: the space's row u is ones from ends[u] on.
    ``repeats`` holds the repeated codes when they were collected as the
    rows were written (more edges listed than the space holds); else it is
    None, and only when there are more kept edges than set bytes are the
    edges of ``factors`` and ``matching`` written again, clearing the rows,
    to find them.  That second pass only writes: each factor's span bit
    from the first pass, in ``spanning``, says whether its pairs pass
    ``_in_range``, and no fault is checked again."""
    n, total = space.vertex_count, space.edge_count()
    filled = listed - len(strays)  # each listed edge is kept or a stray
    if not strays and filled == total and all(map(eq, rows, space.rows())):
        return []
    ends = [n - want.count(1) for want in space.rows()]
    outside = sum(map(bytearray.count, rows, repeat(1), repeat(0), ends))
    hit = sum(map(bytearray.count, rows, repeat(1), ends))

    out: list[Violation] = []
    if hit < total:
        missing = _quoted(rows, _UNSET, zip(ends, repeat(n)))
        out.append(Violation("EdgeMissing", _fmt_edges(missing, total - hit)))
    foreign = _quoted(rows, _SET, zip(repeat(0), ends)) if outside else []  # before the rows are cleared
    if filled > hit + outside:
        if repeats is None:
            repeats = set()
            _write(rows, _relisted(factors, spanning, matching, n), n, 0, repeats)
        duplicated = sorted(code for code in repeats if code % n >= ends[code // n])
        if duplicated:
            quoted = [divmod(code, n) for code in duplicated[:_EXAMPLE_CAP]]
            out.append(Violation("EdgeDuplicated", _fmt_edges(quoted, len(duplicated))))
    strays = sorted(set(strays))
    if outside or strays:
        quoted = sorted(strays[:_EXAMPLE_CAP] + foreign)
        out.append(Violation("EdgeForeign", _fmt_edges(quoted, outside + len(strays))))
    return out


def _edge_faults(codes: list[int], strays: list, space: EdgeSpace) -> list[Violation]:
    """The listed edges, ``codes`` plus the foreign ``strays``, must equal
    the ambient edge set.  One sorted compare accepts them; one
    membership test per distinct code explains a rejection."""
    codes.sort()
    total = space.edge_count()
    if not strays and len(codes) == total and all(map(eq, codes, space.edge_codes())):
        return []

    n = space.vertex_count
    listed = Counter(codes)
    multiplicity = space.multiplicity()
    duplicated, foreign_codes = [], []
    for code, k in listed.items():
        if not multiplicity(divmod(code, n)):
            foreign_codes.append(code)
        elif k > 1:
            duplicated.append(code)

    out: list[Violation] = []
    if missed := total - len(listed) + len(foreign_codes):  # each non-foreign code hits one edge
        missing = filterfalse(listed.__contains__, space.edge_codes())
        quoted = [divmod(code, n) for code in islice(missing, _EXAMPLE_CAP)]
        out.append(Violation("EdgeMissing", _fmt_edges(quoted, missed)))
    if duplicated:
        quoted = [divmod(code, n) for code in duplicated[:_EXAMPLE_CAP]]
        out.append(Violation("EdgeDuplicated", _fmt_edges(quoted, len(duplicated))))
    foreign = sorted(set(strays).union(divmod(code, n) for code in foreign_codes))
    if foreign:
        out.append(Violation("EdgeForeign", _fmt_edges(foreign, len(foreign))))
    return out


def _certify(factors, matching: OneFactor | None, space: EdgeSpace, dense: bool = True):
    """One pass over the factors and the optional matching, whose edges join
    the cover.  Returns the violations and the factor counts by uniform
    cycle length.  A vertex that equals an int without being one, as 2.0
    for 2, indexes no bitmap row: when the bitmap write raises TypeError,
    the whole pass runs again, afresh, on the sorted codes (``dense`` false)."""
    n = space.vertex_count
    out: list[Violation] = []
    by_length: Counter[int] = Counter()
    strays: list = []
    spanning: list[bool] = []
    parts = _listed(factors, matching, n, out, by_length, strays, spanning)
    listed = _dense_listed(factors, matching, space) if dense else 0
    if listed:
        rows = [bytearray(n) for _ in range(n)]
        # with more edges listed than the space holds, repeats are likely, so
        # they are collected as the edges are written; otherwise they are
        # derived again only when a rejection shows that some code repeats
        repeats = set() if listed > space.edge_count() else None
        try:
            _write(rows, parts, n, 1, repeats)
        except TypeError:
            return _certify(factors, matching, space, dense=False)
        faults = _bitmap_faults(rows, repeats, listed, strays, factors, spanning, matching, space)
    else:
        codes = [a * n + b if a < b else b * n + a for pairs in parts for a, b in pairs]
        faults = _edge_faults(codes, strays, space)
    out.extend(faults)  # after the vertex faults, added as the pairs were drawn
    return out, by_length


def certifies(sol: Solution, space: EdgeSpace, lengths) -> bool:
    """True when ``sol``'s factors, plus its removed matching if it has one,
    tile ``space`` exactly and their cycle lengths are the multiset
    ``lengths``, one entry per factor."""
    if sol.v != space.vertex_count or len(sol.factors) != len(lengths):
        return False
    violations, by_length = _certify(sol.factors, sol.one_factor, space)
    return not violations and by_length == Counter(lengths)


# ============================================================
# entry points
# ============================================================

def verify_solution(sol: Solution) -> Report:
    """Check a claimed uniform-cycle-length 2-factorization of K_v (minus a
    1-factor when v is even), including each declared count on its own: r
    C4-factors, and s Cm-factors or, when m is not declared, s factors of
    any other uniform length.  With r, s and m all declared, every factor
    must be a C4- or a Cm-factor."""
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

    found, by_length = _certify(sol.factors, sol.one_factor, complete_graph(v))
    out.extend(found)

    if sol.r is not None or sol.s is not None:
        want = Counter({4: sol.r or 0})
        want[sol.m] += sol.s or 0
        counted = by_length
        if sol.m is None:  # every factor of another uniform length counts toward s
            counted = Counter({4: by_length[4], None: by_length.total() - by_length[4]})
        if sol.r is None or sol.s is None:  # audit the one declared count
            key = 4 if sol.s is None else sol.m
            counted, want = counted[key], want[key]
        if counted != want:
            declared = " ".join(f"{k}={val}" for k in "rsm" if (val := getattr(sol, k)) is not None)
            out.append(
                Violation(
                    "CountMismatch",
                    f"declared {declared}, found lengths {dict(sorted(by_length.items()))}",
                )
            )
    return _report(out, by_length, sol.m)


def verify_block(sol: Solution) -> Report:
    """Check a block factorization against the ambient graph its document
    names: a removed 1-factor means the switch graph on v/4 parts,
    otherwise the 4-fold blow-up C_{v/4}[4].  A v that is not a multiple of
    4, or below 12, names no ambient graph.  The removed 1-factor of a
    switch block must be the standard one, a perfect matching inside the
    blow-up (that is what the factorization earns the right to delete).
    """
    v = sol.v
    if v % 4 or v < 12:
        shapes = ({len(c) for c in f.cycles} for f in sol.factors)
        by_length = Counter(lengths.pop() for lengths in shapes if len(lengths) == 1)
        return _report([Violation("CountMismatch", f"no ambient graph for v={v}")], by_length, None)
    m = v // 4
    space = switch_graph(m) if sol.one_factor is not None else cycle_blowup4(m)

    out: list[Violation] = []
    expected = space.edge_count() // v
    if len(sol.factors) != expected:
        out.append(
            Violation(
                "CountMismatch",
                f"ambient {space.kind} needs {expected} two-factors, got {len(sol.factors)}",
            )
        )

    found, by_length = _certify(sol.factors, None, space)
    out.extend(found)

    # the removed 1-factor lies outside the ambient, so it joins no cover
    if sol.one_factor is not None:
        out.extend(_matching_faults(sol.one_factor, v))
        declared = sol.one_factor.edges
        if len(declared) != 2 * m or sorted(declared) != switch_matching_edges(m):
            out.append(Violation("MatchingInvalid", "removed 1-factor is not the declared one"))
    return _report(out, by_length, m)


def verify_factors_cover(factors, space: EdgeSpace, matching: OneFactor | None = None) -> Report:
    """Loose helper, kept for the tests and the benchmark's trace (no package
    code calls it): factors (plus optional matching) tile the ambient graph."""
    return _report(*_certify(factors, matching, space), None)
