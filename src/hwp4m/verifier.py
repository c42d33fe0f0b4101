"""Independent checker for 2-factorizations and building blocks.

Everything is recomputed from the cycle lists: declared cycle lengths, factor
counts and edge coverage are audited, never trusted.  The only import from the
rest of the package is the data layer, so a bug in a construction cannot leak
into its own certificate.

One core, ``_certify``, checks the cycles and the matching: spanning and
2-regularity of each factor, uniform and declared cycle lengths, the
perfect matching, and the missing, duplicated and foreign edges against the
ambient edge space.  ``verify_solution``, ``verify_block`` and
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
from that pair.  A factor that lists exactly n vertices whose set equals
0..n-1 spans with no repeat and no stray vertex, and its edges are taken
as they come.  The set 0..n-1 is built at most once, and only once a
factor lists n vertices.  The first factor that spans lends its own set,
0..n-1 by value, to the later ones: n vertices that miss none of it list
each of them once (pigeonhole), and since a built or decoded solution
holds one int object per vertex, they find its members by identity.  Any
other factor is checked vertex by vertex, for the fault texts, and its
edges, smaller end first, and the matching's pairs, taken as given, pass
one filter: a pair (a, b) is kept only when a and b are integral and
0 <= a <= b < n.  Every other pair is a stray and foreign: written into
the bitmap below, or turned smaller end first, it could pass for another
edge (a negative end indexes a row from the end, and a reversed matching
pair is the edge it reverses).  So a reversed matching pair, or
(0, 6.5), is foreign by that rule, not by the ambient's membership test;
an integral float such as 2.0 passes it as the int it equals.  A loop
(a, a) is kept, as a spanning factor's one-vertex cycle is: it is
foreign, and counted once however many factors list it.  A vertex such
as 6.5 in range covers none of 0..n-1, so every factor that does not
span scans for the vertices it misses.

The core is a chain of three passes with one contract: each returns the
violations and the factor counts by uniform cycle length, or None to
decline, and the first that does not decline decides.

The byte tables only accept.  A dense document of order n <= 255 whose
counts fit (2 per factor, 1 for a matching and the part size a sum to n)
is read into ``bytes.maketrans`` tables: per factor, one of successors
and one of predecessors, one of matching partners, and a naming u's
part.  Byte u of these n tables must cover 0..n-1, each value once, which
rules out a missed vertex (it maps to itself twice), a 1- or 2-cycle, a
repeated edge, an edge in a part and an imperfect matching.  Each covered
byte is marked 0xFF, which is no vertex only below 256.  A vertex is read
when it equals its byte, so True, False and an int subclass are read.
``verify_solution`` hands the tables the factors' bytes from the
Solution's ``model.vertex_view``, which the encoder then reuses; other
callers, and a Solution with no view, have them read from the factors.
The tables read the matching's ends themselves.

The bitmap rows take a dense ambient, K_{a:b} (K_v is K_{1:v}), whose
n * n bytes are at most four per edge and four per listed edge.  The kept
edges are written by a plain loop into n separate bytearray rows: edge
(a, b), a < b, is byte b of row a, so no code is computed and no code
list is built.  The ambient's row u holds the edges (u, w) for w from
u's row end, the first vertex above u's part.  The tiling is accepted
when the document lists exactly the edge count, with no stray, and one
count per row, from its end, finds every ambient byte set: that many
bytes from that many edges leave no edge missing, foreign or duplicated.
A rejection is explained from the same rows and ends: an unset byte of
row u after its end is a missing edge, a set byte before it a foreign
one, and more kept edges than set bytes means that some code repeats.
The repeats are read in the write loop: as the edges whose byte is
already set, in the first write, when the document lists more edges than
the ambient holds; otherwise by writing the edges once more into the
same rows, clearing each byte, so an edge whose byte is already clear
repeats.  That write only writes: each factor's span bit, kept from the
first, says whether its edges pass the filter.  The repeats inside the
ambient are duplicated edges.  The rows quote an edge by its ints, so the
pass declines a vertex equal to an int without being one, as 2.0, which
indexes no row, and a rejection that would quote an edge at 0 or 1 from
a document that lists False or True.

The sorted pairs decide the rest: a ring, a space with no edges, a dense
document too small for its bitmap, and one the rows decline.  The kept
pairs, smaller end first, are sorted once, accepted by one element-wise
compare with the ambient's sorted edge walk, and a rejection is
explained by one membership test per distinct pair: every ambient is a
simple graph, so a pair is foreign or hits one edge.  Each pair is quoted
as it was first listed, 0-2.0 for a listed (0, 2.0), as the reference
oracle quotes it; the code a * n + b is made only for the bitmap's set
of repeats.  The ambient's edge count, row ends, edge walk and membership
test all come from ``model.EdgeSpace``; the verifier keeps no copy of
them.  The walk for missing-edge examples stops after ``_EXAMPLE_CAP``
misses, and so does the scan of 0..n-1 for missing vertices, which never
sorts the covered ones.

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
from functools import cache, partial
from itertools import chain, filterfalse, groupby, islice, repeat
from operator import eq, lt

from .model import (
    EdgeSpace,
    OneFactor,
    Solution,
    complete_graph,
    cycle_blowup4,
    switch_graph,
    switch_matching_edges,
    vertex_view,
)

_EXAMPLE_CAP = 6  # edges quoted per violation before truncating
_UNSET, _SET = re.compile(b"\0"), re.compile(b"\1")  # an unset and a set bitmap byte
_IDENT = bytes(range(256))  # the identity byte table


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
    uncovered vertices runs every time, since a vertex such as 6.5 in range
    covers none of them, and stops at the _EXAMPLE_CAP-th: the first k
    absent vertices lie below len(seen) + k, so it is bounded by the
    document."""
    out: list[Violation] = []
    seen = set(verts)
    if len(seen) < len(verts):
        repeated = sorted(u for u, k in Counter(verts).items() if k > 1)
        out.append(Violation(repeat_code, f"{repeat_text}: {repeated[:_EXAMPLE_CAP]}"))
    if uncovered := list(islice(filterfalse(seen.__contains__, range(n)), _EXAMPLE_CAP)):
        out.append(Violation(code, f"vertices uncovered: {uncovered}"))
    if stray := sorted(u for u in seen if not 0 <= u < n):
        out.append(Violation(code, f"vertices out of range: {stray[:_EXAMPLE_CAP]}"))
    return out


def _matching_faults(matching: OneFactor, n: int) -> list[Violation]:
    verts = list(chain.from_iterable(matching.edges))
    return _vertex_faults(verts, n, "MatchingInvalid", "MatchingInvalid", "vertices covered twice")


def _in_range(pairs, n: int, strays: list):
    """The pairs (a, b) of integral a and b with 0 <= a <= b < n; every
    other pair joins ``strays``, since it is no edge and could pass for
    another one, in the bitmap or turned smaller end first."""
    for a, b in pairs:
        if 0 <= a <= b < n and a % 1 == b % 1 == 0:
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
    of n vertices spans when its set equals 0..n-1, or, once a factor has
    spanned, when it misses none of that factor's set; it then lists each
    of 0..n-1 once and needs no vertex check.  Any other factor runs
    ``_vertex_faults``.  ``_pairs`` draws each factor's pairs, and the
    matching's, taken as given, pass ``_in_range``."""
    full = cache(partial(frozenset, range(n)))  # made once a factor lists n vertices
    span = None  # the vertex set of the first factor that spans, lent to the later ones
    for idx, factor in enumerate(factors):
        cycles = factor.cycles
        verts = list(chain.from_iterable(cycles))
        if len(verts) != n:
            spans = False
        elif span is not None:
            spans = not span.difference(verts)
        else:
            seen = frozenset(verts)
            if spans := seen == full():  # equal by value, and as long: no repeat
                span = seen
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


def _lists_a_bool(factors, matching: OneFactor | None) -> bool:
    """Whether some listed vertex is False or True, which the bitmap rows
    quote as 0 or 1."""
    verts = chain.from_iterable(chain.from_iterable(f.cycles for f in factors))
    if matching is not None:
        verts = chain(verts, chain.from_iterable(matching.edges))
    return bool in set(map(type, verts))


def _bytes_of(values) -> bytes | None:
    """``values`` as one byte each, when each equals its byte, else None."""
    try:
        listed = list(values)
        data = bytes(listed)
    except (TypeError, ValueError):  # a vertex that is no byte, as 2.0, -1 or 256
        return None
    return data if list(data) == listed else None


def _tables_tile(
    factors, matching: OneFactor | None, space: EdgeSpace, verts: bytes | None = None,
) -> Counter | None:
    """The factor counts by cycle length when the byte tables prove that
    the factors and the matching tile ``space``, else None.  ``verts``, the
    bytes of a Solution's ``model.vertex_view``, are the factors' vertices
    in order; without them they are read from ``factors``."""
    n, a = space.vertex_count, space.part
    if a is None or not 0 < n <= 255 or 2 * len(factors) + (matching is not None) + a != n:
        return None
    pairs, lengths = () if matching is None else matching.edges, []
    try:
        for factor in factors:
            found = set(map(len, factor.cycles))
            k = found.pop() if len(found) == 1 else 0
            if not k or factor.cycle_length not in (None, k) or len(factor.cycles) * k != n:
                return None
            lengths.append(k)
        if matching is not None and (2 * len(pairs) != n or set(map(len, pairs)) != {2}):
            return None
    except (TypeError, ValueError):
        return None
    if verts is None:
        verts = _bytes_of(chain.from_iterable(chain.from_iterable(f.cycles for f in factors)))
    ends = _bytes_of(chain.from_iterable(pairs))
    # a vertex must equal its byte, and a matching pair come smaller end first
    if verts is None or ends is None or not all(map(lt, ends[::2], ends[1::2])):
        return None
    succ, pred = bytearray(verts[1:] + verts[:1]), bytearray(verts[-1:] + verts[:-1])
    start = 0
    for k, run in groupby(lengths):  # close the cycles of a run of factors at once
        stop = start + n * len(list(run))
        succ[start + k - 1:stop:k], pred[start:stop:k] = verts[start:stop:k], verts[start + k - 1:stop:k]
        start = stop
    swapped = bytes(chain.from_iterable(zip(ends[1::2], ends[::2])))
    # one table per factor's successors, one per its predecessors, and the matching's
    froms, tos = verts * 2 + ends, succ + pred + swapped
    cuts = list(map(slice, range(0, len(froms), n), range(n, len(froms) + 1, n)))
    tables = map(bytes.maketrans, map(froms.__getitem__, cuts), map(tos.__getitem__, cuts))
    own = (bytes(u // a * a + j for u in range(n)) + _IDENT[n:] for j in range(a)) if a > 1 else [_IDENT]
    tables = b"".join(chain(tables, own))
    columns = map(tables.__getitem__, map(slice, range(n), repeat(None), repeat(256)))
    marked = map(bytes.maketrans, columns, repeat(b"\xff" * n))  # 0xFF at each byte a column holds
    return Counter(lengths) if all(map(eq, marked, repeat(b"\xff" * n + _IDENT[n:]))) else None


def _bitmap_pass(factors, matching: OneFactor | None, space: EdgeSpace):
    """The violations and factor counts when n bytearray rows decide whether
    the listed edges tile the dense ``space``, a K_{a:b}, else None.  It
    declines a ring, a space with no edges, and n * n bytes that are more
    than four per ambient edge or per listed edge.  The tiling is accepted
    when there is no stray, exactly edge_count() edges are kept, and each
    row is set from its end in ``space.row_ends()`` on.  A rejection is
    explained from the same rows and ends, with the repeats collected in
    the first write when more edges are listed than the space holds, else
    by a second write that clears the rows.  It also declines a vertex that
    indexes no row, as 2.0, and a rejection that would quote an edge at 0
    or 1 from a document that lists a bool."""
    if space.part is None:
        return None
    n, total = space.vertex_count, space.edge_count()
    listed = sum(map(len, chain.from_iterable(f.cycles for f in factors)))
    if matching is not None:
        listed += len(matching.edges)
    if not total or n * n > 4 * min(total, listed):
        return None
    out: list[Violation] = []
    by_length: Counter[int] = Counter()
    strays: list = []
    spanning: list[bool] = []
    rows = [bytearray(n) for _ in range(n)]
    repeats = set() if listed > total else None  # repeats are likely when more are listed
    try:
        _write(rows, _listed(factors, matching, n, out, by_length, strays, spanning), n, 1, repeats)
    except TypeError:
        return None
    ends = space.row_ends()
    hit = sum(map(bytearray.count, rows, repeat(1), ends))
    filled = listed - len(strays)  # each listed edge is kept or a stray
    if not strays and filled == total == hit:
        return out, by_length
    outside = sum(map(bytearray.count, rows, repeat(1), repeat(0), ends))
    if hit < total:
        missing = _quoted(rows, _UNSET, zip(ends, repeat(n)))
        out.append(Violation("EdgeMissing", _fmt_edges(missing, total - hit)))
    foreign = _quoted(rows, _SET, zip(repeat(0), ends)) if outside else []  # before the rows are cleared
    duplicated = []
    if filled > hit + outside:
        if repeats is None:
            repeats = set()
            _write(rows, _relisted(factors, spanning, matching, n), n, 0, repeats)
        duplicated = sorted(code for code in repeats if code % n >= ends[code // n])
    quoted = [divmod(code, n) for code in duplicated[:_EXAMPLE_CAP]]
    if any(u < 2 for u, _ in foreign + quoted) and _lists_a_bool(factors, matching):
        return None
    if duplicated:
        out.append(Violation("EdgeDuplicated", _fmt_edges(quoted, len(duplicated))))
    if outside or strays:
        strays = sorted(set(strays))
        quoted = sorted(strays[:_EXAMPLE_CAP] + foreign)
        out.append(Violation("EdgeForeign", _fmt_edges(quoted, outside + len(strays))))
    return out, by_length


def _sorted_pass(factors, matching: OneFactor | None, space: EdgeSpace):
    """The violations and factor counts from the listed pairs, smaller end
    first, plus the foreign strays, against the ambient edge set; decides
    every document.  One sorted compare accepts them; one membership test
    per distinct pair explains a rejection, which quotes each pair as it
    was first listed."""
    out: list[Violation] = []
    by_length: Counter[int] = Counter()
    strays: list = []
    parts = _listed(factors, matching, space.vertex_count, out, by_length, strays, [])
    pairs = [(a, b) if a < b else (b, a) for part in parts for a, b in part]
    pairs.sort()  # stable: equal pairs, as (0, 2) and (0, 2.0), keep their listed order
    total = space.edge_count()
    if not strays and len(pairs) == total and all(map(eq, pairs, space.edges())):
        return out, by_length
    listed = Counter(pairs)
    multiplicity = space.multiplicity()
    duplicated, foreign = [], []
    for edge, k in listed.items():
        if not multiplicity(edge):
            foreign.append(edge)
        elif k > 1:
            duplicated.append(edge)
    if missed := total - len(listed) + len(foreign):  # each non-foreign pair hits one edge
        missing = list(islice(filterfalse(listed.__contains__, space.edges()), _EXAMPLE_CAP))
        out.append(Violation("EdgeMissing", _fmt_edges(missing, missed)))
    if duplicated:
        out.append(Violation("EdgeDuplicated", _fmt_edges(duplicated, len(duplicated))))
    if foreign := sorted(set(strays).union(foreign)):
        out.append(Violation("EdgeForeign", _fmt_edges(foreign, len(foreign))))
    return out, by_length


def _certify(factors, matching: OneFactor | None, space: EdgeSpace, verts: bytes | None = None):
    """The violations and the factor counts by uniform cycle length of the
    factors and the optional matching, whose edges join the cover: from the
    first of the byte tables, the bitmap rows and the sorted pairs that
    does not decline.  ``verts`` goes to the byte tables."""
    if (counts := _tables_tile(factors, matching, space, verts)) is not None:
        return [], counts
    return _bitmap_pass(factors, matching, space) or _sorted_pass(factors, matching, space)


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

    view = vertex_view(sol)
    found, by_length = _certify(sol.factors, sol.one_factor, complete_graph(v), view and view.data)
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
