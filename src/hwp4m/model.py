"""Shared data layer: vertex labelling, cycles, factors, edge spaces, JSON codec.

Vertex labelling
----------------
Graphs built from m parts of 4 vertices use the flat id

    id = 4 * part + layer,        layer in 0..3,  part in 0..n_parts-1.

Plain graphs (complete graphs on outer points) use ids 0..n-1 directly.
An ``EdgeSpace`` answers from its closed form alone, a dense K_{a:b} from
each vertex's row end and a ring on parts of 4 from one neighbour table
of its layers: no space lists its edges or draws them as bytes.

Canonical cycle form
--------------------
A cycle is stored as a tuple rotated so its minimum vertex comes first and
oriented so the second entry is smaller than the last.  This makes cycle
equality, sorting and byte-identical serialization trivial.  Blocks, outers
and searched factors pass through ``two_factor``, which canonicalizes; the
assembler's copies of them are canonical by construction (see
``composer._assemble``) and skip it.

Solution interchange format
---------------------------
A solution document is a JSON object with keys ``v``, ``m``, ``r``, ``s``,
``one_factor`` (sorted list of [u, v] pairs with u < v) and ``factors``
(list of objects {"cycle_length": L, "cycles": [[...], ...]} with cycles
canonicalized and sorted).  ``one_factor`` is omitted for odd-order
factorizations and for block documents without a removed matching, and
``m``, ``r`` and ``s`` when they are None.  Encoding is deterministic:
same object, same bytes.

``encode_solution`` writes the text itself, byte for byte what
``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"`` writes
for the ``doc`` of the reference encoder in ``tests/reference_codec.py``.
Contract: every int of the document, a vertex in range or not or one of
``v``, ``m``, ``r``, ``s`` and ``cycle_length``, is written as json
writes it.  A vertex or field that is not an int (a bool, float, str,
...) raises ``ValueError`` when the names table below first meets it, or
``TypeError`` when it cannot be hashed.  A non-int equal to an int
already named (True after 1, 2.0 after 2) is outside the contract: it
takes that int's text.  The decoder rejects every such document.

A Solution of order 0 < v <= 256 has a vertex view (``vertex_view``),
made from its own immutable factors by this module alone, on first use,
and kept on it: every factor's vertices in stored order, one byte each
(at most 32,512 bytes, at v = 256), and whether each is an exact int.
``verifier.verify_solution`` hands its bytes to the byte tables, so a
verified build is flattened once.  From an exact view, when every factor
is uniform with strictly rising cycle firsts (so already sorted) and every
declared length, field and matching end is an exact int, the ends below
256, the byte path writes the text with ``bytes.translate`` digit tables
and one split; every other document, every order above 256 among them,
takes the names path.  It sorts each factor's cycles, and since a document
lists each vertex once per factor but has at most v distinct vertices, it
makes the decimal text of each int once, on its first occurrence, in a
table of the ints that document lists (no term in v).  Each factor's
bytes join one ``bytearray`` as made; the document is copied once.

``decode_solution`` keeps the mirror table, from text to int: ``json.loads``
takes it as ``parse_int``, so each distinct number text of a document is
made an int once, on its first occurrence, and every later occurrence is
that same object.  A decoded Solution, as a built one, then holds one int
object per vertex value.  A JSON int is ``-?(0|[1-9][0-9]*)``, so ``int``
of its text is the value json makes, and a text past Python's digit limit
raises the same ``ValueError``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import eq, itemgetter, lt

Edge = tuple[int, int]
Cycle = tuple[int, ...]


# ============================================================
# edges and cycles
# ============================================================

def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


def canonicalize_cycle(vertices) -> Cycle:
    """Rotate so the minimum vertex is first, orient so second < last."""
    seq = tuple(vertices)  # a tuple is taken as it is, not copied
    if len(seq) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    if len(set(seq)) != len(seq):
        raise ValueError(f"duplicate vertex in cycle {list(seq)}")
    k = seq.index(min(seq))
    rot = seq[k:] + seq[:k] if k else seq
    return rot[:1] + rot[:0:-1] if rot[1] > rot[-1] else rot


# ============================================================
# factors and solutions
# ============================================================

@dataclass(frozen=True)
class TwoFactor:
    """A set of disjoint cycles meant to span vertices 0..n-1.

    ``cycle_length`` is the declared uniform length; the verifier recomputes
    lengths rather than trusting it.  Invariants (spanning, disjointness) are
    *not* enforced here so that the verifier can report on malformed data.
    """

    cycles: tuple[Cycle, ...]
    n: int
    cycle_length: int | None = None


def two_factor(cycles, n: int, cycle_length: int | None = None) -> TwoFactor:
    canon = tuple(sorted(map(canonicalize_cycle, cycles)))
    return TwoFactor(cycles=canon, n=n, cycle_length=cycle_length)


@dataclass(frozen=True)
class OneFactor:
    """A perfect matching, stored as a sorted tuple of normalized edges."""

    edges: tuple[Edge, ...]


def one_factor(edges) -> OneFactor:
    return OneFactor(edges=tuple(sorted(normalize_edge(u, v) for u, v in edges)))


@dataclass(frozen=True)
class Solution:
    """A 2-factorization of K_v (v odd) or K_v minus ``one_factor`` (v even).

    ``factors`` holds r factors of 4-cycles followed by s factors of m-cycles
    in constructed solutions; the verifier does not rely on the order.
    ``m``/``r``/``s`` may be None for bare imported factor lists.
    """

    v: int
    factors: tuple[TwoFactor, ...]
    m: int | None = None
    r: int | None = None
    s: int | None = None
    one_factor: OneFactor | None = None

    @cached_property
    def _view(self):
        # read only through vertex_view; never raises, whatever a vertex's __index__ or __eq__ does
        try:
            cycles = [f.cycles for f in self.factors]
            rows = list(chain.from_iterable(cycles))
            if type(self.factors) is not tuple or not (
                set(map(type, self.factors)) <= {TwoFactor}
                and set(map(type, chain(cycles, rows))) <= {tuple}
            ):
                return None  # a view of mutable factors could go stale
            listed = list(chain.from_iterable(rows))
            data = bytes(listed)
            exact = set(map(type, listed)) <= {int}  # an exact int equals its byte
            return VertexView(data, exact) if exact or list(data) == listed else None
        except Exception:
            return None


VertexView = namedtuple("VertexView", "data exact")


def vertex_view(sol: Solution) -> VertexView | None:
    """The view of a Solution of order 0 < v <= 256 (see "Solution
    interchange format"); None for any other order or object, and for
    factors other than a tuple of TwoFactors of tuples of tuples or a
    vertex that does not equal its byte."""
    return sol._view if isinstance(sol, Solution) and type(sol.v) is int and 0 < sol.v <= 256 else None


# ============================================================
# edge-space descriptors
# ============================================================

@dataclass(frozen=True)
class EdgeSpace:
    """Ambient edge set of a named graph family, defined once: a family's
    membership test (``multiplicity``), edge count and sorted edge walk
    (``edges``, as pairs) all live here, and the verifier reads them from
    here.  Every kind is a simple graph given by a closed form, and none
    lists its edges.  The kinds form two families.  A dense space,
    complete or equipartite, is K_{a:b} for its ``part`` size a, and also
    gives each vertex's ``row_ends``, against which the verifier counts a
    tiling row by row and explains a rejection.  A ring, blowup4 or
    switch, lies on m parts of 4 around a cycle; its membership test and
    its walk read one neighbour table, ``_layers``.  The verifier accepts
    a tiling of a ring by comparing its sorted pairs with ``edges``, and
    tests membership only to explain a rejection.  A space that names no
    graph cannot be made: an unknown kind, params of another arity, a
    ring of fewer than 3 parts, or an equipartite space of a negative part
    size or count, raises ValueError on construction.  ``kind`` and
    ``params`` are the space's identity.

    kinds:
      complete(v)        K_v, which is K_{1:v}
      equipartite(a, b)  complete equipartite K_{a:b}, b parts of size a
      blowup4(m)         C_m[4], the cycle of m parts blown up by 4
      switch(m)          (C_m[4] - I) + m*K_4 with the standard removed
                         matching I = {(0,i)(2,i+1)} u {(3,i)(1,i+1)}
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        arity = {"complete": 1, "blowup4": 1, "switch": 1, "equipartite": 2}.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown edge space kind {self.kind!r}")
        if len(self.params) != arity:
            raise ValueError(f"{self.kind} params must have length {arity}, got {self.params}")
        # parts around a cycle; for m = 3 the three part pairs are still distinct
        if self.kind in ("blowup4", "switch") and self.params[0] < 3:
            raise ValueError(f"{self.kind} needs at least 3 parts, got {self.params[0]}")
        if self.kind == "equipartite" and min(self.params) < 0:
            raise ValueError(f"equipartite needs a part size and part count of at least 0, got {self.params}")

    @property
    def part(self) -> int | None:
        """The part size a of a dense space K_{a:b}, whose params end with
        its b parts: 1 for complete(v), a for equipartite(a, b).  None for
        a ring, whose parts of 4 are not independent sets; so 0, the part
        size of K_{0:b}, keeps that space dense."""
        if self.kind == "complete":
            return 1
        return self.params[0] if self.kind == "equipartite" else None

    @property
    def vertex_count(self) -> int:
        a = self.part
        return 4 * self.params[0] if a is None else a * self.params[-1]

    def edge_count(self) -> int:
        a = self.part
        if a is None:
            return (20 if self.kind == "switch" else 16) * self.params[0]
        n = max(self.vertex_count, 0)  # a dense space with no vertices has no edges
        return n * (n - a) // 2

    def _layers(self) -> list:
        """A ring's neighbour table: for each layer x, the layers joined to
        layer x of part p in parts p, p + 1 and p - 1, in increasing order."""
        cut = SWITCH_REMOVED_LAYERS if self.kind == "switch" else ()
        same = [[y for y in range(4) if cut and y != x] for x in range(4)]  # only the switch joins inside a part
        later = [[y for y in range(4) if (x, y) not in cut] for x in range(4)]
        earlier = [[y for y in range(4) if (y, x) not in cut] for x in range(4)]
        return list(zip(same, later, earlier))

    def multiplicity(self):
        """The membership test of this space: a function from a pair (u, w)
        to the number of times the space holds that edge, answered from its
        closed form: 0 or 1, since every space is a simple graph.  A pair
        with an end that is not integral, such as (0, 6.5), is no edge; an
        integral float, such as 6.0, is read as the int it equals."""
        n, a, m = self.vertex_count, self.part, self.params[0]
        layers = self._layers() if a is None else None

        def multiplicity(edge) -> int:
            u, w = edge
            if not 0 <= u < w < n or u % 1 or w % 1:
                return 0
            if a is not None:
                return int(u // a != w // a)
            (p, x), (q, y) = divmod(int(u), 4), divmod(w, 4)
            return sum(q == part % m and y in joined for part, joined in zip((p, p + 1, p - 1), layers[x]))

        return multiplicity

    def row_ends(self) -> list[int]:
        """Each vertex's row end in a dense space, the first vertex above
        its part: the edges (u, w) with u < w are the w from u's end on."""
        n, a = self.vertex_count, self.part
        if a is None:
            raise ValueError(f"no row ends for edge space kind {self.kind!r}")
        return [(u // a + 1) * a for u in range(n)]

    def edges(self) -> Iterator[Edge]:
        """The edges in sorted order, generated lazily over only the pairs
        that are edges."""
        n, a = self.vertex_count, self.part
        if a is not None:
            # the vertices above u outside its part form one contiguous range
            return chain.from_iterable(zip(repeat(u), range((u // a + 1) * a, n)) for u in range(n))
        m, layers = self.params[0], self._layers()

        def above(u):
            # the layers above u in its part p, then in part p + 1, and in part m - 1 from part 0
            p, x = divmod(u, 4)
            same, later, earlier = layers[x]
            ws = [4 * p + y for y in same if y > x]
            if p + 1 < m:
                ws += [4 * p + 4 + y for y in later]
            if p == 0:
                ws += [4 * m - 4 + y for y in earlier]
            return zip(repeat(u), ws)

        return chain.from_iterable(map(above, range(n)))


# (layer in part i, layer in part i + 1) of the switch's removed edges
SWITCH_REMOVED_LAYERS = ((0, 2), (3, 1))


def switch_matching_edges(m: int) -> list[Edge]:
    """The removed matching of the switch construction, inside C_m[4]."""
    out = []
    for i in range(m):
        j = (i + 1) % m
        out.extend(normalize_edge(4 * i + a, 4 * j + b) for a, b in SWITCH_REMOVED_LAYERS)
    return sorted(out)


def complete_graph(v: int) -> EdgeSpace:
    return EdgeSpace("complete", (v,))

def cycle_blowup4(m: int) -> EdgeSpace:
    return EdgeSpace("blowup4", (m,))

def switch_graph(m: int) -> EdgeSpace:
    return EdgeSpace("switch", (m,))

def equipartite_graph(a: int, b: int) -> EdgeSpace:
    return EdgeSpace("equipartite", (a, b))


# ============================================================
# JSON codec
# ============================================================

class DecodeError(ValueError):
    """Structural violation in a solution document; ``code`` names it."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


def _is_int(x) -> bool:
    # JSON true/false decode to bool, a subclass of int; they are not numbers here
    return isinstance(x, int) and not isinstance(x, bool)


def _canonical_cycles(cycles: list, v: int, span: list):
    """The sorted cycles of a factor already in canonical form, as every
    document hwp4m writes is, proven so by C-level passes over the whole
    factor: every cycle is a list and every vertex an int (bools excluded)
    in 0..v-1, no cycle is short, no vertex repeats, and each cycle starts
    at its minimum with its second below its last.  None for any other
    factor, faulty or not: the ordered scan in ``doc_to_solution`` then
    names its first faulty cycle, or canonicalizes it.  One sum proves
    ``json.loads`` vertices ints: a float makes it a float, and a str, null,
    list or object raises.  It counts false and true as ints, but distinct
    vertices hold them only as the one equal to 0 and the one equal to 1,
    whose types alone are checked, once the form is proven, where a
    canonical factor holds them: 0 first in its cycle, and 1 first in its
    own cycle or in the cycle of 0.  Vertices are distinct when their set
    is as long as their list, and in range when their least is at least 0
    and their greatest below v; v of them are then 0..v-1, each once
    (pigeonhole).  The first factor proven so lends its set to ``span``, and
    each later factor of v vertices is proven by missing none of that set,
    whose objects a factor's shared ints match by identity."""
    if not set(map(type, cycles)) <= {list}:
        return None
    verts = list(chain.from_iterable(cycles))
    try:
        total = sum(verts)
    except (TypeError, OverflowError):  # OverflowError: a float after an int too large for one
        return None
    lent = len(verts) == v and span
    seen = span[0] if lent else set(verts)
    if not (
        type(total) is int
        and verts
        and (not seen.difference(verts) if lent else len(seen) == len(verts) and min(seen) >= 0 and max(seen) < v)
        and min(map(len, cycles)) >= 3
    ):
        return None
    if len(verts) == v and not span:
        span.append(seen)
    firsts = list(map(itemgetter(0), cycles))
    if not (
        all(map(eq, firsts, map(min, cycles)))
        and all(map(lt, map(itemgetter(1), cycles), map(itemgetter(-1), cycles)))
    ):
        return None
    held = [firsts[firsts.index(0)]] if 0 in seen else []
    if 1 in seen:
        home = firsts if 1 in firsts else cycles[firsts.index(0)]
        held.append(home[home.index(1)])
    return None if bool in map(type, held) else sorted(map(tuple, cycles))


def doc_to_solution(doc: dict) -> Solution:
    """The Solution a document names, or ``DecodeError``.  ``doc`` is
    ``json.loads`` output, whose only int-like values are ints and bools:
    that makes ``_canonical_cycles``'s one sum an exact int proof."""
    if not isinstance(doc, dict):
        raise DecodeError("MalformedDocument", "top level is not an object")
    for key in ("v", "factors"):
        if key not in doc:
            raise DecodeError("MalformedDocument", f"missing key {key!r}")
    v = doc["v"]
    if not _is_int(v) or v < 1:
        raise DecodeError("MalformedDocument", "v must be a positive integer")
    raw_factors = doc["factors"]
    if not isinstance(raw_factors, list):
        raise DecodeError("MalformedDocument", "factors must be a list")

    factors = []
    span: list = []  # the vertex set of the first factor that spans, lent to the later ones
    for idx, entry in enumerate(raw_factors):
        if not isinstance(entry, dict) or not isinstance(entry.get("cycles"), list):
            raise DecodeError("MalformedDocument", f"factor {idx} has no list of cycles")
        cycles = _canonical_cycles(entry["cycles"], v, span)
        if cycles is None:  # the ordered scan names the first faulty cycle
            for cyc in entry["cycles"]:
                if not isinstance(cyc, list) or len(cyc) < 3:
                    raise DecodeError("CycleTooShort", f"factor {idx}: {cyc!r}")
                if any(not _is_int(u) or u < 0 or u >= v for u in cyc):
                    raise DecodeError("VertexOutOfRange", f"factor {idx}: {cyc!r}")
                if len(set(cyc)) != len(cyc):
                    raise DecodeError("DuplicateVertex", f"factor {idx}: {cyc!r}")
            # a factor not in canonical form, or one with a subclass of list,
            # passes the scan but not the bulk checks
            cycles = sorted(map(canonicalize_cycle, entry["cycles"]))
        length = entry.get("cycle_length")
        if length is not None and not _is_int(length):
            raise DecodeError("MalformedDocument", f"factor {idx}: bad cycle_length")
        factors.append(TwoFactor(cycles=tuple(cycles), n=v, cycle_length=length))

    r, s, m = doc.get("r"), doc.get("s"), doc.get("m")
    for name, val in (("r", r), ("s", s), ("m", m)):
        if val is not None and (not _is_int(val) or val < 0):
            raise DecodeError("MalformedDocument", f"{name} must be a nonnegative integer")
    if r is not None and s is not None and r + s != len(factors):
        raise DecodeError(
            "FactorCountMismatch",
            f"r+s = {r + s} but document has {len(factors)} factors",
        )

    matching = None
    if "one_factor" in doc:
        raw = doc["one_factor"]
        if not isinstance(raw, list):
            raise DecodeError("MalformedDocument", "one_factor must be a list")
        edges = []
        for pair in raw:
            if not isinstance(pair, list) or len(pair) != 2:
                raise DecodeError("MalformedDocument", f"bad matching edge {pair!r}")
            u, w = pair
            if not all(_is_int(x) and 0 <= x < v for x in (u, w)):
                raise DecodeError("VertexOutOfRange", f"matching edge {pair!r}")
            if u == w:
                raise DecodeError("MalformedDocument", f"loop matching edge {pair!r}")
            edges.append((u, w))
        matching = one_factor(edges)

    return Solution(v=v, factors=tuple(factors), m=m, r=r, s=s, one_factor=matching)


class _IntNames(dict):
    """The decimal text of each int of one document, vertices and fields
    alike, made on its first lookup and kept for the rest of the document."""

    def __missing__(self, u) -> str:
        if not isinstance(u, int) or isinstance(u, bool):
            raise ValueError(f"{u!r} is not an int")
        self[u] = name = int.__repr__(u)  # json's text of an int, subclasses too
        return name


def _rows_text(rows, names: _IntNames, lengths: set) -> str:
    """json's text of a list of rows of vertices; ``lengths`` is the set of
    row lengths.  Rows of one nonzero length k are cut from one stream of
    names, k at a time; any other list is written row by row."""
    if len(lengths) == 1 and (k := next(iter(lengths))):
        stream = map(names.__getitem__, chain.from_iterable(rows))
        return "[[" + "],[".join(map(",".join, zip(*[stream] * k))) + "]]"
    return "[" + ",".join(["[" + ",".join(map(names.__getitem__, row)) + "]" for row in rows]) + "]"


# each byte's hundreds, tens and units digit, 0 for a leading digit it lacks
_DIGITS = [bytes(col).replace(b" ", b"\0") for col in zip(*map(b"%3d".__mod__, range(256)))]


def _byte_text(sol: Solution, data: bytes) -> bytes | None:
    """The byte path (see "Solution interchange format") from the bytes of
    an exact view, or None.  A vertex takes 4 bytes: three digits and ","
    in a cycle, "]" after one, widened to "],[", or "|" after a factor,
    where the text is split into one body per factor and the matching's."""
    fields = {key: val for key in ("m", "r", "s", "v") if (val := getattr(sol, key)) is not None}
    lengths, runs, start = [], [], 0
    for f in sol.factors:
        found = set(map(len, f.cycles))
        k = found.pop() if len(found) == 1 else 0
        length = k if f.cycle_length is None else f.cycle_length
        stop = start + k * len(f.cycles)
        if not k or type(length) is not int or not all(map(lt, data[start:stop:k], data[start + k:stop:k])):
            return None
        lengths.append(length)
        runs.append((k, stop - start))
        start = stop
    matching = sol.one_factor
    try:  # AttributeError or TypeError: no pairs; ValueError: an end out of 0..255
        edges = () if matching is None else matching.edges
        ends = list(chain.from_iterable(edges))
        if set(map(len, edges)) - {2} or set(map(type, chain(ends, fields.values()))) - {int}:
            return None
        ends = bytes(ends)
    except (AttributeError, TypeError, ValueError):
        return None
    if ends:
        data += ends
        runs.append((2, len(ends)))
    buf = bytearray(b"\0\0\0," * len(data))
    buf[0::4], buf[1::4], buf[2::4] = (data.translate(table) for table in _DIGITS)
    start = 0
    for (k, count), run in groupby(runs):
        stop = start + count * len(list(run))
        buf[4 * (start + k) - 1:4 * stop:4 * k] = b"]" * ((stop - start) // k)
        buf[4 * (start + count) - 1:4 * stop:4 * count] = b"|" * ((stop - start) // count)
        start = stop
    bodies = buf.translate(None, b"\0").replace(b"]", b"],[").split(b"|")
    named = {key: b"%d" % val for key, val in fields.items()}
    if matching is not None:
        named["one_factor"] = b"[[%s]]" % bodies[len(lengths)] if ends else b"[]"
    text = b"]]},".join(map(b'{"cycle_length":%d,"cycles":[[%s'.__mod__, zip(lengths, bodies)))
    text += b"]]}" * bool(lengths)
    tail = b",".join(b'"%s":%s' % (key.encode(), named[key]) for key in sorted(named))
    return b'{"factors":[%s],%s}\n' % (text, tail)


def encode_solution(sol: Solution) -> bytes:
    """The document's bytes (see "Solution interchange format" above)."""
    view = vertex_view(sol)
    if view and view.exact and (out := _byte_text(sol, view.data)):
        return out
    names = _IntNames()
    # each factor's text joins one buffer as bytes as soon as it is written,
    # so the document is never held as str, and the buffer is copied out once
    out, sep = bytearray(b'{"factors":['), ""
    for f in sol.factors:
        cycles = sorted(f.cycles)
        lengths = set(map(len, cycles))
        length = f.cycle_length
        if length is None:
            if len(lengths) != 1:
                raise ValueError("cannot annotate a non-uniform factor")
            length = next(iter(lengths))
        text = f'{sep}{{"cycle_length":{names[length]},"cycles":{_rows_text(cycles, names, lengths)}}}'
        out += text.encode("ascii")
        sep = ","
    fields = {key: names[val] for key in ("m", "r", "s") if (val := getattr(sol, key)) is not None}
    if sol.one_factor is not None:
        edges = sol.one_factor.edges
        fields["one_factor"] = _rows_text(edges, names, set(map(len, edges)))
    fields["v"] = names[sol.v]
    out += ("]," + ",".join(f'"{key}":{fields[key]}' for key in sorted(fields)) + "}\n").encode("ascii")
    return bytes(out)


class _IntValues(dict):
    """The int of each number text of one document, made on its first
    lookup and kept for the rest of the document: ``_IntNames`` reversed."""

    def __missing__(self, text: str) -> int:
        self[text] = u = int(text)
        return u


def decode_solution(data: bytes | str) -> Solution:
    try:
        doc = json.loads(data, parse_int=_IntValues().__getitem__)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers bytes that are no UTF-8/16/32 text and an
        # int past Python's digit limit; RecursionError, deep nesting
        raise DecodeError("MalformedDocument", str(exc)) from exc
    return doc_to_solution(doc)
