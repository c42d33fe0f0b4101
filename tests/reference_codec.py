"""Reference oracles for the codec, kept verbatim for differential tests.

The decoder's oracle is the per-vertex ``doc_to_solution`` with the
list-based ``canonicalize_cycle``.  It checks every cycle in document
order, one vertex at a time, so the first fault it meets names the
``DecodeError``.  The package's decoder checks each factor in bulk and
falls back to the same ordered scan only when a bulk check fails.

The encoder's oracle is ``solution_to_doc`` plus json's compact sorted
dump.  The package's encoder writes the same bytes itself, naming each
vertex once per document.
"""

from __future__ import annotations

import json

from hwp4m.model import Cycle, DecodeError, Solution, TwoFactor, one_factor


def canonicalize_cycle(vertices) -> Cycle:
    """Rotate so the minimum vertex is first, orient so second < last."""
    seq = list(vertices)
    if len(seq) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    if len(set(seq)) != len(seq):
        raise ValueError(f"duplicate vertex in cycle {seq}")
    k = seq.index(min(seq))
    rot = seq[k:] + seq[:k]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def _is_int(x) -> bool:
    # JSON true/false decode to bool, a subclass of int; they are not numbers here
    return isinstance(x, int) and not isinstance(x, bool)


def doc_to_solution(doc: dict) -> Solution:
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
    for idx, entry in enumerate(raw_factors):
        if not isinstance(entry, dict) or not isinstance(entry.get("cycles"), list):
            raise DecodeError("MalformedDocument", f"factor {idx} has no list of cycles")
        cycles = []
        for cyc in entry["cycles"]:
            if not isinstance(cyc, list) or len(cyc) < 3:
                raise DecodeError("CycleTooShort", f"factor {idx}: {cyc!r}")
            if any(not _is_int(u) or u < 0 or u >= v for u in cyc):
                raise DecodeError("VertexOutOfRange", f"factor {idx}: {cyc!r}")
            if len(set(cyc)) != len(cyc):
                raise DecodeError("DuplicateVertex", f"factor {idx}: {cyc!r}")
            cycles.append(canonicalize_cycle(cyc))
        length = entry.get("cycle_length")
        if length is not None and not _is_int(length):
            raise DecodeError("MalformedDocument", f"factor {idx}: bad cycle_length")
        factors.append(TwoFactor(cycles=tuple(sorted(cycles)), n=v, cycle_length=length))

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


def solution_to_doc(sol: Solution) -> dict:
    factors = []
    for f in sol.factors:
        if f.cycle_length is not None:
            length = f.cycle_length
        else:
            lengths = {len(c) for c in f.cycles}
            if len(lengths) != 1:
                raise ValueError("cannot annotate a non-uniform factor")
            length = lengths.pop()
        # json writes tuples as arrays, so the cycles and edges go in as they are
        factors.append({"cycle_length": length, "cycles": sorted(f.cycles)})
    doc: dict = {"v": sol.v, "factors": factors}
    for key in ("m", "r", "s"):
        val = getattr(sol, key)
        if val is not None:
            doc[key] = val
    if sol.one_factor is not None:
        doc["one_factor"] = sol.one_factor.edges
    return doc


def encode_solution(sol: Solution) -> bytes:
    doc = solution_to_doc(sol)
    # the document holds only dicts, lists, tuples and ints, so it cannot
    # contain itself and json need not track the containers it has entered
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    return text.encode("ascii")
