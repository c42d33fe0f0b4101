"""The codec against its reference oracles.

``reference_codec`` keeps the per-vertex ``doc_to_solution``.  On every
document here both must return the same ``Solution``, or raise a
``DecodeError`` with the same code and text.  The documents are valid
solutions and blocks, seeded single edits of their cycles (a bool, float,
nested-list, negative or out-of-range vertex, a short or non-list cycle, a
duplicate vertex, an empty factor, and edits of a spanning factor to each
side of the decoder's pigeonhole span test), type edits of one vertex of a
spanning factor (json's false for 0 and true for 1, the only bools the
decoder's one-sum int proof must catch by type, a float, nan, an int
subclass and 2**70), pairs of edits whose first faulty cycle differs in
kind from a later one, in one factor or in two, and rotated or reversed
cycles, which take the decoder off its bulk proof that a factor is already
canonical.  Each of these documents is also written as JSON text, which
``decode_solution``, with its table of int values, must decode as
``doc_to_solution`` decodes json's own parse of it.

It also keeps ``solution_to_doc`` plus json's compact sorted dump, which
the package's encoder must match byte for byte, or raise the same
``ValueError``: on every block kind, built solutions of every route,
Hamilton decompositions, a searched outcome, and hand-made solutions at
the edges of the format.
"""

import copy
import itertools
import json
import random
from collections import Counter

import pytest
import reference_codec as oracle

from hwp4m import model, verifier
from hwp4m.blocks import BLOCK_BUILDERS, c4_block, cm_block, mixed_block, switch_block
from hwp4m.composer import build
from hwp4m.k24 import k24_solution
from hwp4m.model import (
    DecodeError,
    OneFactor,
    Solution,
    TwoFactor,
    canonicalize_cycle,
    decode_solution,
    doc_to_solution,
    encode_solution,
    one_factor,
    packed_solution,
    two_factor,
    vertex_view,
)
from hwp4m.outer import hamilton_decomposition, walecki
from hwp4m.search import cm_factorization_instance, solve
from hwp4m.verifier import verify_solution


def _outcome(decode, doc):
    try:
        return decode(doc)
    except DecodeError as exc:
        return ("DecodeError", exc.code, str(exc))


def _agree(doc):
    new = _outcome(doc_to_solution, copy.deepcopy(doc))
    assert new == _outcome(oracle.doc_to_solution, copy.deepcopy(doc))
    data = json.dumps(doc)
    assert _outcome(decode_solution, data) == _outcome(doc_to_solution, json.loads(data))
    return new


def _bases():
    sols = [
        build(12, 3, 1, 4),
        build(12, 3, 5, 0),
        build(20, 5, 3, 6),
        k24_solution(),
        Solution(v=9, factors=tuple(walecki(9)), m=9, r=0, s=4),
        c4_block(5),
        cm_block(5),
        mixed_block(7),
        switch_block(5),
    ]
    return [json.loads(encode_solution(sol)) for sol in sols]


BASES = _bases()


class Label(int):
    """An int subclass other than bool: the bulk proof and the scan both
    accept it as a vertex."""


# one edit of a cycle vertex each; ``v`` is the document's order
VERTEX_EDITS = {
    "bool": lambda u, v, rng: rng.choice((True, False)),
    "float": lambda u, v, rng: float(u),
    "nested": lambda u, v, rng: [u],
    "negative": lambda u, v, rng: -1 - rng.randrange(3),
    "out_of_range": lambda u, v, rng: v + rng.randrange(3),
    "string": lambda u, v, rng: str(u),
    "none": lambda u, v, rng: None,
}


def _edit_cycle(doc, rng, kind, fi, ci):
    """Apply one edit of ``kind`` to cycle ``ci`` of factor ``fi``."""
    cycles = doc["factors"][fi]["cycles"]
    cyc = cycles[ci]
    if kind in VERTEX_EDITS:
        j = rng.randrange(len(cyc))
        cyc[j] = VERTEX_EDITS[kind](cyc[j], doc["v"], rng)
    elif kind == "short":
        cycles[ci] = cyc[: rng.randrange(3)]
    elif kind == "non_list":
        cycles[ci] = rng.choice((7, "abc", {"cycle": cyc}, None, tuple(cyc)))
    elif kind == "duplicate":
        i, j = rng.sample(range(len(cyc)), 2)
        cyc[j] = cyc[i]
    elif kind == "empty_factor":
        doc["factors"][fi]["cycles"] = []
    elif kind == "label":
        cyc[0] = Label(cyc[0])
    elif kind == "minus_one":
        cyc[rng.randrange(len(cyc))] = -1
    elif kind == "v":
        cyc[rng.randrange(len(cyc))] = doc["v"]
    elif kind == "extra_vertex":
        cyc.insert(rng.randrange(len(cyc) + 1), doc["v"])
    elif kind == "shared":
        cyc[1] = cycles[ci - 1][0]
    else:
        raise ValueError(kind)


def _somewhere(doc, rng):
    fi = rng.randrange(len(doc["factors"]))
    return fi, rng.randrange(len(doc["factors"][fi]["cycles"]))


CYCLE_KINDS = (*VERTEX_EDITS, "short", "non_list", "duplicate", "empty_factor", "label")

# edits of a factor that lists each of 0..v-1 once, to each side of the
# decoder's pigeonhole span test, with the code each raises (None: it decodes):
# v distinct vertices, one of them -1 or v; v + 1 distinct vertices; and a
# vertex moved into a second cycle, in range, so that the factor is
# canonicalized cycle by cycle (or repeats in its one cycle)
SPAN_EDITS = {
    "minus_one": "VertexOutOfRange",
    "v": "VertexOutOfRange",
    "extra_vertex": "VertexOutOfRange",
    "shared": None,
}


def test_valid_solution_and_block_documents_decode_alike():
    for doc in BASES:
        assert not isinstance(_agree(doc), tuple)


def test_a_decoded_document_holds_one_int_object_per_vertex():
    # each distinct number text becomes one int, shared by every occurrence,
    # as a built solution shares one int per vertex; json.loads alone makes
    # one per occurrence of a vertex above 256
    sol = decode_solution(encode_solution(build(404, 101, 3, 198)))
    cycles = itertools.chain.from_iterable(f.cycles for f in sol.factors)
    listed = itertools.chain(*cycles, *sol.one_factor.edges)
    assert len(set(map(id, listed))) == 404


@pytest.mark.parametrize("kind", (*CYCLE_KINDS, *SPAN_EDITS))
def test_seeded_cycle_edits_decode_alike(kind):
    rng = random.Random(f"cycle-{kind}")
    for doc in BASES:
        for _ in range(6):
            edited = copy.deepcopy(doc)
            fi, ci = _somewhere(edited, rng)
            cycles = edited["factors"][fi]["cycles"]
            _edit_cycle(edited, rng, kind, fi, ci)
            outcome = _agree(edited)
            if kind in SPAN_EDITS:
                assert sorted(itertools.chain(*doc["factors"][fi]["cycles"])) == list(range(doc["v"]))
                want = SPAN_EDITS[kind] if kind != "shared" or len(cycles) > 1 else "DuplicateVertex"
                assert (outcome[1] if isinstance(outcome, tuple) else None) == want


# type edits of one vertex u of a factor that lists each of 0..v-1 once:
# which u, its new value, and the code it raises (None: it decodes to the
# unedited Solution).
# The decoder proves its vertices ints by one sum, which counts json's false
# and true as ints; distinct vertices hold them only as 0 and 1, so those
# two are the only bools it must catch by type.  A float, nan or not, makes
# the sum a float; an int subclass is a vertex wherever it stands.
TYPE_EDITS = {
    "false_for_0": (lambda u: 0, lambda u: False, "VertexOutOfRange"),
    "true_for_1": (lambda u: 1, lambda u: True, "VertexOutOfRange"),
    "float": (lambda u: u, float, "VertexOutOfRange"),
    "nan": (lambda u: u, lambda u: float("nan"), "VertexOutOfRange"),
    "label_at_0": (lambda u: 0, Label, None),
    "label_at_1": (lambda u: 1, Label, None),
    "label": (lambda u: u, Label, None),
    "two_to_the_70": (lambda u: u, lambda u: 2 ** 70, "VertexOutOfRange"),
}


@pytest.mark.parametrize("kind", TYPE_EDITS)
def test_type_edits_of_a_spanning_factor_decode_alike(kind):
    which, value, want = TYPE_EDITS[kind]
    rng = random.Random(f"type-{kind}")
    for doc in BASES:
        for _ in range(3):
            fi = rng.randrange(len(doc["factors"]))
            assert sorted(itertools.chain(*doc["factors"][fi]["cycles"])) == list(range(doc["v"]))
            u = which(rng.randrange(2, doc["v"]))
            edited = copy.deepcopy(doc)
            cyc = next(cyc for cyc in edited["factors"][fi]["cycles"] if u in cyc)
            cyc[cyc.index(u)] = value(u)
            outcome = _agree(edited)
            if want is None:
                assert outcome == _agree(doc)
            else:
                assert outcome[1] == want and repr(value(u)) in outcome[2]


@pytest.mark.parametrize("same_factor", [False, True])
def test_first_faulty_cycle_names_the_error_when_a_later_one_differs(same_factor):
    rng = random.Random(f"pairs-{same_factor}")
    # emptying a factor would also drop the other edit in the same factor
    kinds = [k for k in CYCLE_KINDS if k not in ("label", "empty_factor" if same_factor else "")]
    named = set()
    for trial in range(200):
        doc = copy.deepcopy(BASES[trial % len(BASES)])
        factors = doc["factors"]
        if same_factor:
            fi = rng.randrange(len(factors))
            if len(factors[fi]["cycles"]) < 2:
                continue
            first, later = sorted(rng.sample(range(len(factors[fi]["cycles"])), 2))
            at = ((fi, first), (fi, later))
        else:
            fa, fb = sorted(rng.sample(range(len(factors)), 2))
            at = ((f, rng.randrange(len(factors[f]["cycles"]))) for f in (fa, fb))
        for kind, (fi, ci) in zip(rng.sample(kinds, 2), at):
            _edit_cycle(doc, rng, kind, fi, ci)
        outcome = _agree(doc)
        if isinstance(outcome, tuple):
            named.add(outcome[1])
    assert named == {"CycleTooShort", "VertexOutOfRange", "DuplicateVertex"}


# valid ways to write a cycle other than its canonical form
REWRITES = {
    "rotated_left": lambda cyc: cyc[1:] + cyc[:1],
    "rotated_right": lambda cyc: cyc[-1:] + cyc[:-1],
    "reversed": lambda cyc: cyc[:1] + cyc[:0:-1],
    "rotated_reversed": lambda cyc: cyc[::-1],
}


@pytest.mark.parametrize("kind", REWRITES)
def test_rotated_and_reversed_cycles_decode_to_the_canonical_solution(kind):
    rng = random.Random(f"rewrite-{kind}")
    for doc in BASES:
        canonical = _agree(doc)
        for every in (False, True):
            edited = copy.deepcopy(doc)
            for factor in edited["factors"]:
                cycles = factor["cycles"]
                for ci in range(len(cycles)) if every else [rng.randrange(len(cycles))]:
                    cycles[ci] = REWRITES[kind](cycles[ci])
            assert _agree(edited) == canonical


def test_canonical_cycles_in_any_order_decode_to_the_canonical_solution():
    rng = random.Random("shuffle")
    for doc in BASES:
        edited = copy.deepcopy(doc)
        for factor in edited["factors"]:
            rng.shuffle(factor["cycles"])
        assert _agree(edited) == _agree(doc)


def test_canonicalize_cycle_takes_lists_tuples_and_generators():
    for cyc in ((7, 3, 9, 5, 8), (0, 1, 2), (4, 2, 6, 1), (2, 1, 0, 3), (5, 9, 1, 7)):
        want = oracle.canonicalize_cycle(cyc)
        assert canonicalize_cycle(cyc) == canonicalize_cycle(list(cyc)) == want
        assert canonicalize_cycle(u for u in cyc) == want
        assert type(canonicalize_cycle(list(cyc))) is tuple
    for bad, text in (
        ([0, 1], "cycle needs at least 3 vertices"),
        ([0, 1, 0], "duplicate vertex in cycle [0, 1, 0]"),
    ):
        for form in (list, tuple, iter):
            with pytest.raises(ValueError) as err:
                canonicalize_cycle(form(bad))
            assert str(err.value) == text


# ============================================================
# encoder
# ============================================================


def _encoded(encode, sol):
    try:
        return encode(sol)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _encodes_alike(sol):
    new = _encoded(encode_solution, sol)
    assert new == _encoded(oracle.encode_solution, sol)
    return new


def _packed(sol):
    """``sol`` packed from bytes as the assembler packs a build, so with a
    vertex view, or None when it cannot be: an order outside 1..256, or a
    factor whose cycles are not of one length of at least 3, of ints in
    0..255.  A factor with no cycles packs as an empty row."""
    rows = []
    try:
        for f in sol.factors:
            lengths = set(map(len, f.cycles)) or {3}
            verts = list(itertools.chain.from_iterable(f.cycles))
            if len(lengths) > 1 or set(map(type, verts)) - {int}:
                return None
            rows.append((lengths.pop(), f.cycle_length, bytes(verts)))
        return packed_solution(sol.v, sol.m, sol.r, sol.s, rows, sol.one_factor)
    except (TypeError, ValueError):
        return None


@pytest.mark.parametrize("kind", sorted(BLOCK_BUILDERS))
def test_every_block_kind_encodes_alike(kind):
    for m in (3, 5, 7, 9, 13, 25):
        assert isinstance(_encodes_alike(BLOCK_BUILDERS[kind](m)), bytes)


# one request of each route at v <= 124, all-C4 and switch routes at both ends
ENCODED_REQUESTS = [
    (12, 3, 1, 4), (12, 3, 2, 3), (12, 3, 5, 0), (24, 3, 4, 7), (36, 3, 17, 0),
    (40, 5, 3, 16), (40, 5, 19, 0), (48, 3, 7, 16), (60, 5, 6, 23),
    (120, 3, 59, 0), (124, 31, 1, 60), (124, 31, 2, 59),
]


def test_built_solutions_encode_alike():
    for request in ENCODED_REQUESTS:
        assert isinstance(_encodes_alike(build(*request)), bytes)


def test_hamilton_decompositions_and_a_searched_outcome_encode_alike():
    for n in (3, 4, 5, 8, 9, 10, 21, 30):
        _encodes_alike(hamilton_decomposition(n))
    outcome = solve(cm_factorization_instance(9, 3))
    assert outcome.status == "found"
    _encodes_alike(Solution(v=9, factors=outcome.solution.factors))
    outcome = solve(cm_factorization_instance(10, 5))
    _encodes_alike(Solution(v=10, factors=outcome.solution.factors, one_factor=outcome.solution.one_factor))


def _factor(cycles, length=None, n=12):
    # cycles as given: neither canonical nor sorted
    return TwoFactor(cycles=tuple(cycles), n=n, cycle_length=length)


EDGE_FACTORS = {
    "no_cycles": [_factor([], 3)],
    "no_cycles_undeclared": [_factor([])],
    "two_vertex_rows": [_factor([(0, 1), (2, 3)])],
    "two_vertex_row_among_triangles": [_factor([(0, 1, 2), (3, 4)], 3)],
    "one_vertex_rows": [_factor([(5,), (0,)])],
    "empty_row": [_factor([()], 3)],
    "empty_and_full_rows": [_factor([(), (0, 1, 2)], 3)],
    "mixed_declared": [_factor([(0, 1, 2), (3, 4, 5, 6)], 3), _factor([(3, 4, 5, 6), (0, 1, 2)], 4)],
    "mixed_undeclared": [_factor([(0, 1, 2), (3, 4, 5, 6)])],
    "unsorted_rows": [_factor([(6, 7, 8), (0, 2, 1), (3, 5, 4)])],
    "list_rows": [_factor([[4, 5, 6, 7], [0, 1, 2, 3]])],
    "out_of_range": [_factor([(-3, 7, 12), (-1, 100, 5)])],
    "width_9_10": [_factor([(8, 9, 10, 11), (1, 9, 10, 0)])],
    "width_99_100": [_factor([(98, 99, 100, 101), (9, 10, 99, 100)]), _factor([(99, 100, 9)])],
    "width_999_1000": [_factor([(999, 1000, 10 ** 6)], 3)],
    "huge": [_factor([(2 ** 64, -(2 ** 70), 0)])],
    "int_subclass": [_factor([(Label(3), 4, 5), (0, Label(1), 2)])],
    "repeated_vertex": [_factor([(0, 1, 0, 1), (1, 0, 1, 0)])],
}


@pytest.mark.parametrize("name", sorted(EDGE_FACTORS))
def test_edge_case_factors_encode_alike(name):
    factors = tuple(EDGE_FACTORS[name])
    for v in (1, 5, 12, 101, 256):
        _encodes_alike(Solution(v=v, factors=factors, m=3, r=1, s=0))
    _encodes_alike(Solution(v=12, factors=factors + tuple(walecki(5)), one_factor=OneFactor(((0, 1),))))


def test_every_none_pattern_of_m_r_s_and_the_matching_encodes_alike():
    factors = (two_factor([(0, 1, 2, 3)], 4, 4),)
    matchings = (None, OneFactor(()), one_factor([(0, 3), (1, 2)]), OneFactor(((3, 0), (10, -2))))
    for m, r, s in itertools.product((None, 5), (None, 0, 1), (None, 0, 10)):
        for matching in matchings:
            _encodes_alike(Solution(v=4, factors=factors, m=m, r=r, s=s, one_factor=matching))


def test_v_1_and_empty_documents_encode_alike():
    assert _encodes_alike(Solution(v=1, factors=())) == b'{"factors":[],"v":1}\n'
    _encodes_alike(Solution(v=1, factors=(), m=1, r=0, s=0, one_factor=OneFactor(())))
    _encodes_alike(Solution(v=1, factors=(_factor([(0,)]),)))


# Documents at the boundary of the encoder's two paths.  The byte path
# writes a document of order v <= 256 from the bytes of its vertex view,
# which only a packed build has, when every factor has cycles with strictly
# rising firsts and every declared length, field and matching end is an
# exact int; every other document takes the names path.  Each case is
# packed as a build is where its factors allow (``_packed``).  Each case:
# its Solution, whether the byte path writes it, and whether the reference
# agrees.  Where json writes a bool or a float as itself, the package
# raises ValueError, or writes the int it equals when that int was named
# first (outside the contract), as the names path always did; those cases
# are checked against the names path alone.
_TRIANGLE = _factor([(0, 1, 2)], 3)
BOUNDARY = {
    "vertex_255_at_256": (Solution(v=256, factors=(_factor([(0, 1, 255), (3, 4, 254)], 3),)), True, True),
    "vertex_256_at_256": (Solution(v=256, factors=(_factor([(0, 1, 256)], 3),)), False, True),
    "any_vertex_at_257": (Solution(v=257, factors=(_TRIANGLE,)), False, True),
    "equal_firsts": (Solution(v=12, factors=(_factor([(0, 3, 4), (0, 1, 2)], 3),)), False, True),
    "bool_vertex": (Solution(v=12, factors=(_factor([(0, True, 2)], 3),)), False, False),
    "bool_after_its_int": (Solution(v=12, factors=(_TRIANGLE, _factor([(0, True, 2)], 3))), False, False),
    "label_vertex": (Solution(v=12, factors=(_factor([(0, Label(1), 2)], 3),)), False, True),
    "float_vertex": (Solution(v=12, factors=(_factor([(0, 1, 2.0)], 3),)), False, False),
    "float_after_its_int": (Solution(v=12, factors=(_TRIANGLE, _factor([(0, 1, 2.0)], 3))), False, False),
    "bool_cycle_length": (Solution(v=12, factors=(_factor([(0, 1, 2)], True),)), False, False),
    "bool_cycle_length_after_1": (Solution(v=12, factors=(_TRIANGLE, _factor([(3, 4, 5)], True))), False, False),
    "bool_matching_end": (Solution(v=12, factors=(_TRIANGLE,), one_factor=OneFactor(((True, 5),))), False, False),
    "matching_end_256": (Solution(v=256, factors=(_TRIANGLE,), one_factor=OneFactor(((0, 256),))), False, True),
    "reversed_matching_pair": (Solution(v=4, factors=(_TRIANGLE,), one_factor=OneFactor(((3, 0),))), True, True),
    "empty_matching": (Solution(v=4, factors=(_TRIANGLE,), one_factor=OneFactor(())), True, True),
    "factor_with_no_cycles": (Solution(v=12, factors=(_TRIANGLE, _factor([], 3))), False, True),
    "no_factors": (Solution(v=12, factors=(), m=3, r=0, s=0, one_factor=OneFactor(((0, 1), (2, 3)))), True, True),
    "bool_field": (Solution(v=12, factors=(_TRIANGLE,), m=True), False, False),
}


@pytest.fixture
def byte_path(monkeypatch):
    """The outcome of each call of the encoder's byte path: True when it
    wrote the document, False when it left it to the names path."""
    byte_text, outcomes = model._byte_text, []

    def recorded(sol, view):
        out = byte_text(sol, view)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(model, "_byte_text", recorded)
    return outcomes


def _names_path(sol, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(model, "_byte_text", lambda sol, view: None)
        return _encoded(encode_solution, sol)


@pytest.mark.parametrize("name", BOUNDARY)
def test_documents_at_the_byte_path_boundary_encode_alike(name, byte_path, monkeypatch):
    sol, written, agrees = BOUNDARY[name]
    sol = _packed(sol) or sol
    new = _encoded(encode_solution, sol)
    assert (True in byte_path) == written
    assert new == _names_path(sol, monkeypatch)
    if agrees:
        assert new == _encoded(oracle.encode_solution, sol)
    else:
        assert new != _encoded(oracle.encode_solution, sol)


def test_the_built_solutions_of_a_sweep_take_the_byte_path(byte_path, monkeypatch):
    """Builds of order <= 256 are written from their views.  A decoded copy
    of one has no view: it is written to the build's exact bytes by the
    names path, and gets the build's report from the bitmap rows, never
    reaching the byte tables, which accept the build at v = 252 and leave
    v = 256 to the bitmap rows.  K_256 - I, which is not packed, and a
    build above order 256 take the names path too."""
    tables_tile, tabled = verifier._tables_tile, []
    monkeypatch.setattr(verifier, "_tables_tile", lambda *args: tabled.append(tables_tile(*args)) or tabled[-1])
    builds = [build(12, 3, 1, 4), build(252, 63, 3, 122), build(256, 3, 127, 0)]
    tabled.clear()
    for sol, accepted in zip(builds, (Counter({4: 1, 3: 4}), Counter({4: 3, 63: 122}), None)):
        data = _encodes_alike(sol)
        assert len(vertex_view(sol).data) <= 33_000
        report = verify_solution(sol)
        assert report.ok and tabled == [accepted]
        copy = decode_solution(data)
        assert vertex_view(copy) is None and encode_solution(copy) == data
        assert verify_solution(copy) == report and tabled == [accepted]
        tabled.clear()
    assert byte_path == [True] * 3
    for sol in (hamilton_decomposition(256), build(260, 65, 1, 128)):
        _encodes_alike(sol)
        assert vertex_view(sol) is None
    assert byte_path == [True] * 3 and not tabled
