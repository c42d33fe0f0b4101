"""Vertex layout, canonical cycles, ambient edge spaces, and the JSON codec.

Vertices of a blown-up graph are flattened as vid = 4*part + layer.  A cycle
is canonical when its minimum vertex comes first and the smaller neighbour of
the two follows it, which kills the 2k rotation/reflection symmetries and
makes every serialized artifact byte-stable.
"""

import ast
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
import reference_codec
from reference_verifier import factor_edges, listed_edges

from hwp4m import model
from hwp4m.model import (
    DecodeError,
    EdgeSpace,
    OneFactor,
    Solution,
    TwoFactor,
    canonicalize_cycle,
    complete_graph,
    cycle_blowup4,
    decode_solution,
    encode_solution,
    equipartite_graph,
    normalize_edge,
    one_factor,
    packed_solution,
    switch_graph,
    switch_matching_edges,
    two_factor,
    vertex_view,
)
from hwp4m.outer import hamilton_decomposition
from hwp4m.verifier import verify_solution

# ============================================================
# vertex layout and cycle canonicalization
# ============================================================


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(5, 2) == (2, 5)
    assert normalize_edge(2, 5) == (2, 5)


def test_canonicalize_cycle_fixes_rotation_and_reflection():
    base = (0, 1, 2, 3)
    for rotated in [(2, 3, 0, 1), (3, 0, 1, 2), (1, 0, 3, 2), (3, 2, 1, 0)]:
        assert canonicalize_cycle(rotated) == base
    # edges are preserved under canonicalization
    cyc = (7, 3, 9, 5, 8)
    assert sorted(factor_edges([canonicalize_cycle(cyc)])) == sorted(factor_edges([cyc]))


def test_canonical_cycle_starts_at_minimum_with_smaller_second():
    canon = canonicalize_cycle((4, 6, 1, 5, 9))
    assert canon[0] == min(canon)
    assert canon[1] < canon[-1]


def test_two_factor_sorts_canonical_cycles():
    f = two_factor([(5, 4, 3), (2, 1, 0)], n=6, cycle_length=3)
    assert f.cycles == ((0, 1, 2), (3, 4, 5))
    assert sorted(factor_edges(f.cycles)) == sorted(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )


def test_one_factor_normalizes_and_sorts():
    assert one_factor([(3, 1), (0, 2)]).edges == ((0, 2), (1, 3))
    with pytest.raises(ValueError, match=r"^loop edge at vertex 1$"):
        one_factor([(1, 1)])


# ============================================================
# edge spaces
# ============================================================


def test_complete_graph_counts():
    g = complete_graph(9)
    assert g.vertex_count == 9
    assert g.edge_count() == 36
    assert len(list(g.edges())) == 36


def test_blowup4_is_m_k44_bundles():
    g = cycle_blowup4(5)
    assert g.vertex_count == 20
    assert g.edge_count() == 80
    edges = list(g.edges())
    assert len(edges) == len(set(edges)) == 80
    # all edges join cyclically adjacent parts
    for u, v in edges:
        assert (v // 4 - u // 4) % 5 in (1, 4)


def test_switch_graph_swaps_matching_for_part_cliques():
    m = 5
    g = switch_graph(m)
    assert g.edge_count() == 20 * m
    edges = set(g.edges())
    assert len(edges) == 20 * m
    removed = switch_matching_edges(m)
    assert len(removed) == 2 * m
    assert not edges.intersection(removed)
    # every within-part pair is present
    for p in range(m):
        assert (4 * p, 4 * p + 3) in edges


def test_equipartite_graph_excludes_within_part_pairs():
    g = equipartite_graph(4, 6)
    assert g.vertex_count == 24
    assert g.edge_count() == 16 * 15
    assert all(u // 4 != v // 4 for u, v in g.edges())
    assert equipartite_graph(4, 2).edge_count() == 16


def test_only_the_named_kinds_are_spaces():
    # every space is a closed-form simple graph; a literal edge list is none
    with pytest.raises(ValueError, match="unknown edge space kind"):
        EdgeSpace("explicit", (4,))
    # nor are params of another arity: no param is read past or in place of
    # the ones the kind names
    for kind, params in (("complete", (5, 6)), ("complete", ()), ("blowup4", (3, 4)), ("switch", ()),
                         ("equipartite", (3,)), ("equipartite", (1, 2, 3))):
        with pytest.raises(ValueError, match=rf"^{kind} params must have length [12], got "):
            EdgeSpace(kind, params)


def test_complete_graph_is_the_equipartite_graph_of_parts_of_one():
    """K_v is K_{1:v}: every answer of the two spaces agrees, membership
    included off the range and at ends that are not integral."""
    for v in range(13):
        complete, equipartite = complete_graph(v), equipartite_graph(1, v)
        assert complete.vertex_count == equipartite.vertex_count == v
        assert complete.edge_count() == equipartite.edge_count() == v * (v - 1) // 2
        assert list(complete.edges()) == list(equipartite.edges())
        assert complete.row_ends() == equipartite.row_ends()
        ends = [*range(-2, v + 2), 0.5, 2.0, 6.5]
        pairs = [(u, w) for u in ends for w in ends]
        assert list(map(complete.multiplicity(), pairs)) == list(map(equipartite.multiplicity(), pairs)), v


def test_parts_of_size_zero_give_an_empty_space():
    for b in range(6):
        space = equipartite_graph(0, b)
        assert space.vertex_count == space.edge_count() == 0
        assert list(space.edges()) == []
        assert space.multiplicity()((0, 1)) == 0


def test_negative_part_size_or_count_is_refused():
    # a negative part size or part count names no graph
    for a, b in ((-2, -3), (-1, 4), (3, -1), (0, -2)):
        with pytest.raises(ValueError, match="part size and part count of at least 0"):
            equipartite_graph(a, b)
    # K_v for v < 0 is still made, with no vertices and no edges
    for v in (-1, -3, -4):
        space = complete_graph(v)
        assert space.edge_count() == 0 and list(space.edges()) == [] and space.row_ends() == []


def test_part_is_the_dense_part_size_and_none_on_a_ring():
    # K_{0:b} stays dense: its part size 0 is not read as a ring's None
    assert complete_graph(7).part == 1
    assert equipartite_graph(3, 4).part == 3 and equipartite_graph(0, 4).part == 0
    assert cycle_blowup4(3).part is None and switch_graph(3).part is None


def _listable_spaces():
    yield from (complete_graph(n) for n in range(1, 11))
    yield from (equipartite_graph(a, b) for a in range(1, 5) for b in range(2, 6))
    for m in range(3, 10):
        yield cycle_blowup4(m)
        yield switch_graph(m)


def test_closed_forms_agree_with_the_listed_edges():
    # the reference oracle's per-kind listing is independent of EdgeSpace
    for space in _listable_spaces():
        listed = listed_edges(space)
        assert list(space.edges()) == sorted(listed), space
        n = space.vertex_count
        counts = Counter(listed)
        multiplicity = space.multiplicity()
        for u in range(n):
            for w in range(u + 1, n):
                assert multiplicity((u, w)) == counts[u, w], (space, u, w)
        assert space.edge_count() == len(listed), space


def test_a_ring_walks_its_edges_without_a_membership_test(monkeypatch):
    """A ring's sorted walk reads its neighbour table: it calls the
    membership test that ``multiplicity()`` returns for no candidate."""
    calls = []
    multiplicity = EdgeSpace.multiplicity

    def counted(space):
        member = multiplicity(space)
        return lambda edge: calls.append(edge) or member(edge)

    monkeypatch.setattr(EdgeSpace, "multiplicity", counted)
    for m in range(3, 10):
        for space in (cycle_blowup4(m), switch_graph(m)):
            assert len(list(space.edges())) == space.edge_count(), space
    assert calls == []


def test_a_blowup_space_holds_no_pair_off_its_range_or_reversed():
    blowup = cycle_blowup4(3).multiplicity()
    assert blowup((0, 12)) == blowup((-1, 0)) == 0
    assert switch_graph(3).multiplicity()((5, 3)) == 0


def test_a_pair_with_an_end_that_is_not_integral_is_no_edge():
    # 6.0 is read as the int it equals; 6.5 lies between two vertices
    complete = complete_graph(8).multiplicity()
    assert complete((0, 6.5)) == 0 and complete((0, 6.0)) == 1
    equipartite = equipartite_graph(4, 3).multiplicity()
    assert equipartite((0, 4.5)) == 0 and equipartite((0, 4.0)) == 1
    blowup, switch = cycle_blowup4(5).multiplicity(), switch_graph(5).multiplicity()
    assert blowup((0, 4.5)) == blowup((0.5, 4)) == 0 and blowup((0, 4.0)) == 1
    assert switch((0, 1.5)) == switch((0.5, 1)) == 0 and switch((0, 1.0)) == 1


def test_bitmap_marks_exactly_the_listed_edges():
    """Each vertex u of a dense space is joined, above itself, to exactly
    the vertices from its row end up to n; a ring has no row ends."""
    for space in [*_listable_spaces(), equipartite_graph(3, 1)]:
        if space.kind not in ("complete", "equipartite"):
            with pytest.raises(ValueError, match="no row ends"):
                space.row_ends()
            continue
        n = space.vertex_count
        above = [set() for _ in range(n)]
        for u, w in listed_edges(space):
            above[u].add(w)
        ends = space.row_ends()
        assert len(ends) == n, space
        assert [set(range(end, n)) for end in ends] == above, space


# ============================================================
# JSON codec
# ============================================================


def _tiny_solution() -> Solution:
    # 2-factorization of K_5: two Hamilton 5-cycles
    f1 = two_factor([(0, 1, 2, 3, 4)], 5, 5)
    f2 = two_factor([(0, 2, 4, 1, 3)], 5, 5)
    return Solution(v=5, factors=(f1, f2), m=5, r=0, s=2)


def test_encode_decode_round_trip():
    sol = _tiny_solution()
    data = encode_solution(sol)
    back = decode_solution(data)
    assert back == sol
    assert encode_solution(back) == data


def test_encoding_is_canonical_ascii_line():
    data = encode_solution(_tiny_solution())
    assert data.endswith(b"\n")
    assert data == data.strip() + b"\n"
    text = data.decode("ascii")
    assert json.loads(text)["v"] == 5
    # key order is sorted, whitespace-free
    assert text.index('"factors"') < text.index('"m"') < text.index('"v"')
    assert ": " not in text
    # written without json, the bytes of json's default dump
    matched = Solution(v=4, factors=(two_factor([(0, 1, 2, 3)], 4, 4),), r=1, s=0,
                       one_factor=one_factor([(0, 3), (1, 2)]))
    for sol in (_tiny_solution(), matched):
        doc = reference_codec.solution_to_doc(sol)
        default = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert encode_solution(sol) == (default + "\n").encode("ascii")


def test_encoding_names_only_the_listed_vertices_and_only_ints():
    # the table of names holds the ints the document lists, not 0..v-1
    v = 10 ** 9
    sol = Solution(v=v, factors=(two_factor([(0, 1, 2)], v, 3),))
    tracemalloc.start()
    try:
        data = encode_solution(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == b'{"factors":[{"cycle_length":3,"cycles":[[0,1,2]]}],"v":1000000000}\n'
    assert peak < 1 << 20
    for bad, error in (("1", ValueError), (1.5, ValueError), (None, ValueError),
                       (True, ValueError), ([1], TypeError)):
        for sol in (
            Solution(v=3, factors=(TwoFactor(cycles=((0, bad, 2),), n=3, cycle_length=3),)),
            Solution(v=4, factors=(), one_factor=OneFactor(((0, bad),))),
        ):
            with pytest.raises(error):
                encode_solution(sol)
    # the fields are written from the same table, so they are ints too; no
    # int named before them equals these values
    tri = two_factor([(4, 5, 6)], 7, 3)
    for sol in (
        Solution(v=7.0, factors=(tri,)),
        Solution(v=7, factors=(tri,), m="3"),
        Solution(v=7, factors=(tri,), r=False),
        Solution(v=7, factors=(TwoFactor(cycles=((4, 5, 6),), n=7, cycle_length=3.5),)),
    ):
        with pytest.raises(ValueError, match="is not an int"):
            encode_solution(sol)


def test_matching_survives_round_trip():
    f = two_factor([(0, 1, 2, 3)], 4, 4)
    sol = Solution(v=4, factors=(f,), r=1, s=0, one_factor=one_factor([(0, 3), (1, 2)]))
    back = decode_solution(encode_solution(sol))
    assert back.one_factor.edges == ((0, 3), (1, 2))


def test_decode_rejects_malformed_documents():
    with pytest.raises(DecodeError) as err:
        decode_solution(b"not json")
    assert err.value.code == "MalformedDocument"
    with pytest.raises(DecodeError) as err:
        decode_solution(json.dumps({"factors": []}))
    assert err.value.code == "MalformedDocument"
    with pytest.raises(DecodeError) as err:
        decode_solution(json.dumps([1, 2, 3]))
    assert err.value.code == "MalformedDocument"
    # json.loads fails past its nesting depth and on bytes that are no
    # UTF-8/16/32 text with errors other than JSONDecodeError
    for bad in ("[" * 100000 + "]" * 100000, b"\xff\xfe{", b"\x80abc"):
        with pytest.raises(DecodeError) as err:
            decode_solution(bad)
        assert err.value.code == "MalformedDocument"
    # past Python's int digit limit json.loads raises, and the decoder quotes
    # json's own text; without one the vertex is decoded and out of range
    text = '{"v":12,"factors":[{"cycles":[[0,1,' + "9" * 5000 + ']]}]}'
    try:
        json.loads(text)
        want = "VertexOutOfRange"
    except ValueError as exc:
        want = f"MalformedDocument: {exc}"
    with pytest.raises(DecodeError) as err:
        decode_solution(text)
    assert str(err.value).startswith(want)
    # JSON booleans are not integers, wherever an integer is expected
    tri = {"cycle_length": 3, "cycles": [[0, 1, 2]]}
    for bad in (
        {"v": True, "factors": []},
        {"v": 3, "factors": [{"cycle_length": True, "cycles": [[0, 1, 2]]}]},
        {"v": 3, "r": False, "factors": [tri]},
        {"v": 3, "s": True, "factors": [tri]},
        {"v": 3, "m": True, "factors": [tri]},
        # a factor's cycles must be a list, not a number or a string
        {"v": 12, "factors": [{"cycles": 5}]},
        {"v": 12, "factors": [{"cycles": "abc"}]},
    ):
        with pytest.raises(DecodeError) as err:
            decode_solution(json.dumps(bad))
        assert err.value.code == "MalformedDocument"
    with pytest.raises(DecodeError) as err:
        decode_solution(json.dumps({"v": 4, "factors": [], "one_factor": [[0, True], [2, 3]]}))
    assert err.value.code == "VertexOutOfRange"
    # lists of the wrong shape, named alike by the reference decoder
    for bad, message in (
        ({"v": 4, "factors": {}}, "factors must be a list"),
        ({"v": 4, "factors": [], "one_factor": {"0": 1}}, "one_factor must be a list"),
        ({"v": 4, "factors": [], "one_factor": [[0, 1, 2]]}, "bad matching edge [0, 1, 2]"),
        ({"v": 4, "factors": [], "one_factor": [3]}, "bad matching edge 3"),
        ({"v": 4, "factors": [], "one_factor": [[1, 1]]}, "loop matching edge [1, 1]"),
    ):
        for decode in (lambda doc: decode_solution(json.dumps(doc)), reference_codec.doc_to_solution):
            with pytest.raises(DecodeError) as err:
                decode(bad)
            assert (err.value.code, str(err.value)) == ("MalformedDocument", f"MalformedDocument: {message}")


def test_decode_rejects_bad_cycles():
    def doc(cycles):
        return json.dumps({"v": 6, "factors": [{"cycle_length": 3, "cycles": cycles}]})

    with pytest.raises(DecodeError) as err:
        decode_solution(doc([[0, 1]]))
    assert err.value.code == "CycleTooShort"
    with pytest.raises(DecodeError) as err:
        decode_solution(doc([[0, 1, 6]]))
    assert err.value.code == "VertexOutOfRange"
    with pytest.raises(DecodeError) as err:
        decode_solution(doc([[0, 1, 1]]))
    assert err.value.code == "DuplicateVertex"
    with pytest.raises(DecodeError) as err:
        decode_solution(doc([[0, 2, True]]))
    assert err.value.code == "VertexOutOfRange"


def test_decode_rejects_inconsistent_declared_counts():
    doc = {
        "v": 5,
        "r": 1,
        "s": 2,
        "factors": [{"cycle_length": 5, "cycles": [[0, 1, 2, 3, 4]]}],
    }
    with pytest.raises(DecodeError) as err:
        decode_solution(json.dumps(doc))
    assert err.value.code == "FactorCountMismatch"


def test_doc_cycles_are_sorted_canonical():
    sol = _tiny_solution()
    doc = json.loads(encode_solution(sol))
    for entry in doc["factors"]:
        cycles = [tuple(c) for c in entry["cycles"]]
        assert cycles == sorted(canonicalize_cycle(c) for c in cycles)


# ============================================================
# the vertex view
# ============================================================


def _pentagons(v=5):
    """K_5 as two Hamilton cycles."""
    cycles = ((0, 1, 2, 3, 4), (0, 2, 4, 1, 3))
    return Solution(v=v, factors=tuple(TwoFactor((c,), 5, 5) for c in cycles))


def test_only_a_packed_solution_has_a_vertex_view():
    sol = _pentagons()
    packed = packed_solution(5, None, None, None, _rows(sol), None)
    view = vertex_view(packed)
    assert packed == sol and view == (bytes([0, 1, 2, 3, 4, 0, 2, 4, 1, 3]), ((5, 1), (5, 1)))
    assert vertex_view(packed) is view and vars(packed)["_view"] is view  # made once, kept on the Solution
    for other in (sol, replace(packed), decode_solution(encode_solution(packed)), _pentagons(v=256)):
        assert vertex_view(other) is None and "_view" not in vars(other)


def test_no_code_but_packed_solution_makes_a_vertex_view():
    """Every ``VertexView`` call and every mention of ``_view`` in the
    package lies in ``packed_solution``, but the one read in ``vertex_view``."""
    places = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node's innermost function: ast.walk reaches an outer def first
        owner = {node: f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VertexView":
                places.append((path.name, owner.get(node), "VertexView"))
            elif isinstance(node, ast.Constant) and node.value == "_view":
                places.append((path.name, owner.get(node), "_view"))
    assert sorted(places) == [
        ("model.py", "packed_solution", "VertexView"),
        ("model.py", "packed_solution", "_view"),
        ("model.py", "vertex_view", "_view"),
    ]


@pytest.mark.parametrize("v", [0, -1, 257, 2 ** 70, True, 5.0, None])
def test_the_vertex_view_is_never_made_outside_orders_1_to_256(v):
    sol = _pentagons(v=v)
    assert vertex_view(sol) is None and "_view" not in vars(sol)


def test_the_shapes_are_each_rows_cycle_length_and_cycle_count():
    rows = [(3, None, bytes(range(6))), (3, 3, b""), (6, 4, bytes(range(6)))]  # k as listed, not as declared
    assert vertex_view(packed_solution(6, None, None, None, rows, None)).shapes == ((3, 2), (0, 0), (6, 1))


# ============================================================
# solutions packed from bytes
# ============================================================


def _rows(sol):
    """Each factor of ``sol`` as a row (k, declared length, bytes)."""
    return [(len(f.cycles[0]), f.cycle_length, bytes(chain.from_iterable(f.cycles))) for f in sol.factors]


def _twin(v, m, r, s, rows, matching):
    """The Solution of the same cycles, built through ``two_factor``."""
    factors = (two_factor(zip(*[iter(data)] * k), v, length) for k, length, data in rows)
    return Solution(v, tuple(factors), m, r, s, matching)


@pytest.mark.parametrize("v, rows", [
    (8, [(4, 4, bytes(range(7)))]),  # not a multiple of k
    (8, [(4, 4, bytes(range(8))), (3, 3, bytes(range(4)))]),
    (8, [(2, 2, bytes(range(8)))]),  # k < 3
    (8, [(0, 3, b"")]),
    (0, [(4, 4, bytes(range(8)))]),  # v outside 1..256
    (257, [(4, 4, bytes(range(8)))]),
    (-1, []),
    (8, [(4, 4, bytearray(range(8)))]),  # not bytes
    (8, [(4, 4, list(range(8)))]),
    (8, [(4, 4, "01234567")]),
])
def test_a_packed_solution_refuses_rows_that_are_not_cycles_of_bytes(v, rows):
    with pytest.raises(ValueError):
        packed_solution(v, None, None, None, rows, None)


def _packed_cases():
    k5, k8, sol = hamilton_decomposition(5), hamilton_decomposition(8), _pentagons()
    swapped = [(5, 5, b"\0\3\1\2\4"), *_rows(k5)[1:]]  # factor 0 no longer tiles with factor 1
    return {
        "k5": (5, 5, 0, 2, _rows(k5), None),
        "k8_minus_i": (8, 8, 0, 3, _rows(k8), k8.one_factor),
        "triangles_and_squares": (12, 3, 1, 1, [(4, 4, bytes(range(12))), (3, 3, bytes(range(12)))], None),
        "not_a_tiling": (5, 5, 0, 2, swapped, None),
        "declared_4_listed_5": (5, None, 2, 0, [(5, 4, data) for _, _, data in _rows(k5)], None),
        "no_cycles": (5, 5, 0, 2, [_rows(k5)[0], (5, 5, b"")], None),
        "odd_order_with_a_matching": (5, 5, 0, 2, _rows(sol), one_factor([(0, 1)])),
    }


@pytest.mark.parametrize("name", sorted(_packed_cases()))
def test_a_packed_solution_encodes_and_verifies_as_its_cycles_through_two_factor(name, monkeypatch):
    case = _packed_cases()[name]
    sol, twin = packed_solution(*case), _twin(*case)
    assert sol == twin  # the same fields, every cycle canonical and sorted as given
    assert {type(c) for f in sol.factors for c in f.cycles} <= {tuple}
    assert {type(u) for f in sol.factors for c in f.cycles for u in c} <= {int}
    view = vertex_view(sol)
    assert vars(sol)["_view"] is view and vertex_view(twin) is vertex_view(replace(sol)) is None
    byte_text, written = model._byte_text, []

    def recorded(*args):
        written.append(byte_text(*args))
        return written[-1]

    monkeypatch.setattr(model, "_byte_text", recorded)
    data = encode_solution(sol)
    assert data == encode_solution(twin) == reference_codec.encode_solution(twin)
    assert (written[0] is not None) == all(k for k, _ in view.shapes)
    assert verify_solution(sol) == verify_solution(twin)
