"""The decoder against its reference oracle.

``reference_codec`` keeps the per-vertex ``doc_to_solution``.  On every
document here both must return the same ``Solution``, or raise a
``DecodeError`` with the same code and text.  The documents are valid
solutions and blocks, seeded single edits of their cycles (a bool, float,
nested-list, negative or out-of-range vertex, a short or non-list cycle, a
duplicate vertex, an empty factor), pairs of edits whose first faulty
cycle differs in kind from a later one, in one factor or in two, and
rotated or reversed cycles, which take the decoder off its bulk proof that
a factor is already canonical.
"""

import copy
import json
import random

import pytest
import reference_codec as oracle

from hwp4m.blocks import c4_block, cm_block, mixed_block, switch_block
from hwp4m.composer import build
from hwp4m.k24 import k24_solution
from hwp4m.model import DecodeError, Solution, canonicalize_cycle, doc_to_solution, encode_solution
from hwp4m.outer import walecki


def _outcome(decode, doc):
    try:
        return decode(doc)
    except DecodeError as exc:
        return ("DecodeError", exc.code, str(exc))


def _agree(doc):
    new = _outcome(doc_to_solution, copy.deepcopy(doc))
    assert new == _outcome(oracle.doc_to_solution, copy.deepcopy(doc))
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
    """An int subclass other than bool: the scan accepts it as a vertex."""


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
    else:
        raise ValueError(kind)


def _somewhere(doc, rng):
    fi = rng.randrange(len(doc["factors"]))
    return fi, rng.randrange(len(doc["factors"][fi]["cycles"]))


CYCLE_KINDS = (*VERTEX_EDITS, "short", "non_list", "duplicate", "empty_factor", "label")


def test_valid_solution_and_block_documents_decode_alike():
    for doc in BASES:
        assert not isinstance(_agree(doc), tuple)


@pytest.mark.parametrize("kind", CYCLE_KINDS)
def test_seeded_cycle_edits_decode_alike(kind):
    rng = random.Random(f"cycle-{kind}")
    for doc in BASES:
        for _ in range(6):
            edited = copy.deepcopy(doc)
            _edit_cycle(edited, rng, kind, *_somewhere(edited, rng))
            _agree(edited)


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
