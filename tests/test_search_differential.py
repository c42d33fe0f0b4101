"""The bitmask search engine against its reference oracle.

``reference_search`` keeps the set-based engine.  Both must walk the same
search tree in the same order, so on every instance here they must return
the same status, the same node count, and the same factors and matching.
The instances cover exact covers and leftover matchings, complete,
blow-up and equipartite ambients, found and exhaustive unsat outcomes, and
the ``canonical_first`` cut both on and off.
"""

import pytest
import reference_search as oracle

from hwp4m.model import complete_graph, equipartite_graph
from hwp4m.search import (
    SearchInstance,
    c4_cm3_split_instance,
    cm_factorization_instance,
    equipartite_instance,
    solve,
)

# the one instance with mixed slot lengths, over a leftover matching: K_12
# minus a matching into one C4-factor and four C3-factors
MIXED_SPECS = SearchInstance("hwp12", complete_graph(12), ((4, 1), (3, 4)), canonical_first=True)


def _agree(instance):
    new, old = solve(instance), oracle.solve(instance)
    assert (new.status, new.nodes) == (old.status, old.nodes)
    assert new.solution == old.solution  # the same factors and matching, or None for both
    return new


@pytest.mark.parametrize(
    "instance, status",
    [
        (cm_factorization_instance(9, 3), "found"),
        (cm_factorization_instance(10, 5), "found"),
        (MIXED_SPECS, "found"),
        (c4_cm3_split_instance(3), "unsat"),
        (cm_factorization_instance(6, 3), "unsat"),
        (equipartite_instance(4, 3, 3), "found"),
    ],
    ids=lambda x: getattr(x, "name", x),
)
def test_engine_matches_the_oracle(instance, status):
    assert _agree(instance).status == status


def test_no_first_cycle_through_vertex_0_is_unsat_before_any_node():
    # K_{3,3} has no triangle, so canonical_first finds no first cycle
    instance = SearchInstance("k33-triangles", equipartite_graph(3, 2), ((3, 1),), canonical_first=True)
    for engine in (solve, oracle.solve):
        outcome = engine(instance)
        assert (outcome.status, outcome.nodes) == ("unsat", 0)


def test_engine_matches_the_oracle_without_the_symmetry_cut():
    inst = cm_factorization_instance(9, 3)
    _agree(SearchInstance("kts9-uncut", inst.space, inst.factor_specs))


@pytest.mark.slow
@pytest.mark.parametrize("n, m", [(15, 5), (14, 7)])
def test_engine_matches_the_oracle_on_the_searched_outers(n, m):
    assert _agree(cm_factorization_instance(n, m)).status == "found"
