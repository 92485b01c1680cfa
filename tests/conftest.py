import itertools

import pytest

from conjtri.construct import require_conjugated
from conjtri.graphio import parse_graph_file
from conjtri.graphs import UndirectedGraph
from conjtri.scan import GenRecipe, generate_corpus


def octahedron() -> UndirectedGraph:
    # antipodal pairs (0,5), (1,3), (2,4)
    return UndirectedGraph(
        6,
        [
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 2), (2, 3), (3, 4), (4, 1),
            (5, 1), (5, 2), (5, 3), (5, 4),
        ],
    )


@pytest.fixture(scope="session")
def named_graphs():
    return {
        "triangle": UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)]),
        "path4": UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)]),
        "c4": UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "c5": UndirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        "k4": UndirectedGraph(4, list(itertools.combinations(range(4), 2))),
        "k5": UndirectedGraph(5, list(itertools.combinations(range(5), 2))),
        "octahedron": octahedron(),
        "bowtie": UndirectedGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
        "petersen": UndirectedGraph(
            10,
            [
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            ],
        ),
    }


def validated_corpus(recipe: GenRecipe) -> list:
    """``generate_corpus(recipe)`` with every file parsed and validated, as
    (id, ConjugatedTriangulation) pairs.  Generation does not validate its
    output, so each test built on this re-proves that it is valid."""
    return [
        (iid, require_conjugated(*parse_graph_file(blob)))
        for iid, blob in generate_corpus(recipe)
    ]


@pytest.fixture(scope="session")
def default_corpus():
    """The full generated corpus used by the acceptance gate: 9 insert
    counts x 4 subdivision counts x 3 replicates = 108 instances."""
    return validated_corpus(GenRecipe())


@pytest.fixture(scope="session")
def small_corpus():
    return validated_corpus(
        GenRecipe(inserts=(0, 1, 2), subdivisions=(0, 2), replicates=2, base_seed=11)
    )
