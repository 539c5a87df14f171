"""Metamorphic relations of the Tor table.

Tor of the face ring over the linear subring does not see how the
problem is written down: relabelling the vertices (with B's columns
permuted to match), changing B's rows by a unimodular matrix, and adding
a ghost vertex (in no face, with a zero column in B) must leave every
piece of the table unchanged.  Each relation runs on the corpus and on
the orbifold octahedron at D = 8, under a time budget.
"""

import random

import pytest

from bigtor.cli import parse_problem
from bigtor.koszul_tor import tor_table
from bigtor.simplicial import SubgroupData, build_complex

from conftest import CORPUS_NAMES, from_lists, load_problem

D = 8
BUDGET_S = 5.0

# the boundary of the octahedron with a B whose entries 2 and 3 allow torsion
ORBIFOLD_OCTAHEDRON = """\
m = 6
faces = {1 2 3} {1 2 6} {1 5 3} {1 5 6} {4 2 3} {4 2 6} {4 5 3} {4 5 6}
B = [1 0 0 -2 0 0 ; 0 2 0 0 -1 0 ; 0 0 1 0 0 -3]
"""

NAMES = CORPUS_NAMES + ["octahedron_orbifold"]


def problem_of(name):
    problem = parse_problem(ORBIFOLD_OCTAHEDRON) if name == "octahedron_orbifold" else load_problem(name)
    return problem.complex, problem.B


def relabelled(K, S, perm):
    """Vertex v becomes perm[v - 1]; column v of B moves along with it."""
    faces = [tuple(perm[v - 1] for v in face) for face in K.face_vertices()]
    rows = [[0] * K.m for _ in range(S.n)]
    for r, row in enumerate(S.B.to_lists()):
        for v in range(K.m):
            rows[r][perm[v] - 1] = row[v]
    return build_complex(K.m, faces), SubgroupData(from_lists(rows, cols=K.m))


def random_unimodular(rng, n):
    """A product of row additions, swaps and negations: det U = +-1."""
    U = [[int(i == k) for k in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            factor = rng.choice((-2, -1, 1, 2))
            U[a] = [x + factor * y for x, y in zip(U[a], U[b])]
            U[a], U[b] = U[b], U[a]
        else:
            U[a] = [-x for x in U[a]]
    return from_lists(U, cols=n)


@pytest.mark.parametrize("name", NAMES)
def test_vertex_relabelling_leaves_table_unchanged(name, budget):
    with budget(BUDGET_S):
        K, S = problem_of(name)
        rng = random.Random("relabel " + name)
        identity = list(range(1, K.m + 1))
        perm = identity[:]
        while perm == identity:
            rng.shuffle(perm)
        K2, S2 = relabelled(K, S, perm)
        assert K2 != K or S2 != S
        assert tor_table(K2, S2, D).table == tor_table(K, S, D).table


@pytest.mark.parametrize("name", NAMES)
def test_unimodular_row_change_leaves_table_unchanged(name, budget):
    with budget(BUDGET_S):
        K, S = problem_of(name)
        U = random_unimodular(random.Random("rows " + name), S.n)
        S2 = SubgroupData(U.mul(S.B))
        assert S2.B != S.B
        assert tor_table(K, S2, D).table == tor_table(K, S, D).table


@pytest.mark.parametrize("name", NAMES)
def test_ghost_vertex_leaves_table_unchanged(name, budget):
    with budget(BUDGET_S):
        K, S = problem_of(name)
        K2 = build_complex(K.m + 1, K.face_vertices())
        S2 = SubgroupData(from_lists([row + [0] for row in S.B.to_lists()], cols=K.m + 1))
        assert tor_table(K2, S2, D).table == tor_table(K, S, D).table
