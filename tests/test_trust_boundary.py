"""The trust boundary of intlinalg (ROADMAP item 14).

Lattice(...), Lattice.add, coordinates, in, SnfSolver.solve, IntMatrix(...)
and SubgroupData check what they are handed and refuse bad input with
InputError; the tests of those refusals live with each type.  The
engine's own traffic goes through private entries that do not check:
Lattice._of, Lattice._insert, Lattice._coordinates,
HomologyPresentation._coordinates and IntMatrix._of.  Here each is
wrapped with the public checks (a dict vector of nonzero int entries at
int columns in [0, n), chains included; a matrix of such rows), and the
corpus commands, seeded library problems and the Gysin growth cases run
through them: no vector the engine builds may fail a check, so skipping
the checks there loses nothing.
"""

import contextlib
import io
import random

import pytest

from bigtor import cli
from bigtor.gysin import GysinData, connecting_map_check, verify_exactness
from bigtor.intlinalg import HomologyPresentation, IntMatrix, Lattice
from bigtor.koszul_tor import (
    euler_discrepancies,
    regular_sequence_check,
    tor1_witness,
    tor_table,
    verdicts,
)

from conftest import load_problem
from test_golden import ROOT, sweep_command_lines
from test_growth import GYSIN_CASES
from test_regular_sequence import random_problem


def bad_vector(vec, n) -> bool:
    """Whether vec fails the public checks: a dict of nonzero int entries
    at int columns in [0, n)."""
    return type(vec) is not dict or not all(
        type(c) is int and 0 <= c < n and type(x) is int and x for c, x in vec.items())


@pytest.fixture
def checked(monkeypatch):
    """Wrap the private entries with the public checks; returns a dict
    entry name -> [calls, violations]."""
    seen = {name: [0, []] for name in ("Lattice._of", "Lattice._insert", "Lattice._coordinates",
                                       "HomologyPresentation._coordinates", "IntMatrix._of")}

    def record(name, bad, what):
        seen[name][0] += 1
        if bad:
            seen[name][1].append(what)

    lattice_of = Lattice.__dict__["_of"].__func__
    insert, coordinates = Lattice._insert, Lattice._coordinates
    chain_coordinates = HomologyPresentation._coordinates
    matrix_of = IntMatrix.__dict__["_of"].__func__

    def of(cls, n, vectors=()):
        record("Lattice._of", type(n) is not int or n < 0, n)
        return lattice_of(cls, n, vectors)

    def checked_insert(self, vec):
        record("Lattice._insert", bad_vector(vec, self.n), (vec, self.n))
        return insert(self, vec)

    def checked_coordinates(self, vec):
        record("Lattice._coordinates", bad_vector(vec, self.n), (vec, self.n))
        return coordinates(self, vec)

    def checked_chain(self, cycle):
        n = len(self.boundaries.free) + len(self.boundaries.pivots)
        record("HomologyPresentation._coordinates", bad_vector(cycle, n), (cycle, n))
        return chain_coordinates(self, cycle)

    def checked_matrix(cls, rows, cols, entries):
        entries = tuple(entries)
        bad = (type(rows) is not int or type(cols) is not int or min(rows, cols) < 0
               or len(entries) != rows or any(bad_vector(row, cols) for row in entries))
        record("IntMatrix._of", bad, (rows, cols))
        return matrix_of(cls, rows, cols, entries)

    monkeypatch.setattr(Lattice, "_of", classmethod(of))
    monkeypatch.setattr(Lattice, "_insert", checked_insert)
    monkeypatch.setattr(Lattice, "_coordinates", checked_coordinates)
    monkeypatch.setattr(HomologyPresentation, "_coordinates", checked_chain)
    monkeypatch.setattr(IntMatrix, "_of", classmethod(checked_matrix))
    return seen


def assert_clean(seen):
    assert {name: violations[:3] for name, (_, violations) in seen.items() if violations} == {}
    assert all(calls for calls, _ in seen.values()), {name: calls for name, (calls, _) in seen.items()}


def test_corpus_commands_stay_inside_the_trust_boundary(checked, monkeypatch):
    # every command of the digest sweep (D = 6, every input of tests/data
    # and perfbench/inputs), with --json; exit 1 is a refused input, never
    # an engine vector
    monkeypatch.chdir(ROOT)
    codes = set()
    for argv in sweep_command_lines():
        if "--json" in argv:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.add(cli.main(argv))
    assert codes <= {0, 1}
    assert_clean(checked)


def test_library_problems_stay_inside_the_trust_boundary(checked, budget):
    # the library-fuzz calls, and the Tor_1 witness where big CM fails
    rng = random.Random(1438)
    with budget(5):
        for _ in range(60):
            spec = cli.parse_problem(random_problem(rng))
            K, S = spec.complex, spec.B
            table = tor_table(K, S, 8)
            bigcm = verdicts(table).bigcm
            assert regular_sequence_check(K, S, 8).regular == bigcm.holds()
            assert euler_discrepancies(K, S, table) == []
            assert bigcm.holds() or tor1_witness(K, S, table) is not None
    assert_clean(checked)


def test_gysin_growth_cases_stay_inside_the_trust_boundary(checked, budget):
    with budget(10):
        for name, split in GYSIN_CASES:
            problem = load_problem(name)
            G = GysinData(problem.complex, problem.B, 12, split=split - 1)
            assert verify_exactness(G).all_pass
            assert all(connecting_map_check(G).values())
    assert_clean(checked)
