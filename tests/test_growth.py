"""Inputs on which elimination by plain Euclid steps, in a Smith normal
form or in an echelon form whose rows are not size-reduced, lets entries
grow without bound: the pinned repro (data/growth_repro.tcx, at the
default D = 12), four random problems at D = 8 (data/fuzz_p*.tcx, draws
44, 78, 154 and 199 of the seeded library-fuzz stream), and a Gysin
input whose lattice echelon grew (data/hermite_growth.tcx).

Each case runs the calls a library user makes on one problem under a
2 s budget, pins the Tor table, and checks the pinned table against
oracles that share no code with bigtor's elimination: Fraction ranks
for the ranks, and F_p ranks for the torsion, since rank_Q - rank_Fp of
d_in counts the invariant factors divisible by p.

The Gysin cases run the long exact sequence check at D = 12 on these
inputs, with the splits whose presentations would otherwise drown in
eliminable unit relations (each ran for more than 60 s, or 24 s for
fuzz_p078 with split 2, before presentations were pruned), and with
the splits whose exactness check ran into lattice growth (fuzz_p044
with split 3 took about 20 s, hermite_growth with split 3 ran past
120 s at D = 8, before Lattice size-reduced its rows), under the same
budget.  They also record the largest bit length of any Lattice basis
entry after every insertion and Hermite reduction, and hold it to
MAX_LATTICE_BITS, so that growth shows as a failed bound before it shows
as a hang (47 bits on hermite_growth with split 3, 31 on fuzz_p044 with
split 3, 24 on fuzz_p078 with split 2).
"""

import pytest

from bigtor.gysin import GysinData, connecting_map_check, verify_exactness
from bigtor.intlinalg import Lattice
from bigtor.koszul_tor import (
    KoszulComplex,
    euler_discrepancies,
    regular_sequence_check,
    tor_piece,
    tor_table,
    verdicts,
)
from bigtor.stanley_reisner import LinearForm

import oracles
from conftest import load_problem

BUDGET_S = 2.0
MAX_LATTICE_BITS = 64
PRIMES = (2, 3, 5, 7, 11, 13)

# name -> (D, nonzero Tor pieces {(p, j): (rank, torsion)})
CASES = {
    "growth_repro": (12, {
        (0, 0): (1, []), (0, 2): (2, []), (0, 4): (2, []), (0, 6): (2, []),
        (0, 8): (2, []), (0, 10): (2, []), (0, 12): (2, []),
    }),
    "fuzz_p044": (8, {
        (0, 0): (1, []), (0, 2): (0, [45]), (0, 4): (0, [45]), (0, 6): (0, [45]),
        (0, 8): (0, [45]),
    }),
    "fuzz_p078": (8, {
        (0, 0): (1, []), (0, 2): (2, []), (0, 4): (0, [175]), (0, 6): (0, [175]),
        (0, 8): (0, [175]), (1, 6): (1, []),
    }),
    "fuzz_p154": (8, {
        (0, 0): (1, []), (0, 2): (0, [33]), (0, 4): (0, [33]), (0, 6): (0, [33]),
        (0, 8): (0, [33]),
    }),
    "fuzz_p199": (8, {
        (0, 0): (1, []), (0, 2): (1, []), (0, 4): (1, []), (0, 6): (1, []),
        (0, 8): (1, []),
    }),
}


def test_budget_fails_a_hang(budget):
    with pytest.raises(pytest.fail.Exception):
        with budget(0.05):
            while True:
                pass


@pytest.mark.parametrize("name", sorted(CASES))
def test_growth_case_finishes_with_pinned_table(name, budget):
    D, expected = CASES[name]
    with budget(BUDGET_S):
        problem = load_problem(name)
        table = tor_table(problem.complex, problem.B, D)
        report = verdicts(table)
        regular = regular_sequence_check(problem.complex, problem.B, D)
        euler = euler_discrepancies(problem.complex, problem.B, table)
    got = {(p, j): (z.rank, list(z.torsion)) for p, j, z in table.entries()}
    assert got == expected
    assert regular.regular == report.bigcm.holds()
    assert euler == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_growth_case_matches_rank_oracles(name):
    D, expected = CASES[name]
    problem = load_problem(name)
    S = problem.B
    kc = KoszulComplex(problem.complex, [LinearForm(S.row_coefficients(i)) for i in range(S.n)])
    for j in range(0, D + 1, 2):
        ranks = [oracles.rational_rank(kc.differential(p, j).to_lists()) for p in range(S.n + 2)]
        for p in range(S.n + 1):
            rank, torsion = expected.get((p, j), (0, []))
            assert kc.chain_dim(p, j) - ranks[p] - ranks[p + 1] == rank, (p, j)
            d_in = kc.differential(p + 1, j).to_lists()
            for prime in PRIMES:
                divisible = sum(1 for d in torsion if d % prime == 0)
                assert ranks[p + 1] - oracles.fp_rank(d_in, prime) == divisible, (p, j, prime)


# (name, 1-based split row), all at D = 12
GYSIN_CASES = [
    ("growth_repro", 1), ("growth_repro", 2),
    ("fuzz_p154", 1), ("fuzz_p154", 2), ("fuzz_p154", 3),
    ("fuzz_p078", 2),
    ("fuzz_p044", 2), ("fuzz_p044", 3),
    ("hermite_growth", 3),
]


def record_lattice_bits(monkeypatch):
    """Patch Lattice.add and Lattice.hermite to record, after each call,
    the largest bit length of an entry of the basis; returns a list whose
    one item is the running maximum."""
    most = [0]
    for name in ("add", "hermite"):
        def recorded(self, *args, _original=getattr(Lattice, name)):
            result = _original(self, *args)
            bits = max((abs(x).bit_length() for row in self.basis for x in row.values()), default=0)
            most[0] = max(most[0], bits)
            return result

        monkeypatch.setattr(Lattice, name, recorded)
    return most


@pytest.mark.parametrize("name, split", GYSIN_CASES, ids=[f"{n}-split{k}" for n, k in GYSIN_CASES])
def test_gysin_growth_case_finishes(name, split, budget, monkeypatch):
    problem = load_problem(name)
    K, S_ext = problem.complex, problem.B
    bits = record_lattice_bits(monkeypatch)
    with budget(BUDGET_S):
        G = GysinData(K, S_ext, 12, split=split - 1)
        report = verify_exactness(G)
        connecting = connecting_map_check(G)
    assert 0 < bits[0] <= MAX_LATTICE_BITS, bits[0]
    assert report.all_pass
    assert connecting and all(connecting.values())
    for node in report.nodes:
        if node.j < 0:
            continue
        if node.term == "tor_ext" and 0 <= node.p <= S_ext.n:
            assert node.group == tor_piece(K, S_ext, node.p, node.j), (node.p, node.j)
        if node.term == "tor_base" and 0 <= node.p <= G.n:
            assert node.group == tor_piece(K, G.S_base, node.p, node.j), (node.p, node.j)
