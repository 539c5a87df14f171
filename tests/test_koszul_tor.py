import gc
import itertools
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import weakref

import pytest

import bigtor
from bigtor.cli import parse_problem
from bigtor.errors import InputError
from bigtor.gysin import GysinData
from bigtor.intlinalg import IntMatrix, ZModule
from bigtor.koszul_tor import (
    KoszulComplex,
    depth_estimate,
    euler_discrepancies,
    expected_euler_characteristic,
    rational_tor_ranks,
    regular_sequence_check,
    tor1_witness,
    tor_table,
    verdicts,
)
from bigtor.simplicial import SubgroupData, build_complex
from bigtor.stanley_reisner import (
    Polynomial,
    forms_of,
    hilbert_coefficient,
    monomial_basis,
    reduce,
)

import oracles
from conftest import DATA_DIR, cross4, from_lists, tor0_oracle
from test_regular_sequence import random_problem


def koszul_of(problem):
    return KoszulComplex(problem.complex, forms_of(problem.B))


def test_differential_squares_to_zero(corpus_problem):
    _, problem = corpus_problem
    kc = koszul_of(problem)
    n = problem.B.n
    for p in range(n + 1):
        for j in (4, 8):
            assert kc.differential(p, j).mul(kc.differential(p + 1, j)).is_zero()


def formula_differential(K, forms, p, j):
    """d: C_{p,j} -> C_{p-1,j} as dense rows, straight from the defining
    formula d(a xi_S) = sum_{i in S} (-1)^{#{s in S : s < i}} (u_i a) xi_{S - i},
    with each product u_i a taken in Z[K] by Polynomial arithmetic."""
    n = len(forms)

    def chain_basis(q):
        if q < 0 or q > n or j - 2 * q < 0:
            return []
        monomials = monomial_basis(K, j - 2 * q)
        return [(S, mono) for S in itertools.combinations(range(1, n + 1), q) for mono in monomials]

    source, target = chain_basis(p), chain_basis(p - 1)
    row_of = {key: r for r, key in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for c, (S, mono) in enumerate(source):
        a = Polynomial.monomial(K.m, mono)
        for i in S:
            sign = (-1) ** sum(1 for s in S if s < i)
            T = tuple(s for s in S if s != i)
            for exp, coeff in reduce(K, forms[i - 1].as_polynomial() * a).terms.items():
                rows[row_of[(T, exp)]][c] += sign * coeff
    return rows, len(source)


def test_sparse_differential_matches_formula(corpus_problem):
    _, problem = corpus_problem
    kc = koszul_of(problem)
    for p in range(problem.B.n + 2):
        for j in range(0, 9, 2):
            d = kc.differential(p, j)
            rows, cols = formula_differential(problem.complex, kc.forms, p, j)
            assert (d.rows, d.cols) == (len(rows), cols), (p, j)
            assert d.to_lists() == rows, (p, j)
            assert all(all(row.values()) for row in d.sparse_rows()), "stored zero"


OCTAHEDRON = """\
m = 6
faces = {1 2 3} {1 2 6} {1 5 3} {1 5 6} {4 2 3} {4 2 6} {4 5 3} {4 5 6}
B = [1 0 0 -1 0 0 ; 0 1 0 0 -1 0 ; 0 0 1 0 0 -1]
"""


def fresh_cli_run(tmp_path, command, D):
    """`bigtor command` on the octahedron in a fresh interpreter, so the
    peak resident set (VmHWM) is the command's own; (exit code, VmHWM kB)."""
    path = tmp_path / "octahedron.tcx"
    path.write_text(OCTAHEDRON)
    script = textwrap.dedent("""\
        import contextlib, io, sys
        from bigtor import cli
        command, path, D = sys.argv[1:]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--input", path, "--max-degree", D, "--json"])
        hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM"))
        print(code, int(hwm.split()[1]))
    """)
    src = str(pathlib.Path(bigtor.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script, command, str(path), str(D)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    code, hwm_kb = map(int, proc.stdout.split())
    return code, hwm_kb


def test_octahedron_tor_at_degree_24_is_fast_and_small(tmp_path, budget):
    with budget(5):
        code, hwm_kb = fresh_cli_run(tmp_path, "tor", 24)
    assert code == 0
    assert hwm_kb < 30 * 1024


def test_octahedron_check_bigcm_at_degree_24_is_fast_and_small(tmp_path, budget):
    # the regular-sequence scan works on quotients, never on the ideal's
    # full-space kernels (which took 70 MB here)
    with budget(5):
        code, hwm_kb = fresh_cli_run(tmp_path, "check-bigcm", 24)
    assert code == 0
    assert hwm_kb < 30 * 1024


def test_orbifold_octahedron_table_at_degree_32_is_fast(budget):
    # every residual here is torsion-heavy and nearly a graph incidence
    # matrix; its invariant factors are all 2
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    problem = parse_problem((path / "octahedron_orbifold.tcx").read_text())
    K, S = problem.complex, problem.B
    with budget(2):
        table = tor_table(K, S, 32)
    assert euler_discrepancies(K, S, table) == []
    ranks = rational_tor_ranks(K, S, 32)
    assert {key: table.piece(*key).rank for key in ranks} == ranks
    assert str(verdicts(table).bigcm) == "FAILS(p=1, j=8, group=Z/2)"


def test_koszul_complex_is_freed(corpus):
    problem = corpus["prod1212"]
    kc = koszul_of(problem)
    before = KoszulComplex.differential.cache_info()
    for p in range(problem.B.n + 1):
        for j in range(0, 11, 2):
            kc.homology(p, j)
    after = KoszulComplex.differential.cache_info()
    assert after.misses > before.misses and after.hits > before.hits
    ref = weakref.ref(kc)
    del kc
    gc.collect()
    assert ref() is None


def test_chain_dims_count_subset_blocks(corpus_problem):
    _, problem = corpus_problem
    kc = koszul_of(problem)
    n = problem.B.n
    for p in range(n + 2):
        for j in (0, 2, 6):
            dim = kc.chain_dim(p, j)
            if p > n or j - 2 * p < 0:
                assert dim == 0
            else:
                assert dim == len(kc.subsets(p)) * len(kc.coefficient_basis(p, j))


def assert_table_matches_naive_oracle(problem, D):
    kc = koszul_of(problem)
    table = tor_table(problem.complex, problem.B, D)
    for p in range(problem.B.n + 1):
        for j in range(0, D + 1, 2):
            got = table.piece(p, j)
            rank, torsion = oracles.homology_structure(
                kc.differential(p, j).to_lists(),
                kc.differential(p + 1, j).to_lists(),
                kc.chain_dim(p, j),
            )
            assert (got.rank, list(got.torsion)) == (rank, torsion), (p, j)


def test_homology_matches_naive_oracle(corpus_problem):
    assert_table_matches_naive_oracle(corpus_problem[1], 8)


def test_homology_matches_naive_oracle_on_random_problems(budget):
    # the first problems of the benchmark's library-fuzz stream (its seed
    # and draw): m <= 5, n <= 3, B entries in [-3, 3]
    rng = random.Random(2012)
    with budget(20):
        for _ in range(40):
            problem = parse_problem(random_problem(rng))
            assert_table_matches_naive_oracle(problem, 8)


RP2_6 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
         (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


def test_tor_over_the_polynomial_ring_matches_hochster(budget):
    # with B = I_m the forms are the variables, and Hochster's formula
    # gives every Tor_p in degree j from the full subcomplexes' integral
    # cohomology, computed with no bigtor code
    complexes = [parse_problem(path.read_text()).complex for path in sorted(DATA_DIR.glob("*.tcx"))]
    # no face but the empty one: Z[K] = Z in degree 0, killed by any form
    complexes += [build_complex(2, []), build_complex(3, [])]
    # seeded small complexes: m <= 7, up to 5 faces of 1 to 4 vertices
    rng = random.Random(1975)
    for _ in range(10):
        m = rng.randint(2, 7)
        faces = [rng.sample(range(1, m + 1), rng.randint(1, min(4, m))) for _ in range(rng.randint(1, 5))]
        complexes.append(build_complex(m, faces))
    complexes.append(build_complex(6, RP2_6))
    with budget(2):
        for K in complexes:
            S = SubgroupData(from_lists([[int(i == k) for k in range(K.m)] for i in range(K.m)], cols=K.m))
            table = tor_table(K, S, 2 * K.m)
            for (p, j), piece in table.table.items():
                expected = oracles.hochster_tor(K.face_vertices(), K.m, p, j)
                assert oracles.structure_pair(piece) == expected, (K.face_vertices(), p, j)
        assert table.piece(3, 12) == ZModule(0, (2,))  # H~^2(RP^2) = Z/2


def join(first, second):
    """(K1 * K2, B1 + B2 block-diagonal) of two (complex, SubgroupData)
    pairs: each facet is a facet of K1 with a facet of K2, whose vertices
    follow K1's."""
    (K1, S1), (K2, S2) = first, second
    facets = [f + tuple(v + K1.m for v in g) for f in K1.face_vertices() for g in K2.face_vertices()]
    rows = ([row + [0] * K2.m for row in S1.B.to_lists()]
            + [[0] * K1.m + row for row in S2.B.to_lists()])
    return build_complex(K1.m + K2.m, facets), SubgroupData(from_lists(rows, cols=K1.m + K2.m))


def cells(K, S, D):
    """The nonzero cells of the integer Tor table, {(p, j): (rank, torsion)}."""
    return {(p, j): oracles.structure_pair(z) for p, j, z in tor_table(K, S, D).entries()}


def test_tor_of_a_join_is_the_kunneth_combination_of_its_factors(corpus, budget):
    # Z[K1 * K2] = Z[K1] (x) Z[K2] and, with B = B1 + B2, the Koszul
    # complex is a tensor product: the join's table must be the Kuenneth
    # combination of the factors' tables, torsion and Tor^Z_1 included
    problems = {name: (corpus[name].complex, corpus[name].B) for name in ("prod1212", "wps123", "wps12", "cut_k2")}
    torsion_cells = []
    with budget(2):
        for a, b, D in (("prod1212", "wps123", 12), ("wps12", "wps12", 14), ("wps123", "cut_k2", 10)):
            expected = oracles.kunneth_join(cells(*problems[a], D), cells(*problems[b], D), D)
            assert cells(*join(problems[a], problems[b]), D) == expected, (a, b)
            torsion_cells.append(sum(1 for _, torsion in expected.values() if torsion))
        # cross4, cross4_orb and cross4_tor: joins of four copies of S^0,
        # each on its antipodal pair i, i + 4 with B's row i there
        D = 10
        for first, second in (((1,) * 4, (1,) * 4), ((1, 2, 1, 2), (1, 2, 3, 4)), ((2, 1, 1, 2), (3, 2, 1, 1))):
            facets, B = cross4(first, second)
            expected = {(0, 0): (1, [])}  # Tor of the complex on no vertex
            for a, b in zip(first, second):
                S0 = build_complex(2, [(1,), (2,)]), SubgroupData(from_lists([[a, -b]]))
                expected = oracles.kunneth_join(expected, cells(*S0, D), D)
            assert cells(build_complex(8, facets), SubgroupData(from_lists(B)), D) == expected, (first, second)
            torsion_cells.append(sum(1 for _, torsion in expected.values() if torsion))
    assert torsion_cells == [8, 10, 6, 0, 9, 6]


def stacked_polytope(rng, n, m):
    """Boundary of a stacked n-polytope on m vertices: the boundary of the
    n-simplex, then m - n - 1 times a new vertex stacked on a random
    facet, which it replaces by the cone over the facet's boundary."""
    facets = list(itertools.combinations(range(1, n + 2), n))
    for v in range(n + 2, m + 1):
        top = facets.pop(rng.randrange(len(facets)))
        facets += [tuple(sorted(set(top) - {w} | {v})) for w in top]
    return facets


def bipyramid(k):
    """Boundary of the bipyramid over a k-gon: apexes k + 1 and k + 2."""
    return [(i, i % k + 1, apex) for apex in (k + 1, k + 2) for i in range(1, k + 1)]


def with_nonzero_minors(rng, facets, m, n):
    """B, n x m with entries in [-3, 3], drawn until every facet minor is
    nonzero."""
    while True:
        B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        if all(oracles.facet_minors(facets, B)):
            return B


def local_freeness_inputs():
    """(facets, m, B rows, D) for the corpus, the three cross-polytope
    inputs and seeded bipyramids, stacked polytopes and RP^2_6."""
    inputs = []
    for path in sorted(DATA_DIR.glob("*.tcx")) + sorted(
            (DATA_DIR.parent.parent / "perfbench" / "inputs").glob("*.tcx")):
        problem = parse_problem(path.read_text())
        inputs.append((problem.complex.face_vertices(), problem.complex.m, problem.B.B.to_lists(), 12))
    for first, second in (((1,) * 4, (1,) * 4), ((1, 2, 1, 2), (1, 2, 3, 4)), ((2, 1, 1, 2), (3, 2, 1, 1))):
        facets, B = cross4(first, second)
        inputs.append((facets, 8, B, 8))
    rng = random.Random(1976)
    seeded = [bipyramid(k) for k in (3, 4, 5, 6)] + [RP2_6] * 2
    seeded += [stacked_polytope(rng, n, m) for n, m in ((3, 6), (3, 8), (4, 7), (4, 8))]
    for facets in seeded:
        m, n = max(map(max, facets)), len(facets[0])
        inputs.append((facets, m, with_nonzero_minors(rng, facets, m, n), 2 * n + 2))
    # odd facet minors, and yet 2-torsion: RP^2 is not Cohen-Macaulay over F_2
    inputs.append((RP2_6, 6, [[1, 1, -2, -2, 0, -1], [0, 2, -1, 1, 0, 1], [1, 0, 0, 1, -1, -2]], 6))
    return inputs


def test_torsion_primes_and_ranks_follow_local_freeness(budget):
    # on every input whose facets all have n vertices and whose facet
    # minors are all nonzero: each torsion prime divides a facet minor or
    # is a prime where K fails Reisner's criterion, and, K being
    # Cohen-Macaulay over Q, Tor sits in p = 0 with rank h_k at j = 2k
    checked = 0
    with budget(3):
        for facets, m, B, D in local_freeness_inputs():
            if any(len(face) != len(B) for face in facets) or not all(oracles.facet_minors(facets, B)):
                continue
            allowed = oracles.allowed_torsion_primes(facets, B)
            if allowed is None:  # not Cohen-Macaulay over Q: any prime may occur
                continue
            h = oracles.h_vector(facets)
            table = tor_table(build_complex(m, facets), SubgroupData(from_lists(B, cols=m)), D)
            for (p, j), piece in table.table.items():
                assert set().union(*map(oracles.prime_factors, piece.torsion)) <= allowed, (facets, B, p, j)
                assert piece.rank == (h[j // 2] if p == 0 and j // 2 < len(h) else 0), (facets, B, p, j)
            checked += 1
    # 12 of the 17 corpus files, the 3 cross-polytopes and the 11 seeded inputs
    assert checked == 26
    assert oracles.reisner_primes(RP2_6) == {2} and oracles.h_vector(RP2_6) == [1, 3, 6, 0]


def universal_coefficient_cells(K, S, D) -> int:
    """Check the universal-coefficient relation prime by prime on every
    cell of the table up to D; returns the number of (cell, prime) pairs.

    For a complex C of free Z-modules, H_p(C (x) F_l) is H_p(C) (x) F_l
    plus Tor^Z_1(H_{p-1}(C), F_l) (Hatcher, Algebraic Topology, Thm. 3A.3),
    so dim C_p - rk_l d_p - rk_l d_{p+1} = rank T_p + t_l(T_p) + t_l(T_{p-1}),
    t_l counting the invariant factors divisible by l.  The ranks mod l
    come from the oracle's sparse elimination over F_l, which shares no
    code with the engine, on the Koszul differentials; the primes are 2,
    3, 5, 7 and every prime that divides a torsion order in the table.
    Over F_l there is no entry growth, but the relation sees counts, not
    exponents: Z/4 and Z/2 both give t_2 = 1."""
    table = tor_table(K, S, D)
    primes = {2, 3, 5, 7}.union(*(oracles.prime_factors(d) for z in table.table.values()
                                  for d in z.torsion))
    forms, pairs = forms_of(S), 0
    for j in range(0, D + 1, 2):
        kc = KoszulComplex(K, forms)
        maps = [kc.differential(p, j).sparse_rows() for p in range(1, S.n + 2)]
        for ell in sorted(primes):
            ranks = [0] + [oracles.sparse_fp_rank(rows, ell) for rows in maps]  # ranks[p]: d_p

            def divisible(p):
                return sum(d % ell == 0 for d in table.piece(p, j).torsion) if p >= 0 else 0

            for p in range(S.n + 1):
                expected = table.piece(p, j).rank + divisible(p) + divisible(p - 1)
                assert kc.chain_dim(p, j) - ranks[p] - ranks[p + 1] == expected, (p, j, ell)
                pairs += 1
    return pairs


def test_torsion_counts_prime_by_prime_follow_universal_coefficients(budget):
    # the 17 inputs of tests/data and perfbench/inputs at D = 12, the
    # torsion and orbifold cross-polytopes at D = 12, and seeded problems
    # at D = 8; an engine that drops an invariant factor divisible by l, or
    # merges Z/l + Z/l into Z/l^2, misses t_l on some cell
    inputs = [(problem.complex, problem.B, 12) for problem in map(
        parse_problem, (path.read_text() for path in sorted(DATA_DIR.glob("*.tcx")) + sorted(
            (DATA_DIR.parent.parent / "perfbench" / "inputs").glob("*.tcx"))))]
    for first, second in (((1, 2, 1, 2), (1, 2, 3, 4)), ((2, 1, 1, 2), (3, 2, 1, 1))):
        facets, B = cross4(first, second)
        inputs.append((build_complex(8, facets), SubgroupData(from_lists(B)), 12))
    rng = random.Random(1438)
    for _ in range(30):
        problem = parse_problem(random_problem(rng))
        inputs.append((problem.complex, problem.B, 8))
    with budget(2):
        pairs = sum(universal_coefficient_cells(K, S, D) for K, S, D in inputs)
    assert pairs == 3524  # (cell, prime) pairs: 1,624 corpus, 2 x 140 cross4, 1,620 seeded


def assert_presentations_match_table(problem, D):
    kc = koszul_of(problem)
    table = tor_table(problem.complex, problem.B, D)
    for p in range(problem.B.n + 1):
        for j in range(0, D + 1, 2):
            pres = kc.homology(p, j)
            d_out, d_in = kc.differential(p, j), kc.differential(p + 1, j)
            rows = d_out.to_lists()
            rank, torsion = oracles.homology_structure(rows, d_in.to_lists(), kc.chain_dim(p, j))
            assert pres.structure == table.piece(p, j), (p, j)
            assert (pres.structure.rank, list(pres.structure.torsion)) == (rank, torsion), (p, j)
            for generator in pres.cycles.basis:
                assert all(sum(row[c] * x for c, x in generator.items()) == 0 for row in rows)
            for column in d_in.sparse_columns():
                assert pres.class_is_zero(pres.coordinates(column)), (p, j)


def test_presentations_match_table_and_oracle(corpus, budget):
    # the presentations gysin and the witness read: the same groups as the
    # table and the dense oracle, generators that are cycles, and boundaries
    # whose classes vanish
    rng = random.Random(2312)
    problems = list(corpus.values()) + [parse_problem(random_problem(rng)) for _ in range(40)]
    with budget(20):
        for problem in problems:
            assert_presentations_match_table(problem, 8)


def test_weighted_12_head_of_table(corpus):
    problem = corpus["wps12"]
    table = tor_table(problem.complex, problem.B, 4)
    assert table.piece(0, 0) == ZModule(1)
    assert table.piece(0, 2) == ZModule(1)
    assert table.piece(0, 4) == ZModule(0, (2,))
    assert table.piece(1, 4) == ZModule(0)
    assert table.piece(1, 0) == ZModule(0)


@pytest.mark.parametrize("p, j", [(0, 6), (0, 3), (5, 4), (2, 0), (-1, 0), (0, -2),
                                  (True, 0), (0, 4.0), ("0", 0)])
def test_piece_refuses_cells_outside_the_table(corpus, p, j):
    problem = corpus["wps12"]
    with pytest.raises(InputError, match="outside the table"):
        tor_table(problem.complex, problem.B, 4).piece(p, j)


def test_tor1_witness_is_none_without_forms(corpus):
    K = corpus["wps12"].complex
    S = SubgroupData(IntMatrix.zeros(0, K.m))
    table = tor_table(K, S, 4)
    assert table.n == 0 and table.piece(0, 4) == ZModule(2)  # x1^2 and x2^2
    assert tor1_witness(K, S, table) is None


def test_prod1212_pinned_values(corpus):
    problem = corpus["prod1212"]
    K, S = problem.complex, problem.B
    table = tor_table(K, S, 10)
    assert table.piece(1, 8) == ZModule(0, (2,))
    assert table.piece(1, 10) == ZModule(0, (2, 2))
    assert table.piece(0, 4).torsion == (2, 2)
    witness = tor1_witness(K, S, table)
    assert witness is not None
    assert witness.p == 1
    assert witness.j == 8
    parts = {i: poly.render() for i, poly in witness.components}
    assert parts == {1: "x2^2*x3", 2: "x2*x3^2"}
    assert "(x1 - 2x3)*(x2^2*x3) + (2x2 - x4)*(x2*x3^2) = 0" in witness.explanation


def test_tor1_witness_none_on_regular_input(corpus):
    K, S = corpus["wps12"].complex, corpus["wps12"].B
    assert tor1_witness(K, S, tor_table(K, S, 12)) is None


def test_row_permutation_leaves_table_unchanged(corpus):
    problem = corpus["prod1212"]
    K = problem.complex
    swapped = SubgroupData(from_lists([[0, 2, 0, -1], [1, 0, -2, 0]]))
    original = tor_table(K, problem.B, 10)
    permuted = tor_table(K, swapped, 10)
    assert original.table == permuted.table


def test_verdict_rendering(corpus):
    table = tor_table(corpus["wps12"].complex, corpus["wps12"].B, 8)
    report = verdicts(table)
    assert str(report.bigcm) == "HOLDS_UP_TO(8)"
    assert str(report.tor0_torsion_free) == "FAILS(j=4, torsion=[2])"
    assert not report.free_over_R.holds()
    assert report.odd_vanishing.holds()


def test_verdicts_fail_case(corpus):
    table = tor_table(corpus["prod1212"].complex, corpus["prod1212"].B, 10)
    report = verdicts(table)
    assert not report.bigcm.holds()
    assert dict(report.bigcm.witness)["j"] == 8
    assert not report.odd_vanishing.holds()
    assert not report.free_over_R.holds()


def test_depth_estimates(corpus):
    wps = corpus["wps12"]
    est = depth_estimate(tor_table(wps.complex, wps.B, 12))
    assert (est.value, est.qualifier) == (1, "conditional")
    assert str(est) == "1 (conditional on the bound 12)"

    prod = corpus["prod1212"]
    est = depth_estimate(tor_table(prod.complex, prod.B, 10))
    assert est.qualifier == "at_most"
    assert str(est).startswith("<=")

    empty = SubgroupData(IntMatrix.zeros(0, 2))
    K = build_complex(2, [(1,), (2,)])
    est = depth_estimate(tor_table(K, empty, 4))
    assert (est.value, est.qualifier) == (0, "exact")


def test_regular_sequence_agreement(corpus_problem):
    _, problem = corpus_problem
    K, S = problem.complex, problem.B
    table = tor_table(K, S, 10)
    direct = regular_sequence_check(K, S, 10)
    assert direct.regular == verdicts(table).bigcm.holds()


def test_regular_sequence_witness_prod1212(corpus):
    problem = corpus["prod1212"]
    report = regular_sequence_check(problem.complex, problem.B, 10)
    assert not report.regular
    w = report.witness
    assert (w.stage, w.j, w.class_text, w.form_text) == (2, 6, "x2*x3^2", "2x2 - x4")
    assert str(w) == (
        "u2 = 2x2 - x4 kills the nonzero class x2*x3^2 in degree 6 "
        "of the stage-2 quotient"
    )


def test_euler_characteristic_oracle(corpus_problem):
    _, problem = corpus_problem
    K, S = problem.complex, problem.B
    table = tor_table(K, S, 10)
    assert euler_discrepancies(K, S, table) == []
    maximal = K.face_vertices()
    for j in range(0, 12, 2):
        assert expected_euler_characteristic(K, S.n, j) == oracles.euler_characteristic(
            maximal, S.n, j
        )


def test_tor0_matches_quotient_piece(corpus_problem):
    _, problem = corpus_problem
    K, S = problem.complex, problem.B
    table = tor_table(K, S, 10)
    for j in range(0, 12, 2):
        assert oracles.structure_pair(table.piece(0, j)) == tor0_oracle(K, S, j), j


def test_rational_ranks_match_integral(corpus_problem):
    _, problem = corpus_problem
    K, S = problem.complex, problem.B
    table = tor_table(K, S, 10)
    ranks = rational_tor_ranks(K, S, 10)
    for (p, j), rank in ranks.items():
        assert rank == table.piece(p, j).rank, (p, j)


def test_tor1_vanishing_forces_all_higher(corpus_problem):
    _, problem = corpus_problem
    K, S = problem.complex, problem.B
    table = tor_table(K, S, 10)
    tor1_zero = all(table.piece(1, j).is_zero() for j in range(0, 11, 2))
    if tor1_zero:
        for p in range(1, S.n + 1):
            for j in range(0, 11, 2):
                assert table.piece(p, j).is_zero()


def test_input_validation(corpus):
    problem = corpus["wps12"]
    K, S = problem.complex, problem.B
    with pytest.raises(InputError):
        tor_table(K, S, 7)
    with pytest.raises(InputError):
        tor_table(build_complex(3, [(1,)]), S, 0)


@pytest.mark.parametrize("call", [
    lambda K, S: hilbert_coefficient(K, 4.0),
    lambda K, S: tor_table(K, S, 4.0),
    lambda K, S: regular_sequence_check(K, S, 4.0),
    lambda K, S: rational_tor_ranks(K, S, 4.0),
    lambda K, S: tor_table(K, S, False),
    lambda K, S: GysinData(K, S, 4.0),
    lambda K, S: GysinData(K, S, 4, split=0.5),
    lambda K, S: GysinData(K, S, 4, split=False),
], ids=["hilbert", "table", "regular-sequence", "rational", "bool-j", "gysin", "float-split",
        "bool-split"])
def test_degrees_that_are_not_ints_are_refused(corpus, call):
    # a float degree reached math.comb or range() as a TypeError (exit 2 on
    # the CLI), and a bool or integral float passed as a degree
    problem = corpus["wps12"]
    with pytest.raises(InputError, match="integer"):
        call(problem.complex, problem.B)
