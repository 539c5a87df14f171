"""End-to-end checks, one per advertised capability of the package.

Each test prints a single [criterion NN] PASS/FAIL line; the conftest
summary hook repeats those lines after the run so they are visible even
with captured output.  All comparisons are exact integer comparisons.
"""

import functools
import time

from bigtor.gkm import find_torsion, phi_restrictions
from bigtor.gysin import GysinData, connecting_map_check, verify_exactness
from bigtor.intlinalg import IntMatrix, Lattice, ZModule
from bigtor.koszul_tor import (
    euler_discrepancies,
    rational_tor_ranks,
    regular_sequence_check,
    tor1_witness,
    tor_table,
    verdicts,
)
from bigtor.simplicial import (
    SubgroupData,
    build_complex,
    check_connected_kernel,
    check_local_freeness,
)
from bigtor.stanley_reisner import (
    LinearForm,
    forms_of,
    monomial_basis,
    mult_matrix,
    parse_polynomial,
)

import oracles
from conftest import CORPUS_NAMES, from_lists, load_problem, tor0_oracle

RESULTS = []


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                RESULTS.append(f"[criterion {number:02d}] FAIL - {description}")
                print(RESULTS[-1])
                raise
            RESULTS.append(f"[criterion {number:02d}] PASS - {description}")
            print(RESULTS[-1])

        return run

    return wrap


def poly_coords(K, f, j):
    basis = monomial_basis(K, j)
    index = {mono: i for i, mono in enumerate(basis)}
    out = [0] * len(basis)
    for mono, c in f.terms.items():
        out[index[mono]] = c
    return tuple(out)


@criterion(1, "weighted (1,2) line: Z, Z, then Z/2 forever; higher Tor zero")
def test_weighted_12_pattern():
    problem = load_problem("wps12")
    start = time.perf_counter()
    table = tor_table(problem.complex, problem.B, 20)
    elapsed = time.perf_counter() - start
    assert table.piece(0, 0) == ZModule(1)
    assert table.piece(0, 2) == ZModule(1)
    for j in range(4, 21, 2):
        assert table.piece(0, j) == ZModule(0, (2,)), j
    for j in range(0, 21, 2):
        assert table.piece(1, j).is_zero(), j
    assert elapsed < 5.0


@criterion(2, "weighted (1,2,3) plane: Z at 0,2,4, then Z/6 through degree 16")
def test_weighted_123_pattern():
    problem = load_problem("wps123")
    table = tor_table(problem.complex, problem.B, 16)
    for j in (0, 2, 4):
        assert table.piece(0, j) == ZModule(1), j
    for j in range(6, 17, 2):
        assert table.piece(0, j) == ZModule(0, (6,)), j
    for p in (1, 2):
        for j in range(0, 17, 2):
            assert table.piece(p, j).is_zero(), (p, j)


@criterion(3, "smooth product of lines: free with total rank 4, all verdicts hold")
def test_smooth_product_is_free():
    problem = load_problem("cp1cp1")
    table = tor_table(problem.complex, problem.B, 12)
    assert [table.piece(0, j).rank for j in (0, 2, 4)] == [1, 2, 1]
    for j in range(6, 13, 2):
        assert table.piece(0, j).is_zero(), j
    for (p, j), zm in table.table.items():
        assert zm.torsion == (), (p, j)
        if p >= 1:
            assert zm.is_zero(), (p, j)
    report = verdicts(table)
    for verdict in (report.bigcm, report.odd_vanishing, report.free_over_R):
        assert str(verdict) == "HOLDS_UP_TO(12)"


@criterion(4, "orbifold product: Tor_1 witness found and confirmed by the direct regularity route")
def test_orbifold_product_fails_with_cross_checked_witness():
    problem = load_problem("prod1212")
    K, S = problem.complex, problem.B
    start = time.perf_counter()
    table = tor_table(K, S, 10)
    report = verdicts(table)
    assert not report.bigcm.holds()
    assert dict(report.bigcm.witness)["j"] <= 10
    cycle = tor1_witness(K, S, tor_table(K, S, 10))
    assert cycle is not None and cycle.j <= 10

    # direct route, spelled out: in Z[K]/(x1 - 2x3) the class of x2*x3^2
    # is nonzero while (2x2 - x4) * x2*x3^2 lands back in the ideal
    u1, u2 = forms_of(S)
    f = parse_polynomial("x2*x3^2", 4)
    coords = poly_coords(K, f, 6)
    ideal_6 = Lattice(len(coords), mult_matrix(K, u1, 4).sparse_columns())
    assert {c: x for c, x in enumerate(coords) if x} not in ideal_6
    column = IntMatrix.from_columns([{c: x for c, x in enumerate(coords) if x}], len(coords))
    image = mult_matrix(K, u2, 6).mul(column).transpose().to_lists()[0]
    ideal_8 = Lattice(len(image), mult_matrix(K, u1, 6).sparse_columns())
    assert {c: x for c, x in enumerate(image) if x} in ideal_8

    direct = regular_sequence_check(K, S, 10)
    assert not direct.regular
    assert (direct.witness.stage, direct.witness.class_text) == (2, "x2*x3^2")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    # the two routes agree on every corpus input
    for name in CORPUS_NAMES:
        other = load_problem(name)
        agrees = regular_sequence_check(other.complex, other.B, 12).regular
        assert agrees == verdicts(tor_table(other.complex, other.B, 12)).bigcm.holds(), name


@criterion(5, "symplectic cut pair: corner piece regular, pentagon piece not, matrix rows pinned")
def test_symplectic_cut_pair():
    k1 = load_problem("cut_k1")
    k2 = load_problem("cut_k2")
    # regression-pin the resolved linear forms: the matrix rows, not the
    # differently-typeset inline formulas they replace
    for problem in (k1, k2):
        u1, u2 = forms_of(problem.B)
        assert u1.render() == "x1 - 2x3 + x5"
        assert u2.render() == "2x2 - x4 - x5"

    table1 = tor_table(k1.complex, k1.B, 12)
    report1 = verdicts(table1)
    direct1 = regular_sequence_check(k1.complex, k1.B, 12)
    assert str(report1.bigcm) == "HOLDS_UP_TO(12)"
    assert direct1.regular

    table2 = tor_table(k2.complex, k2.B, 12)
    report2 = verdicts(table2)
    direct2 = regular_sequence_check(k2.complex, k2.B, 12)
    assert not report2.bigcm.holds()
    assert not direct2.regular
    assert dict(report2.bigcm.witness)["j"] == 8


@criterion(6, "restriction tuples of the square match the worked values; torsion certificate verified")
def test_gkm_square():
    problem = load_problem("cp1cp1")
    K, S = problem.complex, problem.B
    expected = {
        "x1": "(u1, 0, 0, u1)",
        "x2": "(u2, u2, 0, 0)",
        "x3": "(0, -u1, -u1, 0)",
        "x4": "(0, 0, -u2, -u2)",
    }
    for text, tuple_text in expected.items():
        t = phi_restrictions(K, S, parse_polynomial(text, K.m))
        assert "(" + ", ".join(entry.render("u") for entry in t) + ")" == tuple_text, text
    cert = find_torsion(K, S, LinearForm((0, 1, 1, -1)), (1, 2))
    assert cert.g_text() == "u3 - u2"
    assert cert.f.render() == "x1*x2"
    assert cert.verified


@criterion(7, "long exact sequence: every node exact, connecting map routes agree, three inputs")
def test_gysin_suite():
    for name in ("wps12", "cp1cp1", "prod1212"):
        problem = load_problem(name)
        G = GysinData(problem.complex, problem.B, 10)
        report = verify_exactness(G)
        assert report.all_pass, (name, report.failing())
        checks = connecting_map_check(G)
        assert checks and all(checks.values()), name


@criterion(8, "oracles: Euler counts, quotient pieces, and rational ranks all agree")
def test_oracle_invariants():
    for name in CORPUS_NAMES:
        problem = load_problem(name)
        K, S = problem.complex, problem.B
        table = tor_table(K, S, 12)
        assert euler_discrepancies(K, S, table) == [], name
        for j in range(0, 13, 2):
            assert oracles.structure_pair(table.piece(0, j)) == tor0_oracle(K, S, j), (name, j)
        ranks = rational_tor_ranks(K, S, 12)
        for (p, j), rank in ranks.items():
            assert rank == table.piece(p, j).rank, (name, p, j)


@criterion(9, "odd-degree vanishing fails exactly when Tor_1 does; vanishing Tor_1 kills all higher Tor")
def test_vanishing_equivalences():
    for name in CORPUS_NAMES:
        problem = load_problem(name)
        table = tor_table(problem.complex, problem.B, 12)
        report = verdicts(table)  # raises internally on any split verdict
        assert report.bigcm.holds() == report.odd_vanishing.holds(), name
        if report.bigcm.holds():
            for p in range(1, table.n + 1):
                for j in range(0, 13, 2):
                    assert table.piece(p, j).is_zero(), (name, p, j)


@criterion(10, "local freeness and connectedness checks give the advertised verdicts")
def test_freeness_and_connectedness_criteria():
    two_points = build_complex(2, [(1,), (2,)])
    assert check_local_freeness(two_points, SubgroupData(from_lists([[2, -1]]))).status == "PASS"

    square = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    orbifold = SubgroupData(from_lists([[1, 0, -2, 0], [0, 2, 0, -1]]))
    assert check_local_freeness(square, orbifold).status == "PASS"

    deficient = SubgroupData(from_lists([[1, 0, -1, 0], [1, 0, -1, 1]]))
    report = check_local_freeness(square, deficient)
    assert report.status == "FAIL"
    assert (2, 3) in report.failing_faces

    assert check_connected_kernel(orbifold)
    assert not check_connected_kernel(SubgroupData(from_lists([[2, 4]])))
