import random
from collections import Counter
from fractions import Fraction

import pytest

from bigtor.cli import parse_problem
from bigtor.errors import InputError
from bigtor.intlinalg import ZModule
from bigtor.koszul_tor import tor_table
from bigtor.simplicial import SubgroupData, build_complex
from bigtor.stanley_reisner import (
    LinearForm,
    Polynomial,
    annihilator_search,
    forms_of,
    hilbert_coefficient,
    monomial_basis,
    mult_matrix,
    parse_linear_form,
    parse_polynomial,
    reduce,
)

import oracles
from conftest import from_lists, tor0_oracle
from test_regular_sequence import random_problem

SQUARE = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def random_ring_element(rng, K, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(K.m))
        terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
    return Polynomial(K.m, terms)


def test_polynomial_arithmetic():
    x1 = Polynomial.variable(3, 1)
    x2 = Polynomial.variable(3, 2)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (p - p).is_zero()
    assert Polynomial.constant(3, 0).is_zero()
    assert p.homogeneous_degree() == 4
    assert (x1 + Polynomial.constant(3, 1)).homogeneous_degree() is None


def test_polynomial_render():
    x = [None] + [Polynomial.variable(4, i) for i in range(1, 5)]
    assert (x[1] * x[2]).render() == "x1*x2"
    assert (x[2] * x[2] * x[3]).render() == "x2^2*x3"
    assert (x[1] - x[3] - x[3]).render() == "x1 - 2x3"
    assert Polynomial.zero(4).render() == "0"
    assert Polynomial.constant(4, -5).render() == "-5"


def test_parse_polynomial_round_trip():
    for text in ["x1*x2", "x2^2*x3", "x1 - 2x3 + x4", "3", "-x1 + 7x2^4"]:
        p = parse_polynomial(text, 4)
        assert parse_polynomial(p.render(), 4) == p


def test_parse_polynomial_errors():
    with pytest.raises(InputError):
        parse_polynomial("y1", 4)
    with pytest.raises(InputError):
        parse_polynomial("x5", 4)
    with pytest.raises(InputError):
        parse_polynomial("x1 +", 4)
    with pytest.raises(InputError):
        parse_polynomial("", 4)


def test_parse_linear_form():
    u = parse_linear_form("2x2 - x4", 4)
    assert u.coeffs == (0, 2, 0, -1)
    assert u.render() == "2x2 - x4"
    with pytest.raises(InputError):
        parse_linear_form("x1*x2", 4)
    with pytest.raises(InputError):
        parse_linear_form("x1 + 1", 4)


def test_linear_form_value_semantics():
    form = LinearForm([1, 0, -2])
    assert form.coeffs == (1, 0, -2)
    assert form == LinearForm((1, 0, -2)) and hash(form) == hash(LinearForm((1, 0, -2)))
    assert form != LinearForm((1, 0, 2))
    assert form != (1, 0, -2)
    with pytest.raises(AttributeError):
        form.coeffs = (0, 0, 0)
    basis = monomial_basis(SQUARE, 2)
    with pytest.raises(TypeError):
        basis[0] = basis[1]


def test_polynomial_rejects_float_coefficient():
    with pytest.raises(InputError):
        Polynomial(1, {(1,): 2.5})
    with pytest.raises(InputError):
        Polynomial.variable(2, 1) * 0.5


def test_polynomial_rejects_string_coefficient():
    with pytest.raises(InputError):
        Polynomial(1, {(1,): "3"})


@pytest.mark.parametrize("exponent", [1.5, "2", True, -1],
                         ids=["float", "string", "bool", "negative"])
def test_polynomial_rejects_non_integer_exponent(exponent):
    with pytest.raises(InputError):
        Polynomial(2, {(exponent, 2): 1})
    with pytest.raises(InputError):
        Polynomial(2, {(1, exponent): 0})
    with pytest.raises(InputError):
        Polynomial.variable(2, 1) ** exponent


def test_linear_form_rejects_non_integer_coefficient():
    for bad in ((0.5, 1), ("1", 0), (Fraction(1, 2), 1)):
        with pytest.raises(InputError):
            LinearForm(bad)


def test_polynomial_fraction_coefficients():
    u1 = Polynomial.variable(2, 1)
    u2 = Polynomial.variable(2, 2)
    p = Fraction(10, 3) * u2 - u1 * Fraction(1, 2)
    assert p.render("u") == "-1/2u1 + 10/3u2"
    assert (p * 6).terms == {(1, 0): -3, (0, 1): 20}
    assert Polynomial(2, {(0, 0): Fraction(0)}).is_zero()
    assert (u1 + u2) ** 2 == u1 * u1 + 2 * u1 * u2 + u2 * u2
    assert (u1 + u2) ** 0 == Polynomial.constant(2, 1)
    # u1 -> -2 u2 kills exactly the multiples of u1 + 2 u2
    rest = Polynomial.monomial(2, (0, 1), -2)
    assert ((u1 + 2 * u2) * (u1 - u2)).substitute(1, rest).is_zero()
    assert (u1 * u1 + u2).substitute(1, rest) == 4 * u2 * u2 + u2
    assert p.substitute(1, Fraction(20, 3) * u2).is_zero()


def test_hilbert_matches_binomial_oracle():
    cases = [
        SQUARE,
        build_complex(2, [(1,), (2,)]),
        build_complex(3, [(1, 2), (1, 3), (2, 3)]),
        build_complex(5, [(1, 4), (4, 5), (1, 5)]),
        build_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    ]
    for K in cases:
        maximal = K.face_vertices()
        for j in range(0, 14, 2):
            assert hilbert_coefficient(K, j) == oracles.hilbert_coefficient(maximal, j)
            assert len(monomial_basis(K, j)) == hilbert_coefficient(K, j)
    assert hilbert_coefficient(SQUARE, 0) == 1
    with pytest.raises(InputError):
        hilbert_coefficient(SQUARE, 3)
    with pytest.raises(InputError):
        monomial_basis(SQUARE, -2)


def test_reduce_kills_nonface_monomials():
    x1 = Polynomial.variable(4, 1)
    x3 = Polynomial.variable(4, 3)
    assert reduce(SQUARE, x1 * x3).is_zero()
    assert reduce(SQUARE, x1 * x1) == x1 * x1
    with pytest.raises(InputError):
        reduce(SQUARE, Polynomial.variable(3, 1))


def test_reduce_is_a_ring_map():
    rng = random.Random(600)
    for _ in range(40):
        p = random_ring_element(rng, SQUARE)
        q = random_ring_element(rng, SQUARE)
        lhs = reduce(SQUARE, p * q)
        rhs = reduce(SQUARE, reduce(SQUARE, p) * reduce(SQUARE, q))
        assert lhs == rhs
        assert reduce(SQUARE, reduce(SQUARE, p)) == reduce(SQUARE, p)


def test_mult_matrix_agrees_with_reduce():
    u = parse_linear_form("x1 - 2x3 + x4", 4)
    for j in (0, 2, 4, 6):
        source = monomial_basis(SQUARE, j)
        target = monomial_basis(SQUARE, j + 2)
        index = {mono: i for i, mono in enumerate(target)}
        M = mult_matrix(SQUARE, u, j)
        for col, mono in enumerate(source):
            image = reduce(SQUARE, u.as_polynomial() * Polynomial.monomial(4, mono))
            expect = [0] * len(target)
            for exp, c in image.terms.items():
                expect[index[exp]] = c
            assert M.transpose().to_lists()[col] == expect


def test_mult_matrices_commute():
    u = parse_linear_form("x1 - x3", 4)
    v = parse_linear_form("x2 - x4", 4)
    for j in (0, 2, 4):
        uv = mult_matrix(SQUARE, v, j + 2).mul(mult_matrix(SQUARE, u, j))
        vu = mult_matrix(SQUARE, u, j + 2).mul(mult_matrix(SQUARE, v, j))
        assert uv == vu


def test_mult_matrix_rejects_zero_form():
    with pytest.raises(InputError):
        mult_matrix(SQUARE, LinearForm((0, 0, 0, 0)), 2)


def test_quotient_piece_weighted_line():
    # Z[K]/(2x1 - x2) on two points: Z, Z, then Z/2 in every degree
    K = build_complex(2, [(1,), (2,)])
    S = SubgroupData(from_lists([[2, -1]]))
    table = tor_table(K, S, 6)
    pieces = {0: ZModule(1), 2: ZModule(1), 4: ZModule(0, (2,)), 6: ZModule(0, (2,))}
    for j, expected in pieces.items():
        assert table.piece(0, j) == expected, j
        assert tor0_oracle(K, S, j) == oracles.structure_pair(expected), j


def test_annihilator_search_finds_torsion_witness():
    S = SubgroupData(from_lists([[1, 0, -1, 0], [0, 1, 0, -1], [0, 1, 1, -1]]))
    f = parse_polynomial("x1*x2", 4)
    witnesses = annihilator_search(SQUARE, S, f, 4)
    assert witnesses
    first = witnesses[0]
    assert first.degree == 2
    assert first.render() == "u2 - u3"
    # (u2 - u3) = -x3, and x1*x2*x3 has non-face support
    g = first.as_u_polynomial()
    assert g.homogeneous_degree() == 2


def test_annihilator_search_empty_for_regular_element():
    S = SubgroupData(from_lists([[1, 0, -1, 0], [0, 1, 0, -1]]))
    f = parse_polynomial("x1", 4)
    assert annihilator_search(SQUARE, S, f, 4) == []


def test_annihilator_search_input_errors():
    S = SubgroupData(from_lists([[1, 0, -1, 0], [0, 1, 0, -1]]))
    with pytest.raises(InputError):
        annihilator_search(SQUARE, S, parse_polynomial("x1*x3", 4), 4)  # zero class
    with pytest.raises(InputError):
        annihilator_search(SQUARE, S, parse_polynomial("x1 + x1*x2", 4), 4)


def random_annihilator_case(rng):
    """(problem, f): a problem of random_problem (m <= 5, n <= 3) and a
    homogeneous f of internal degree 2 or 4 made of one to three
    monomials on one random face, so that f is nonzero in Z[K]."""
    while True:
        problem = parse_problem(random_problem(rng))
        K, degree, terms = problem.complex, rng.randint(1, 2), {}
        face = rng.choice(K.face_vertices())
        face = rng.sample(face, rng.randint(1, len(face)))
        for _ in range(rng.randint(1, 3)):
            exp = [0] * K.m
            for _ in range(degree):
                exp[rng.choice(face) - 1] += 1
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        f = Polynomial(K.m, terms)
        if not f.is_zero():
            return problem, f


def test_annihilator_search_matches_the_face_ring_oracle(budget):
    # 50 seeded cases where the oracle finds an annihilator of degree <= 8
    # and 50 where it finds none (about one random case in five has one):
    # per degree, as many witnesses as the oracle's kernel of g -> g f
    # has rank, and each witness times f is 0 in the oracle's face ring
    rng = random.Random(26)
    outcomes = Counter()
    with budget(2):
        while min(outcomes[True], outcomes[False]) < 50:
            problem, f = random_annihilator_case(rng)
            K, S = problem.complex, problem.B
            faces = oracles.downward_closure(K.face_vertices())
            multiples = oracles.u_multiples(faces, [u.coeffs for u in forms_of(S)],
                                            f.terms, 4)
            ranks = {e: oracles.annihilator_kernel_rank(multiples, e // 2) for e in range(2, 9, 2)}
            if outcomes[any(ranks.values())] == 50:
                continue
            witnesses = annihilator_search(K, S, f, 8)
            for e, rank in ranks.items():
                assert sum(w.degree == e for w in witnesses) == rank, e
            for w in witnesses:
                product = Counter()
                for a, c in zip(w.u_exponents, w.coefficients):
                    for mono, x in multiples[a].items():
                        product[mono] += c * x
                assert not any(product.values()), w
            outcomes[bool(witnesses)] += 1
