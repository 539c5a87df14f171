import itertools
import math
import random
from fractions import Fraction

import pytest

from bigtor import gkm
from bigtor.errors import InputError, InternalCheckError, NotGKMError
from bigtor.gkm import (
    edge_data,
    find_torsion,
    gkm_check,
    phi_restrictions,
    vertex_data,
)
from bigtor.intlinalg import det, rational_rank
from bigtor.simplicial import SubgroupData, build_complex
from bigtor.stanley_reisner import (
    LinearForm,
    Polynomial,
    hilbert_coefficient,
    monomial_basis,
    parse_polynomial,
    reduce,
)

import oracles
from conftest import from_lists

SQUARE = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
DELZANT = SubgroupData(from_lists([[1, 0, -1, 0], [0, 1, 0, -1]]))
ORBIFOLD = SubgroupData(from_lists([[1, 0, -2, 0], [0, 2, 0, -1]]))


def identity(n):
    return from_lists([[int(i == k) for k in range(n)] for i in range(n)], cols=n)


U3 = LinearForm((0, 1, 1, -1))


def phi(text, S=DELZANT):
    return phi_restrictions(SQUARE, S, parse_polynomial(text, 4))


def render(t):
    return "(" + ", ".join(entry.render("u") for entry in t) + ")"


def times(s, t):
    return tuple(a * b for a, b in zip(s, t))


def test_variable_restrictions_match_worked_example():
    assert render(phi("x1")) == "(u1, 0, 0, u1)"
    assert render(phi("x2")) == "(u2, u2, 0, 0)"
    assert render(phi("x3")) == "(0, -u1, -u1, 0)"
    assert render(phi("x4")) == "(0, 0, -u2, -u2)"


def test_subring_forms_restrict_to_constants():
    assert render(phi("x1 - x3")) == "(u1, u1, u1, u1)"
    assert render(phi("x2 - x4")) == "(u2, u2, u2, u2)"


def test_circuit_form_restriction():
    assert render(phi("x2 + x3 - x4")) == "(u2, -u1 + u2, -u1 + u2, u2)"


def test_product_restriction():
    assert render(phi("x1*x2")) == "(u1*u2, 0, 0, 0)"
    assert all(entry.is_zero() for entry in phi("x1*x3"))


def test_phi_is_multiplicative():
    rng = random.Random(2024)
    for _ in range(25):
        p = Polynomial.monomial(
            4, tuple(rng.randint(0, 2) for _ in range(4)), rng.randint(-2, 2)
        )
        q = Polynomial.monomial(
            4, tuple(rng.randint(0, 2) for _ in range(4)), rng.randint(-2, 2)
        )
        lhs = phi_restrictions(SQUARE, DELZANT, p * q)
        rhs = times(phi_restrictions(SQUARE, DELZANT, p), phi_restrictions(SQUARE, DELZANT, q))
        assert lhs == rhs
        # reduction does not change restrictions: killed monomials have
        # non-face support, which already restricts to zero everywhere
        reduced = phi_restrictions(SQUARE, DELZANT, reduce(SQUARE, p * q))
        assert reduced == lhs


def column_det(S, face):
    """det B_v, from the columns of B at the face's vertices."""
    return det(from_lists([[row[i - 1] for i in face] for row in S.B.to_lists()], cols=len(face)))


def alpha_from_w(K, S, edge):
    """The edge form seen from w: the restriction at w of the variable of
    w's vertex outside v."""
    data = vertex_data(K, S)
    v, w = data[edge.v_index - 1], data[edge.w_index - 1]
    (k_w,) = set(w.face) - set(v.face)
    return w.restriction_of(k_w, S.n)


def test_vertex_data_round_trip():
    dets = [column_det(DELZANT, v.face) for v in vertex_data(SQUARE, DELZANT)]
    assert dets == [1, 1, 1, -1]
    dets = [column_det(ORBIFOLD, v.face) for v in vertex_data(SQUARE, ORBIFOLD)]
    assert dets == [2, 4, 2, -1]
    v2 = vertex_data(SQUARE, ORBIFOLD)[1]
    assert v2.face == (2, 3)
    assert v2.alpha_rows == (
        (Fraction(0), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(0)),
    )


def test_edge_forms_point_in_opposite_directions():
    # the two sides of an edge see the same line with reversed
    # orientation; with unimodular vertex data the scale is exactly -1
    for e in edge_data(SQUARE, DELZANT):
        assert e.alpha_from_v == -alpha_from_w(SQUARE, DELZANT, e)
    for S in (DELZANT, ORBIFOLD):
        edges = edge_data(SQUARE, S)
        assert len(edges) == 4
        for e in edges:
            alpha_w = alpha_from_w(SQUARE, S, e)
            (expo, lead_v) = e.alpha_from_v.sorted_terms()[0]
            lead_w = alpha_w.terms[expo]
            ratio = lead_v / lead_w
            assert ratio < 0
            assert e.alpha_from_v == alpha_w * Polynomial.constant(S.n, ratio)


def test_gkm_check_accepts_restrictions_and_constants():
    for text in ("x1", "x2", "x3", "x4", "x1*x2", "x2 + x3 - x4"):
        assert gkm_check(SQUARE, DELZANT, phi(text)).ok
    ones = tuple(Polynomial.constant(2, 7) for _ in range(4))
    assert gkm_check(SQUARE, DELZANT, ones).ok


def test_gkm_check_flags_bad_tuple():
    u1 = Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    report = gkm_check(SQUARE, DELZANT, (u1, zero, zero, zero))
    assert not report.ok
    assert report.failing_edges == ((1, 4, "u2"),)


def test_gkm_check_rejects_wrong_length():
    with pytest.raises(InputError):
        gkm_check(SQUARE, DELZANT, (Polynomial.zero(2),))


def test_find_torsion_smooth_square():
    cert = find_torsion(SQUARE, DELZANT, U3, (1, 2))
    assert cert.g_text() == "u3 - u2"
    assert cert.f.render() == "x1*x2"
    assert cert.verified

    cert = find_torsion(SQUARE, DELZANT, U3, (2, 3))
    assert cert.g_text() == "u3 + u1 - u2"
    assert cert.f.render() == "x2*x3"
    assert cert.verified


def test_find_torsion_certificate_really_annihilates():
    cert = find_torsion(SQUARE, DELZANT, U3, (1, 2))
    g = cert.g_as_form(DELZANT, U3).as_polynomial()
    assert reduce(SQUARE, g * cert.f).is_zero()


def test_find_torsion_orbifold_clears_denominators():
    cert = find_torsion(SQUARE, ORBIFOLD, U3, (1, 2))
    assert cert.g_text() == "2u3 - u2"
    assert cert.f.render() == "x1*x2"
    assert cert.verified


def test_find_torsion_matches_the_cramer_oracle():
    # the certificate is the Hermite generator of a rank-one kernel; it must
    # be exactly the oracle's Cramer solution with its denominators cleared
    # and its content divided out, sign and scale included
    shapes = [
        SQUARE,
        build_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
        build_complex(6, list(itertools.product((1, 4), (2, 5), (3, 6)))),  # octahedron
    ]
    rng = random.Random(2012)
    cases = unimodular = vanishing = 0
    while cases < 240:
        K = rng.choice(shapes)
        faces = K.face_vertices()
        n = len(faces[0])
        rows = [[rng.randint(-3, 3) for _ in range(K.m)] for _ in range(n)]
        minors = [oracles.det_fraction([[row[i - 1] for i in face] for row in rows])
                  for face in faces]
        if 0 in minors:
            continue
        S = SubgroupData(from_lists(rows))
        for face, minor in zip(faces, minors):
            # about a third of the extra forms vanish on the face's columns
            vanish = rng.randrange(3) == 0
            extra = [0 if vanish and i + 1 in face else rng.randint(-3, 3) for i in range(K.m)]
            if oracles.rational_rank(rows + [extra]) != n + 1:
                continue
            cert = find_torsion(K, S, LinearForm(tuple(extra)), face)
            expected = oracles.torsion_certificate(rows, extra, face)
            assert (cert.g_extra_coefficient, cert.g_u_coefficients) == expected, (rows, extra, face)
            cases += 1
            unimodular += abs(minor) == 1
            vanishing += not any(extra[i - 1] for i in face)
    # |det B_v| = 1, |det B_v| > 1 and extra forms vanishing on the face all occur
    assert unimodular >= 10 and cases - unimodular >= 100 and vanishing >= 50, (unimodular, vanishing)


def test_find_torsion_rejects_dependent_extra():
    dependent = LinearForm((1, 1, -1, -1))  # u1 + u2 in the Delzant rows
    with pytest.raises(InputError):
        find_torsion(SQUARE, DELZANT, dependent, (1, 2))


def test_find_torsion_rejects_non_face_vertex():
    with pytest.raises(InputError):
        find_torsion(SQUARE, DELZANT, U3, (1, 3))


def test_singular_vertex_submatrix_is_not_gkm():
    bad = SubgroupData(from_lists([[1, 2, -1, 0], [2, 4, 0, -1]]))
    with pytest.raises(NotGKMError):
        vertex_data(SQUARE, bad)


def test_non_pure_complex_is_not_gkm():
    K = build_complex(3, [(1, 2), (3,)])
    S = SubgroupData(from_lists([[1, 1, 1], [0, 1, 2]]))
    with pytest.raises(NotGKMError):
        vertex_data(K, S)


def test_phi_matrix_injective_in_smooth_case():
    # the restriction map on degree-j monomials: one column per monomial and
    # one row per (vertex, u-monomial), scaled integral
    for j in range(2, 14, 2):
        images = [phi_restrictions(SQUARE, DELZANT, Polynomial.monomial(4, mono))
                  for mono in monomial_basis(SQUARE, j)]
        cells = sorted({(v, exp) for t in images for v, entry in enumerate(t)
                        for exp in entry.terms})
        rows = [[Fraction(t[v].terms.get(exp, 0)) for t in images] for v, exp in cells]
        denom = math.lcm(*(x.denominator for row in rows for x in row))
        M = from_lists([[int(x * denom) for x in row] for row in rows], cols=len(images))
        assert rational_rank(M) == hilbert_coefficient(SQUARE, j)


def random_polynomial(rng, m):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, 2) for _ in range(m))
        terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
    return Polynomial(m, terms)


def test_fraction_restrictions_satisfy_gkm_and_multiply(corpus):
    # ORBIFOLD and the corpus inputs with |det B_v| > 1 restrict to
    # Fraction coefficients; ann_square is not pure and fails the gate
    rng = random.Random(2025)
    inputs = [("square_orbifold", SQUARE, ORBIFOLD)] + [
        (name, problem.complex, problem.B) for name, problem in corpus.items()
    ]
    checked = []
    for name, K, S in inputs:
        try:
            vertex_data(K, S)
        except NotGKMError:
            continue
        checked.append(name)
        for _ in range(10):
            p, q = random_polynomial(rng, K.m), random_polynomial(rng, K.m)
            phi_p = phi_restrictions(K, S, p)
            assert gkm_check(K, S, phi_p).ok
            assert phi_restrictions(K, S, p * q) == times(phi_p, phi_restrictions(K, S, q))
    assert checked == ["square_orbifold"] + [name for name in corpus if name != "ann_square"]
    fractional = phi("x2", ORBIFOLD)
    assert render(fractional) == "(1/2u2, 1/2u2, 0, 0)"


def test_alpha_rows_are_inverse_to_random_submatrices():
    rng = random.Random(31)
    for n in range(1, 5):
        K = build_complex(n, [tuple(range(1, n + 1))])
        found = 0
        while found < 5:
            B = from_lists([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if det(B) == 0:
                continue
            found += 1
            S = SubgroupData(B)
            (v,) = vertex_data(K, S)
            assert column_det(S, v.face) == det(B)
            # B^{-1} is the adjugate over det B
            assert all((x * det(B)).denominator == 1 for row in v.alpha_rows for x in row)
            dense = B.to_lists()
            product = [
                [sum(v.alpha_rows[r][k] * dense[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)
            ]
            assert product == identity(n).to_lists()


def test_wrong_cofactor_sign_trips_restriction_gate(monkeypatch):
    right = gkm._cofactor
    monkeypatch.setattr(gkm, "_cofactor", lambda M, r, c: (-1) ** (r + c) * right(M, r, c))
    # a fresh complex, because SQUARE may hold the correct data already
    square = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(InternalCheckError, match="does not fix"):
        vertex_data(square, ORBIFOLD)
