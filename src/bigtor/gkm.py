"""GKM restriction map and torsion certificates for Delzant-type data.

A pure complex whose maximal faces all have nonsingular column
submatrices B_v plays the role of the vertex set of a polytope: the
restriction of x_i at the vertex v = {i_1 < ... < i_n} is the linear
form (row r of B_v^{-1}) . (u_1, ..., u_n)^T when i = i_r, and zero
when i lies outside the face.  B_v^{-1} comes from cofactors over
intlinalg.det, and restrictions are stanley_reisner Polynomials in
u_1..u_n, exact over Q: the coefficients are Fractions, integral exactly
when |det B_v| = 1, a property of the input and not of the code path.
A torsion certificate is an integer kernel vector, from the engine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, InternalCheckError, NotGKMError
from .intlinalg import IntMatrix, det, kernel_lattice, rational_rank
from .simplicial import SimplicialComplex, SubgroupData, _check_shape, _column_submatrix, _memoized
from .stanley_reisner import (
    LinearForm,
    Polynomial,
    forms_of,
    reduce,
)


class VertexData(NamedTuple):
    """One maximal face with the rows of its column submatrix's inverse."""

    face: tuple  # vertices i_1 < ... < i_n
    alpha_rows: tuple  # rows of B_v^{-1}, tuples of Fraction

    def restriction_of(self, i: int, n: int) -> Polynomial:
        """The image of x_i at this vertex."""
        if i not in self.face:
            return Polynomial.zero(n)
        row = self.alpha_rows[self.face.index(i)]
        return Polynomial(n, {tuple(int(k == r) for k in range(n)): c for r, c in enumerate(row)})


def _cofactor(M: IntMatrix, r: int, c: int) -> int:
    """(-1)^(r+c) times the minor of M without row r and column c."""
    minor = [{k - (k > c): x for k, x in row.items() if k != c}
             for i, row in enumerate(M.sparse_rows()) if i != r]
    return (-1) ** (r + c) * det(IntMatrix(minor, cols=M.cols - 1))


def _divisible_by_linear(f: Polynomial, alpha: Polynomial) -> bool:
    """Whether the linear form alpha divides f, tested by substituting
    away one variable of alpha."""
    pivots = [(e.index(1), c) for e, c in alpha.terms.items() if sum(e) == 1]
    if len(pivots) != len(alpha.terms) or not pivots:
        raise InputError("edge form must be linear and nonzero")
    k, a_k = min(pivots)
    rest = Polynomial(
        f.nvars, {e: -Fraction(c) / a_k for e, c in alpha.terms.items() if e[k] != 1}
    )
    return f.substitute(k + 1, rest).is_zero()


@_memoized
def vertex_data(K: SimplicialComplex, S: SubgroupData) -> tuple:
    """Per-vertex data in input face order, after the GKM sanity gate:
    K pure with faces of size n, every B_v nonsingular, and the
    restriction map fixing each u_r (checked, not assumed)."""
    _check_shape(K, S)
    n = S.n
    if n == 0:
        raise NotGKMError("GKM data needs at least one subring generator")
    out = []
    for face in K.face_vertices():
        if len(face) != n:
            raise NotGKMError(
                f"complex is not pure of dimension {n - 1}: face {set(face)} has size {len(face)}"
            )
        sub = _column_submatrix(S.B, face)
        d = det(sub)
        if d == 0:
            raise NotGKMError(f"vertex submatrix at face {set(face)} is singular")
        # B_v^{-1} by cofactors: entry (r, c) is the (c, r) cofactor over d
        inverse = tuple(
            tuple(Fraction(_cofactor(sub, c, r), d) for c in range(n)) for r in range(n)
        )
        out.append(VertexData(face=face, alpha_rows=inverse))
    data = tuple(out)
    for r, u in enumerate(forms_of(S)):
        expected = Polynomial.variable(n, r + 1)
        for v in data:
            image = Polynomial.zero(n)
            for i in v.face:
                c = u.coeffs[i - 1]
                if c:
                    image = image + c * v.restriction_of(i, n)
            if image != expected:
                raise InternalCheckError(
                    f"restriction map does not fix u{r + 1} at face {set(v.face)}"
                )
    return data


def phi_restrictions(K: SimplicialComplex, S: SubgroupData, p: Polynomial) -> tuple:
    """The restrictions of p, one Polynomial in the u's per maximal face,
    in input face order."""
    if p.nvars != K.m:
        raise InputError(f"polynomial in {p.nvars} variables against a complex on [{K.m}]")
    data = vertex_data(K, S)
    n = S.n
    entries = []
    for v in data:
        total = Polynomial.zero(n)
        for mono, c in p.sorted_terms():
            factor = Polynomial.constant(n, c)
            for i, e in enumerate(mono, start=1):
                if e:
                    factor = factor * v.restriction_of(i, n) ** e
            total = total + factor
        entries.append(total)
    return tuple(entries)


class Edge(NamedTuple):
    """Pair of maximal faces sharing all but one vertex; the edge form is
    the restriction at v of the variable of v's vertex outside w."""

    v_index: int  # 1-based, input face order
    w_index: int
    alpha_from_v: Polynomial


@_memoized
def edge_data(K: SimplicialComplex, S: SubgroupData) -> tuple:
    data = vertex_data(K, S)
    n = S.n
    out = []
    for (a, va), (b, vb) in itertools.combinations(enumerate(data), 2):
        shared = set(va.face) & set(vb.face)
        if len(shared) != n - 1:
            continue
        (k_v,) = set(va.face) - shared
        out.append(Edge(v_index=a + 1, w_index=b + 1, alpha_from_v=va.restriction_of(k_v, n)))
    return tuple(out)


class GKMCheckReport(NamedTuple):
    ok: bool
    failing_edges: tuple  # (v_index, w_index, alpha text)


def gkm_check(K: SimplicialComplex, S: SubgroupData, t: tuple) -> GKMCheckReport:
    """Whether each difference across an edge is divisible by the edge
    form."""
    data = vertex_data(K, S)
    if len(t) != len(data):
        raise InputError(
            f"tuple has {len(t)} entries but the complex has {len(data)} maximal faces"
        )
    failing = []
    for edge in edge_data(K, S):
        diff = t[edge.v_index - 1] - t[edge.w_index - 1]
        if not _divisible_by_linear(diff, edge.alpha_from_v):
            failing.append((edge.v_index, edge.w_index, edge.alpha_from_v.render("u")))
    return GKMCheckReport(ok=not failing, failing_edges=tuple(failing))


class TorsionCertificate(NamedTuple):
    """An integer combination g of u_1..u_n and the extra form, and the
    face monomial f it annihilates."""

    vertex: tuple
    f: Polynomial
    g_extra_coefficient: int
    g_u_coefficients: tuple
    verified: bool

    def g_text(self) -> str:
        n = len(self.g_u_coefficients)
        pieces = []
        terms = [(self.g_extra_coefficient, n + 1)] + [
            (c, r + 1) for r, c in enumerate(self.g_u_coefficients) if c
        ]
        for c, idx in terms:
            mag = abs(c)
            body = f"u{idx}" if mag == 1 else f"{mag}u{idx}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def g_as_form(self, S: SubgroupData, extra: LinearForm) -> LinearForm:
        weights = (self.g_extra_coefficient, *self.g_u_coefficients)
        forms = (extra, *forms_of(S))
        return LinearForm(tuple(sum(w * u.coeffs[i] for w, u in zip(weights, forms))
                                for i in range(S.m)))


def find_torsion(K: SimplicialComplex, S: SubgroupData, extra: LinearForm, v) -> TorsionCertificate:
    """A certificate that the face monomial of v is torsion over the
    subring extended by the extra form.

    g = lambda (extra) + sum c_r u_r vanishes on v's columns: (lambda, c)
    spans the kernel of the stacked rows e_v, B_v, of rank 1 as B_v is
    nonsingular, and its Hermite generator is primitive with lambda > 0
    (lambda = 0 would force c = 0).  It is verified twice, through the
    restriction tuples and by direct reduction in the face ring, and the
    two must agree.
    """
    if extra.nvars != S.m:
        raise InputError(f"extra form has {extra.nvars} variables, expected {S.m}")
    # the rows extra, u_1, ..., u_n, in the order of (lambda, c)
    stacked = IntMatrix([{i: c for i, c in enumerate(u.coeffs) if c}
                         for u in (extra, *forms_of(S))], cols=S.m)
    if rational_rank(stacked) != S.n + 1:
        raise InputError(
            "extra form is dependent on the subring generators; no torsion certificate"
        )
    face = tuple(sorted(v))
    if not any(vd.face == face for vd in vertex_data(K, S)):
        raise InputError(f"{set(face) if face else set()} is not a maximal face")
    kernel = kernel_lattice(_column_submatrix(stacked, face).transpose())
    if kernel.rank != 1:
        raise InternalCheckError(f"certificate kernel has rank {kernel.rank}, not 1")
    (vec,) = kernel.basis
    cert = TorsionCertificate(
        vertex=face,
        f=Polynomial.monomial(
            K.m, tuple(1 if i + 1 in face else 0 for i in range(K.m))
        ),
        g_extra_coefficient=vec.get(0, 0),
        g_u_coefficients=tuple(vec.get(r, 0) for r in range(1, S.n + 1)),
        verified=False,
    )
    g_form = cert.g_as_form(S, extra)
    if any(g_form.coeffs[i - 1] != 0 for i in face):
        raise InternalCheckError("certificate form has support on its own vertex")
    product = g_form.as_polynomial() * cert.f
    direct_zero = reduce(K, product).is_zero()
    tuple_zero = all((a * b).is_zero() for a, b in zip(
        phi_restrictions(K, S, g_form.as_polynomial()), phi_restrictions(K, S, cert.f)))
    if direct_zero != tuple_zero:
        raise InternalCheckError(
            "restriction-tuple and direct-reduction verifications disagree"
        )
    if not direct_zero:
        raise InternalCheckError("torsion certificate failed verification")
    return cert._replace(verified=True)

