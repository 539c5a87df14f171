"""GKM restriction map and torsion certificates for Delzant-type data.

A pure complex whose maximal faces all have nonsingular column
submatrices B_v plays the role of the vertex set of a polytope: the
restriction of x_i at the vertex v = {i_1 < ... < i_n} is the linear
form (row r of B_v^{-1}) . (u_1, ..., u_n)^T when i = i_r, and zero
when i lies outside the face.  Everything here is exact rational
arithmetic; integrality is a property of the input (|det B_v| = 1),
not of the code path.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, InternalCheckError, NotGKMError
from .intlinalg import IntMatrix, det, rational_rank
from .simplicial import SimplicialComplex, SubgroupData
from .stanley_reisner import (
    LinearForm,
    Polynomial,
    _u_monomials,
    monomial_basis,
    reduce,
)


class QPoly:
    """Polynomial in u_1..u_n with Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(expo)] = c
        self._terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "QPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "QPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def linear(cls, coeffs) -> "QPoly":
        coeffs = tuple(Fraction(c) for c in coeffs)
        n = len(coeffs)
        terms = {}
        for r, c in enumerate(coeffs):
            if c:
                expo = [0] * n
                expo[r] = 1
                terms[tuple(expo)] = c
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, expo) -> Fraction:
        return self._terms.get(tuple(expo), Fraction(0))

    def terms(self):
        return dict(self._terms)

    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self._terms)
        for expo, c in other._terms.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return QPoly(self.nvars, out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        out = dict(self._terms)
        for expo, c in other._terms.items():
            out[expo] = out.get(expo, Fraction(0)) - c
        return QPoly(self.nvars, out)

    def __neg__(self) -> "QPoly":
        return QPoly(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly(self.nvars, {e: c * other for e, c in self._terms.items()})
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return QPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QPoly":
        out = QPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def substitute(self, var: int, replacement: "QPoly") -> "QPoly":
        """Replace u_{var} (1-based) by the given polynomial."""
        out = QPoly.zero(self.nvars)
        for expo, c in self._terms.items():
            e = expo[var - 1]
            rest = list(expo)
            rest[var - 1] = 0
            base = QPoly(self.nvars, {tuple(rest): c})
            out = out + base * (replacement ** e)
        return out

    def divisible_by_linear(self, alpha: "QPoly") -> bool:
        """Whether the linear form alpha divides this polynomial,
        tested by substituting away one variable of alpha."""
        pivots = [
            (e.index(1), c) for e, c in alpha._terms.items() if sum(e) == 1
        ]
        if len(pivots) != len(alpha._terms) or not pivots:
            raise InputError("edge form must be linear and nonzero")
        k, a_k = min(pivots)
        rest = QPoly(
            self.nvars,
            {e: -c / a_k for e, c in alpha._terms.items() if e[k] != 1},
        )
        return self.substitute(k + 1, rest).is_zero()

    def sorted_terms(self):
        return sorted(
            self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
        )

    def render(self, var: str = "u") -> str:
        if not self._terms:
            return "0"
        pieces = []
        for expo, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(expo):
                if e == 0:
                    continue
                factors.append(f"{var}{i + 1}" + (f"^{e}" if e > 1 else ""))
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"QPoly({self.render()})"


class VertexData(NamedTuple):
    """One maximal face with its column submatrix and inverse rows."""

    face: tuple  # vertices i_1 < ... < i_n
    submatrix: IntMatrix
    det: int
    alpha_rows: tuple  # rows of B_v^{-1}, tuples of Fraction

    def restriction_of(self, i: int, n: int) -> QPoly:
        """The image of x_i at this vertex."""
        if i not in self.face:
            return QPoly.zero(n)
        r = self.face.index(i)
        return QPoly.linear(self.alpha_rows[r])


class GKMTuple:
    """One polynomial in the u's per maximal face, in input order."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("GKMTuple is immutable")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def componentwise_mul(self, other: "GKMTuple") -> "GKMTuple":
        return GKMTuple(tuple(a * b for a, b in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def render(self) -> str:
        return "(" + ", ".join(e.render() for e in self.entries) + ")"


def _invert(B: IntMatrix):
    """Exact inverse rows of a square integer matrix, or None."""
    n = B.rows
    work = [[Fraction(B[(r, c)]) for c in range(n)] + [Fraction(int(r == k)) for k in range(n)]
            for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


@functools.lru_cache(maxsize=None)
def vertex_data(K: SimplicialComplex, S: SubgroupData) -> tuple:
    """Per-vertex data in input face order, after the GKM sanity gate:
    K pure with faces of size n, every B_v nonsingular, and the
    restriction map fixing each u_r (checked, not assumed)."""
    if K.m != S.m:
        raise InputError(f"complex on [{K.m}] but matrix has {S.m} columns")
    n = S.n
    if n == 0:
        raise NotGKMError("GKM data needs at least one subring generator")
    out = []
    for face in K.face_vertices():
        if len(face) != n:
            raise NotGKMError(
                f"complex is not pure of dimension {n - 1}: face {set(face)} has size {len(face)}"
            )
        sub = IntMatrix.from_columns(
            [tuple(S.B[(r, i - 1)] for r in range(n)) for i in face], rows=n
        )
        inverse = _invert(sub)
        if inverse is None:
            raise NotGKMError(f"vertex submatrix at face {set(face)} is singular")
        d = det(sub)
        if d == 0:
            raise InternalCheckError("invertible submatrix with zero determinant")
        out.append(
            VertexData(face=face, submatrix=sub, det=d, alpha_rows=inverse)
        )
    data = tuple(out)
    for r in range(n):
        expected = QPoly.linear([Fraction(int(k == r)) for k in range(n)])
        for v in data:
            image = QPoly.zero(n)
            for i in v.face:
                c = S.B[(r, i - 1)]
                if c:
                    image = image + c * v.restriction_of(i, n)
            if image != expected:
                raise InternalCheckError(
                    f"restriction map does not fix u{r + 1} at face {set(v.face)}"
                )
    return data


def phi_restrictions(K: SimplicialComplex, S: SubgroupData, p: Polynomial) -> GKMTuple:
    """The tuple of restrictions of p, one entry per maximal face."""
    if p.nvars != K.m:
        raise InputError(f"polynomial in {p.nvars} variables against a complex on [{K.m}]")
    data = vertex_data(K, S)
    n = S.n
    entries = []
    for v in data:
        total = QPoly.zero(n)
        for mono, c in p.sorted_terms():
            factor = QPoly.constant(n, c)
            for i, e in enumerate(mono, start=1):
                if e == 0:
                    continue
                img = v.restriction_of(i, n)
                if img.is_zero():
                    factor = QPoly.zero(n)
                    break
                factor = factor * (img ** e)
            total = total + factor
        entries.append(total)
    return GKMTuple(tuple(entries))


class Edge(NamedTuple):
    """Pair of maximal faces sharing all but one vertex; the forms are
    the dropped variable's restriction seen from each side."""

    v_index: int  # 1-based, input face order
    w_index: int
    alpha_from_v: QPoly
    alpha_from_w: QPoly


@functools.lru_cache(maxsize=None)
def edge_data(K: SimplicialComplex, S: SubgroupData) -> tuple:
    data = vertex_data(K, S)
    n = S.n
    out = []
    for (a, va), (b, vb) in itertools.combinations(enumerate(data), 2):
        shared = set(va.face) & set(vb.face)
        if len(shared) != n - 1:
            continue
        (k_v,) = set(va.face) - shared
        (k_w,) = set(vb.face) - shared
        out.append(
            Edge(
                v_index=a + 1,
                w_index=b + 1,
                alpha_from_v=va.restriction_of(k_v, n),
                alpha_from_w=vb.restriction_of(k_w, n),
            )
        )
    return tuple(out)


class GKMCheckReport(NamedTuple):
    ok: bool
    failing_edges: tuple  # (v_index, w_index, alpha text)


def gkm_check(K: SimplicialComplex, S: SubgroupData, t: GKMTuple) -> GKMCheckReport:
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
        if not diff.divisible_by_linear(edge.alpha_from_v):
            failing.append((edge.v_index, edge.w_index, edge.alpha_from_v.render()))
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
        coeffs = [self.g_extra_coefficient * c for c in extra.coeffs]
        for r, cr in enumerate(self.g_u_coefficients):
            if cr:
                for i in range(S.m):
                    coeffs[i] += cr * S.B[(r, i)]
        return LinearForm(tuple(coeffs))


def find_torsion(K: SimplicialComplex, S: SubgroupData, extra: LinearForm, v) -> TorsionCertificate:
    """A certificate that the face monomial of v is torsion over the
    subring extended by the extra form.

    g is the cleared-denominator form (extra) - sum a_r u_r where the
    a_r solve the restriction of the extra form at v; the certificate
    is verified twice, once through the restriction tuples and once by
    direct reduction in the face ring, and the two must agree.
    """
    if extra.nvars != S.m:
        raise InputError(f"extra form has {extra.nvars} variables, expected {S.m}")
    stacked = IntMatrix(
        [list(S.B.row(r)) for r in range(S.n)] + [list(extra.coeffs)], cols=S.m
    )
    if rational_rank(stacked) != S.n + 1:
        raise InputError(
            "extra form is dependent on the subring generators; no torsion certificate"
        )
    data = vertex_data(K, S)
    face = tuple(sorted(v))
    matching = next((vd for vd in data if vd.face == face), None)
    if matching is None:
        raise InputError(f"{set(face) if face else set()} is not a maximal face")
    n = S.n
    e_v = [Fraction(extra.coeffs[i - 1]) for i in matching.face]
    a = [
        sum(e_v[r] * matching.alpha_rows[r][c] for r in range(n))
        for c in range(n)
    ]
    denom = math.lcm(*(x.denominator for x in a)) if a else 1
    lam = denom
    u_coeffs = [-(x * lam) for x in a]
    if any(x.denominator != 1 for x in u_coeffs):
        raise InternalCheckError("denominator clearing failed")
    u_ints = [int(x) for x in u_coeffs]
    g = math.gcd(lam, *(abs(c) for c in u_ints))
    lam //= g
    u_ints = [c // g for c in u_ints]

    cert = TorsionCertificate(
        vertex=face,
        f=Polynomial.monomial(
            K.m, tuple(1 if i + 1 in face else 0 for i in range(K.m))
        ),
        g_extra_coefficient=lam,
        g_u_coefficients=tuple(u_ints),
        verified=False,
    )
    g_form = cert.g_as_form(S, extra)
    if any(g_form.coeffs[i - 1] != 0 for i in face):
        raise InternalCheckError("certificate form has support on its own vertex")
    product = g_form.as_polynomial() * cert.f
    direct_zero = reduce(K, product).is_zero()
    tuple_zero = (
        phi_restrictions(K, S, g_form.as_polynomial())
        .componentwise_mul(phi_restrictions(K, S, cert.f))
        .is_zero()
    )
    if direct_zero != tuple_zero:
        raise InternalCheckError(
            "restriction-tuple and direct-reduction verifications disagree"
        )
    if not direct_zero:
        raise InternalCheckError("torsion certificate failed verification")
    return TorsionCertificate(
        vertex=cert.vertex,
        f=cert.f,
        g_extra_coefficient=cert.g_extra_coefficient,
        g_u_coefficients=cert.g_u_coefficients,
        verified=True,
    )


def phi_matrix(K: SimplicialComplex, S: SubgroupData, j: int) -> IntMatrix:
    """Matrix of the restriction map on degree-j monomials, columns
    indexed by the monomial basis and rows by (vertex, u-monomial)
    pairs, scaled integral; its rank decides injectivity in degree j."""
    data = vertex_data(K, S)
    basis = monomial_basis(K, j)
    u_monos = _u_monomials(S.n, j // 2)
    images = []
    for mono in basis.monomials:
        p = Polynomial(K.m, {mono: 1})
        images.append(phi_restrictions(K, S, p))
    denom = 1
    for t in images:
        for entry in t.entries:
            for c in entry.terms().values():
                denom = math.lcm(denom, c.denominator)
    rows = []
    for vi in range(len(data)):
        for um in u_monos:
            rows.append(
                [int(t[vi].coefficient(um) * denom) for t in images]
            )
    return IntMatrix(rows, cols=len(basis))
