"""Graded arithmetic in the face ring Z[K].

Monomials carry the topological grading deg x_i = 2, so every internal
degree in sight is even.  The module provides monomial bases per
degree, reduction modulo the face ideal, multiplication matrices for
linear forms, graded pieces of quotients by linear forms, the closed
Hilbert formula, and the homogeneous annihilator search.  Bases and
multiplication matrices are memoized on their complex (simplicial).
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from typing import NamedTuple

from .errors import InputError
from .intlinalg import IntMatrix, ZModule, cokernel_structure, kernel_basis
from .simplicial import SimplicialComplex, SubgroupData, _memoized, all_faces, face_count_by_size


class LinearForm:
    """Integer linear form sum_j c_j x_j, of internal degree 2."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise InputError(f"linear form coefficients must be integers, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LinearForm(coeffs={self.coeffs})"

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_polynomial(self) -> "Polynomial":
        terms = {}
        m = self.nvars
        for idx, c in enumerate(self.coeffs):
            if c:
                exp = tuple(1 if k == idx else 0 for k in range(m))
                terms[exp] = c
        return Polynomial(m, terms)

    def render(self, var: str = "x") -> str:
        return self.as_polynomial().render(var)


def _monomial_key(exponents: tuple):
    # graded lex with x1 > x2 > ...; tuples compare the right way
    return (sum(exponents), exponents)


def _is_fraction(c) -> bool:
    # a Fraction exists only once fractions is loaded, so looking it up in
    # sys.modules keeps this module from loading fractions (and decimal)
    return isinstance(c, getattr(sys.modules.get("fractions"), "Fraction", ()))


class Polynomial:
    """Polynomial with exact rational coefficients in m variables: ints,
    or Fractions where gkm's restrictions need them.

    Stored as a map from exponent tuples to nonzero coefficients; terms
    serialize in graded-lex order with x1 largest.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exp, c in (terms or {}).items():
            if type(c) is not int and not _is_fraction(c):
                raise InputError(f"coefficient {c!r} is not an integer or a Fraction")
            exp = tuple(exp)
            if any(type(e) is not int for e in exp):
                raise InputError(f"exponent vector {exp!r} has an entry that is not an integer")
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise InputError(f"bad exponent vector {exp} for {nvars} variables")
            if c:
                clean[exp] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "Polynomial":
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def monomial(cls, nvars: int, exponents, coefficient: int = 1) -> "Polynomial":
        return cls(nvars, {tuple(exponents): coefficient})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The variable x_index, 1-based."""
        if not 1 <= index <= nvars:
            raise InputError(f"variable index {index} out of range (m = {nvars})")
        return cls.monomial(nvars, tuple(1 if k == index - 1 else 0 for k in range(nvars)))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: _monomial_key(kv[0]), reverse=True)

    def homogeneous_degree(self):
        """Common internal degree of all terms, or None if mixed/zero."""
        degrees = {2 * sum(exp) for exp in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def _check_compatible(self, other):
        if not isinstance(other, Polynomial) or other.nvars != self.nvars:
            raise InputError("polynomial arithmetic across different variable sets")

    def __add__(self, other) -> "Polynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return Polynomial(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial(self.nvars, {e: other * c for e, c in self.terms.items()})
        self._check_compatible(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                terms[key] = terms.get(key, 0) + ca * cb
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if type(k) is not int or k < 0:
            raise InputError(f"exponent {k!r} is not a nonnegative integer")
        out = Polynomial.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, index: int, replacement: "Polynomial") -> "Polynomial":
        """Replace x_index (1-based) by the given polynomial."""
        out = Polynomial.zero(self.nvars)
        for exp, c in self.terms.items():
            rest = exp[: index - 1] + (0,) + exp[index:]
            out = out + Polynomial(self.nvars, {rest: c}) * replacement ** exp[index - 1]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def render(self, var: str = "x") -> str:
        """Canonical text form, e.g. "2x1^2 - x2*x3"."""
        if not self.terms:
            return "0"
        pieces = []
        for idx, (exp, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for pos, e in enumerate(exp):
                if e == 1:
                    factors.append(f"{var}{pos + 1}")
                elif e > 1:
                    factors.append(f"{var}{pos + 1}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if body:
                head = body if mag == 1 else f"{mag}{body}"
            else:
                head = str(mag)
            if idx == 0:
                pieces.append(head if coeff > 0 else f"-{head}")
            else:
                pieces.append(f"+ {head}" if coeff > 0 else f"- {head}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.render()!r})"


_FACTOR_RE = re.compile(r"([A-Za-z])(\d+)(?:\^(\d+))?")


def parse_polynomial(text: str, nvars: int, var: str = "x") -> Polynomial:
    """Parse the canonical text form back into a Polynomial.

    Accepts both "2x1^2" and "2*x1^2" spellings; the variable letter
    must match `var` throughout.
    """
    stripped = text.strip()
    if not stripped:
        raise InputError("empty polynomial text")
    if stripped == "0":
        return Polynomial.zero(nvars)
    terms = {}
    # split into (sign, term) pairs
    chunks = re.split(r"\s*([+-])\s*", stripped)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise InputError(f"could not parse polynomial {text!r}")
    for sign_tok, term_tok in zip(chunks[0::2], chunks[1::2]):
        sign = -1 if sign_tok == "-" else 1
        term_tok = term_tok.strip()
        if not term_tok:
            raise InputError(f"dangling sign in polynomial {text!r}")
        coeff_match = re.match(r"^(\d+)", term_tok)
        coeff = int(coeff_match.group(1)) if coeff_match else 1
        rest = term_tok[coeff_match.end():] if coeff_match else term_tok
        rest = rest.lstrip("*").strip()
        exponents = [0] * nvars
        if rest:
            for factor in rest.split("*"):
                factor = factor.strip()
                fm = _FACTOR_RE.fullmatch(factor)
                if not fm:
                    raise InputError(f"bad factor {factor!r} in polynomial {text!r}")
                letter, index, power = fm.group(1), int(fm.group(2)), fm.group(3)
                if letter != var:
                    raise InputError(
                        f"unexpected variable {letter!r} in polynomial {text!r} (expected {var!r})"
                    )
                if not 1 <= index <= nvars:
                    raise InputError(f"variable {letter}{index} out of range (m = {nvars})")
                exponents[index - 1] += int(power) if power else 1
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + sign * coeff
    return Polynomial(nvars, terms)


def parse_linear_form(text: str, nvars: int, var: str = "x") -> LinearForm:
    """Parse a linear expression like "x2 + x3 - x4" into a LinearForm."""
    poly = parse_polynomial(text, nvars, var=var)
    coeffs = [0] * nvars
    for exp, c in poly.terms.items():
        if sum(exp) != 1:
            raise InputError(f"expression {text!r} is not linear in the {var}'s")
        coeffs[exp.index(1)] = c
    return LinearForm(tuple(coeffs))


class GradedBasis:
    """All face-supported monomials of one even internal degree, in
    graded-lex order with x1 largest."""

    __slots__ = ("degree", "monomials")

    def __init__(self, degree: int, monomials: tuple):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "monomials", monomials)

    def __setattr__(self, name, value):
        raise AttributeError("GradedBasis is immutable")

    def __len__(self):
        return len(self.monomials)

    def index_map(self) -> dict:
        return {mono: i for i, mono in enumerate(self.monomials)}


def _require_even(j: int, name: str = "internal degree"):
    """Refuse j unless it is an int (not a bool), even and nonnegative."""
    if type(j) is not int or j < 0 or j % 2:
        raise InputError(f"{name} must be an even nonnegative integer, got {j!r}")


def _support_mask(exp: tuple) -> int:
    mask = 0
    for pos, e in enumerate(exp):
        if e:
            mask |= 1 << pos
    return mask


@_memoized
def monomial_basis(K: SimplicialComplex, j: int) -> GradedBasis:
    """Monomials of internal degree j whose support is a face of K."""
    _require_even(j)
    total = j // 2
    monos = []
    for face in all_faces(K):
        size = face.bit_count()
        if size == 0:
            if total == 0:
                monos.append(tuple([0] * K.m))
            continue
        if size > total:
            continue
        positions = [p for p in range(K.m) if face & (1 << p)]
        # positive compositions of `total` into len(positions) parts
        for cut in itertools.combinations(range(1, total), size - 1):
            bounds = (0,) + cut + (total,)
            parts = [b - a for a, b in zip(bounds, bounds[1:])]
            exp = [0] * K.m
            for p, e in zip(positions, parts):
                exp[p] = e
            monos.append(tuple(exp))
    monos.sort(reverse=True)
    return GradedBasis(degree=j, monomials=tuple(monos))


def hilbert_coefficient(K: SimplicialComplex, j: int) -> int:
    """Rank of Z[K] in internal degree j, by the stars-and-bars formula
    summed over faces (no monomial enumeration)."""
    _require_even(j)
    if j == 0:
        return 1
    total = j // 2
    counts = 0
    by_size = face_count_by_size(K)
    for size in range(1, len(by_size)):
        counts += by_size[size] * math.comb(total - 1, size - 1)
    return counts


def reduce(K: SimplicialComplex, p: Polynomial) -> Polynomial:
    """Image of p in Z[K]: drop every monomial whose support is a
    non-face."""
    if p.nvars != K.m:
        raise InputError(f"polynomial in {p.nvars} variables against a complex on [{K.m}]")
    faces = all_faces(K)
    return Polynomial(
        p.nvars, {exp: c for exp, c in p.terms.items() if _support_mask(exp) in faces}
    )


@_memoized
def mult_matrix(K: SimplicialComplex, u: LinearForm, j: int) -> IntMatrix:
    """Matrix of multiplication by u from degree j to degree j + 2, in
    the canonical monomial bases, assembled row by row: the target
    monomial x^a receives u_k times x^(a - e_k) for every k with a_k > 0,
    and x^(a - e_k) lies on a face whenever x^a does."""
    _require_even(j)
    if u.nvars != K.m:
        raise InputError(f"form in {u.nvars} variables against a complex on [{K.m}]")
    if u.is_zero():
        raise InputError("multiplication by the zero form is not allowed")
    source = monomial_basis(K, j)
    target = monomial_basis(K, j + 2)
    index = source.index_map()
    terms = [(k, c) for k, c in enumerate(u.coeffs) if c]
    rows = []
    for mono in target.monomials:
        row = {}
        for k, c in terms:
            if mono[k]:
                row[index[mono[:k] + (mono[k] - 1,) + mono[k + 1:]]] = c
        rows.append(row)
    return IntMatrix._of(len(target), len(source), rows)


def quotient_piece(K: SimplicialComplex, forms, j: int) -> ZModule:
    """Degree-j piece of Z[K]/(forms) as an abelian group: the cokernel
    of the multiplication matrices into degree j, side by side (none
    when j < 2)."""
    _require_even(j)
    ideal = IntMatrix.zeros(len(monomial_basis(K, j)), 0)
    if j >= 2:
        for u in forms:
            ideal = ideal.hstack(mult_matrix(K, u, j - 2))
    return cokernel_structure(ideal)


class AnnihilatorWitness(NamedTuple):
    """A homogeneous polynomial g in the u's with g * f = 0 in Z[K]."""

    degree: int  # internal degree of g
    u_exponents: tuple  # exponent tuples over u_1..u_n, matching coefficients
    coefficients: tuple

    def as_u_polynomial(self) -> Polynomial:
        n = len(self.u_exponents[0]) if self.u_exponents else 0
        return Polynomial(n, dict(zip(self.u_exponents, self.coefficients)))

    def render(self) -> str:
        return self.as_u_polynomial().render(var="u")


def _u_monomials(n: int, half_degree: int) -> list:
    """Exponent tuples over n variables summing to half_degree, in
    graded-lex order with u1 largest."""
    out = []

    def recurse(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            recurse(prefix + (e,), remaining - e, slots - 1)

    if n == 0:
        return [()] if half_degree == 0 else []
    recurse((), half_degree, n)
    return out


def annihilator_search(K: SimplicialComplex, S: SubgroupData, f: Polynomial, E: int):
    """Homogeneous annihilators of f inside Z[u_1, ..., u_n], degree by
    degree up to internal degree E.

    Returns one AnnihilatorWitness per kernel basis vector of the maps
    g -> reduce(g * f); an empty list means no annihilator exists in
    degrees <= E.
    """
    _require_even(E)
    if S.m != K.m:
        raise InputError(f"matrix has {S.m} columns but the complex lives on [{K.m}]")
    f_red = reduce(K, f)
    if f_red.is_zero():
        raise InputError("element is 0 in Z[K]; annihilators are about nonzero classes")
    deg_f = f_red.homogeneous_degree()
    if deg_f is None:
        raise InputError("annihilator search needs a homogeneous element")
    row_polys = [LinearForm(S.row_coefficients(i)).as_polynomial() for i in range(S.n)]
    witnesses = []
    for e in range(2, E + 1, 2):
        u_monos = _u_monomials(S.n, e // 2)
        if not u_monos:
            continue
        target = monomial_basis(K, deg_f + e)
        index = target.index_map()
        columns = []
        for exp in u_monos:
            g = Polynomial.constant(K.m, 1)
            for i, power in enumerate(exp):
                for _ in range(power):
                    g = reduce(K, g * row_polys[i])
            columns.append({index[mono]: c for mono, c in reduce(K, g * f_red).terms.items()})
        matrix = IntMatrix.from_columns(columns, rows=len(target))
        for vec in kernel_basis(matrix):
            witnesses.append(
                AnnihilatorWitness(
                    degree=e,
                    u_exponents=tuple(u_monos),
                    coefficients=tuple(vec),
                )
            )
    return witnesses
