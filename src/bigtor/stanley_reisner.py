"""Graded arithmetic in the face ring Z[K].

Monomials carry the topological grading deg x_i = 2, so every internal
degree in sight is even.  The module provides linear forms (forms_of
reads the subring's generators off the rows of B), monomial bases per
degree, reduction modulo the face ideal, multiplication matrices for
linear forms, the closed Hilbert formula, and the homogeneous
annihilator search.  Bases and multiplication matrices are memoized on
their complex (simplicial).
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from typing import NamedTuple

from .errors import InputError
from .intlinalg import IntMatrix, _Immutable, _add_multiple, _dense, kernel_lattice
from .simplicial import SimplicialComplex, SubgroupData, _memoized, all_faces, face_count_by_size


class LinearForm(_Immutable):
    """Integer linear form sum_j c_j x_j, of internal degree 2."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise InputError(f"linear form coefficients must be integers, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

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

    def render(self) -> str:
        return self.as_polynomial().render()


def forms_of(S: SubgroupData) -> tuple:
    """The forms u_1, ..., u_n that the rows of B define, in row order."""
    return tuple(LinearForm(_dense(row, S.m)) for row in S.B.sparse_rows())


def _monomial_key(exponents: tuple):
    # graded lex with x1 > x2 > ...; tuples compare the right way
    return (sum(exponents), exponents)


def _is_fraction(c) -> bool:
    # a Fraction exists only once fractions is loaded, so looking it up in
    # sys.modules keeps this module from loading fractions (and decimal)
    return isinstance(c, getattr(sys.modules.get("fractions"), "Fraction", ()))


class Polynomial(_Immutable):
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

    def _key(self):
        return self.nvars, frozenset(self.terms.items())

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


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical text form in x1..x{nvars} back into a
    Polynomial.  Accepts both "2x1^2" and "2*x1^2" spellings."""
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
                if letter != "x":
                    raise InputError(
                        f"unexpected variable {letter!r} in polynomial {text!r} (expected 'x')"
                    )
                if not 1 <= index <= nvars:
                    raise InputError(f"variable {letter}{index} out of range (m = {nvars})")
                exponents[index - 1] += int(power) if power else 1
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + sign * coeff
    return Polynomial(nvars, terms)


def parse_linear_form(text: str, nvars: int) -> LinearForm:
    """Parse a linear expression like "x2 + x3 - x4" into a LinearForm."""
    poly = parse_polynomial(text, nvars)
    coeffs = [0] * nvars
    for exp, c in poly.terms.items():
        if sum(exp) != 1:
            raise InputError(f"expression {text!r} is not linear in the x's")
        coeffs[exp.index(1)] = c
    return LinearForm(tuple(coeffs))


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
def monomial_basis(K: SimplicialComplex, j: int) -> tuple:
    """Monomials of internal degree j whose support is a face of K, in
    graded-lex order with x1 largest."""
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
    return tuple(monos)


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
    index = {mono: i for i, mono in enumerate(source)}
    terms = [(k, c) for k, c in enumerate(u.coeffs) if c]
    rows = []
    for mono in target:
        row = {}
        for k, c in terms:
            if mono[k]:
                row[index[mono[:k] + (mono[k] - 1,) + mono[k + 1:]]] = c
        rows.append(row)
    return IntMatrix._of(len(target), len(source), rows)


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


def annihilator_search(K: SimplicialComplex, S: SubgroupData, f: Polynomial, E: int):
    """Homogeneous annihilators of f inside Z[u_1, ..., u_n], degree by
    degree up to internal degree E.

    Returns one AnnihilatorWitness per kernel basis vector of the maps
    g -> g * f, whose columns u^a f come from the multiplication matrices;
    an empty list means no annihilator exists in degrees <= E.
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
    forms = forms_of(S)
    index = {mono: i for i, mono in enumerate(monomial_basis(K, deg_f))}
    exponents = [(0,) * S.n]
    products = [{index[mono]: c for mono, c in f_red.terms.items()}]  # u^a f, a in exponents
    witnesses = []
    for e in range(2, E + 1, 2):
        # descending tuples are graded-lex order with u1 largest; u^a f is
        # u_i (u^(a - e_i) f), i the first index with a_i > 0
        previous = dict(zip(exponents, products))
        exponents = sorted({a[:i] + (a[i] + 1,) + a[i + 1:] for a in exponents for i in range(S.n)},
                           reverse=True)
        columns = [mult_matrix(K, u, deg_f + e - 2).sparse_columns() for u in forms]
        products = []
        for a in exponents:
            i = next(i for i, x in enumerate(a) if x)
            product = {}
            for c, x in previous[a[:i] + (a[i] - 1,) + a[i + 1:]].items():
                _add_multiple(product, x, columns[i][c])
            products.append(product)
        matrix = IntMatrix.from_columns(products, rows=len(monomial_basis(K, deg_f + e)))
        witnesses += [AnnihilatorWitness(e, tuple(exponents), _dense(vec, matrix.cols))
                      for vec in kernel_lattice(matrix).basis]
    return witnesses
