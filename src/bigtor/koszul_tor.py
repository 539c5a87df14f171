"""Koszul complex of Z[K] over the linear subring and its bigraded homology.

The chain group in homological degree p and internal degree j has basis
{monomial of Z[K]_{j-2p}} x {p-subsets of [n]}, and the differential

    d(a (x) xi_S) = sum_{i in S} (-1)^{#{s in S : s < i}} (u_i a) (x) xi_{S minus i}

preserves j.  Homology is therefore computed one internal degree at a
time with no truncation error; only statements quantified over all j
carry the degree bound D.

Each differential is assembled straight into sparse rows from the rows
of K's multiplication matrices (Davis, Direct Methods for Sparse Linear
Systems, 2006, ch. 2) and goes to the elimination engine as it is.  K
memoizes those matrices for every Koszul complex and scan on it.  A
KoszulComplex memoizes its subsets, differentials, cokernels and homology
presentations and frees them with it; nothing caches a KoszulComplex.

Alongside the Tor tables the module houses the verdict layer (big
Cohen-Macaulayness, odd vanishing, freeness diagnostics, depth) and a
second, independent regular-sequence checker that never touches the
Koszul complex: it decides each u_i's injectivity on the quotients by
u_1, ..., u_{i-1} as the unit-pivot engine leaves them, building each
quotient only when the scan reaches it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .intlinalg import (
    IntMatrix,
    Lattice,
    ZModule,
    HomologyPresentation,
    check_complex,
    cokernel_structure,
    homology_presentation,
    kernel_lattice,
    rational_rank,
    _dense,
    _eliminate_units,
    _substitute,
)
from .simplicial import SimplicialComplex, SubgroupData, _memoized
from .stanley_reisner import (
    GradedBasis,
    LinearForm,
    Polynomial,
    _require_even,
    hilbert_coefficient,
    monomial_basis,
    mult_matrix,
)

HOLDS_UP_TO = "HOLDS_UP_TO"
FAILS = "FAILS"


class KoszulIndex(NamedTuple):
    """Position (p, j) in the bigraded complex; q = j - p is the
    cohomological degree."""

    p: int
    j: int

    @property
    def q(self) -> int:
        return self.j - self.p


class KoszulCycle(NamedTuple):
    """A chain at (p, j) in the kernel of the outgoing differential,
    split into one polynomial coefficient per exterior generator."""

    index: KoszulIndex
    coordinates: tuple
    components: tuple  # pairs (i, Polynomial): the coefficient of xi_i
    explanation: str


class KoszulComplex:
    """Chain-level data for Z[K] tensor the exterior algebra on the
    given linear forms.  The instance owns its caches: subsets,
    differentials, cokernels and homology presentations are each built
    once and freed with it."""

    def __init__(self, K: SimplicialComplex, forms):
        self.K = K
        self.forms = tuple(forms)
        self.n = len(self.forms)
        self._cache = {}  # (method name, *args) -> result, see _memoized

    @_memoized
    def subsets(self, p: int) -> tuple:
        """Size-p subsets of {1..n} in ascending lexicographic order."""
        return tuple(itertools.combinations(range(1, self.n + 1), p))

    def coefficient_basis(self, p: int, j: int) -> GradedBasis:
        return monomial_basis(self.K, j - 2 * p)

    def chain_dim(self, p: int, j: int) -> int:
        if p < 0 or p > self.n or j - 2 * p < 0:
            return 0
        return len(self.coefficient_basis(p, j)) * len(self.subsets(p))

    @_memoized
    def differential(self, p: int, j: int) -> IntMatrix:
        """Matrix of d: C_{p,j} -> C_{p-1,j} in the canonical bases
        (subset-major, monomials graded-lex within each block).

        Assembled straight into sparse rows: the row block of T holds,
        for each i outside T, the rows of u_i's multiplication block
        with sign (-1)^{#{t in T : t < i}}, shifted to the column block
        of T + {i}.  Distinct i give disjoint columns, so nothing adds.
        An int bidegree out of range gives a zero map; any other is refused.
        """
        if type(p) is not int or type(j) is not int:
            raise InputError(f"bidegree ({p!r}, {j!r}) is not a pair of integers")
        cols = self.chain_dim(p, j)
        rows = self.chain_dim(p - 1, j)
        if cols == 0 or rows == 0:
            return IntMatrix.zeros(rows, cols)
        d = j - 2 * p
        src_block = len(self.coefficient_basis(p, j))
        dst_block = len(self.coefficient_basis(p - 1, j))
        src_index = {S: k for k, S in enumerate(self.subsets(p))}
        blocks = [mult_matrix(self.K, u, d).sparse_rows() for u in self.forms]
        out = []
        for T in self.subsets(p - 1):
            parts = []
            pos = 0  # elements of T below i
            for i in range(1, self.n + 1):
                if pos < len(T) and T[pos] == i:
                    pos += 1
                    continue
                S = T[:pos] + (i,) + T[pos:]
                parts.append((blocks[i - 1], src_index[S] * src_block, -1 if pos % 2 else 1))
            for r in range(dst_block):
                row = {}
                for block, c0, sign in parts:
                    for c, x in block[r].items():
                        row[c0 + c] = sign * x
                out.append(row)
        return IntMatrix._of(rows, cols, out)

    @_memoized
    def cokernel(self, p: int, j: int) -> ZModule:
        return cokernel_structure(self.differential(p, j))

    @_memoized
    def homology(self, p: int, j: int) -> HomologyPresentation:
        return homology_presentation(self.differential(p, j), self.differential(p + 1, j))


def _forms_of(S: SubgroupData) -> tuple:
    return tuple(LinearForm(S.row_coefficients(i)) for i in range(S.n))


def _complex_for(K: SimplicialComplex, S: SubgroupData) -> KoszulComplex:
    return KoszulComplex(K, _forms_of(S))


class BigradedTor(NamedTuple):
    """Map (p, j) -> ZModule for 0 <= p <= n and even 0 <= j <= D."""

    n: int
    D: int
    table: dict

    def piece(self, p: int, j: int) -> ZModule:
        return self.table.get((p, j), ZModule(0))

    def entries(self) -> list:
        """Nonzero entries as (p, j, ZModule), sorted by (p, j)."""
        out = []
        for (p, j), zm in sorted(self.table.items()):
            if not zm.is_zero():
                out.append((p, j, zm))
        return out

    def max_nonzero_p(self) -> int:
        return max((p for (p, j), zm in self.table.items() if not zm.is_zero()), default=0)


def _check_bidegree(K: SimplicialComplex, S: SubgroupData, p: int, j: int):
    if K.m != S.m:
        raise InputError(f"complex on [{K.m}] but matrix has {S.m} columns")
    if type(p) is not int or not 0 <= p <= S.n:
        raise InputError(f"homological degree {p!r} is not an integer in 0..{S.n}")
    _require_even(j)


def _tor_structure(complex_: KoszulComplex, p: int, j: int) -> ZModule:
    """Tor_p in internal degree j from ranks and invariant factors alone.

    rank = dim - rank d_out - rank d_in, and the torsion is that of
    coker d_in: ker d_out is saturated, so every torsion class of
    C/im d_in is a cycle.  The complex memoizes each cokernel, so a
    table eliminates each differential once.
    """
    d_out = complex_.differential(p, j)
    d_in = complex_.differential(p + 1, j)
    check_complex(d_out, d_in)
    rank_out = d_out.rows - complex_.cokernel(p, j).rank
    coker_in = complex_.cokernel(p + 1, j)
    rank_in = d_in.rows - coker_in.rank
    return ZModule(d_in.rows - rank_out - rank_in, coker_in.torsion)


def tor_piece(K: SimplicialComplex, S: SubgroupData, p: int, j: int) -> ZModule:
    """Tor_p in internal degree j, as an abelian group."""
    _check_bidegree(K, S, p, j)
    return _tor_structure(_complex_for(K, S), p, j)


def tor_presentation(K: SimplicialComplex, S: SubgroupData, p: int, j: int) -> HomologyPresentation:
    _check_bidegree(K, S, p, j)
    return _complex_for(K, S).homology(p, j)


def tor_table(K: SimplicialComplex, S: SubgroupData, D: int) -> BigradedTor:
    """The complete table of Tor pieces for all p and all even j <= D."""
    _require_even(D, "degree bound")
    _check_bidegree(K, S, 0, 0)
    complex_ = _complex_for(K, S)
    table = {}
    for p in range(S.n + 1):
        for j in range(0, D + 1, 2):
            table[(p, j)] = _tor_structure(complex_, p, j)
    return BigradedTor(n=S.n, D=D, table=table)


def tor1_witness(K: SimplicialComplex, S: SubgroupData, table: BigradedTor):
    """A Tor_1 cycle that is not a boundary, at the lowest internal
    degree of the table (of K and S) where Tor_1 is nonzero; None when
    Tor_1 vanishes there.

    The witness is the first Hermite-reduced kernel basis vector whose
    class is nonzero, so reruns always pick the same cycle.
    """
    j = next((j for j in range(0, table.D + 1, 2) if not table.piece(1, j).is_zero()), None)
    if j is None:
        return None
    complex_ = _complex_for(K, S)
    pres = complex_.homology(1, j)
    cycles = pres.kernel_lattice()
    chosen = next((vec for g, vec in enumerate(cycles.basis)
                   if not pres.class_is_zero(pres.project({g: 1}))), None)
    if chosen is None:
        raise InternalCheckError("nonzero homology but every generator died")
    coordinates = _dense(chosen, cycles.n)
    if any(complex_.differential(1, j).apply(coordinates)):
        raise InternalCheckError("selected witness is not a cycle")
    monomials = complex_.coefficient_basis(1, j).monomials
    parts = {}  # xi index -> the coefficient's terms
    for c, x in chosen.items():
        idx, t = divmod(c, len(monomials))
        parts.setdefault(idx + 1, {})[monomials[t]] = x
    components = [(i, Polynomial(K.m, parts[i])) for i in sorted(parts)]
    relation = " + ".join(
        f"({complex_.forms[i - 1].render()})*({poly.render()})" for i, poly in components
    )
    explanation = (
        f"cycle at (p=1, j={j}): " + " + ".join(f"({p.render()}) xi{i}" for i, p in components)
        + f"; the coefficients satisfy {relation} = 0 in Z[K], "
        "yet the cycle is not a boundary"
    )
    return KoszulCycle(
        index=KoszulIndex(p=1, j=j),
        coordinates=coordinates,
        components=tuple(components),
        explanation=explanation,
    )


class Verdict(NamedTuple):
    status: str  # HOLDS_UP_TO | FAILS
    bound: int
    witness: tuple = ()  # key/value pairs, JSON friendly

    def holds(self) -> bool:
        return self.status == HOLDS_UP_TO

    def __str__(self):
        if self.holds():
            return f"{self.status}({self.bound})"
        detail = ", ".join(f"{k}={v}" for k, v in self.witness)
        return f"{self.status}({detail})" if detail else self.status


class VerdictReport(NamedTuple):
    bigcm: Verdict
    odd_vanishing: Verdict
    tor0_torsion_free: Verdict
    free_over_R: Verdict


def verdicts(table: BigradedTor) -> VerdictReport:
    """The four headline verdicts for a computed table.

    Internally enforces that the big-CM verdict and the odd-vanishing
    verdict fail together; any split between them is a bug, not a
    property of the input.
    """
    D = table.D
    items = sorted(table.table.items())

    def verdict(bad, witness):
        hit = next(((p, j, zm) for (p, j), zm in items if bad(p, j, zm)), None)
        return Verdict(HOLDS_UP_TO, D) if hit is None else Verdict(FAILS, D, witness(*hit))

    bigcm = verdict(lambda p, j, zm: p == 1 and not zm.is_zero(),
                    lambda p, j, zm: (("p", p), ("j", j), ("group", str(zm))))
    odd = verdict(lambda p, j, zm: (j - p) % 2 and not zm.is_zero(),
                  lambda p, j, zm: (("p", p), ("j", j), ("q", j - p), ("group", str(zm))))
    if bigcm.holds() != odd.holds():
        raise InternalCheckError(
            f"big-CM and odd-vanishing verdicts disagree: bigcm={bigcm}, odd_vanishing={odd}"
        )
    torsion_free = verdict(lambda p, j, zm: p == 0 and zm.torsion,
                           lambda p, j, zm: (("j", j), ("torsion", list(zm.torsion))))
    named = (("bigcm", bigcm), ("tor0_torsion_free", torsion_free))
    blame = tuple((name, str(v)) for name, v in named if not v.holds())
    free = Verdict(FAILS, D, blame) if blame else Verdict(HOLDS_UP_TO, D)
    return VerdictReport(bigcm=bigcm, odd_vanishing=odd, tor0_torsion_free=torsion_free,
                         free_over_R=free)


class DepthEstimate(NamedTuple):
    """n minus the largest homological degree seen to be nonzero.

    The observed value can only drop as the bound D grows, so it is an
    upper bound on the true depth; when no Tor_{p>=1} shows up at all
    the estimate equals n, conditional on nothing appearing past D.
    """

    value: int
    qualifier: str  # "exact" | "conditional" | "at_most"
    bound: int

    def __str__(self):
        if self.qualifier == "exact":
            return str(self.value)
        if self.qualifier == "conditional":
            return f"{self.value} (conditional on the bound {self.bound})"
        return f"<= {self.value} (from degrees up to {self.bound})"


def depth_estimate(table: BigradedTor) -> DepthEstimate:
    top = table.max_nonzero_p()
    value = table.n - top
    if table.n == 0:
        qualifier = "exact"
    elif top == 0:
        qualifier = "conditional"
    else:
        qualifier = "at_most"
    return DepthEstimate(value=value, qualifier=qualifier, bound=table.D)


class RegularityWitness(NamedTuple):
    stage: int  # which u_i failed (1-based)
    j: int  # internal degree of the annihilated class
    class_text: str
    form_text: str

    def __str__(self):
        return (
            f"u{self.stage} = {self.form_text} kills the nonzero class "
            f"{self.class_text} in degree {self.j} of the stage-{self.stage} quotient"
        )


class RegularSequenceReport(NamedTuple):
    regular: bool
    bound: int
    witness: RegularityWitness | None = None


class _Quotient(NamedTuple):
    """Z[K]_j modulo the forms scanned so far, as _eliminate_units leaves
    it: the surviving monomials, the residual relations over them with
    their rank, and the pivot log (and each pivot's place in it)."""

    free: tuple
    relations: list
    rank: int
    pivots: list
    position: dict

    def matrix(self, vectors: list) -> IntMatrix:
        """The vectors, over this degree's monomials, as matrix rows."""
        return IntMatrix._of(len(vectors), len(self.free) + len(self.pivots), vectors)

    def divided_by(self, vectors: list) -> "_Quotient":
        """This quotient modulo further vectors over its free monomials."""
        if not vectors:
            return self
        new, residual = _eliminate_units([dict(v) for v in self.relations + vectors])
        gone = {g: len(self.pivots) + k for k, (g, _) in enumerate(new)}
        free = tuple(g for g in self.free if g not in gone)
        rank = rational_rank(self.matrix(residual))
        return _Quotient(free, residual, rank, self.pivots + new, {**self.position, **gone})


def _is_injective(here: _Quotient, there: _Quotient, phi: list) -> bool:
    """Whether the map with images phi of here.free is injective from here
    to there.  Over Q, rank ker = rank here - (rank [phi | R] - rank R),
    R the relations of there.  At rank 0 the kernel is torsion, so a
    torsion-free here passes; otherwise ker [phi | R], cut to here.free,
    must lie in here's relation lattice."""
    image = there.matrix(phi + there.relations)
    if rational_rank(image) - there.rank < len(here.free) - here.rank:
        return False
    if not here.relations or not cokernel_structure(here.matrix(here.relations)).torsion:
        return True
    index = {g: f for f, g in enumerate(here.free)}
    lattice = Lattice(len(phi), [{index[g]: x for g, x in r.items()} for r in here.relations])
    return all({c: x for c, x in v.items() if c < len(phi)} in lattice
               for v in kernel_lattice(image.transpose()).basis)


def _quotient_scan(K: SimplicialComplex, forms: tuple, D: int):
    """Yield (stage, j, whether u_stage is injective from degree j to j + 2
    of Z[K]/(u_1, ..., u_{stage-1})) in scan order.  The stage-(i+1)
    quotient in degree j + 2 is stage i's modulo the image of u_i, built
    when the scan reaches it, so stopping early eliminates no more."""
    quotients = {j: _Quotient(tuple(range(len(monomial_basis(K, j)))), [], 0, [], {})
                 for j in range(0, D + 1, 2)}
    images = {}  # j -> the last stage's images of degree j, over degree j + 2
    for stage, u in enumerate(forms, 1):
        here = quotients[0]
        for j in range(0, D - 1, 2):
            there = quotients[j + 2] = quotients[j + 2].divided_by(images.pop(j, []))
            columns = mult_matrix(K, u, j).sparse_columns()
            phi = images[j] = [_substitute(there.pivots, there.position, columns[m])
                               for m in here.free]
            yield stage, j, _is_injective(here, there, phi)
            here = there


def _annihilated_class(K: SimplicialComplex, forms: tuple, stage: int, j: int):
    """The full-space search: the first Hermite-reduced v in Z[K]_j with
    u_stage v in (u_1, ..., u_{stage-1}) but v outside it, or None."""

    def ideal(d):  # -[u_1 | ... | u_{stage-1}] into degree d
        block = IntMatrix.zeros(len(monomial_basis(K, d)), 0)
        for u in forms[: stage - 1] if d else ():
            block = block.hstack(mult_matrix(K, u, d - 2).scaled(-1))
        return block

    mult = mult_matrix(K, forms[stage - 1], j)
    ideal_here = Lattice(mult.cols, ideal(j).sparse_columns())
    cut = ({c: x for c, x in v.items() if c < mult.cols}
           for v in kernel_lattice(mult.hstack(ideal(j + 2))).basis)
    v = next((v for v in cut if v not in ideal_here), None)
    return None if v is None else _dense(v, mult.cols)


def regular_sequence_check(K: SimplicialComplex, S: SubgroupData, D: int) -> RegularSequenceReport:
    """Direct regular-sequence test, independent of the Koszul complex.

    Stage i checks that multiplication by u_i is injective on each graded
    piece of Z[K]/(u_1, ..., u_{i-1}), on the quotients the unit-pivot
    engine leaves (_quotient_scan).  At the first failure the full-space
    search names the annihilated class, and it must find one.
    """
    _require_even(D, "degree bound")
    forms = _forms_of(S)
    failure = next(((stage, j) for stage, j, injective in _quotient_scan(K, forms, D)
                    if not injective), None)
    if failure is None:
        return RegularSequenceReport(regular=True, bound=D)
    stage, j = failure
    v = _annihilated_class(K, forms, stage, j)
    if v is None:
        raise InternalCheckError(f"quotient scan and full-space search disagree at u{stage}, j={j}")
    poly = Polynomial(K.m, {mono: c for mono, c in zip(monomial_basis(K, j).monomials, v) if c})
    witness = RegularityWitness(stage, j, poly.render(), forms[stage - 1].render())
    return RegularSequenceReport(regular=False, bound=D, witness=witness)


def expected_euler_characteristic(K: SimplicialComplex, n: int, j: int) -> int:
    """Coefficient of t^j in Hilb_K(t) * (1 - t^2)^n, by the closed
    Hilbert formula; the alternating rank sum must match it."""
    total = 0
    for k in range(n + 1):
        d = j - 2 * k
        if d < 0:
            continue
        total += (-1) ** k * math.comb(n, k) * hilbert_coefficient(K, d)
    return total


def euler_discrepancies(K: SimplicialComplex, S: SubgroupData, table: BigradedTor) -> list:
    """Degrees where the alternating rank sum misses the Hilbert-series
    oracle; must come back empty."""
    bad = []
    for j in range(0, table.D + 1, 2):
        lhs = sum((-1) ** p * table.piece(p, j).rank for p in range(table.n + 1))
        rhs = expected_euler_characteristic(K, S.n, j)
        if lhs != rhs:
            bad.append((j, lhs, rhs))
    return bad


def rational_tor_ranks(K: SimplicialComplex, S: SubgroupData, D: int) -> dict:
    """Tor ranks over Q by fraction-exact elimination, bypassing Smith
    normal form entirely; keyed by (p, j)."""
    _require_even(D, "degree bound")
    complex_ = _complex_for(K, S)
    degrees = range(0, D + 1, 2)
    matrix_ranks = {(p, j): rational_rank(complex_.differential(p, j))
                    for p in range(S.n + 2) for j in degrees}
    return {(p, j): complex_.chain_dim(p, j) - matrix_ranks[(p, j)] - matrix_ranks[(p + 1, j)]
            for p in range(S.n + 1) for j in degrees}
