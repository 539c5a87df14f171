"""Koszul complex of Z[K] over the linear subring and its bigraded homology.

The chain group in homological degree p and internal degree j has basis
{monomial of Z[K]_{j-2p}} x {p-subsets of [n]}, and the differential

    d(a (x) xi_S) = sum_{i in S} (-1)^{#{s in S : s < i}} (u_i a) (x) xi_{S minus i}

preserves j.  Homology is therefore computed one internal degree at a
time with no truncation error; only statements quantified over all j
carry the degree bound D.

Each differential is assembled straight into sparse rows from the rows
of K's multiplication matrices (Davis, Direct Methods for Sparse Linear
Systems, 2006, ch. 2); one homology_structures pass over a degree's
differentials gives its Tor.  K memoizes the multiplication matrices for
every Koszul complex and scan on it, and a KoszulComplex its subsets,
differentials and presentations until it is freed; nothing caches one.
The Tor tables read each differential once, each from a complex dropped
after use, so one degree's matrices are freed before the next degree's
are assembled.

Alongside the Tor tables the module houses the verdict layer (big
Cohen-Macaulayness, odd vanishing, freeness diagnostics, depth) and a
second, independent regular-sequence checker that never touches the
Koszul complex: it decides each u_i's injectivity on the quotients by
u_1, ..., u_{i-1} as intlinalg.Quotient leaves them, building each
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
    Quotient,
    _diagonal,
    _times,
    homology_presentation,
    homology_structures,
    kernel_lattice,
    preimage,
    rational_rank,
)
from .simplicial import SimplicialComplex, SubgroupData, _check_shape, _memoized
from .stanley_reisner import (
    LinearForm,
    Polynomial,
    _require_even,
    forms_of,
    hilbert_coefficient,
    monomial_basis,
    mult_matrix,
)

HOLDS_UP_TO = "HOLDS_UP_TO"
FAILS = "FAILS"


class KoszulCycle(NamedTuple):
    """A chain at (p, j) in the kernel of the outgoing differential,
    split into one polynomial coefficient per exterior generator."""

    p: int
    j: int
    components: tuple  # pairs (i, Polynomial): the coefficient of xi_i
    explanation: str


class KoszulComplex:
    """Chain-level data for Z[K] tensor the exterior algebra on the
    given linear forms.  The instance owns its caches: subsets,
    differentials and homology presentations are each built once and
    freed with it."""

    def __init__(self, K: SimplicialComplex, forms):
        self.K = K
        self.forms = tuple(forms)
        self.n = len(self.forms)
        self._cache = {}  # (method name, *args) -> result, see _memoized

    @_memoized
    def subsets(self, p: int) -> tuple:
        """Size-p subsets of {1..n} in ascending lexicographic order."""
        return tuple(itertools.combinations(range(1, self.n + 1), p))

    def coefficient_basis(self, p: int, j: int) -> tuple:
        return monomial_basis(self.K, j - 2 * p)

    def chain_dim(self, p: int, j: int) -> int:
        if p < 0 or p > self.n or j - 2 * p < 0:
            return 0
        return len(self.coefficient_basis(p, j)) * math.comb(self.n, p)

    @_memoized
    def differential(self, p: int, j: int) -> IntMatrix:
        """Matrix of d: C_{p,j} -> C_{p-1,j} in the canonical bases
        (subset-major, monomials graded-lex within each block).

        Assembled straight into sparse rows: the row block of T holds,
        for each i outside T, the rows of u_i's multiplication block as K
        stores them, with sign (-1)^{#{t in T : t < i}}, shifted to the
        column block of T + {i}.  Distinct i give disjoint columns, so
        nothing adds.  An int bidegree out of range gives a zero map; any
        other is refused.
        """
        if type(p) is not int or type(j) is not int:
            raise InputError(f"bidegree ({p!r}, {j!r}) is not a pair of integers")
        n, d = self.n, j - 2 * p
        if not (1 <= p <= n and d >= 0):
            return IntMatrix.zeros(self.chain_dim(p - 1, j), self.chain_dim(p, j))
        src_block, dst_block = len(monomial_basis(self.K, d)), len(monomial_basis(self.K, d + 2))
        rows, cols = dst_block * math.comb(n, p - 1), src_block * math.comb(n, p)
        if cols == 0 or rows == 0:
            return IntMatrix.zeros(rows, cols)
        vertices = range(1, n + 1)
        start = {S: k * src_block for k, S in enumerate(itertools.combinations(vertices, p))}
        blocks = [mult_matrix(self.K, u, d)._entries for u in self.forms]
        out = []
        for T in itertools.combinations(vertices, p - 1):
            parts = []
            pos = 0  # elements of T below i
            for i in vertices:
                if pos < len(T) and T[pos] == i:
                    pos += 1
                    continue
                parts.append((blocks[i - 1], start[T[:pos] + (i,) + T[pos:]], -1 if pos % 2 else 1))
            for r in range(dst_block):
                row = {}
                for block, c0, sign in parts:
                    for c, x in block[r].items():
                        row[c0 + c] = sign * x
                out.append(row)
        return IntMatrix._of(rows, cols, out)

    def block_map(self, p: int, j: int, other: "KoszulComplex", q: int, image) -> dict:
        """Dict source index -> target index from C_{p,j} into other's
        C_{q,j-2(p-q)}: each monomial in the block of subset S goes to the
        same monomial in the block of image(S), or nowhere when image(S) is
        None.  Empty, with no subset enumerated, if either group is zero."""
        if not self.chain_dim(p, j) or not other.chain_dim(q, j - 2 * (p - q)):
            return {}
        block = len(self.coefficient_basis(p, j))
        index = {T: k for k, T in enumerate(other.subsets(q))}
        out = {}
        for s, S in enumerate(self.subsets(p)):
            T = image(S)
            if T is not None:
                t0 = index[T] * block
                out.update((s * block + k, t0 + k) for k in range(block))
        return out

    def by_subset(self, p: int, j: int, chain: dict) -> dict:
        """A chain at (p, j), dict basis index -> entry, as a dict subset ->
        {monomial: coefficient} over the subsets it touches."""
        monomials = self.coefficient_basis(p, j)
        subsets = self.subsets(p)
        out = {}
        for c, x in chain.items():
            s, k = divmod(c, len(monomials))
            out.setdefault(subsets[s], {})[monomials[k]] = x
        return out

    def times(self, u: LinearForm, p: int, j: int):
        """Multiplication by u as a chain map C_{p,j} -> C_{p,j+2}, block
        diagonal over the subsets: a function of sparse vectors, zeros dropped."""
        block = mult_matrix(self.K, u, j - 2 * p)
        columns = block.sparse_columns()

        def multiply(vec: dict) -> dict:
            parts = {}  # subset position -> vec's part in its block
            for c, x in vec.items():
                s, k = divmod(c, block.cols)
                parts.setdefault(s, {})[k] = x
            return {s * block.rows + r: x
                    for s, part in parts.items() for r, x in _times(part, columns).items()}

        return multiply

    @_memoized
    def homology(self, p: int, j: int) -> HomologyPresentation:
        return homology_presentation(self.differential(p, j), self.differential(p + 1, j))


class BigradedTor(NamedTuple):
    """Map (p, j) -> ZModule for 0 <= p <= n and even 0 <= j <= D."""

    n: int
    D: int
    table: dict

    def piece(self, p: int, j: int) -> ZModule:
        """Tor_p in internal degree j; a cell outside the table is refused."""
        if not (type(p) is type(j) is int and 0 <= p <= self.n and 0 <= j <= self.D and j % 2 == 0):
            raise InputError(f"cell ({p!r}, {j!r}) is outside the table: "
                             f"p in 0..{self.n}, even j in 0..{self.D}")
        return self.table[(p, j)]

    def entries(self) -> list:
        """Nonzero entries as (p, j, ZModule), sorted by (p, j)."""
        return [(p, j, zm) for (p, j), zm in sorted(self.table.items()) if not zm.is_zero()]

    def max_nonzero_p(self) -> int:
        return max((p for (p, j), zm in self.table.items() if not zm.is_zero()), default=0)


def tor_table(K: SimplicialComplex, S: SubgroupData, D: int) -> BigradedTor:
    """The complete table of Tor pieces for all p and all even j <= D."""
    _require_even(D, "degree bound")
    _check_shape(K, S)
    forms = forms_of(S)
    # C_p vanishes in degree j once 2p > j, so Tor_p does too; each map
    # comes from a complex that is dropped at once, so nothing keeps it
    # once its degree is eliminated
    columns = {j: homology_structures(KoszulComplex(K, forms).differential(p, j)
                                      for p in range(1, max(1, min(S.n, j // 2)) + 1))
               for j in range(0, D + 1, 2)}
    table = {(p, j): groups[p] if p < len(groups) else ZModule(0)
             for j, groups in columns.items() for p in range(S.n + 1)}
    return BigradedTor(n=S.n, D=D, table=table)


def tor1_witness(K: SimplicialComplex, S: SubgroupData, table: BigradedTor):
    """A Tor_1 cycle that is not a boundary, at the lowest internal
    degree of the table (of K and S) where Tor_1 is nonzero; None when
    Tor_1 vanishes there.

    The witness is the first vector of the Hermite-reduced basis of
    ker d_1 whose class is nonzero in the presentation of H_1, so reruns
    always pick the same cycle.
    """
    degrees = range(0, table.D + 1, 2) if table.n else ()  # no Tor_1 when n = 0
    j = next((j for j in degrees if not table.piece(1, j).is_zero()), None)
    if j is None:
        return None
    complex_ = KoszulComplex(K, forms_of(S))
    pres = complex_.homology(1, j)
    d = complex_.differential(1, j)
    for chosen in kernel_lattice(d).basis:
        coords = pres._coordinates(chosen)  # None exactly when chosen is not a cycle
        if coords is None:
            raise InternalCheckError("selected witness is not a cycle")
        if not pres.class_is_zero(coords):
            break
    else:
        raise InternalCheckError("nonzero homology but every generator died")
    parts = complex_.by_subset(1, j, chosen)
    components = [(i, Polynomial(K.m, parts[(i,)])) for (i,) in sorted(parts)]
    relation = " + ".join(
        f"({complex_.forms[i - 1].render()})*({poly.render()})" for i, poly in components
    )
    explanation = (
        f"cycle at (p=1, j={j}): " + " + ".join(f"({p.render()}) xi{i}" for i, p in components)
        + f"; the coefficients satisfy {relation} = 0 in Z[K], "
        "yet the cycle is not a boundary"
    )
    return KoszulCycle(p=1, j=j, components=tuple(components), explanation=explanation)


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
    qualifier = "exact" if table.n == 0 else "conditional" if top == 0 else "at_most"
    return DepthEstimate(value=table.n - top, qualifier=qualifier, bound=table.D)


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


def _is_injective(here: Quotient, there: Quotient, phi: list,
                  here_rank: int, there_rank: int) -> bool:
    """Whether the map with images phi of here.free is injective from here
    to there, given the ranks over Q of their relations.  Over Q,
    rank ker = rank here - (rank [phi | R] - rank R), R the relations of
    there.  At rank 0 the kernel is torsion, so a here whose relations (a
    residual, no +-1 entry) have _diagonal all 1 passes; otherwise the
    preimage of R under phi must lie in here's relation lattice."""
    image = there.matrix(phi + there.relations)
    if rational_rank(image) - there_rank < len(here.free) - here_rank:
        return False
    if not here.relations or max(_diagonal(here.relations, len(here.free) + len(here.pivots))) == 1:
        return True
    index = {g: f for f, g in enumerate(here.free)}
    lattice = Lattice._of(len(phi), [{index[g]: x for g, x in r.items()} for r in here.relations])
    return all(lattice._coordinates(v) is not None
               for v in preimage(phi, there.relations, image.cols))


def _quotient_scan(K: SimplicialComplex, forms: tuple, D: int):
    """Yield (stage, j, whether u_stage is injective from degree j to j + 2
    of Z[K]/(u_1, ..., u_{stage-1})) in scan order.  The stage-(i+1)
    quotient in degree j + 2 is stage i's modulo the image of u_i, built
    when the scan reaches it, so stopping early eliminates no more.  Each
    division also ranks the new relations over Q, once per quotient."""
    quotients = {j: Quotient.of(len(monomial_basis(K, j))) for j in range(0, D + 1, 2)}
    ranks = dict.fromkeys(quotients, 0)  # j -> rank over Q of quotients[j].relations
    images = {}  # j -> the last stage's images of degree j, over degree j + 2
    for stage, u in enumerate(forms, 1):
        here = quotients[0]
        for j in range(0, D - 1, 2):
            vectors = images.pop(j, [])
            there = quotients[j + 2] = quotients[j + 2].divided_by(vectors)
            if vectors:
                ranks[j + 2] = rational_rank(there.matrix(there.relations))
            columns = mult_matrix(K, u, j).sparse_columns()
            phi = images[j] = [there.project(columns[m]) for m in here.free]
            yield stage, j, _is_injective(here, there, phi, ranks[j], ranks[j + 2])
            here = there


def _annihilated_class(K: SimplicialComplex, forms: tuple, stage: int, j: int):
    """The full-space search: the first Hermite-reduced v in Z[K]_j with
    u_stage v in (u_1, ..., u_{stage-1}) but v outside it, as a dict
    monomial index -> nonzero coefficient, or None."""

    def ideal(d):  # the columns of [u_1 | ... | u_{stage-1}] into degree d
        return [column for u in (forms[: stage - 1] if d else ())
                for column in mult_matrix(K, u, d - 2).sparse_columns()]

    mult = mult_matrix(K, forms[stage - 1], j)
    ideal_here = Lattice._of(mult.cols, ideal(j))
    return next((v for v in preimage(mult.sparse_columns(), ideal(j + 2), mult.rows)
                 if ideal_here._coordinates(v) is None), None)


def regular_sequence_check(K: SimplicialComplex, S: SubgroupData, D: int) -> RegularSequenceReport:
    """Direct regular-sequence test, independent of the Koszul complex.

    Stage i checks that multiplication by u_i is injective on each graded
    piece of Z[K]/(u_1, ..., u_{i-1}), on the quotients the unit-pivot
    engine leaves (_quotient_scan).  At the first failure the full-space
    search names the annihilated class, and it must find one.
    """
    _require_even(D, "degree bound")
    _check_shape(K, S)
    forms = forms_of(S)
    failure = next(((stage, j) for stage, j, injective in _quotient_scan(K, forms, D)
                    if not injective), None)
    if failure is None:
        return RegularSequenceReport(regular=True, bound=D)
    stage, j = failure
    v = _annihilated_class(K, forms, stage, j)
    if v is None:
        raise InternalCheckError(f"quotient scan and full-space search disagree at u{stage}, j={j}")
    monomials = monomial_basis(K, j)
    poly = Polynomial(K.m, {monomials[c]: x for c, x in v.items()})
    witness = RegularityWitness(stage, j, poly.render(), forms[stage - 1].render())
    return RegularSequenceReport(regular=False, bound=D, witness=witness)


def expected_euler_characteristic(K: SimplicialComplex, n: int, j: int) -> int:
    """Coefficient of t^j in Hilb_K(t) * (1 - t^2)^n, by the closed
    Hilbert formula; the alternating rank sum must match it."""
    return sum((-1) ** k * math.comb(n, k) * hilbert_coefficient(K, j - 2 * k)
               for k in range(min(n, j // 2) + 1))


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
    _check_shape(K, S)
    forms = forms_of(S)
    degrees = range(0, D + 1, 2)
    # as in tor_table, each map comes from a complex dropped after its rank
    matrix_ranks = {(p, j): rational_rank(KoszulComplex(K, forms).differential(p, j))
                    for p in range(S.n + 2) for j in degrees}
    dims = KoszulComplex(K, forms)
    return {(p, j): dims.chain_dim(p, j) - matrix_ranks[(p, j)] - matrix_ranks[(p + 1, j)]
            for p in range(S.n + 1) for j in degrees}
