"""Short exact sequence of Koszul complexes for one extra linear form,
and the induced long exact sequence of bigraded Tor.

With u_1..u_n the base forms and u_{n+1} the split-off row, the chain
groups fit into

    0 -> C_{p,j} --tau*--> C~_{p,j} --tau_*--> C_{p-1,j-2} -> 0

where tau* includes the exterior subsets avoiding n+1 and tau_* reads
off the xi_{n+1} component with a sign (-1)^(p-1).  The sign makes the
connecting homomorphism of the long exact sequence equal to plain
multiplication by u_{n+1}; tau_* then anticommutes with the
differentials, which changes no kernel or image.

Every induced map on homology is computed on explicit kernel-basis
generators, and exactness at a node is an equality of two coordinate
lattices, so the verification is exact integer arithmetic end to end.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .intlinalg import (
    IntMatrix,
    Lattice,
    SnfSolver,
    ZModule,
    cokernel_structure,
    kernel_basis,
)
from .koszul_tor import KoszulComplex
from .simplicial import SimplicialComplex, SubgroupData
from .stanley_reisner import LinearForm


@dataclass(frozen=True)
class LESNode:
    """One exactness check: the group at a sequence position together
    with the incoming image and outgoing kernel as subgroups."""

    term: str  # "tor_ext" | "tor_base_lower" | "tor_base"
    p: int
    j: int
    group: ZModule
    image: ZModule
    kernel: ZModule
    ok: bool


@dataclass(frozen=True)
class GysinReport:
    D: int
    split_row: int
    nodes: tuple

    @property
    def all_pass(self) -> bool:
        return all(node.ok for node in self.nodes)

    def failing(self) -> tuple:
        return tuple(node for node in self.nodes if not node.ok)


class GysinData:
    """Chain-level data for the sequence, verified on construction.

    split is the 0-based row of B-tilde taken as u_{n+1}; the remaining
    rows, in order, are the base forms.
    """

    def __init__(self, K: SimplicialComplex, S_ext: SubgroupData, D: int, split: int | None = None):
        if D < 0 or D % 2:
            raise InputError(f"degree bound must be even and nonnegative, got {D}")
        if K.m != S_ext.m:
            raise InputError(f"complex on [{K.m}] but matrix has {S_ext.m} columns")
        n_ext = S_ext.n
        if n_ext == 0:
            raise InputError("need at least one row to split off")
        if split is None:
            split = n_ext - 1
        if not 0 <= split < n_ext:
            raise InputError(f"split row {split} out of range 0..{n_ext - 1}")
        self.K = K
        self.S_ext = S_ext
        self.D = D
        self.split = split
        self.n = n_ext - 1
        base_rows = [list(S_ext.B.row(r)) for r in range(n_ext) if r != split]
        self.S_base = SubgroupData(IntMatrix(base_rows, cols=S_ext.m))
        self.split_form = LinearForm(S_ext.row_coefficients(split))
        base_forms = [LinearForm(tuple(row)) for row in base_rows]
        self.base = KoszulComplex(K, base_forms)
        self.ext = KoszulComplex(K, base_forms + [self.split_form])
        self._verify_chain_level()

    # --- chain-level maps -------------------------------------------------

    @functools.lru_cache(maxsize=None)
    def tau_star_matrix(self, p: int, j: int) -> IntMatrix:
        """Inclusion C_{p,j} -> C~_{p,j} (subsets avoiding n+1)."""
        rows = self.ext.chain_dim(p, j)
        cols = self.base.chain_dim(p, j)
        out = [[0] * cols for _ in range(rows)]
        if cols:
            block = len(self.base.coefficient_basis(p, j))
            ext_index = {S: k for k, S in enumerate(self.ext.subsets(p))}
            for si, S in enumerate(self.base.subsets(p)):
                r0 = ext_index[S] * block
                c0 = si * block
                for t in range(block):
                    out[r0 + t][c0 + t] = 1
        return IntMatrix(out, cols=cols)

    @functools.lru_cache(maxsize=None)
    def tau_lower_matrix(self, p: int, j: int) -> IntMatrix:
        """Signed xi_{n+1} component C~_{p,j} -> C_{p-1,j-2}."""
        rows = self.base.chain_dim(p - 1, j - 2)
        cols = self.ext.chain_dim(p, j)
        out = [[0] * cols for _ in range(rows)]
        if rows and cols:
            sign = -1 if (p - 1) % 2 else 1
            block = rows // len(self.base.subsets(p - 1))
            base_index = {S: k for k, S in enumerate(self.base.subsets(p - 1))}
            top = self.n + 1
            for si, S in enumerate(self.ext.subsets(p)):
                if top not in S:
                    continue
                T = tuple(i for i in S if i != top)
                r0 = base_index[T] * block
                c0 = si * block
                for t in range(block):
                    out[r0 + t][c0 + t] = sign
        return IntMatrix(out, cols=cols)

    def _verify_chain_level(self):
        """SES exactness and the (anti)commutation identities, for every
        bidegree in the window."""
        for j in range(0, self.D + 1, 2):
            for p in range(self.n + 2):
                inc = self.tau_star_matrix(p, j)
                proj = self.tau_lower_matrix(p, j)
                if kernel_basis(inc):
                    raise InternalCheckError(f"inclusion not injective at (p={p}, j={j})")
                if not cokernel_structure(proj).is_zero():
                    raise InternalCheckError(f"projection not surjective at (p={p}, j={j})")
                if not proj.mul(inc).is_zero():
                    raise InternalCheckError(f"projection after inclusion nonzero at (p={p}, j={j})")
                ker = Lattice(proj.cols, kernel_basis(proj))
                image = Lattice(inc.rows, inc.columns())
                if ker != image:
                    raise InternalCheckError(
                        f"chain-level exactness fails at (p={p}, j={j})"
                    )
                d_base = self.base.differential(p, j)
                d_ext = self.ext.differential(p, j)
                lhs = d_ext.mul(inc)
                rhs = self.tau_star_matrix(p - 1, j).mul(d_base)
                if lhs != rhs:
                    raise InternalCheckError(f"inclusion is not a chain map at (p={p}, j={j})")
                lhs2 = self.tau_lower_matrix(p - 1, j).mul(d_ext)
                rhs2 = self.base.differential(p - 1, j - 2).mul(proj).scaled(-1)
                if lhs2 != rhs2:
                    raise InternalCheckError(
                        f"projection does not anticommute at (p={p}, j={j})"
                    )

    # --- homology and induced maps ---------------------------------------

    @functools.lru_cache(maxsize=None)
    def base_pres(self, p: int, j: int):
        if j < 0:
            j = -2  # canonical empty degree; chain groups vanish
        return self.base.homology(p, j)

    @functools.lru_cache(maxsize=None)
    def ext_pres(self, p: int, j: int):
        if j < 0:
            j = -2
        return self.ext.homology(p, j)

    def induced(self, chain_map: IntMatrix, src, tgt) -> IntMatrix:
        """Matrix of the induced map on homology, generator to
        target-kernel coordinates."""
        cycles = tgt.kernel_lattice()
        cols = []
        for vec in src.kernel:
            x = cycles.coordinates(chain_map.apply(vec))
            if x is None:
                raise InternalCheckError("chain map image is not a cycle downstream")
            cols.append(x)
        return IntMatrix.from_columns(cols, rows=tgt.generator_count)

    def tau_star_induced(self, p: int, j: int) -> IntMatrix:
        return self.induced(
            self.tau_star_matrix(p, j), self.base_pres(p, j), self.ext_pres(p, j)
        )

    def tau_lower_induced(self, p: int, j: int) -> IntMatrix:
        return self.induced(
            self.tau_lower_matrix(p, j), self.ext_pres(p, j), self.base_pres(p - 1, j - 2)
        )

    def delta_induced(self, p: int, j: int) -> IntMatrix:
        """Connecting map H_p(C)_{j} -> H_p(C)_{j+2} as multiplication
        by the split form on representatives."""
        src = self.base_pres(p, j)
        tgt = self.base_pres(p, j + 2)
        if p < 0 or j < 0 or not src.kernel:
            return IntMatrix.zeros(tgt.generator_count, 0)
        mult = self.base.multiplication_map(self.split_form, p, j)
        return self.induced(mult, src, tgt)

    def delta_by_chase(self, p: int, j: int, wedge_lift: bool = False) -> IntMatrix:
        """The same connecting map via the snake-lemma chase.

        Lifts each generator through tau_*, applies the extended
        differential, and pulls back through tau*.  With wedge_lift the
        preimage is the explicit signed xi_{n+1}-wedge rather than a
        generic solve, exercising lift independence.
        """
        src = self.base_pres(p, j)
        tgt = self.base_pres(p, j + 2)
        if j < 0 or not src.kernel:
            return IntMatrix.zeros(tgt.generator_count, 0)
        proj = self.tau_lower_matrix(p + 1, j + 2)
        d_ext = self.ext.differential(p + 1, j + 2)
        inc = self.tau_star_matrix(p, j + 2)
        inc_cols = Lattice(inc.rows, inc.columns())
        solver = SnfSolver(proj) if not wedge_lift else None
        cycles = tgt.kernel_lattice()
        cols = []
        for vec in src.kernel:
            if wedge_lift:
                w = self._wedge(vec, p, j)
                if tuple(proj.apply(w)) != tuple(vec):
                    raise InternalCheckError("wedge lift does not project back")
            else:
                w = solver.solve(vec)
                if w is None:
                    raise InternalCheckError("projection failed to lift a cycle")
            y = d_ext.apply(w)
            if tuple(y) not in inc_cols:
                raise InternalCheckError("chased boundary left the included subcomplex")
            coords = cycles.coordinates(self._strip(y, p, j + 2))
            if coords is None:
                raise InternalCheckError("chased value is not a cycle")
            cols.append(coords)
        return IntMatrix.from_columns(cols, rows=tgt.generator_count)

    def _wedge(self, vec, p: int, j: int):
        """(-1)^p times the xi_{n+1}-wedge of a base chain, written in
        extended coordinates at (p+1, j+2)."""
        sign = -1 if p % 2 else 1
        block = len(self.base.coefficient_basis(p, j))
        ext_index = {S: k for k, S in enumerate(self.ext.subsets(p + 1))}
        out = [0] * self.ext.chain_dim(p + 1, j + 2)
        top = self.n + 1
        for si, S in enumerate(self.base.subsets(p)):
            r0 = ext_index[S + (top,)] * block
            for t in range(block):
                value = vec[si * block + t]
                if value:
                    out[r0 + t] = sign * value
        return tuple(out)

    def _strip(self, y, p: int, j: int):
        """Coordinates of an extended chain known to avoid xi_{n+1},
        rewritten in the base chain basis."""
        block = len(self.base.coefficient_basis(p, j))
        ext_index = {S: k for k, S in enumerate(self.ext.subsets(p))}
        out = [0] * self.base.chain_dim(p, j)
        for si, S in enumerate(self.base.subsets(p)):
            r0 = ext_index[S] * block
            for t in range(block):
                out[si * block + t] = y[r0 + t]
        return tuple(out)


def _subgroup_pair(f: IntMatrix, g: IntMatrix, rel2: IntMatrix, rel3: IntMatrix):
    """Image of f and kernel of g inside the middle homology group, as
    coordinate lattices containing the relation lattice."""
    k2 = f.rows
    image = Lattice(k2, list(f.columns()) + list(rel2.columns()))
    stacked = g.hstack(rel3.scaled(-1))
    preimage = [vec[:k2] for vec in kernel_basis(stacked)]
    kernel = Lattice(k2, preimage + list(rel2.columns()))
    return image, kernel


def _quotient_structure(sub: Lattice, rel2: IntMatrix) -> ZModule:
    """Structure of sub modulo the relation lattice."""
    cols = []
    for c in range(rel2.cols):
        x = sub.coordinates(rel2.column(c))
        if x is None:
            raise InternalCheckError("relation escaped a subgroup that must contain it")
        cols.append(x)
    return cokernel_structure(IntMatrix.from_columns(cols, rows=sub.rank))


def verify_exactness(G: GysinData) -> GysinReport:
    """Exactness report over an already-built chain-level object.

    A FAIL node never raises here; the sequence is exact by
    construction, so failures are surfaced in the report for the caller
    to treat as internal errors.
    """
    nodes = []
    for j in range(0, G.D + 1, 2):
        for p in range(G.n + 1, -1, -1):
            pres_ext = G.ext_pres(p, j)
            pres_low = G.base_pres(p - 1, j - 2)
            pres_base = G.base_pres(p - 1, j)

            # at Tor_p over the extended ring, degree j
            f = G.tau_star_induced(p, j)
            g = G.tau_lower_induced(p, j)
            image, kernel = _subgroup_pair(
                f, g, pres_ext.relations, pres_low.relations
            )
            nodes.append(
                LESNode(
                    term="tor_ext",
                    p=p,
                    j=j,
                    group=pres_ext.structure,
                    image=_quotient_structure(image, pres_ext.relations),
                    kernel=_quotient_structure(kernel, pres_ext.relations),
                    ok=image == kernel,
                )
            )

            # at Tor_{p-1} over the base ring, degree j-2 (before delta)
            f = G.tau_lower_induced(p, j)
            g = G.delta_induced(p - 1, j - 2)
            image, kernel = _subgroup_pair(
                f, g, pres_low.relations, pres_base.relations
            )
            nodes.append(
                LESNode(
                    term="tor_base_lower",
                    p=p - 1,
                    j=j - 2,
                    group=pres_low.structure,
                    image=_quotient_structure(image, pres_low.relations),
                    kernel=_quotient_structure(kernel, pres_low.relations),
                    ok=image == kernel,
                )
            )

            # at Tor_{p-1} over the base ring, degree j (after delta)
            f = G.delta_induced(p - 1, j - 2)
            g = G.tau_star_induced(p - 1, j)
            image, kernel = _subgroup_pair(
                f, g, pres_base.relations, G.ext_pres(p - 1, j).relations
            )
            nodes.append(
                LESNode(
                    term="tor_base",
                    p=p - 1,
                    j=j,
                    group=pres_base.structure,
                    image=_quotient_structure(image, pres_base.relations),
                    kernel=_quotient_structure(kernel, pres_base.relations),
                    ok=image == kernel,
                )
            )
    return GysinReport(D=G.D, split_row=G.split, nodes=tuple(nodes))


def connecting_map_check(G: GysinData) -> dict:
    """Compare the three routes to the connecting map at every cell:
    multiplication by the split form, a generic snake chase, and the
    wedge-lift chase.  Any disagreement modulo boundaries is a bug."""
    results = {}
    for j in range(0, G.D - 1, 2):
        for p in range(G.n + 1):
            tgt = G.base_pres(p, j + 2)
            rel = Lattice(tgt.generator_count, tgt.relations.columns())
            mult = G.delta_induced(p, j)
            chase = G.delta_by_chase(p, j, wedge_lift=False)
            wedge = G.delta_by_chase(p, j, wedge_lift=True)
            for a, b, names in (
                (mult, chase, "multiplication vs chase"),
                (mult, wedge, "multiplication vs wedge lift"),
                (chase, wedge, "chase vs wedge lift"),
            ):
                for c in range(a.cols):
                    diff = tuple(
                        x - y for x, y in zip(a.column(c), b.column(c))
                    )
                    if any(diff) and diff not in rel:
                        raise InternalCheckError(
                            f"connecting map routes disagree ({names}) at (p={p}, j={j})"
                        )
            results[(p, j)] = True
    return results
