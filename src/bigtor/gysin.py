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

Both maps only copy or sign coordinates, so they are kept as signed
index maps (the chain maps of a reduction are index bookkeeping:
Kaczynski, Mrozek and Slusarek 1998; Skoldberg 2006).  Exactness of the
short sequence is then a statement about index sets, and the chain-map
identities are checked column by column on sparse differentials.  Only
the generic snake-chase lift builds tau_* as a matrix, for an echelon
solve (intlinalg.SnfSolver), and it adds tau*(z) for a fixed chain z so
that it differs from the explicit wedge lift.

A homology presentation comes with its unit relations already
eliminated (intlinalg.HomologyPresentation): one generator per kernel
row that survives, and only the residual relations.  Induced maps run
the chain maps on those generators' kernel rows and take the image's
coordinates in the target's generators; exactness at a node is an
equality of two coordinate lattices over the residual relations.  The
verification is exact integer arithmetic end to end.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .intlinalg import (
    IntMatrix,
    Lattice,
    SnfSolver,
    ZModule,
    _add_multiple,
    _scaled,
    cokernel_structure,
    kernel_lattice,
)
from .koszul_tor import KoszulComplex
from .simplicial import SimplicialComplex, SubgroupData, _memoized
from .stanley_reisner import LinearForm, _require_even, mult_matrix


class LESNode(NamedTuple):
    """One exactness check: the group at a sequence position together
    with the incoming image and outgoing kernel as subgroups."""

    term: str  # "tor_ext" | "tor_base_lower" | "tor_base"
    p: int
    j: int
    group: ZModule
    image: ZModule
    kernel: ZModule
    ok: bool


class GysinReport(NamedTuple):
    D: int
    split_row: int
    nodes: tuple

    @property
    def all_pass(self) -> bool:
        return all(node.ok for node in self.nodes)

    def failing(self) -> tuple:
        return tuple(node for node in self.nodes if not node.ok)


class IndexMap(NamedTuple):
    """A signed coordinate map: source basis vector k goes to sign times
    target basis vector target[k] when k is a key, and to 0 otherwise.
    dim is the dimension of the target."""

    target: dict
    sign: int
    dim: int

    def __call__(self, vec) -> tuple:
        out = [0] * self.dim
        for k, t in self.target.items():
            x = vec[k]
            if x:
                out[t] += self.sign * x
        return tuple(out)

    def push(self, column: dict) -> dict:
        """Image of a sparse vector (dict index -> entry), zeros dropped."""
        out = {}
        for k, x in column.items():
            t = self.target.get(k)
            if t is not None:
                out[t] = out.get(t, 0) + self.sign * x
        return {t: x for t, x in out.items() if x}


class GysinData:
    """Chain-level data for the sequence, verified on construction.

    split is the 0-based row of B-tilde taken as u_{n+1}; the remaining
    rows, in order, are the base forms.  The instance owns its caches:
    index maps and induced maps are each computed once, and its two
    Koszul complexes memoize their presentations.
    """

    def __init__(self, K: SimplicialComplex, S_ext: SubgroupData, D: int, split: int | None = None):
        _require_even(D, "degree bound")
        if K.m != S_ext.m:
            raise InputError(f"complex on [{K.m}] but matrix has {S_ext.m} columns")
        n_ext = S_ext.n
        if n_ext == 0:
            raise InputError("need at least one row to split off")
        if split is None:
            split = n_ext - 1
        if type(split) is not int or not 0 <= split < n_ext:
            raise InputError(f"split row {split!r} is not an integer in 0..{n_ext - 1}")
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
        self._cache = {}  # (method name, *args) -> result, see _memoized
        self._verify_chain_level()

    # --- chain-level maps -------------------------------------------------

    @_memoized
    def tau_star(self, p: int, j: int) -> IndexMap:
        """Inclusion C_{p,j} -> C~_{p,j}: each subset avoiding n+1 keeps
        its block of monomial coordinates."""
        target = {}
        if self.base.chain_dim(p, j):
            block = len(self.base.coefficient_basis(p, j))
            ext_index = {S: k for k, S in enumerate(self.ext.subsets(p))}
            target = {si * block + t: ext_index[S] * block + t
                      for si, S in enumerate(self.base.subsets(p)) for t in range(block)}
        return IndexMap(target, 1, self.ext.chain_dim(p, j))

    @_memoized
    def tau_lower(self, p: int, j: int) -> IndexMap:
        """Signed xi_{n+1} component C~_{p,j} -> C_{p-1,j-2}: the block of
        S + (n+1,) goes to the block of S with sign (-1)^(p-1)."""
        target = {}
        dim = self.base.chain_dim(p - 1, j - 2)
        if dim and self.ext.chain_dim(p, j):
            block = dim // len(self.base.subsets(p - 1))
            base_index = {S: k for k, S in enumerate(self.base.subsets(p - 1))}
            top = self.n + 1
            target = {si * block + t: base_index[S[:-1]] * block + t
                      for si, S in enumerate(self.ext.subsets(p)) if S[-1] == top
                      for t in range(block)}
        return IndexMap(target, -1 if (p - 1) % 2 else 1, dim)

    def _verify_chain_level(self):
        """SES exactness by index bookkeeping and the (anti)commutation
        identities column by column, for every bidegree in the window."""
        for j in range(0, self.D + 1, 2):
            for p in range(self.n + 2):
                inc = self.tau_star(p, j)
                proj = self.tau_lower(p, j)
                image = set(inc.target.values())
                if (inc.sign not in (1, -1) or len(image) != len(inc.target)
                        or inc.target.keys() != set(range(self.base.chain_dim(p, j)))):
                    raise InternalCheckError(f"inclusion not injective at (p={p}, j={j})")
                low_dim = self.base.chain_dim(p - 1, j - 2)
                if proj.sign not in (1, -1) or set(proj.target.values()) != set(range(low_dim)):
                    raise InternalCheckError(f"projection not surjective at (p={p}, j={j})")
                if not image.isdisjoint(proj.target):
                    raise InternalCheckError(f"projection after inclusion nonzero at (p={p}, j={j})")
                # ker tau_* is spanned by the non-xi_{n+1} indices exactly
                # when tau_* is injective on the xi_{n+1} indices
                if (len(proj.target) != low_dim
                        or image | proj.target.keys() != set(range(self.ext.chain_dim(p, j)))):
                    raise InternalCheckError(
                        f"chain-level exactness fails at (p={p}, j={j})"
                    )
                d_base = self.base.differential(p, j).sparse_columns()
                d_ext = self.ext.differential(p, j).sparse_columns()
                inc_below = self.tau_star(p - 1, j)
                for k, t in inc.target.items():
                    if _scaled(d_ext[t], inc.sign) != inc_below.push(d_base[k]):
                        raise InternalCheckError(f"inclusion is not a chain map at (p={p}, j={j})")
                proj_below = self.tau_lower(p - 1, j)
                d_low = self.base.differential(p - 1, j - 2).sparse_columns()
                for e, column in enumerate(d_ext):
                    k = proj.target.get(e)
                    rhs = {} if k is None else _scaled(d_low[k], -proj.sign)
                    if proj_below.push(column) != rhs:
                        raise InternalCheckError(
                            f"projection does not anticommute at (p={p}, j={j})"
                        )

    # --- homology and induced maps ---------------------------------------

    def induced(self, chain_map, src, tgt) -> IntMatrix:
        """Matrix of the induced map on homology, source generators to
        target generator coordinates; chain_map takes and returns sparse
        vectors (dicts index -> entry)."""
        cols = []
        cycles = src.kernel_lattice().basis
        for g in src.free:
            x = tgt.coordinates(chain_map(cycles[g]))
            if x is None:
                raise InternalCheckError("chain map image is not a cycle downstream")
            cols.append(x)
        return IntMatrix.from_columns(cols, rows=tgt.generator_count)

    @_memoized
    def tau_star_induced(self, p: int, j: int) -> IntMatrix:
        return self.induced(self.tau_star(p, j).push, self.base.homology(p, j),
                            self.ext.homology(p, j))

    @_memoized
    def tau_lower_induced(self, p: int, j: int) -> IntMatrix:
        return self.induced(self.tau_lower(p, j).push, self.ext.homology(p, j),
                            self.base.homology(p - 1, j - 2))

    @_memoized
    def delta_induced(self, p: int, j: int) -> IntMatrix:
        """Connecting map H_p(C)_{j} -> H_p(C)_{j+2} as multiplication
        by the split form on representatives."""
        src = self.base.homology(p, j)
        tgt = self.base.homology(p, j + 2)
        if p < 0 or j < 0 or not src.kernel:
            return IntMatrix.zeros(tgt.generator_count, 0)
        # block diagonal over the exterior subsets, one block per subset
        block = mult_matrix(self.K, self.split_form, j - 2 * p)
        block_columns = block.sparse_columns()

        def multiply(vec):
            out = {}
            for c, x in vec.items():
                s, k = divmod(c, block.cols)
                for r, v in block_columns[k].items():
                    r += s * block.rows
                    out[r] = out.get(r, 0) + x * v
            return out

        return self.induced(multiply, src, tgt)

    def delta_by_chase(self, p: int, j: int, wedge_lift: bool = False) -> IntMatrix:
        """The same connecting map via the snake-lemma chase.

        Lifts each generator through tau_* (see _lifts), applies the
        extended differential, and pulls back through tau*.
        """
        src = self.base.homology(p, j)
        tgt = self.base.homology(p, j + 2)
        if j < 0 or not src.kernel:
            return IntMatrix.zeros(tgt.generator_count, 0)
        inc = self.tau_star(p, j + 2)
        xi = self.tau_lower(p, j + 2).target  # the xi_{n+1} indices below
        d_ext = self.ext.differential(p + 1, j + 2).sparse_columns()
        cols = []
        for w in self._lifts(p, j, wedge_lift):
            y = {}
            for e, x in enumerate(w):
                _add_multiple(y, x, d_ext[e])
            if any(x for r, x in y.items() if r in xi):
                raise InternalCheckError("chased boundary left the included subcomplex")
            coords = tgt.coordinates({k: inc.sign * y[t] for k, t in inc.target.items() if t in y})
            if coords is None:
                raise InternalCheckError("chased value is not a cycle")
            cols.append(coords)
        return IntMatrix.from_columns(cols, rows=tgt.generator_count)

    def _lifts(self, p: int, j: int, wedge_lift: bool) -> list:
        """Preimages under tau_* at (p+1, j+2) of the generators at (p, j).

        With wedge_lift, (-1)^p times the xi_{n+1}-wedge: tau_* there
        (sign (-1)^p) inverted on its index set.  Otherwise the solver's
        preimage plus tau*(z), z the all-ones base chain at (p+1, j+2):
        tau_* kills tau*(z), and d tau*(z) = tau*(dz) pulls back to a
        boundary, so the chased class does not change while the lift
        differs from the wedge lift wherever that chain group is nonzero.
        """
        kernel = self.base.homology(p, j).kernel
        proj = self.tau_lower(p + 1, j + 2)
        dim = self.ext.chain_dim(p + 1, j + 2)
        if wedge_lift:
            wedge = IndexMap({k: e for e, k in proj.target.items()}, proj.sign, dim)
            lifts = [wedge(vec) for vec in kernel]
        else:
            rows = [{} for _ in range(proj.dim)]
            for e, k in proj.target.items():
                rows[k][e] = proj.sign
            solver = SnfSolver(IntMatrix(rows, cols=dim))
            shift = self.tau_star(p + 1, j + 2)((1,) * self.base.chain_dim(p + 1, j + 2))
            lifts = [solver.solve(vec) for vec in kernel]
            if None in lifts:
                raise InternalCheckError("projection failed to lift a cycle")
            lifts = [tuple(x + z for x, z in zip(w, shift)) for w in lifts]
        if any(proj(w) != tuple(vec) for vec, w in zip(kernel, lifts)):
            raise InternalCheckError("lift does not project back")
        return lifts


def _subgroup_pair(f: IntMatrix, g: IntMatrix, rel2: IntMatrix, rel3: IntMatrix):
    """Image of f and kernel of g inside the middle homology group, as
    coordinate lattices containing the relation lattice."""
    k2 = f.rows
    image = Lattice(k2, f.sparse_columns() + rel2.sparse_columns())
    stacked = g.hstack(rel3.scaled(-1))
    preimage = [{c: x for c, x in v.items() if c < k2} for v in kernel_lattice(stacked).basis]
    kernel = Lattice(k2, preimage + rel2.sparse_columns())
    return image, kernel


def _quotient_structure(sub: Lattice, rel2: IntMatrix) -> ZModule:
    """Structure of sub modulo the relation lattice."""
    cols = [sub.coordinates(column) for column in rel2.sparse_columns()]
    if None in cols:
        raise InternalCheckError("relation escaped a subgroup that must contain it")
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
            pres_ext = G.ext.homology(p, j)
            pres_low = G.base.homology(p - 1, j - 2)
            pres_base = G.base.homology(p - 1, j)
            tau_lower = G.tau_lower_induced(p, j)
            delta = G.delta_induced(p - 1, j - 2)
            # per node: its group, the incoming and outgoing maps, and the
            # relations of the outgoing map's target
            for term, node_p, node_j, pres, f, g, next_relations in (
                ("tor_ext", p, j, pres_ext, G.tau_star_induced(p, j), tau_lower, pres_low.relations),
                ("tor_base_lower", p - 1, j - 2, pres_low, tau_lower, delta, pres_base.relations),
                ("tor_base", p - 1, j, pres_base, delta, G.tau_star_induced(p - 1, j),
                 G.ext.homology(p - 1, j).relations),
            ):
                image, kernel = _subgroup_pair(f, g, pres.relations, next_relations)
                nodes.append(
                    LESNode(
                        term=term,
                        p=node_p,
                        j=node_j,
                        group=pres.structure,
                        image=_quotient_structure(image, pres.relations),
                        kernel=_quotient_structure(kernel, pres.relations),
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
            tgt = G.base.homology(p, j + 2)
            mult = G.delta_induced(p, j)
            chase = G.delta_by_chase(p, j, wedge_lift=False)
            wedge = G.delta_by_chase(p, j, wedge_lift=True)
            for a, b, names in (
                (mult, chase, "multiplication vs chase"),
                (mult, wedge, "multiplication vs wedge lift"),
                (chase, wedge, "chase vs wedge lift"),
            ):
                for diff, column in zip(a.sparse_columns(), b.sparse_columns()):
                    _add_multiple(diff, -1, column)
                    if diff and not tgt.class_is_zero(diff):
                        raise InternalCheckError(
                            f"connecting map routes disagree ({names}) at (p={p}, j={j})"
                        )
            results[(p, j)] = True
    return results
