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

Both maps only copy or sign coordinates, so they are signed index maps
that push sparse chains (a reduction's chain maps are index bookkeeping:
Kaczynski, Mrozek and Slusarek 1998; Skoldberg 2006), built by
KoszulComplex.block_map, the one owner of the chain layout.  The wedge
lift and the chase's section are their inverses (IndexMap.inverse), and
the connecting map multiplies by KoszulComplex.times.  Exactness of the
short sequence is then a statement about index sets, and the chain-map
identities are checked column by column on sparse differentials.  Only
the generic snake-chase lift builds tau_* as a matrix, for an echelon
solve (intlinalg.SnfSolver), and it adds the image under tau* of one
base basis chain so that it differs from the explicit wedge lift.

A homology presentation (intlinalg.HomologyPresentation) is built on
the chain group divided by its boundaries: its generators are cycles
on the coordinates that survive, and its relations are the residual
boundaries.  Induced maps run the chain maps on those generator cycles
and keep, per source generator, the image's target generator
coordinates as one sparse column; exactness at a node is an equality of
two coordinate lattices over the residual relations.  The verification
is exact integer arithmetic end to end.
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
    _times,
    cokernel_structure,
    preimage,
)
from .koszul_tor import KoszulComplex
from .simplicial import SimplicialComplex, SubgroupData, _check_shape, _memoized
from .stanley_reisner import _require_even, forms_of


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

    def push(self, column: dict) -> dict:
        """Image of a sparse vector (dict index -> entry), zeros dropped."""
        out = {}
        for k, x in column.items():
            t = self.target.get(k)
            if t is not None:
                out[t] = out.get(t, 0) + self.sign * x
        return {t: x for t, x in out.items() if x}

    def inverse(self, dim: int) -> "IndexMap":
        """The map back on a one-to-one map's image, into dim coordinates."""
        return IndexMap({t: k for k, t in self.target.items()}, self.sign, dim)


class GysinData:
    """Chain-level data for the sequence, verified on construction.

    split is the 0-based row of B-tilde taken as u_{n+1}; the remaining
    rows, in order, are the base forms.  The instance owns its caches:
    tau*, tau_* and the maps tau* and delta induce are each computed once
    (tau_*'s induced map is read once per cell, so it is not kept), and
    its two Koszul complexes memoize their presentations.
    """

    def __init__(self, K: SimplicialComplex, S_ext: SubgroupData, D: int, split: int | None = None):
        _require_even(D, "degree bound")
        _check_shape(K, S_ext)
        n_ext = S_ext.n
        if n_ext == 0:
            raise InputError("need at least one row to split off")
        if split is None:
            split = n_ext - 1
        if type(split) is not int or not 0 <= split < n_ext:
            raise InputError(f"split row {split!r} is not an integer in 0..{n_ext - 1}")
        self.D = D
        self.split = split
        self.n = n_ext - 1
        forms = forms_of(S_ext)
        self.split_form = forms[split]
        base_forms = forms[:split] + forms[split + 1:]
        self.base = KoszulComplex(K, base_forms)
        self.ext = KoszulComplex(K, base_forms + (self.split_form,))
        self._cache = {}  # (method name, *args) -> result, see _memoized
        self._verify_chain_level()

    # --- chain-level maps -------------------------------------------------

    @_memoized
    def tau_star(self, p: int, j: int) -> IndexMap:
        """Inclusion C_{p,j} -> C~_{p,j}: each subset avoiding n+1 keeps
        its block of monomial coordinates."""
        target = self.base.block_map(p, j, self.ext, p, lambda S: S)
        return IndexMap(target, 1, self.ext.chain_dim(p, j))

    @_memoized
    def tau_lower(self, p: int, j: int) -> IndexMap:
        """Signed xi_{n+1} component C~_{p,j} -> C_{p-1,j-2}: the block of
        S + (n+1,) goes to the block of S with sign (-1)^(p-1)."""
        top = self.n + 1
        target = self.ext.block_map(p, j, self.base, p - 1, lambda S: S[:-1] if top in S else None)
        return IndexMap(target, -1 if (p - 1) % 2 else 1, self.base.chain_dim(p - 1, j - 2))

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

    def induced(self, chain_map, src, tgt) -> list:
        """The induced map on homology, one sparse column per source
        generator holding its image's target generator coordinates, which
        callers must not change; chain_map maps dicts index -> entry."""
        cols = []
        for cycle in src.cycles.basis:
            x = tgt._coordinates(chain_map(cycle))
            if x is None:
                raise InternalCheckError("chain map image is not a cycle downstream")
            cols.append(x)
        return cols

    @_memoized
    def tau_star_induced(self, p: int, j: int) -> list:
        return self.induced(self.tau_star(p, j).push, self.base.homology(p, j),
                            self.ext.homology(p, j))

    def tau_lower_induced(self, p: int, j: int) -> list:
        return self.induced(self.tau_lower(p, j).push, self.ext.homology(p, j),
                            self.base.homology(p - 1, j - 2))

    @_memoized
    def delta_induced(self, p: int, j: int) -> list:
        """Connecting map H_p(C)_{j} -> H_p(C)_{j+2} as multiplication
        by the split form on representatives."""
        src = self.base.homology(p, j)
        if p < 0 or j < 0 or not src.generator_count:
            return []
        return self.induced(self.base.times(self.split_form, p, j), src,
                            self.base.homology(p, j + 2))

    def delta_by_chase(self, p: int, j: int, wedge_lift: bool = False) -> list:
        """The same connecting map via the snake-lemma chase.

        Lifts each generator through tau_* (see _lifts), applies the
        extended differential, and pulls back through tau*'s section.
        """
        src = self.base.homology(p, j)
        tgt = self.base.homology(p, j + 2)
        if j < 0 or not src.generator_count:
            return []
        section = self.tau_star(p, j + 2).inverse(self.base.chain_dim(p, j + 2))
        d_ext = self.ext.differential(p + 1, j + 2).sparse_columns()
        cols = []
        for w in self._lifts(p, j, wedge_lift):
            y = _times(w, d_ext)
            if not y.keys() <= section.target.keys():
                raise InternalCheckError("chased boundary left the included subcomplex")
            coords = tgt._coordinates(section.push(y))
            if coords is None:
                raise InternalCheckError("chased value is not a cycle")
            cols.append(coords)
        return cols

    def _lifts(self, p: int, j: int, wedge_lift: bool) -> list:
        """Preimages under tau_* at (p+1, j+2) of the generators at (p, j).

        With wedge_lift, the generators' wedges, tau_*'s inverse: the
        block of S goes to the block of S + (n+1,).  Otherwise the solver's
        preimage plus tau*(e), e basis chain 0 of the base group at
        (p+1, j+2) (nothing when that group is zero): tau_* kills tau*(e),
        and d tau*(e) = tau*(de) pulls back to a boundary, so the chased
        class does not change while the lift differs from the wedge lift
        wherever that chain group is nonzero.
        """
        kernel = self.base.homology(p, j).cycles.basis
        proj = self.tau_lower(p + 1, j + 2)
        if wedge_lift:
            lifts = list(map(proj.inverse(self.ext.chain_dim(p + 1, j + 2)).push, kernel))
        else:
            rows = [{} for _ in range(proj.dim)]
            for e, k in proj.target.items():
                rows[k][e] = proj.sign
            solver = SnfSolver(IntMatrix._of(proj.dim, self.ext.chain_dim(p + 1, j + 2), rows))
            lifts = [solver.solve(vec) for vec in kernel]
            if None in lifts:
                raise InternalCheckError("projection failed to lift a cycle")
            shift = self.tau_star(p + 1, j + 2).push({0: 1})
            lifts = [_add_multiple(w, 1, shift) for w in lifts]
        if any(proj.push(w) != vec for vec, w in zip(kernel, lifts)):
            raise InternalCheckError("lift does not project back")
        return lifts


def _subgroup_pair(f: list, g: list, middle, target):
    """Image of f and kernel of g, column lists, in the middle group as
    coordinate lattices containing its relations.  The kernel takes the
    target's raw residual boundaries: from their span's echelon basis its
    entries reached 686 bits on data/hermite_growth.tcx with split 3, not 43."""
    k2 = middle.generator_count
    kernel = preimage(g, target.relations, target.generator_count)
    return Lattice._of(k2, f + middle.relations), Lattice._of(k2, kernel + middle.relations)


def _quotient_structure(sub: Lattice, rel2: list) -> ZModule:
    """Structure of sub modulo the relation lattice."""
    cols = [sub._coordinates(column) for column in rel2]
    if None in cols:
        raise InternalCheckError("relation escaped a subgroup that must contain it")
    return cokernel_structure(IntMatrix._of(len(cols), sub.rank, cols).transpose())


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
            # per node: its group, the incoming and outgoing maps, the outgoing map's target
            for term, node_p, node_j, pres, f, g, target in (
                ("tor_ext", p, j, pres_ext, G.tau_star_induced(p, j), tau_lower, pres_low),
                ("tor_base_lower", p - 1, j - 2, pres_low, tau_lower, delta, pres_base),
                ("tor_base", p - 1, j, pres_base, delta, G.tau_star_induced(p - 1, j),
                 G.ext.homology(p - 1, j)),
            ):
                image, kernel = _subgroup_pair(f, g, pres, target)
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
    """Compare the generic snake chase and the wedge-lift chase with
    multiplication by the split form at every cell, modulo boundaries
    (so the two chases agree too); any disagreement is a bug."""
    results = {}
    for j in range(0, G.D - 1, 2):
        for p in range(G.n + 1):
            tgt = G.base.homology(p, j + 2)
            mult = G.delta_induced(p, j)
            chase = G.delta_by_chase(p, j, wedge_lift=False)
            wedge = G.delta_by_chase(p, j, wedge_lift=True)
            for other, names in ((chase, "multiplication vs chase"),
                                 (wedge, "multiplication vs wedge lift")):
                for column, other_column in zip(mult, other):
                    diff = _add_multiple(dict(column), -1, other_column)
                    if diff and not tgt.class_is_zero(diff):
                        raise InternalCheckError(
                            f"connecting map routes disagree ({names}) at (p={p}, j={j})"
                        )
            results[(p, j)] = True
    return results
