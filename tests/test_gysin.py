import gc
import random
import weakref

import pytest

from bigtor import cli
from bigtor.cli import parse_problem
from bigtor.errors import InputError, InternalCheckError
from bigtor.gysin import (
    GysinData,
    connecting_map_check,
    verify_exactness,
)
from bigtor.intlinalg import IntMatrix
from bigtor.koszul_tor import KoszulComplex, tor_table
from bigtor.simplicial import SubgroupData, build_complex
from bigtor.stanley_reisner import monomial_basis, mult_matrix

import oracles
from conftest import DATA_DIR, cross4, from_lists
from test_regular_sequence import random_problem

TWO_POINTS = build_complex(2, [(1,), (2,)])
W12 = SubgroupData(from_lists([[2, -1]]))


def identity(n):
    return IntMatrix([{i: 1} for i in range(n)], cols=n)


def base_subgroup(S_ext, split):
    """B-tilde without its 0-based split row: the base forms' subring."""
    rows = [row for r, row in enumerate(S_ext.B.sparse_rows()) if r != split]
    return SubgroupData(IntMatrix(rows, cols=S_ext.m))


def test_two_point_connecting_map_by_hand():
    # base ring has no forms, so Tor_0 is Z[K] itself and the connecting
    # map is literally multiplication by u1 = 2x1 - x2 on monomials
    G = GysinData(TWO_POINTS, W12, 8, split=0)
    delta = G.delta_induced(0, 0)
    assert delta == [{0: 2, 1: -1}]


def test_degenerate_split_passes_everywhere():
    report = verify_exactness(GysinData(TWO_POINTS, W12, 12, split=0))
    assert report.all_pass
    assert report.failing() == ()
    assert len(report.nodes) == 3 * 2 * 7  # three terms, p in {1, 0}, 7 degrees


def test_three_corpus_inputs_pass(corpus):
    for name in ("wps12", "cp1cp1", "prod1212"):
        problem = corpus[name]
        G = GysinData(problem.complex, problem.B, 10)
        report = verify_exactness(G)
        assert report.all_pass, name
        checks = connecting_map_check(G)
        assert checks and all(checks.values()), name


def test_generic_lift_differs_from_wedge_lift(corpus):
    # the chase's generic lift must not be the wedge lift itself, or the
    # connecting-map check compares a lift with itself and shows nothing
    # about lift independence
    problem = corpus["cp1cp1"]
    G = GysinData(problem.complex, problem.B, 10)
    differ = [(p, j) for j in range(0, G.D - 1, 2) for p in range(G.n + 1)
              if G._lifts(p, j, wedge_lift=False) != G._lifts(p, j, wedge_lift=True)]
    assert differ
    checks = connecting_map_check(G)
    assert checks and all(checks.values())


def cross4_orb():
    """The cross-polytope boundary with B = [diag(1, 2, 1, 2) | -diag(1, 2, 3, 4)]."""
    facets, B = cross4((1, 2, 1, 2), (1, 2, 3, 4))
    return build_complex(8, facets), SubgroupData(from_lists(B, cols=8))


def test_generic_lift_shifts_the_wedge_lift_by_one_basis_chain(corpus, budget):
    # generic lift - wedge lift is tau*(e), e basis chain 0 of the base
    # group at (p+1, j+2): one entry 1 where that group is nonzero
    problem = corpus["cp1cp1"]
    cases = [(problem.complex, problem.B, 10), (*cross4_orb(), 12)]
    with budget(2):
        for K, S_ext, D in cases:
            G = GysinData(K, S_ext, D)
            assert verify_exactness(G).all_pass
            for j in range(0, G.D - 1, 2):
                for p in range(G.n + 1):
                    shift = G.tau_star(p + 1, j + 2).push({0: 1})
                    assert list(shift.values()) == [1] * bool(G.base.chain_dim(p + 1, j + 2))
                    for generic, wedge in zip(G._lifts(p, j, wedge_lift=False),
                                              G._lifts(p, j, wedge_lift=True)):
                        diff = {e: generic.get(e, 0) - wedge.get(e, 0) for e in generic.keys() | wedge}
                        assert {e: x for e, x in diff.items() if x} == shift, (D, p, j)
            checks = connecting_map_check(G)
            assert checks and all(checks.values())


def test_node_groups_match_tor_tables(corpus):
    problem = corpus["prod1212"]
    K, S_ext = problem.complex, problem.B
    G = GysinData(K, S_ext, 8)
    report = verify_exactness(G)
    ext, base = tor_table(K, S_ext, G.D), tor_table(K, base_subgroup(S_ext, G.split), G.D)
    for node in report.nodes:
        if node.term == "tor_ext" and 0 <= node.p <= S_ext.n and node.j >= 0:
            assert node.group == ext.piece(node.p, node.j), (node.p, node.j)
        if node.term == "tor_base" and 0 <= node.p <= G.n and node.j >= 0:
            assert node.group == base.piece(node.p, node.j)


def _dense_tau_star(G, p, j):
    """tau* at (p, j) as a matrix, built from subsets() and block sizes
    alone: the block of each base subset goes to the same subset's block."""
    cols = G.base.chain_dim(p, j)
    out = [[0] * cols for _ in range(G.ext.chain_dim(p, j))]
    if cols:
        block = cols // len(G.base.subsets(p))
        ext_subsets = G.ext.subsets(p)
        for si, S in enumerate(G.base.subsets(p)):
            r0 = ext_subsets.index(S) * block
            for t in range(block):
                out[r0 + t][si * block + t] = 1
    return from_lists(out, cols=cols)


def _dense_tau_lower(G, p, j):
    """tau_* at (p, j) as a matrix: the block of S + (n+1,) goes to the
    block of S at (p-1, j-2) with sign (-1)^(p-1)."""
    cols = G.ext.chain_dim(p, j)
    rows = G.base.chain_dim(p - 1, j - 2)
    out = [[0] * cols for _ in range(rows)]
    if rows and cols:
        block = rows // len(G.base.subsets(p - 1))
        base_subsets = G.base.subsets(p - 1)
        for si, S in enumerate(G.ext.subsets(p)):
            if G.n + 1 in S:
                r0 = base_subsets.index(S[:-1]) * block
                for t in range(block):
                    out[r0 + t][si * block + t] = (-1) ** (p - 1)
    return from_lists(out, cols=cols)


def test_chain_level_maps_commute_and_anticommute(corpus):
    problem = corpus["cp1cp1"]
    G = GysinData(problem.complex, problem.B, 8)
    for j in (4, 6, 8):
        for p in range(G.n + 2):
            inc_then_d = G.ext.differential(p, j).mul(_dense_tau_star(G, p, j))
            d_then_inc = _dense_tau_star(G, p - 1, j).mul(G.base.differential(p, j))
            assert inc_then_d == d_then_inc
            proj_then_d = _dense_tau_lower(G, p, j).mul(G.ext.differential(p + 1, j))
            d_then_proj = G.base.differential(p, j - 2).mul(_dense_tau_lower(G, p + 1, j))
            negated = [[-x for x in row] for row in d_then_proj.to_lists()]
            assert proj_then_d == from_lists(negated, cols=d_then_proj.cols)
            composite = _dense_tau_lower(G, p, j).mul(_dense_tau_star(G, p, j))
            assert composite.is_zero()


def test_index_maps_match_the_dense_maps(corpus):
    problem = corpus["prod1212"]
    G = GysinData(problem.complex, problem.B, 8, split=0)
    for j in range(0, 9, 2):
        for p in range(G.n + 2):
            basis = identity(G.base.chain_dim(p, j))
            assert IntMatrix.from_columns(
                [G.tau_star(p, j).push(col) for col in basis.sparse_columns()], G.ext.chain_dim(p, j)
            ) == _dense_tau_star(G, p, j)
            basis = identity(G.ext.chain_dim(p, j))
            assert IntMatrix.from_columns(
                [G.tau_lower(p, j).push(col) for col in basis.sparse_columns()],
                G.base.chain_dim(p - 1, j - 2),
            ) == _dense_tau_lower(G, p, j)


def _pushed(index_map, dim):
    """An index map as a matrix: the images of the dim source basis vectors."""
    return IntMatrix.from_columns([index_map.push({k: 1}) for k in range(dim)], index_map.dim)


def test_wedge_section_and_times_match_the_dense_maps(corpus, budget):
    # tau_* undoes the wedge, the section undoes tau*, each built as the
    # other's IndexMap.inverse, and times is one multiplication block per
    # subset down the diagonal
    with budget(2):
        for problem in corpus.values():
            for split in range(problem.B.n):
                G = GysinData(problem.complex, problem.B, 8, split=split)
                for j in range(0, 9, 2):
                    for p in range(G.n + 1):
                        dim = G.base.chain_dim(p, j)
                        wedge = G.tau_lower(p + 1, j + 2).inverse(G.ext.chain_dim(p + 1, j + 2))
                        wedge = _pushed(wedge, dim)
                        assert _dense_tau_lower(G, p + 1, j + 2).mul(wedge) == identity(dim)
                        section = _pushed(G.tau_star(p, j).inverse(dim), G.ext.chain_dim(p, j))
                        assert section.mul(_dense_tau_star(G, p, j)) == identity(dim)
                        if j + 2 > G.D or not dim:
                            continue
                        times = G.base.times(G.split_form, p, j)
                        block = mult_matrix(problem.complex, G.split_form, j - 2 * p).to_lists()
                        dense = [[0] * dim for _ in range(G.base.chain_dim(p, j + 2))]
                        for s in range(len(G.base.subsets(p))):
                            for r, row in enumerate(block):
                                dense[s * len(block) + r][s * len(row):(s + 1) * len(row)] = row
                        assert IntMatrix.from_columns([times({k: 1}) for k in range(dim)],
                                                      len(dense)) == from_lists(dense, cols=dim)


def _at(p0, j0, change):
    """Wrap an index-map method so that its map at (p0, j0) is changed."""
    def patch(original):
        def patched(self, p, j):
            m = original(self, p, j)
            return change(m) if (p, j) == (p0, j0) else m
        return patched
    return patch


def _without_first(m):
    return m._replace(target={k: t for k, t in m.target.items() if k != min(m.target)})


def _first_to(where):
    def change(m):
        target = dict(m.target)
        target[min(target)] = where(m)
        return m._replace(target=target)
    return change


BROKEN_MAPS = [
    ("tau_star", _at(1, 4, _without_first), "inclusion not injective at (p=1, j=4)"),
    ("tau_lower", _at(2, 4, _without_first), "projection not surjective at (p=2, j=4)"),
    # cp1cp1 splits u2 off: at (p=1, j=4) the last ext index lies in the
    # xi_2 block, the domain of tau_*
    ("tau_star", _at(1, 4, _first_to(lambda m: m.dim - 1)),
     "projection after inclusion nonzero at (p=1, j=4)"),
    ("tau_star", _at(1, 4, _first_to(lambda m: m.dim)), "chain-level exactness fails at (p=1, j=4)"),
    ("tau_star", _at(1, 4, lambda m: m._replace(sign=-m.sign)),
     "inclusion is not a chain map at (p=1, j=4)"),
    ("tau_lower", _at(2, 4, lambda m: m._replace(sign=-m.sign)),
     "projection does not anticommute at (p=2, j=4)"),
]


@pytest.mark.parametrize("method, patch, message", BROKEN_MAPS, ids=[
    "tau_star-dropped", "tau_lower-dropped", "tau_star-into-xi", "tau_star-out-of-range",
    "tau_star-sign", "tau_lower-sign",
])
def test_broken_index_map_is_caught(corpus, monkeypatch, method, patch, message):
    problem = corpus["cp1cp1"]
    monkeypatch.setattr(GysinData, method, patch(getattr(GysinData, method)))
    with pytest.raises(InternalCheckError) as caught:
        GysinData(problem.complex, problem.B, 8)
    assert str(caught.value) == message


@pytest.mark.parametrize("p, j, row, message", [
    # column 0 at (1, 4) is xi_1 times a monomial: inside the image of tau*
    pytest.param(1, 4, 0, "inclusion is not a chain map at (p=1, j=4)", id="included-column"),
    # (2, 4) has the one column xi_1 xi_2; its xi_2 rows start after the
    # xi_1 block of degree-2 monomials
    pytest.param(2, 4, "xi_2", "projection does not anticommute at (p=2, j=4)", id="xi-row"),
])
def test_wrong_differential_entry_is_caught(corpus, monkeypatch, p, j, row, message):
    problem = corpus["cp1cp1"]
    K = problem.complex
    if row == "xi_2":
        row = len(monomial_basis(K, 2))
    original = KoszulComplex.differential

    def differential(self, q, i):
        d = original(self, q, i)
        if self.n == 2 and (q, i) == (p, j):
            entries = d.sparse_rows()
            entries[row][0] = entries[row].get(0, 0) + 1
            return IntMatrix(entries, d.cols)
        return d

    monkeypatch.setattr(KoszulComplex, "differential", differential)
    with pytest.raises(InternalCheckError) as caught:
        GysinData(K, problem.B, 8)
    assert str(caught.value) == message


def test_broken_prune_exits_two(broken_prune, capsys):
    broken_prune()
    code = cli.main(["gysin", "--input", str(DATA_DIR / "cp1cp1.tcx"), "--max-degree", "8", "--json"])
    assert code == 2
    assert "has a nonzero class" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cp1cp1", "ann_square"])
@pytest.mark.parametrize("zeroed, names", [
    (False, "multiplication vs chase"),
    (True, "multiplication vs wedge lift"),
], ids=["chase", "wedge-lift"])
def test_zeroed_connecting_route_exits_two(corpus, monkeypatch, capsys, name, zeroed, names):
    # the first cell where multiplication by the split form is nonzero
    # modulo boundaries is where a zeroed route must be caught
    problem = corpus[name]
    G = GysinData(problem.complex, problem.B, 8)
    p, j = next((p, j) for j in range(0, 7, 2) for p in range(G.n + 1)
                if any(not G.base.homology(p, j + 2).class_is_zero(column)
                       for column in G.delta_induced(p, j)))
    original = GysinData.delta_by_chase

    def delta_by_chase(self, q, i, wedge_lift=False):
        delta = original(self, q, i, wedge_lift)
        return [{}] * len(delta) if wedge_lift == zeroed else delta

    monkeypatch.setattr(GysinData, "delta_by_chase", delta_by_chase)
    code = cli.main(["gysin", "--input", str(DATA_DIR / f"{name}.tcx"), "--max-degree", "8", "--json"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"internal error: connecting map routes disagree ({names}) at (p={p}, j={j})\n")


def test_gysin_data_is_freed(corpus):
    problem = corpus["cp1cp1"]
    G = GysinData(problem.complex, problem.B, 6)
    verify_exactness(G)
    connecting_map_check(G)
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def test_dropped_gysin_data_frees_its_complexes(corpus):
    problem = corpus["cp1cp1"]
    G = GysinData(problem.complex, problem.B, 8)
    verify_exactness(G)
    connecting_map_check(G)
    refs = [weakref.ref(G.ext), weakref.ref(G.base)]
    del G
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_split_choice_is_free(corpus):
    problem = corpus["prod1212"]
    for split in (0, 1):
        report = verify_exactness(GysinData(problem.complex, problem.B, 8, split=split))
        assert report.all_pass
        assert report.split_row == split


def test_row_basis_change_leaves_verdicts_alone(corpus):
    problem = corpus["cut_k1"]
    base = verify_exactness(GysinData(problem.complex, problem.B, 8))
    B = problem.B.B.to_lists()
    B[1] = [b + 2 * a for a, b in zip(B[0], B[1])]
    changed = verify_exactness(
        GysinData(problem.complex, SubgroupData(from_lists(B)), 8)
    )
    summarize = lambda r: [(n.term, n.p, n.j, n.group) for n in r.nodes]
    assert summarize(base) == summarize(changed)


def test_rejects_bad_input(corpus):
    problem = corpus["cp1cp1"]
    K, S = problem.complex, problem.B
    with pytest.raises(InputError):
        GysinData(K, S, 7)
    with pytest.raises(InputError):
        GysinData(K, S, 8, split=2)
    with pytest.raises(InputError):
        GysinData(K, S, 8, split=-1)
    with pytest.raises(InputError):
        GysinData(TWO_POINTS, S, 8)
    with pytest.raises(InputError):
        GysinData(K, SubgroupData(IntMatrix.zeros(0, 4)), 8)


# the seeded generator: problems of tests/test_regular_sequence.random_problem
# (m <= 5, n <= 3), every split row, at D = 8, each op under its own budget
SEEDED_RNG = random.Random(7)
SEEDED_GYSIN = [random_problem(SEEDED_RNG) for _ in range(40)]


class _Oracle:
    """(rank, torsion) of H_p in degree j of a Koszul complex, from the
    oracles' Fraction ranks and Smith diagonal of its differentials, each
    taken once."""

    def __init__(self, C):
        self.C = C
        self.ranks = {}
        self.groups = {}

    def rank(self, p, j):
        if (p, j) not in self.ranks:
            self.ranks[p, j] = oracles.rational_rank(self.C.differential(p, j).to_lists())
        return self.ranks[p, j]

    def group(self, p, j):
        if (p, j) not in self.groups:
            d_in = self.C.differential(p + 1, j).to_lists()
            torsion = [d for d in oracles.smith_diagonal(d_in) if d > 1]
            rank = self.C.chain_dim(p, j) - self.rank(p, j) - self.rank(p + 1, j)
            self.groups[p, j] = rank, torsion
        return self.groups[p, j]


@pytest.mark.parametrize("index", range(len(SEEDED_GYSIN)))
def test_seeded_gysin_problem(index, budget):
    problem = parse_problem(SEEDED_GYSIN[index])
    K, S_ext = problem.complex, problem.B
    for split in range(S_ext.n):
        with budget(2.0):
            G = GysinData(K, S_ext, 8, split=split)
            report = verify_exactness(G)
            connecting = connecting_map_check(G)
        assert report.all_pass, (split, report.failing())
        # each cell's three routes (multiplication, generic chase, wedge
        # lift) agree modulo boundaries, or connecting_map_check raises
        assert connecting and all(connecting.values()), split
        ext, base = _Oracle(G.ext), _Oracle(G.base)
        S_base = base_subgroup(S_ext, split)
        tables = {S_ext: tor_table(K, S_ext, G.D), S_base: tor_table(K, S_base, G.D)}
        for node in report.nodes:
            oracle, S = (ext, S_ext) if node.term == "tor_ext" else (base, S_base)
            assert oracles.structure_pair(node.group) == oracle.group(node.p, node.j), (split, node)
            if node.j >= 0 and 0 <= node.p <= S.n:
                assert node.group == tables[S].piece(node.p, node.j), (split, node)
