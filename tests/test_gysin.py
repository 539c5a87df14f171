import pytest

from bigtor.errors import InputError
from bigtor.gysin import (
    GysinData,
    connecting_map_check,
    verify_exactness,
)
from bigtor.intlinalg import IntMatrix
from bigtor.koszul_tor import tor_piece
from bigtor.simplicial import SubgroupData, build_complex

TWO_POINTS = build_complex(2, [(1,), (2,)])
W12 = SubgroupData(IntMatrix([[2, -1]]))


def test_two_point_connecting_map_by_hand():
    # base ring has no forms, so Tor_0 is Z[K] itself and the connecting
    # map is literally multiplication by u1 = 2x1 - x2 on monomials
    G = GysinData(TWO_POINTS, W12, 8, split=0)
    delta = G.delta_induced(0, 0)
    assert delta == IntMatrix([[2], [-1]])


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


def test_node_groups_match_tor_tables(corpus):
    problem = corpus["prod1212"]
    K, S_ext = problem.complex, problem.B
    G = GysinData(K, S_ext, 8)
    report = verify_exactness(G)
    for node in report.nodes:
        if node.term == "tor_ext" and 0 <= node.p <= S_ext.n and node.j >= 0:
            assert node.group == tor_piece(K, S_ext, node.p, node.j), (node.p, node.j)
        if node.term == "tor_base" and 0 <= node.p <= G.n and node.j >= 0:
            assert node.group == tor_piece(K, G.S_base, node.p, node.j)


def test_chain_level_maps_commute_and_anticommute(corpus):
    problem = corpus["cp1cp1"]
    G = GysinData(problem.complex, problem.B, 8)
    for j in (4, 6, 8):
        for p in range(G.n + 2):
            inc_then_d = G.ext.differential(p, j).mul(G.tau_star_matrix(p, j))
            d_then_inc = G.tau_star_matrix(p - 1, j).mul(G.base.differential(p, j))
            assert inc_then_d == d_then_inc
            proj_then_d = G.tau_lower_matrix(p, j).mul(G.ext.differential(p + 1, j))
            d_then_proj = (
                G.base.differential(p, j - 2).mul(G.tau_lower_matrix(p + 1, j))
            )
            assert proj_then_d == d_then_proj.scaled(-1)
            composite = G.tau_lower_matrix(p, j).mul(G.tau_star_matrix(p, j))
            assert composite.is_zero()


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
        GysinData(problem.complex, SubgroupData(IntMatrix(B)), 8)
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
