"""The regular-sequence scan decides each (stage, j) on the quotients the
unit-pivot engine leaves; the full-space search (the kernel of
[u_stage | ideal] in Z[K]_j) is its oracle.  They must agree at every
(stage, j), not only up to the first failure, and the report, witness
included, must be the one a scan by full-space search alone gives."""

import random

import pytest

from bigtor import cli, koszul_tor
from bigtor.errors import InternalCheckError
from bigtor.koszul_tor import (
    RegularityWitness,
    _annihilated_class,
    _quotient_scan,
    regular_sequence_check,
)
from bigtor.stanley_reisner import Polynomial, forms_of, monomial_basis

import oracles
from conftest import DATA_DIR

SEED = 2024  # the library-fuzz stream draws from 2012
COUNT = 200


def random_problem(rng):
    """.tcx text: m <= 5 vertices, 1 to 4 random faces of at most 3
    vertices, and an n x m matrix B (n <= 3, entries in [-3, 3]) of full
    rank over Q."""
    while True:
        m = rng.randint(2, 5)
        n = rng.randint(1, min(3, m))
        faces = [sorted(rng.sample(range(1, m + 1), rng.randint(1, min(m, 3))))
                 for _ in range(rng.randint(1, 4))]
        B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        if oracles.rational_rank(B) == n:
            return (
                f"m = {m}\n"
                "faces = " + " ".join("{" + " ".join(map(str, f)) + "}" for f in faces) + "\n"
                "B = [" + " ; ".join(" ".join(map(str, row)) for row in B) + "]\n"
            )


def assert_scan_matches_full_space_search(K, S, D):
    forms = forms_of(S)
    expected = None
    for stage, j, injective in _quotient_scan(K, forms, D):
        v = _annihilated_class(K, forms, stage, j)
        assert injective == (v is None), (stage, j)
        if v is not None and expected is None:
            basis = monomial_basis(K, j)
            poly = Polynomial(K.m, {basis[c]: x for c, x in v.items()})
            expected = RegularityWitness(stage, j, poly.render(), forms[stage - 1].render())
    report = regular_sequence_check(K, S, D)
    assert report.regular == (expected is None)
    assert report.witness == expected
    assert str(report.witness) == str(expected)
    return report


def test_scan_agrees_with_full_space_search_on_random_problems(budget):
    rng = random.Random(SEED)
    failing = 0
    with budget(60):
        for _ in range(COUNT):
            problem = cli.parse_problem(random_problem(rng))
            report = assert_scan_matches_full_space_search(problem.complex, problem.B, 8)
            failing += not report.regular
    # both verdicts occur often enough for the comparison to mean something
    assert 20 <= failing <= COUNT - 20


def test_scan_agrees_with_full_space_search_on_corpus(corpus_problem, budget):
    _, problem = corpus_problem
    with budget(10):
        assert_scan_matches_full_space_search(problem.complex, problem.B, 12)


def test_torsion_free_quotients_skip_the_kernel_test(budget):
    # fuzz_p044's quotients by u1 and u1, u2 are torsion-free but their
    # relations hold no unit entry; a kernel of [u3 | relations] at j = 10
    # ran for 20 s on Hermite growth
    problem = cli.parse_problem((DATA_DIR / "fuzz_p044.tcx").read_text())
    with budget(2):
        assert regular_sequence_check(problem.complex, problem.B, 12).regular


@pytest.mark.parametrize("name", ["prod1212", "cut_k2"])
def test_decision_that_misses_a_failure_exits_two(name, monkeypatch, capsys):
    monkeypatch.setattr(koszul_tor, "_is_injective", lambda here, there, phi, here_rank, there_rank: True)
    code = cli.main(["check-bigcm", "--input", str(DATA_DIR / f"{name}.tcx"),
                     "--max-degree", "10", "--json"])
    assert code == 2
    assert "direct regular-sequence check disagree" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cp1cp1", "wps123"])
def test_decision_that_invents_a_failure_is_caught(name, monkeypatch, capsys):
    problem = cli.parse_problem((DATA_DIR / f"{name}.tcx").read_text())
    assert regular_sequence_check(problem.complex, problem.B, 10).regular
    monkeypatch.setattr(koszul_tor, "_is_injective", lambda here, there, phi, here_rank, there_rank: False)
    with pytest.raises(InternalCheckError, match="full-space search disagree"):
        regular_sequence_check(problem.complex, problem.B, 10)
    code = cli.main(["check-bigcm", "--input", str(DATA_DIR / f"{name}.tcx"),
                     "--max-degree", "10", "--json"])
    assert code == 2
    assert "full-space search disagree" in capsys.readouterr().err
