import contextlib
import pathlib
import signal

import pytest

from bigtor.cli import parse_problem
from bigtor.intlinalg import IntMatrix, Quotient
from bigtor.stanley_reisner import forms_of, monomial_basis, mult_matrix

import oracles
from scale import cross4  # noqa: F401  (the recipe, for the tests)

DATA_DIR = pathlib.Path(__file__).parent / "data"

CORPUS_NAMES = [
    "wps12",
    "wps123",
    "cp1cp1",
    "prod1212",
    "cut_k1",
    "cut_k2",
    "ann_square",
]


def from_lists(rows, cols=None):
    """The IntMatrix of dense rows, the inverse of IntMatrix.to_lists;
    cols defaults to the length of the first row.  Only int zeros are
    dropped, so the constructor still refuses any other entry."""
    rows = [list(row) for row in rows]
    cols = len(rows[0]) if cols is None else cols
    assert all(len(row) == cols for row in rows), rows
    return IntMatrix([{c: x for c, x in enumerate(row) if type(x) is not int or x}
                      for row in rows], cols)


def load_problem(name):
    return parse_problem((DATA_DIR / f"{name}.tcx").read_text())


def tor0_oracle(K, S, j):
    """(rank, torsion list) of the degree-j piece of Z[K]/(u_1, ..., u_n),
    which is Tor_0: the cokernel of the multiplication matrices into
    degree j, side by side as dense lists, by the oracle's Smith normal
    form, which shares no code with the elimination engine."""
    rows = [[] for _ in monomial_basis(K, j)]
    for i in range(S.n if j >= 2 else 0):
        block = mult_matrix(K, forms_of(S)[i], j - 2).to_lists()
        for row, part in zip(rows, block):
            row.extend(part)
    return oracles.cokernel_invariants(rows, len(rows))


@pytest.fixture(scope="session")
def corpus():
    return {name: load_problem(name) for name in CORPUS_NAMES}


@pytest.fixture(params=CORPUS_NAMES)
def corpus_problem(request, corpus):
    return request.param, corpus[request.param]


@pytest.fixture
def budget():
    """`with budget(seconds):` fails the test when its body runs longer
    than seconds of wall-clock time, so a hang fails instead of stalling
    the run.  Uses SIGALRM, so it works in the main thread only."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            pytest.fail(f"still running after its {seconds} s budget", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def broken_prune(monkeypatch):
    """Patch Quotient.project so that every pivot generator is
    substituted with the wrong sign; the gate that runs as each
    presentation is built must catch it."""
    original = Quotient.project

    def flipped(self, v):
        pivots = [(g, {k: y if k == g else -y for k, y in row.items()}) for g, row in self.pivots]
        return original(self._replace(pivots=pivots), v)

    def install():
        monkeypatch.setattr(Quotient, "project", flipped)

    return install


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULTS:
            terminalreporter.write_line(line)
