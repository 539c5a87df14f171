"""Who owns the memo: a SimplicialComplex keeps its bases, multiplication
maps and GKM data, a KoszulComplex its differentials and presentations, and
no module keeps a cache for the life of the process."""

import gc
import importlib
import pathlib
import pkgutil
import weakref
from fractions import Fraction

import pytest

import bigtor
from bigtor import cli
from bigtor.errors import InputError
from bigtor.intlinalg import ZModule
from bigtor.koszul_tor import KoszulComplex, regular_sequence_check, tor1_witness, tor_table
from bigtor.simplicial import build_complex
from bigtor.stanley_reisner import LinearForm, monomial_basis, mult_matrix

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def test_no_module_keeps_a_process_lifetime_cache():
    for info in pkgutil.iter_modules(bigtor.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module("bigtor." + info.name)
        objects = list(vars(module).values())
        objects += [x for cls in objects if isinstance(cls, type) for x in vars(cls).values()]
        cached = [getattr(x, "__qualname__", x) for x in objects if hasattr(x, "cache_clear")]
        assert not cached, f"bigtor.{info.name} keeps process-lifetime caches: {cached}"


def test_complex_is_freed_by_reference_counting(corpus):
    # nothing K memoizes refers back to K, so dropping K frees it at once
    problem = corpus["prod1212"]
    K, S = build_complex(4, problem.complex.face_vertices()), problem.B
    table = tor_table(K, S, 10)
    assert not regular_sequence_check(K, S, 10).regular
    assert tor1_witness(K, S, table) is not None
    assert any(key[0] == "mult_matrix" for key in K._cache)
    ref = weakref.ref(K)
    gc.disable()
    try:
        del K
        assert ref() is None
    finally:
        gc.enable()


def test_check_bigcm_builds_each_matrix_once(capsys):
    # octahedron with orbifold B at D=12: the table assembles the 5 x 7
    # differentials (p = 0..4, j = 0..12) and the witness's complex 2 more;
    # every complex and the regular-sequence scan share the 3 forms x 6
    # degrees of multiplication matrices that K holds
    differential, mult = KoszulComplex.differential.cache_info(), mult_matrix.cache_info()
    argv = ["check-bigcm", "--input", str(INPUTS / "octahedron_orbifold.tcx"), "--max-degree", "12"]
    assert cli.main(argv) == 0
    assert "FAILS" in capsys.readouterr().out
    assert KoszulComplex.differential.cache_info().misses - differential.misses == 37
    assert mult_matrix.cache_info().misses - mult.misses == 18


def _koszul(problem):
    S = problem.B
    return KoszulComplex(problem.complex, [LinearForm(S.row_coefficients(i)) for i in range(S.n)])


# (call, the int arguments that fill the memo, equal arguments of another type)
MEMO_CASES = [
    (monomial_basis, (4,), (4.0,)),
    (monomial_basis, (4,), (Fraction(4),)),
    (monomial_basis, (0,), (False,)),
    (mult_matrix, (2,), (2.0,)),
    (mult_matrix, (0,), (False,)),
] + [
    (method, good, bad)
    for method in ("differential", "cokernel", "homology")
    for good, bad in (((1, 4), (1.0, 4)), ((1, 4), (True, 4)), ((1, 4), (1, 4.0)),
                      ((1, 4), (1, Fraction(4))), ((0, 0), (0, False)))
]


@pytest.mark.parametrize("call, good, bad", MEMO_CASES,
                         ids=[f"{getattr(c, '__name__', c)}{b}" for c, _, b in MEMO_CASES])
def test_memo_hit_refuses_what_a_miss_refuses(corpus, call, good, bad):
    # the memo key (name, *args) once let 4.0 or True hit the entry of 4 or
    # 1, so a hit skipped the type check a miss would have made
    problem = corpus["wps12"]
    K = problem.complex
    u = LinearForm(problem.B.row_coefficients(0))

    def run(owner, args):
        if isinstance(call, str):
            return getattr(owner, call)(*args)
        return call(owner, *args) if call is monomial_basis else call(owner, u, *args)

    fresh = _koszul(problem) if isinstance(call, str) else build_complex(K.m, K.face_vertices())
    with pytest.raises(InputError, match="integer"):
        run(fresh, bad)
    owner = _koszul(problem) if isinstance(call, str) else K
    run(owner, good)
    with pytest.raises(InputError, match="integer"):
        run(owner, bad)


def test_out_of_range_bidegrees_give_zero_maps(corpus):
    # _tor_structure asks for d(n + 1, j), and the Gysin maps for d(p - 1, j - 2) at j = 0
    complex_ = _koszul(corpus["wps12"])
    n = complex_.n
    for p, j in ((n + 1, 4), (n + 2, 4), (-1, 4), (0, -2), (1, 0)):
        assert complex_.differential(p, j).is_zero(), (p, j)
        assert complex_.homology(p, j).structure == ZModule(0), (p, j)
