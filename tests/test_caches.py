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
from bigtor import cli, koszul_tor
from bigtor.errors import InputError
from bigtor.intlinalg import ZModule
from bigtor.koszul_tor import KoszulComplex, regular_sequence_check, tor1_witness, tor_table
from bigtor.simplicial import build_complex
from bigtor.stanley_reisner import forms_of, monomial_basis, mult_matrix

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
    # octahedron with orbifold B at D=12: the table assembles d_p for
    # 1 <= p <= max(1, min(3, j/2)) at j = 0..12 (1 + 1 + 2 + 3 + 3 + 3 + 3
    # = 16 maps; C_p is zero once 2p > j) and the witness's complex 2 more;
    # every complex and the regular-sequence scan share the 3 forms x 6
    # degrees of multiplication matrices that K holds
    differential, mult = KoszulComplex.differential.cache_info(), mult_matrix.cache_info()
    argv = ["check-bigcm", "--input", str(INPUTS / "octahedron_orbifold.tcx"), "--max-degree", "12"]
    assert cli.main(argv) == 0
    assert "FAILS" in capsys.readouterr().out
    assert KoszulComplex.differential.cache_info().misses - differential.misses == 18
    assert mult_matrix.cache_info().misses - mult.misses == 18


def test_tor_table_frees_each_degree_before_the_next(corpus, monkeypatch):
    # every differential comes from a complex dropped after use, so while
    # degree j is eliminated no live complex holds a map of another degree
    problem = corpus["prod1212"]
    K, S = problem.complex, problem.B
    expected = tor_table(K, S, 10)
    made = []  # weak references to every complex tor_table creates
    seen = []  # the degrees of the maps held while each map was read

    class Watched(KoszulComplex):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    def held():
        gc.collect()
        alive = [c for c in (ref() for ref in made) if c is not None]
        return {key[2] for c in alive for key in c._cache if key[0] == "differential"}

    def watched(maps, eliminate=koszul_tor.homology_structures):
        j = 2 * len(seen)
        seen.append(set())

        def each():
            for d in maps:
                seen[-1] |= held()
                yield d

        result = eliminate(each())
        assert held() <= {j}, (j, seen)
        return result

    monkeypatch.setattr(koszul_tor, "KoszulComplex", Watched)
    monkeypatch.setattr(koszul_tor, "homology_structures", watched)
    assert tor_table(K, S, 10) == expected
    assert len(seen) == 6 and made
    assert all(degrees <= {2 * k} for k, degrees in enumerate(seen)), seen


def _koszul(problem):
    S = problem.B
    return KoszulComplex(problem.complex, forms_of(S))


# (call, the int arguments that fill the memo, equal arguments of another type)
MEMO_CASES = [
    (monomial_basis, (4,), (4.0,)),
    (monomial_basis, (4,), (Fraction(4),)),
    (monomial_basis, (0,), (False,)),
    (mult_matrix, (2,), (2.0,)),
    (mult_matrix, (0,), (False,)),
] + [
    (method, good, bad)
    for method in ("differential", "homology")
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
    u = forms_of(problem.B)[0]

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
    # tor_table asks for d(n + 1, j), and the Gysin maps for d(p - 1, j - 2) at j = 0
    complex_ = _koszul(corpus["wps12"])
    n = complex_.n
    for p, j in ((n + 1, 4), (n + 2, 4), (-1, 4), (0, -2), (1, 0)):
        assert complex_.differential(p, j).is_zero(), (p, j)
        assert complex_.homology(p, j).structure == ZModule(0), (p, j)
