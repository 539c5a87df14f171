"""Who owns the memo: a SimplicialComplex keeps its bases, multiplication
maps and GKM data, a KoszulComplex its differentials and presentations, and
no module keeps a cache for the life of the process."""

import gc
import importlib
import pathlib
import pkgutil
import weakref

import bigtor
from bigtor import cli
from bigtor.koszul_tor import KoszulComplex, regular_sequence_check, tor1_witness, tor_table
from bigtor.simplicial import build_complex
from bigtor.stanley_reisner import mult_matrix

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
