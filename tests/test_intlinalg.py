import copy
import inspect
import math
import pathlib
import pickle
import random
from fractions import Fraction

import pytest

from bigtor import intlinalg
from bigtor.errors import InputError, InternalCheckError
from bigtor.simplicial import SubgroupData, all_faces, build_complex, check_local_freeness
from bigtor.stanley_reisner import LinearForm, Polynomial
from bigtor.intlinalg import (
    IntMatrix,
    Lattice,
    Quotient,
    SnfSolver,
    ZModule,
    cokernel_structure,
    det,
    homology_presentation,
    homology_structures,
    kernel_lattice,
    preimage,
    rational_rank,
)

import oracles
from conftest import from_lists


def to_dense(v, n):
    """The dict vector v as a tuple of n entries."""
    return tuple(v.get(c, 0) for c in range(n))


def to_sparse(v):
    """The nonzero entries of the sequence v, as a dict index -> entry."""
    return {c: x for c, x in enumerate(v) if x}


def apply(A, v):
    """A v for a dense vector v, on A's dense rows."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in A.to_lists())


def dense_kernel(A):
    """The Hermite-reduced kernel basis of A as dense tuples."""
    return [to_dense(v, A.cols) for v in kernel_lattice(A).basis]


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return from_lists([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols)


def structured_matrix(rng, units=True):
    """Random matrix with zero rows and columns mixed in, of full or
    deficient rank (a product through a narrow inner dimension), with
    non-unit entries; with units=False no entry is +-1, so the unit-pivot
    pass finds nothing and the residual carries everything."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    values = [-6, -4, -3, -2, 0, 0, 2, 3, 4, 6] if not units else list(range(-6, 7))
    if rng.random() < 0.5:
        A = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    else:
        inner = rng.randint(0, min(rows, cols))
        left = [[rng.choice(values) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.choice((-1, 0, 1, 2)) for _ in range(cols)] for _ in range(inner)]
        A = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if inner else [0] * cols
             for row in left]
        if not units:
            A = [[2 * x for x in row] for row in A]
    for _ in range(rng.randint(0, 2)):
        A.insert(rng.randint(0, len(A)), [0] * cols)
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, cols)
        A = [row[:at] + [0] + row[at:] for row in A]
        cols += 1
    return from_lists(A, cols=cols)


def structured_matrices(seed, count=60):
    rng = random.Random(seed)
    return [structured_matrix(rng, units=k % 4 != 0) for k in range(count)]


def test_zmodule_str():
    assert str(ZModule(0, ())) == "0"
    assert str(ZModule(1, ())) == "Z"
    assert str(ZModule(2, (2,))) == "Z^2 + Z/2"
    assert str(ZModule(0, (2, 6))) == "Z/2 + Z/6"
    assert ZModule(0, ()).is_zero()
    assert not ZModule(0, (3,)).is_zero()


def test_zmodule_rejects_broken_invariant_chain():
    with pytest.raises(InputError, match="break the divisibility chain"):
        ZModule(0, (4, 2))
    with pytest.raises(InputError, match="out of range"):
        ZModule(0, (1,))
    with pytest.raises(InputError, match="negative rank"):
        ZModule(-1)


def test_zmodule_value_semantics():
    a = ZModule(1, [2, 4])
    assert a.torsion == (2, 4)
    assert a == ZModule(1, (2, 4)) and hash(a) == hash(ZModule(1, (2, 4)))
    assert a != ZModule(1, (2,)) and a != ZModule(2, (2, 4))
    assert a != (1, (2, 4))
    with pytest.raises(AttributeError):
        a.rank = 3
    assert len({a, ZModule(1, (2, 4)), ZModule(0)}) == 2


def test_homology_presentation_is_immutable():
    pres = homology_presentation(from_lists([[0]]), from_lists([[2]]))
    with pytest.raises(AttributeError):
        pres.structure = ZModule(0)


def test_immutable_values_copy_deepcopy_and_pickle():
    # each type refuses assignment, yet copy, deepcopy and pickle restore
    # its slots; a process pool pickles what it sends to a worker
    K = build_complex(3, [(1, 2), (2, 3)])
    fresh = len(pickle.dumps(K))
    all_faces(K)  # a filled memo stays behind: every twin starts empty
    S = SubgroupData(IntMatrix([{0: 1, 2: -1}, {1: 2}], 3))
    values = [S.B, ZModule(1, (2, 4)), K, S, LinearForm((1, 0, -2)),
              Polynomial(2, {(1, 0): Fraction(1, 2), (0, 2): 3})]
    for value in values:
        name = type(value).__name__
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value), name
            assert repr(twin) == repr(value)
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(twin, type(value).__slots__[0], None)
            if value is K:
                assert twin._cache == {} and twin._cache is not K._cache
    assert K._cache and len(pickle.dumps(K)) == fresh
    assert all_faces(pickle.loads(pickle.dumps(K))) == all_faces(K)


def test_value_types_compare_by_type_and_key():
    # equality needs the same type, so values with equal slots differ
    # across types; a Polynomial's key is its terms as a set, so an
    # integral Fraction coefficient equals and hashes as the int
    assert ZModule(2) != LinearForm((2,)) and LinearForm((2,)) != (2,)
    half = Polynomial(1, {(1,): Fraction(2)})
    assert half == Polynomial(1, {(1,): 2}) and hash(half) == hash(Polynomial(1, {(1,): 2}))
    assert IntMatrix.zeros(0, 2) != IntMatrix.zeros(2, 0)
    assert repr(SubgroupData(IntMatrix([{0: 1}, {1: 2}], 2))) == (
        "SubgroupData(B=IntMatrix([[1, 0], [0, 2]]), n=2, m=2)")
    assert repr(ZModule(1, (2,))) == "ZModule(rank=1, torsion=(2,))"


def test_cokernel_structure_matches_oracle_on_random_residuals():
    # residuals as the unit-pivot pass leaves them: no entry is +-1, so
    # the whole matrix reaches the alternating Hermite forms
    rng = random.Random(1987)
    residuals = [structured_matrix(rng, units=False) for _ in range(60)]
    values = [x for x in range(-12, 13) if x not in (-1, 1)]
    residuals += [
        from_lists([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        for rows, cols in ((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60))
    ]
    for A in residuals:
        got = cokernel_structure(A)
        assert (got.rank, list(got.torsion)) == oracles.cokernel_invariants(A.to_lists(), A.rows), A


def residual_shaped_matrix(rng):
    """A dense or a sparse matrix of up to 30 x 30 with entries in
    [-100, 100] and no entry +-1, so the unit-pivot pass finds nothing."""
    rows, cols = rng.randint(1, 30), rng.randint(1, 30)
    values = [x for x in range(-100, 101) if x not in (-1, 1)]
    density = rng.choice((1.0, 0.5, 0.1))
    A = [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    return from_lists(A)


def test_invariant_factors_of_residual_shaped_matrices(monkeypatch):
    # every Lattice entry the phase makes obeys the Hadamard bound of the
    # residual: x^2 <= the product of the squared row norms
    entries = []
    original = Lattice._insert

    def recorded(self, vec):
        original(self, vec)
        entries.extend(x for row in self.basis for x in row.values())

    monkeypatch.setattr(Lattice, "_insert", recorded)
    rng = random.Random(1979)
    for _ in range(40):
        A = residual_shaped_matrix(rng)
        rows = A.to_lists()
        entries.clear()
        got = cokernel_structure(A)
        rank_q = oracles.rational_rank(rows)
        assert got.rank == A.rows - rank_q
        for p in (2, 3, 5):
            divisible = sum(1 for d in got.torsion if d % p == 0)
            assert rank_q - oracles.fp_rank(rows, p) == divisible
        bound = math.prod(sum(x * x for x in row) for row in rows if any(row))
        assert entries and all(x * x <= bound for x in entries), rows


def test_kernel_basis_random():
    rng = random.Random(7)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = dense_kernel(A)
        for v in basis:
            assert all(x == 0 for x in apply(A, v))
        assert len(basis) == A.cols - oracles.rational_rank(A.to_lists())
        assert dense_kernel(A) == basis
    # the Hermite normal form of a lattice is unique, so the engine must
    # return the very rows the oracle's Smith-form transform V gives
    for A in structured_matrices(71):
        m = A.to_lists()
        U, S, V = oracles.smith_with_transforms(m, A.cols)
        UA = [[sum(x * row[c] for x, row in zip(u, m)) for c in range(A.cols)] for u in U]
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*V)] for row in UA] == S
        assert abs(oracles.det_fraction(U)) == 1 and abs(oracles.det_fraction(V)) == 1
        assert all(x == 0 for i, row in enumerate(S) for j, x in enumerate(row) if i != j)
        diag = [S[i][i] for i in range(min(A.rows, A.cols)) if S[i][i]]
        assert diag == oracles.smith_diagonal(m)
        rank = len(diag)
        expected = Lattice(A.cols, [to_sparse(row[c] for row in V) for c in range(rank, A.cols)])
        assert dense_kernel(A) == expected.hnf_basis()
    no_units = from_lists([[2, 4, 6], [4, 8, 12], [0, 0, 0]])
    assert dense_kernel(no_units) == [(1, 1, -1), (0, 3, -2)]


def test_preimage_matches_the_span_oracle():
    # {x : A x in span R}, checked against the Smith-form oracle both ways:
    # every returned x qualifies, and the oracle's kernel of [A | R], cut to
    # x, lies in the span of what preimage returns
    rng = random.Random(2024)
    for trial in range(150):
        values = list(range(-3, 4)) if trial % 3 else [-3, -2, 0, 2, 3]
        r, k, l = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
        A = [[rng.choice(values) for _ in range(k)] for _ in range(r)]
        R = [[rng.choice(values) for _ in range(l)] for _ in range(r)]
        got = preimage([to_sparse(col) for col in zip(*A)],
                       [to_sparse(col) for col in zip(*R)], r)
        basis = [to_dense(v, k) for v in got if v]
        assert basis == Lattice(k, got).hnf_basis(), (A, R)
        for x in basis:
            assert oracles.in_column_span(R, [sum(a * y for a, y in zip(row, x)) for row in A])
        stacked = [a + b for a, b in zip(A, R)]
        U, S, V = oracles.smith_with_transforms(stacked, k + l)
        rank = sum(1 for i in range(min(r, k + l)) if S[i][i])
        expected = [[row[c] for row in V[:k]] for c in range(rank, k + l)]
        columns = [list(col) for col in zip(*basis)] or [[] for _ in range(k)]
        for w in expected:
            assert oracles.in_column_span(columns, w), (A, R, got)
        span = [list(col) for col in zip(*expected)] or [[] for _ in range(k)]
        assert all(oracles.in_column_span(span, x) for x in basis)
    assert preimage([{0: 2}], [{0: 4}], 1) == [{0: 2}]
    assert [v for v in preimage([{0: 2}, {0: 3}], [{0: 6}], 1) if v] == [{0: 3}, {1: 2}]


def test_cokernel_structure_known():
    assert cokernel_structure(from_lists([[2, 0], [0, 3]])) == ZModule(0, (6,))
    assert cokernel_structure(from_lists([[2, 4]])) == ZModule(0, (2,))
    assert cokernel_structure(IntMatrix.zeros(2, 0)) == ZModule(2, ())
    # no +-1 entry anywhere: the residual is the whole matrix
    assert cokernel_structure(from_lists([[2, 4], [6, 8]])) == ZModule(0, (2, 4))
    assert cokernel_structure(from_lists([[2, 4, 6], [4, 8, 12], [0, 0, 0]])) == ZModule(2, (2,))


def test_cokernel_structure_random():
    rng = random.Random(99)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(0, 5))
        got = cokernel_structure(A)
        rank, torsion = oracles.cokernel_invariants(A.to_lists(), A.rows)
        assert (got.rank, list(got.torsion)) == (rank, torsion)
    for A in structured_matrices(72):
        got = cokernel_structure(A)
        rank, torsion = oracles.cokernel_invariants(A.to_lists(), A.rows)
        assert (got.rank, list(got.torsion)) == (rank, torsion)
        rank_q = oracles.rational_rank(A.to_lists())
        for p in (2, 3, 5):
            divisible = sum(1 for d in got.torsion if d % p == 0)
            assert rank_q - oracles.fp_rank(A.to_lists(), p) == divisible


def test_hermite_reduce_shape_and_span():
    rng = random.Random(55)
    for _ in range(25):
        width = rng.randint(1, 6)
        vectors = [
            tuple(rng.randint(-6, 6) for _ in range(width))
            for _ in range(rng.randint(0, 5))
        ]
        reduced = Lattice(width, map(to_sparse, vectors)).hnf_basis()
        pivots = []
        for row in reduced:
            lead = next(c for c in range(width) if row[c])
            assert row[lead] > 0
            pivots.append(lead)
        assert pivots == sorted(set(pivots))
        for pos, lead in enumerate(pivots):
            for above in range(pos):
                assert 0 <= reduced[above][lead] < reduced[pos][lead]
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        assert Lattice(width, map(to_sparse, shuffled)).hnf_basis() == reduced


def test_hermite_reduce_wrong_width():
    with pytest.raises(InputError):
        Lattice(2, [{0: 1, 1: 2, 2: 3}])


def random_hermite_basis(rng, width, count):
    vectors = [tuple(rng.randint(-6, 6) for _ in range(width)) for _ in range(count)]
    return Lattice(width, map(to_sparse, vectors)).hnf_basis()


def combine(coeffs, basis, width):
    out = [0] * width
    for c, row in zip(coeffs, basis):
        out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def test_solver_round_trip():
    rng = random.Random(31)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = tuple(rng.randint(-5, 5) for _ in range(A.cols))
        b = apply(A, x)
        given = to_sparse(b)
        got = SnfSolver(A).solve(given)
        assert got is not None and all(got.values())
        assert apply(A, to_dense(got, A.cols)) == b
        assert given == to_sparse(b)  # the reduction runs on a copy
    # back-substitution in a Hermite basis agrees with the solver's echelon solve
    for _ in range(30):
        width = rng.randint(1, 6)
        basis = random_hermite_basis(rng, width, rng.randint(0, 5))
        x = tuple(rng.randint(-5, 5) for _ in basis)
        b = combine(x, basis, width)
        solver = SnfSolver(IntMatrix.from_columns(list(map(to_sparse, basis)), rows=width))
        L, given = Lattice(width, map(to_sparse, basis)), to_sparse(b)
        coords = L.coordinates(given)
        assert to_dense(coords, len(x)) == to_dense(solver.solve(given), len(x)) == x
        assert given in L and given == to_sparse(b)


def test_solver_reports_unsolvable():
    assert SnfSolver(from_lists([[2]])).solve({0: 1}) is None
    assert SnfSolver(from_lists([[2, 0], [0, 2]])).solve({0: 1, 1: 1}) is None
    # off the span: outside the rational span, or an odd combination of
    # the basis, which lies off the doubled (non-saturated) lattice
    rng = random.Random(37)
    for _ in range(40):
        width = rng.randint(1, 6)
        basis = random_hermite_basis(rng, width, rng.randint(0, 4))
        doubled = [tuple(2 * a for a in row) for row in basis]
        cases = []
        b = tuple(rng.randint(-4, 4) for _ in range(width))
        if oracles.rational_rank(list(basis) + [b]) > len(basis):
            cases += [(basis, b), (doubled, b)]
        if basis:
            x = [rng.randint(-4, 4) for _ in basis]
            x[rng.randrange(len(x))] = 2 * rng.randint(-2, 2) + 1
            cases.append((doubled, combine(x, basis, width)))
        for rows, b in cases:
            L, given = Lattice(width, map(to_sparse, rows)), to_sparse(b)
            assert L.coordinates(given) is None and given not in L
            assert SnfSolver(IntMatrix.from_columns(list(map(to_sparse, rows)), rows=width)
                             ).solve(given) is None
            assert given == to_sparse(b)  # the reduction runs on a copy
    # a right-hand side index outside [0, rows) or an entry that is not an
    # int; a bad index names [0, rows), not the solver lattice's width
    for b in ({1: 2}, {-1: 1}, {0.0: 1}, {True: 1}):
        with pytest.raises(InputError, match=r"\[0, 1\)"):
            SnfSolver(from_lists([[1]])).solve(b)
    with pytest.raises(InputError, match="entry 1.5 is not an integer"):
        SnfSolver(from_lists([[1]])).solve({0: 1.5})


def test_lattice_takes_dict_vectors_only():
    # the basis is sparse rows with positive, strictly increasing pivots; a
    # vector is a dict column -> entry, and a dense sequence is refused
    rng = random.Random(1979)
    for _ in range(60):
        n = rng.randint(1, 7)
        gens = [tuple(rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n))
                for _ in range(rng.randint(0, 6))]
        sparse = [to_sparse(v) for v in gens]
        L = Lattice(n, sparse)
        assert L.pivots == [min(row) for row in L.basis]
        assert all(row[min(row)] > 0 and all(row.values()) for row in L.basis)
        assert sorted(set(L.pivots)) == L.pivots
        rows = [to_dense(row, n) for row in L.basis]
        for v, d in zip(gens, sparse):
            coords = L.coordinates(d)
            assert all(coords.values()) and combine(to_dense(coords, L.rank), rows, n) == v
            for refused in (lambda: L.coordinates(v), lambda: v in L, lambda: Lattice(n, [v])):
                with pytest.raises(InputError, match="is not a dict"):
                    refused()
    L = Lattice(3, [{0: 2}, {2: 1}])
    assert L.coordinates({0: 4, 2: -1}) == {0: 2, 1: -1}
    assert L.coordinates({0: 1}) is None and L.coordinates({5: 1}) is None
    for bad in ({3: 1}, {-1: 1}, (1, 2)):
        with pytest.raises(InputError):
            L.add(bad)


def test_lattice_membership():
    L = Lattice(2, [{0: 2}, {1: 2}])
    assert {0: 2, 1: -2} in L
    assert {} in L
    assert {0: 1, 1: 1} not in L
    assert L.coordinates({0: 2, 1: -2}) == {0: 1, 1: -1}
    assert L.coordinates({0: 1, 1: 1}) is None
    # a vector with an entry at a column between two pivots is outside
    gap = Lattice(3, [{0: 1}, {2: 1}])
    assert gap.coordinates({0: 2, 2: 3}) == {0: 2, 1: 3}
    assert gap.coordinates({0: 2, 1: 1, 2: 3}) is None
    assert L.rank == 2
    assert not Lattice(3).hnf_basis()
    # membership reduces a copy: neither a member nor a non-member changes
    for vec in ({0: 2, 1: -2}, {0: 1, 1: 1}, {0: 3}, {1: 4, 0: -2}):
        given = dict(vec)
        assert (L.coordinates(given) is None) == (given not in L) == (not L.contains_all([given]))
        assert given == vec and list(given) == list(vec)


def test_lattice_equality_is_generator_independent():
    rng = random.Random(83)
    for _ in range(25):
        n = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        L = Lattice(n, map(to_sparse, gens))
        # same span written differently: shuffled order plus a row operation
        mixed = list(gens)
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            mixed.append(tuple(a + 3 * b for a, b in zip(mixed[0], mixed[1])))
        assert Lattice(n, map(to_sparse, mixed)) == L
        for vec in gens:
            assert to_sparse(vec) in L
            assert to_sparse(-x for x in vec) in L
        # a Hermite basis is kept as the basis, in order, and the
        # coordinates of every generator rebuild it
        hermite = L.hnf_basis()
        H = Lattice(n, map(to_sparse, hermite))
        assert H.basis == [to_sparse(row) for row in hermite]
        for vec in gens:
            assert combine(to_dense(H.coordinates(to_sparse(vec)), len(hermite)), hermite, n) == vec


def test_homology_presentation_known():
    # Z --(2)--> Z --(0)--> Z has middle homology Z/2
    d_out = IntMatrix.zeros(1, 1)
    d_in = from_lists([[2]])
    pres = homology_presentation(d_out, d_in)
    assert pres.structure == ZModule(0, (2,))
    assert pres.generator_count == 1
    assert not pres.class_is_zero({0: 1})
    assert pres.class_is_zero({0: 2})


def random_relations(rng, units):
    """k x r relations with k <= 8, r <= 10 and entries in [-3, 3]; with
    units=False no entry is +-1."""
    k, r = rng.randint(1, 8), rng.randint(0, 10)
    values = list(range(-3, 4)) if units else [-3, -2, 0, 2, 3]
    return from_lists([[rng.choice(values) for _ in range(r)] for _ in range(k)], cols=r)


def presentation_of(R):
    """Z^k modulo the columns of R.  Every chain is a cycle, so the
    generators are the unit vectors at the coordinates that survive the
    division by the columns, in increasing order."""
    pres = homology_presentation(IntMatrix.zeros(0, R.rows), R)
    survivors = [min(v) for v in pres.cycles.basis]
    assert pres.cycles.basis == [{g: 1} for g in survivors]
    assert survivors == sorted(set(survivors))
    return pres


def test_pruned_presentation_random():
    rng = random.Random(808)
    for trial in range(80):
        R = random_relations(rng, units=trial % 3 != 0)
        k = R.rows
        pres = presentation_of(R)
        rank, torsion = oracles.cokernel_invariants(R.to_lists(), k)
        got = cokernel_structure(IntMatrix.from_columns(pres.relations, pres.generator_count))
        assert (got.rank, list(got.torsion)) == (rank, torsion)
        assert pres.structure == got
        if any(x in (1, -1) for row in R.to_lists() for x in row):
            assert pres.generator_count < k
        else:
            assert pres.generator_count == k
        assert all(0 <= c < pres.generator_count for column in pres.relations for c in column)
        for f, vec in enumerate(pres.cycles.basis):
            assert pres.coordinates(vec) == {f: 1}
        for column in R.sparse_columns():
            assert pres.class_is_zero(pres.coordinates(column))
        # a chain has class 0 exactly when it lies in the column span
        span = Lattice(k, R.sparse_columns())
        for g in range(k):
            assert pres.class_is_zero(pres.coordinates({g: 1})) == ({g: 1} in span)


@pytest.mark.parametrize("rows", [
    [[1], [1]],
    [[1, 0], [2, 3]],
    [[1, 2, 0], [-1, 0, 3], [2, 1, 1]],
], ids=["sum", "triangular", "dense"])
def test_broken_prune_is_caught(broken_prune, rows):
    R = from_lists(rows)
    presentation_of(R)
    broken_prune()
    with pytest.raises(InternalCheckError, match="has a nonzero class"):
        presentation_of(R)


def random_relation_set(rng):
    """Up to 14 sparse relations over n <= 12 generators with entries in
    [-3, 3]; some get a planted +-1, so that unit pivots occur."""
    n = rng.randint(1, 12)
    relations = []
    for _ in range(rng.randint(0, 14)):
        v = {c: x for c in range(n) if rng.random() < 0.4 and (x := rng.randint(-3, 3))}
        if rng.random() < 0.3:
            v[rng.randrange(n)] = rng.choice((-1, 1))
        relations.append(v)
    return n, relations


def test_quotient_in_two_steps_presents_the_quotient_at_once():
    # the regular-sequence scan divides stage by stage, projecting each
    # new vector first; it must present Z^n modulo all the relations
    rng = random.Random(1818)
    for _ in range(100):
        n, relations = random_relation_set(rng)
        cut = rng.randint(0, len(relations))
        first = Quotient.of(n).divided_by(relations[:cut])
        steps = first.divided_by([first.project(v) for v in relations[cut:]])
        at_once = Quotient.of(n).divided_by(relations)
        expected = oracles.cokernel_invariants(IntMatrix.from_columns(relations, n).to_lists(), n)
        for q in (steps, at_once):
            assert len(q.free) + len(q.pivots) == n
            got = cokernel_structure(q.matrix(q.relations))
            rank = rational_rank(q.matrix(q.relations))
            assert (len(q.free) - rank, list(got.torsion)) == expected, (n, relations)
            assert rank == oracles.rational_rank([to_dense(v, n) for v in q.relations])
            residual = Lattice(n, q.relations)
            for v in relations:
                copy = dict(v)
                assert q.project(v) in residual
                assert v == copy
            for g in q.free:
                assert q.project({g: 1}) == {g: 1}


def test_quotient_by_nothing_is_the_same_object():
    q = Quotient.of(3)
    assert q.divided_by([]) is q
    q = q.divided_by([{0: 1, 1: 2}, {2: 4}])
    assert (q.free, rational_rank(q.matrix(q.relations))) == ((1, 2), 1)
    assert q.divided_by([]) is q
    with pytest.raises(InputError, match="not a nonnegative integer"):
        Quotient.of(2.0)


def test_only_intlinalg_names_the_pivot_log():
    # Quotient owns the engine's pivot log: the scan and the presentations
    # reach it through Quotient, never through the engine's helpers
    for path in sorted(pathlib.Path(intlinalg.__file__).parent.glob("*.py")):
        if path.name != "intlinalg.py":
            text = path.read_text()
            assert "_eliminate_units" not in text and "_substitute" not in text, path.name


def test_presentation_refuses_dense_coordinates():
    pres = homology_presentation(IntMatrix.zeros(0, 2), from_lists([[2], [0]]))
    assert pres.coordinates({0: 1}) == {0: 1}
    with pytest.raises(InputError, match="not a dict"):
        pres.coordinates((1, 0))
    # refused before the cycle test, so a dense non-cycle is refused too
    pres = homology_presentation(from_lists([[1, 1]]), from_lists([[2], [-2]]))
    assert pres.coordinates({0: 1}) is None
    with pytest.raises(InputError, match="not a dict"):
        pres.coordinates((1, 0))


def test_homology_presentation_rejects_non_complex():
    with pytest.raises(InternalCheckError):
        homology_presentation(from_lists([[1]]), from_lists([[1]]))
    with pytest.raises(InternalCheckError):
        homology_presentation(from_lists([[1, 0]]), from_lists([[1]]))


def test_homology_structures_blank_a_paired_row_with_an_entry():
    # d_1's unit pivot pairs a basis element of C_1, and d_2 holds 2 in its row
    complex_ = [from_lists([[1, 1]]), from_lists([[2], [-2]])]
    assert homology_structures(complex_) == [ZModule(0), ZModule(0, (2,)), ZModule(0)]
    assert homology_structures(iter(complex_)) == [ZModule(0), ZModule(0, (2,)), ZModule(0)]


def test_homology_structures_check_every_pair():
    with pytest.raises(InternalCheckError, match="compose to zero"):
        homology_structures([from_lists([[1]]), from_lists([[1]])])
    # the first pair composes to zero, the second does not
    with pytest.raises(InternalCheckError, match="compose to zero"):
        homology_structures([from_lists([[1, 1]]), from_lists([[1], [-1]]), from_lists([[1]])])
    with pytest.raises(InternalCheckError, match="chain spaces disagree"):
        homology_structures([from_lists([[1, 1]]), from_lists([[1]])])
    # a pair that passes: the last group is ker d_2, of rank 2 - 1
    assert homology_structures([from_lists([[1, 1]]), from_lists([[1, 2], [-1, -2]])]) == [
        ZModule(0), ZModule(0), ZModule(1)]


def random_unimodular(rng, n):
    """(U, U^-1) as dense lists, U a product of random row additions."""
    U = [[int(i == k) for k in range(n)] for i in range(n)]
    inverse = [row[:] for row in U]
    for _ in range(3 * n if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        U[i] = [x + q * y for x, y in zip(U[i], U[k])]  # U <- (1 + q e_i e_k^T) U
        for row in inverse:  # U^-1 <- U^-1 (1 - q e_i e_k^T)
            row[k] -= q * row[i]
    return U, inverse


def test_homology_structures_of_disguised_standard_complexes():
    # a direct sum of free generators and pieces Z --t--> Z, with a random
    # unimodular change of basis in every degree: H_p is Z^(free in C_p)
    # plus Z/t for each piece from C_{p+1}, whatever the disguise
    rng = random.Random(22)
    for _ in range(60):
        k = rng.randint(1, 4)
        free = [rng.randint(0, 2) for _ in range(k + 1)]
        pieces = [[]] + [[rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(rng.randint(0, 3))]
                         for _ in range(k)] + [[]]
        dims = [free[p] + len(pieces[p]) + len(pieces[p + 1]) for p in range(k + 1)]
        changes = [random_unimodular(rng, n) for n in dims]
        complex_ = []
        for p in range(1, k + 1):
            D = [[0] * dims[p] for _ in range(dims[p - 1])]
            for i, t in enumerate(pieces[p]):
                D[free[p - 1] + len(pieces[p - 1]) + i][free[p] + i] = t
            U, inverse = from_lists(changes[p - 1][0], dims[p - 1]), from_lists(changes[p][1], dims[p])
            complex_.append(U.mul(from_lists(D, dims[p])).mul(inverse))
        expected = []  # H_k is Z^free[k], as pieces[k + 1] is empty
        for p in range(k + 1):
            diagonal = [[t if r == c else 0 for c in range(len(pieces[p + 1]))]
                        for r, t in enumerate(pieces[p + 1])]
            torsion = tuple(d for d in oracles.smith_diagonal(diagonal) if d > 1)
            expected.append(ZModule(free[p], torsion))
        assert homology_structures(complex_) == expected, (free, pieces)


def test_homology_subquotient_random():
    # build random chain pairs: d_in arbitrary, d_out assembled from the
    # left kernel of d_in so the two always compose to zero
    rng = random.Random(4242)
    for _ in range(25):
        mid = rng.randint(1, 5)
        hi = rng.randint(0, 4)
        d_in = random_matrix(rng, mid, hi, lo=-4, hi=4)
        left = dense_kernel(d_in.transpose())
        low = rng.randint(0, 3)
        rows = []
        for _ in range(low):
            combo = [0] * mid
            for vec in left:
                c = rng.randint(-2, 2)
                combo = [a + c * b for a, b in zip(combo, vec)]
            rows.append(combo)
        d_out = from_lists(rows, cols=mid) if rows else IntMatrix.zeros(0, mid)
        got = homology_presentation(d_out, d_in).structure
        rank, torsion = oracles.homology_structure(
            d_out.to_lists(), d_in.to_lists(), mid
        )
        assert (got.rank, list(got.torsion)) == (rank, torsion)


def test_rational_rank_matches_oracle():
    rng = random.Random(17)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rational_rank(A) == oracles.rational_rank(A.to_lists())


def test_det_matches_oracle():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        A = random_matrix(rng, n, n)
        assert det(A) == oracles.det_fraction(A.to_lists())
    for A in structured_matrices(73, count=200):
        if A.rows == A.cols:
            assert det(A) == oracles.det_fraction(A.to_lists())
    assert det(from_lists([[2, 4], [6, 8]])) == -8
    assert det(from_lists([[0, 2], [3, 0]])) == -6
    assert det(IntMatrix.zeros(0, 0)) == 1
    with pytest.raises(InputError):
        det(IntMatrix.zeros(2, 3))


def big_square(rng, n):
    """n x n rows with entries up to 2^64 in size, small ones and zeros
    mixed in, so that pivots move and leading entries change sign."""
    return [[rng.choice((0, rng.randint(-9, 9), rng.randint(-2**64, 2**64))) for _ in range(n)]
            for _ in range(n)]


def permutation_sign(perm):
    """The sign of a permutation of 0..n-1, by counting its inversions."""
    return (-1) ** sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])


def test_det_is_alternating_and_multiplicative_with_64_bit_entries():
    # det(PA) = sgn(P) det(A), det(A^T) = det(A) and det(AB) = det(A) det(B),
    # each value also checked against the Fraction oracle; a Lattice that
    # lost either of its two sign flips gets these signs wrong
    rng = random.Random(2424)
    for _ in range(40):
        n = rng.randint(1, 8)
        A, B = big_square(rng, n), big_square(rng, n)
        d, e = det(from_lists(A)), det(from_lists(B))
        assert d == oracles.det_fraction(A) and e == oracles.det_fraction(B)
        perm = rng.sample(range(n), n)
        PA = [A[i] for i in perm]
        assert det(from_lists(PA)) == permutation_sign(perm) * d == oracles.det_fraction(PA)
        AT = [list(column) for column in zip(*A)]
        assert det(from_lists(AT)) == d == oracles.det_fraction(AT)
        AB = [[sum(x * y for x, y in zip(row, column)) for column in zip(*B)] for row in A]
        assert det(from_lists(AB)) == d * e == oracles.det_fraction(AB)


def test_det_is_zero_below_full_rank():
    # a repeated row, a zero row or a row dependent on two others makes
    # the rows span less than rank n, whatever the size of the entries
    rng = random.Random(2425)
    for _ in range(30):
        n = rng.randint(3, 8)
        A = big_square(rng, n)
        k, i, l = rng.sample(range(n), 3)
        a, b = rng.randint(-2**64, 2**64), rng.randint(-9, 9)
        for row in (A[i], [0] * n, [a * x + b * y for x, y in zip(A[i], A[l])]):
            M = A[:k] + [row] + A[k + 1:]
            assert det(from_lists(M)) == 0 == oracles.det_fraction(M)
    assert det(from_lists([[2, 4], [1, 2]])) == 0
    assert det(from_lists([[0]])) == 0


def test_int_matrix_basics():
    A = IntMatrix([{0: 1, 1: 2}, {0: 3, 1: 4}], 2)
    assert A.to_lists() == [[1, 2], [3, 4]]
    assert A.sparse_columns()[1] == {0: 2, 1: 4}
    assert A.transpose().to_lists() == [[1, 3], [2, 4]]
    assert A.mul(IntMatrix([{0: 1}, {}], 1)) == IntMatrix([{0: 1}, {0: 3}], 1)
    assert IntMatrix.from_columns([{0: 1, 1: 2}], rows=2) == IntMatrix([{0: 1}, {0: 2}], 1)
    assert IntMatrix.zeros(2, 2).is_zero()
    # rows are dicts column -> entry; a dense row, ragged or not, is refused
    for rows in ([[1, 2]], [(1, 2)], [[1], [2, 3]], [{0: 1}, [2, 3]]):
        with pytest.raises(InputError, match="is not a dict"):
            IntMatrix(rows, cols=2)
    with pytest.raises(InputError, match="is not a dict"):
        IntMatrix.from_columns([(1, 2)], rows=2)


def test_int_matrix_round_trips_through_every_constructor():
    rng = random.Random(41)
    shapes = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(40)]
    matrices = structured_matrices(43) + [
        from_lists([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)], cols=c)
        for r, c in shapes
    ] + [IntMatrix.zeros(r, c) for r, c in shapes[:10]]
    for M in matrices:
        lists = M.to_lists()
        rows = [{c: x for c, x in enumerate(row) if x} for row in lists]
        sparse = IntMatrix(rows, M.cols)
        columns = M.sparse_columns()
        by_columns = IntMatrix.from_columns(columns, M.rows)
        assert sparse == by_columns == M
        assert len({hash(sparse), hash(by_columns), hash(M)}) == 1
        assert (sparse.rows, sparse.cols) == (by_columns.rows, by_columns.cols) == (M.rows, M.cols)
        assert M.transpose().transpose() == M
        assert M.transpose().to_lists() == [list(to_dense(col, M.rows)) for col in columns]
        assert sparse.to_lists() == lists
        assert M.sparse_rows() == rows
        assert all(len(row) == M.cols for row in lists) and len(lists) == M.rows
    # insertion order of a dict row does not matter to equality or hash
    a, b = IntMatrix([{0: 1, 2: 3}], 3), IntMatrix([{2: 3, 0: 1}], 3)
    assert a == b and hash(a) == hash(b)
    assert IntMatrix([{}], 2) != IntMatrix([{}, {}], 1)


@pytest.mark.parametrize("entry", [0.5, 2.0, True, False, Fraction(3, 2), Fraction(2)],
                         ids=["float", "integral-float", "true", "false", "fraction",
                              "integral-fraction"])
def test_int_matrix_refuses_entries_that_are_not_ints(entry):
    with pytest.raises(InputError, match="is not an integer"):
        IntMatrix.from_columns([{0: 1}, {0: entry, 1: 1}], rows=2)
    with pytest.raises(InputError, match="is not an integer"):
        IntMatrix([{0: 1, 1: entry}, {1: 1}], 2)
    with pytest.raises(InputError, match="is not an integer"):
        ZModule(0, (2, entry))
    with pytest.raises(InputError, match="is not an integer"):
        ZModule(entry)


@pytest.mark.parametrize("entry", [1.5, 3.0, True, False, Fraction(3, 2), Fraction(2)],
                         ids=["float", "integral-float", "true", "false", "fraction",
                              "integral-fraction"])
def test_lattice_refuses_entries_that_are_not_ints(entry):
    # a float was kept as a pivot, and an integral float was a member
    with pytest.raises(InputError, match="is not an integer"):
        Lattice(2, [{0: entry}, {1: 2}])
    L = Lattice(2, [{0: 1}])
    for vec in ({0: entry}, {1: entry}):
        with pytest.raises(InputError, match="is not an integer"):
            vec in L
        with pytest.raises(InputError, match="is not an integer"):
            L.add(vec)
    assert L.basis == [{0: 1}]


@pytest.mark.parametrize("key", [1.5, 1.0, True, False, "a", Fraction(1)],
                         ids=["float", "integral-float", "true", "false", "str", "fraction"])
def test_lattice_add_refuses_columns_that_are_not_ints(key):
    # a float or a bool was stored as a pivot or read as a member's column
    # ({True: 3} had coordinates {1: 3}), and a str raised TypeError
    L = Lattice(2, [{0: 1}])
    full = Lattice(2, [{0: 1}, {1: 1}])
    for vec in ({key: 2}, {key: 2, 1: 1}):
        for refused in (lambda: L.add(vec), lambda: full.coordinates(vec), lambda: vec in full,
                        lambda: full.contains_all([vec])):
            with pytest.raises(InputError, match=r"is not an integer in \[0, 2\)"):
                refused()
    assert L.basis == [{0: 1}]


@pytest.mark.parametrize("size", [-1, -3, 2.0, True], ids=["minus-one", "minus-three", "float", "bool"])
def test_shapes_must_be_nonnegative_ints(size):
    for build in (lambda: IntMatrix.zeros(size, 2), lambda: IntMatrix.zeros(2, size),
                  lambda: IntMatrix([], cols=size), lambda: IntMatrix([{0: 1}], cols=size),
                  lambda: IntMatrix.from_columns([], rows=size), lambda: Lattice(size)):
        with pytest.raises(InputError, match="is not a nonnegative integer"):
            build()
    assert (IntMatrix.zeros(0, 0).rows, IntMatrix([], cols=0).cols, Lattice(0).n) == (0, 0, 0)


def test_all_lists_exactly_the_public_definitions():
    # deleting or adding a public function or class must update __all__ too
    defined = {name for name, obj in vars(intlinalg).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == intlinalg.__name__}
    assert sorted(intlinalg.__all__) == sorted(defined)


def test_rational_rank_of_products_of_known_rank():
    # an n x r factor with an invertible triangular r x r block in some r
    # of its rows, times an r x m factor with one in some r of its
    # columns: both have rank r, so the product has rank exactly r
    rng = random.Random(61)
    for _ in range(60):
        r = rng.randint(0, 5)
        n, m = rng.randint(r, 9), rng.randint(r, 9)

        def triangular(k):
            return [rng.choice((-3, -2, -1, 1, 2, 3)) if t == k else rng.randint(-4, 4) * (t > k)
                    for t in range(r)]

        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        for k, i in enumerate(rng.sample(range(n), r)):
            left[i] = triangular(k)
        right = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        for k, c in enumerate(rng.sample(range(m), r)):
            for t, x in enumerate(triangular(k)):
                right[t][c] = x
        product = [[sum(row[t] * right[t][c] for t in range(r)) for c in range(m)] for row in left]
        transposed = [list(col) for col in zip(*product)] if n else [[] for _ in range(m)]
        assert oracles.rational_rank(product) == oracles.rational_rank(transposed) == r
        assert rational_rank(from_lists(product, cols=m)) == r


@pytest.mark.parametrize("row, message", [
    ({0: 0}, "stored zero"),
    ({5: 1}, "column 5 is not an integer in"),
    ({-1: 1}, "column -1 is not an integer in"),
    ({1.0: 1}, "column 1.0 is not an integer in"),
    ({True: 1}, "column True is not an integer in"),
], ids=["zero", "past-the-end", "negative", "float", "bool"])
def test_sparse_matrix_refuses_stored_zeros_and_bad_columns(row, message):
    # a stored zero broke is_zero and equality; a bad column fed the engine
    with pytest.raises(InputError, match=message):
        cokernel_structure(IntMatrix([row], 2))


def test_inexact_entries_are_refused_before_any_arithmetic():
    # a float reaching det, the face determinants or the structure would
    # give an inexact answer (0.5, 1.0 for 1.5) or a TypeError
    with pytest.raises(InputError):
        det(IntMatrix([{0: 0.5}], 1))
    with pytest.raises(InputError):
        check_local_freeness(build_complex(3, [(1, 2), (2, 3)]),
                             SubgroupData(IntMatrix([{0: 1.5, 1: 1}, {1: 1, 2: 1}], 3)))
    with pytest.raises(InputError):
        cokernel_structure(IntMatrix([{0: 2.0}, {1: 4.0}], 2))
    with pytest.raises(InputError):
        cokernel_structure(IntMatrix([{0: 0.5}], 1))
    with pytest.raises(InputError):
        ZModule(0, (2.5,))
