import random
from fractions import Fraction

import pytest

from bigtor.errors import InputError, InternalCheckError
from bigtor.simplicial import SubgroupData, build_complex, check_local_freeness
from bigtor.intlinalg import (
    IntMatrix,
    Lattice,
    SnfSolver,
    ZModule,
    cokernel_structure,
    det,
    hermite_reduce,
    homology_presentation,
    kernel_basis,
    rational_rank,
    _bareiss,
    _smith_mod,
)

import oracles


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


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
    return IntMatrix(A, cols=cols)


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
    pres = homology_presentation(IntMatrix([[0]]), IntMatrix([[2]]))
    with pytest.raises(AttributeError):
        pres.kernel = ()


def test_smith_mod_matches_oracle_on_random_residuals():
    # residuals as the unit-pivot pass leaves them: no entry is +-1, so
    # a stage often meets gcd(pivot, minor) = 1 only after merging rows
    rng = random.Random(1987)
    residuals = [structured_matrix(rng, units=False) for _ in range(60)]
    values = [x for x in range(-12, 13) if x not in (-1, 1)]
    residuals += [
        IntMatrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        for rows, cols in ((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60))
    ]
    for A in residuals:
        m = A.to_lists()
        rank, minor, _ = _bareiss([list(row) for row in m])
        assert _smith_mod(m, abs(minor), rank) == oracles.smith_diagonal(m), m


def test_kernel_basis_random():
    rng = random.Random(7)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = kernel_basis(A)
        for v in basis:
            assert all(x == 0 for x in A.apply(v))
        assert len(basis) == A.cols - oracles.rational_rank(A.to_lists())
        assert kernel_basis(A) == basis
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
        expected = hermite_reduce([tuple(row[c] for row in V) for c in range(rank, A.cols)], A.cols)
        assert kernel_basis(A) == expected
    no_units = IntMatrix([[2, 4, 6], [4, 8, 12], [0, 0, 0]])
    assert kernel_basis(no_units) == [(1, 1, -1), (0, 3, -2)]


def test_cokernel_structure_known():
    assert cokernel_structure(IntMatrix([[2, 0], [0, 3]])) == ZModule(0, (6,))
    assert cokernel_structure(IntMatrix([[2, 4]])) == ZModule(0, (2,))
    assert cokernel_structure(IntMatrix.zeros(2, 0)) == ZModule(2, ())
    # no +-1 entry anywhere: the residual is the whole matrix
    assert cokernel_structure(IntMatrix([[2, 4], [6, 8]])) == ZModule(0, (2, 4))
    assert cokernel_structure(IntMatrix([[2, 4, 6], [4, 8, 12], [0, 0, 0]])) == ZModule(2, (2,))


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
        reduced = hermite_reduce(vectors, width)
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
        assert hermite_reduce(shuffled, width) == reduced


def test_hermite_reduce_wrong_width():
    with pytest.raises(InputError):
        hermite_reduce([(1, 2, 3)], 2)


def random_hermite_basis(rng, width, count):
    vectors = [tuple(rng.randint(-6, 6) for _ in range(width)) for _ in range(count)]
    return hermite_reduce(vectors, width)


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
        b = A.apply(x)
        got = SnfSolver(A).solve(b)
        assert got is not None
        assert A.apply(got) == b
    # back-substitution in a Hermite basis agrees with the solver's echelon solve
    for _ in range(30):
        width = rng.randint(1, 6)
        basis = random_hermite_basis(rng, width, rng.randint(0, 5))
        x = tuple(rng.randint(-5, 5) for _ in basis)
        b = combine(x, basis, width)
        solver = SnfSolver(IntMatrix.from_columns(basis, rows=width))
        assert Lattice(width, basis).coordinates(b) == solver.solve(b) == x


def test_solver_reports_unsolvable():
    assert SnfSolver(IntMatrix([[2]])).solve((1,)) is None
    assert SnfSolver(IntMatrix([[2, 0], [0, 2]])).solve((1, 1)) is None
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
            assert Lattice(width, rows).coordinates(b) is None
            assert SnfSolver(IntMatrix.from_columns(rows, rows=width)).solve(b) is None
    with pytest.raises(InputError):
        SnfSolver(IntMatrix([[1]])).solve((1, 2))


def test_lattice_takes_dense_or_dict_vectors():
    # the basis is sparse rows with positive, strictly increasing pivots, and
    # a vector may come as a dense sequence or a dict column -> entry
    rng = random.Random(1979)
    for _ in range(60):
        n = rng.randint(1, 7)
        gens = [tuple(rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n))
                for _ in range(rng.randint(0, 6))]
        sparse = [{c: x for c, x in enumerate(v) if x} for v in gens]
        dense_built, dict_built = Lattice(n, gens), Lattice(n, sparse)
        assert dict_built.basis == dense_built.basis
        assert dict_built.pivots == dense_built.pivots == [min(row) for row in dense_built.basis]
        assert all(row[min(row)] > 0 and all(row.values()) for row in dense_built.basis)
        assert sorted(set(dense_built.pivots)) == dense_built.pivots
        assert dict_built.hnf_basis() == dense_built.hnf_basis()
        for v, d in zip(gens, sparse):
            coords = dense_built.coordinates(v)
            assert dense_built.coordinates(d) == {k: x for k, x in enumerate(coords) if x}
        assert IntMatrix.from_columns(sparse, n) == IntMatrix.from_columns(gens, n)
    L = Lattice(3, [{0: 2}, {2: 1}])
    assert L.coordinates({0: 4, 2: -1}) == {0: 2, 1: -1}
    assert L.coordinates({0: 1}) is None and L.coordinates({5: 1}) is None
    for bad in ({3: 1}, {-1: 1}, (1, 2)):
        with pytest.raises(InputError):
            L.add(bad)


def test_lattice_membership():
    L = Lattice(2, [(2, 0), (0, 2)])
    assert (2, -2) in L
    assert (0, 0) in L
    assert (1, 1) not in L
    assert L.coordinates((2, -2)) == (1, -1)
    assert L.coordinates((1, 1)) is None
    # a vector with an entry at a column between two pivots is outside
    gap = Lattice(3, [(1, 0, 0), (0, 0, 1)])
    assert gap.coordinates((2, 0, 3)) == (2, 3)
    assert gap.coordinates((2, 1, 3)) is None
    assert L.rank == 2
    assert not Lattice(3).hnf_basis()


def test_lattice_equality_is_generator_independent():
    rng = random.Random(83)
    for _ in range(25):
        n = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        L = Lattice(n, gens)
        # same span written differently: shuffled order plus a row operation
        mixed = list(gens)
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            mixed.append(tuple(a + 3 * b for a, b in zip(mixed[0], mixed[1])))
        assert Lattice(n, mixed) == L
        for vec in gens:
            assert vec in L
            assert tuple(-x for x in vec) in L
        # a Hermite basis is kept as the basis, in order, and the
        # coordinates of every generator rebuild it
        hermite = L.hnf_basis()
        H = Lattice(n, hermite)
        assert H.basis == [{c: x for c, x in enumerate(row) if x} for row in hermite]
        for vec in gens:
            assert combine(H.coordinates(vec), hermite, n) == vec


def test_homology_presentation_known():
    # Z --(2)--> Z --(0)--> Z has middle homology Z/2
    d_out = IntMatrix.zeros(1, 1)
    d_in = IntMatrix([[2]])
    pres = homology_presentation(d_out, d_in)
    assert pres.structure == ZModule(0, (2,))
    assert pres.generator_count == 1
    assert not pres.class_is_zero((1,))
    assert pres.class_is_zero((2,))


def random_relations(rng, units):
    """k x r relations with k <= 8, r <= 10 and entries in [-3, 3]; with
    units=False no entry is +-1."""
    k, r = rng.randint(1, 8), rng.randint(0, 10)
    values = list(range(-3, 4)) if units else [-3, -2, 0, 2, 3]
    return IntMatrix([[rng.choice(values) for _ in range(r)] for _ in range(k)], cols=r)


def presentation_of(R):
    """Z^k modulo the columns of R, on the unit-vector kernel basis, so
    basis coordinates are R's coordinates."""
    pres = homology_presentation(IntMatrix.zeros(0, R.rows), R)
    assert pres.kernel_lattice().basis == [{g: 1} for g in range(R.rows)]
    return pres


def unit(k, i):
    return tuple(1 if t == i else 0 for t in range(k))


def test_pruned_presentation_random():
    rng = random.Random(808)
    for trial in range(80):
        R = random_relations(rng, units=trial % 3 != 0)
        k = R.rows
        pres = presentation_of(R)
        rank, torsion = oracles.cokernel_invariants(R.to_lists(), k)
        got = cokernel_structure(pres.relations)
        assert (got.rank, list(got.torsion)) == (rank, torsion)
        assert pres.structure == got
        if any(x in (1, -1) for row in R.to_lists() for x in row):
            assert pres.generator_count < k
        else:
            assert pres.free == tuple(range(k))
        assert pres.relations.rows == pres.generator_count
        for f, g in enumerate(pres.free):
            assert pres.kernel[f] == unit(k, g)
            assert pres.project(unit(k, g)) == unit(pres.generator_count, f)
            assert pres.project({g: 1}) == unit(pres.generator_count, f)
            assert pres.coordinates(unit(k, g)) == unit(pres.generator_count, f)
        residual = Lattice(pres.generator_count, pres.relations.columns())
        for column in R.columns():
            assert pres.project(column) in residual
            assert pres.class_is_zero(pres.project(column))


@pytest.mark.parametrize("rows", [
    [[1], [1]],
    [[1, 0], [2, 3]],
    [[1, 2, 0], [-1, 0, 3], [2, 1, 1]],
], ids=["sum", "triangular", "dense"])
def test_broken_prune_is_caught(broken_prune, rows):
    R = IntMatrix(rows)
    presentation_of(R)
    broken_prune()
    with pytest.raises(InternalCheckError, match="escaped the pruned relation lattice"):
        presentation_of(R)


def test_homology_presentation_rejects_non_complex():
    with pytest.raises(InternalCheckError):
        homology_presentation(IntMatrix([[1]]), IntMatrix([[1]]))
    with pytest.raises(InternalCheckError):
        homology_presentation(IntMatrix([[1, 0]]), IntMatrix([[1]]))


def test_homology_subquotient_random():
    # build random chain pairs: d_in arbitrary, d_out assembled from the
    # left kernel of d_in so the two always compose to zero
    rng = random.Random(4242)
    for _ in range(25):
        mid = rng.randint(1, 5)
        hi = rng.randint(0, 4)
        d_in = random_matrix(rng, mid, hi, lo=-4, hi=4)
        left = kernel_basis(d_in.transpose())
        low = rng.randint(0, 3)
        rows = []
        for _ in range(low):
            combo = [0] * mid
            for vec in left:
                c = rng.randint(-2, 2)
                combo = [a + c * b for a, b in zip(combo, vec)]
            rows.append(combo)
        d_out = IntMatrix(rows, cols=mid) if rows else IntMatrix.zeros(0, mid)
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
    assert det(IntMatrix([[2, 4], [6, 8]])) == -8
    assert det(IntMatrix([[0, 2], [3, 0]])) == -6
    assert det(IntMatrix.zeros(0, 0)) == 1
    with pytest.raises(InputError):
        det(IntMatrix.zeros(2, 3))


def test_int_matrix_basics():
    A = IntMatrix([[1, 2], [3, 4]])
    assert A.row(0) == (1, 2)
    assert A.column(1) == (2, 4)
    assert A.transpose().row(0) == (1, 3)
    assert A.apply((1, 0)) == (1, 3)
    assert A.hstack(IntMatrix([[5], [6]])).row(0) == (1, 2, 5)
    assert A.scaled(-1) == IntMatrix([[-1, -2], [-3, -4]])
    assert IntMatrix.from_columns([(1, 2)], rows=2) == IntMatrix([[1], [2]])
    assert IntMatrix.zeros(2, 2).is_zero()
    with pytest.raises(InputError):
        IntMatrix([[1], [2, 3]])


@pytest.mark.parametrize("index", [0.5, 1.0, True, False, None],
                         ids=["float", "integral-float", "true", "false", "none"])
def test_int_matrix_refuses_indices_that_are_not_ints(index):
    # rows are dicts, so a float column would otherwise read a silent 0
    A = IntMatrix([[1, 2], [3, 4]])
    for read in (lambda: A[0, index], lambda: A[index, 0], lambda: A.row(index),
                 lambda: A.column(index)):
        with pytest.raises(InputError, match="is not an integer"):
            read()
    for read in (lambda: A[0, 2], lambda: A[-1, 0], lambda: A.row(2), lambda: A.column(-1)):
        with pytest.raises(IndexError):
            read()


def test_int_matrix_round_trips_through_every_constructor():
    rng = random.Random(41)
    shapes = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(40)]
    matrices = structured_matrices(43) + [
        IntMatrix([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)], cols=c)
        for r, c in shapes
    ] + [IntMatrix.zeros(r, c) for r, c in shapes[:10]]
    for M in matrices:
        lists = M.to_lists()
        dense = IntMatrix(lists, cols=M.cols)
        sparse = IntMatrix([{c: x for c, x in enumerate(row) if x} for row in lists], M.cols)
        by_columns = IntMatrix.from_columns(M.columns(), M.rows)
        assert dense == sparse == by_columns == M
        assert len({hash(dense), hash(sparse), hash(by_columns)}) == 1
        assert (dense.rows, dense.cols) == (sparse.rows, sparse.cols) == (M.rows, M.cols)
        assert M.transpose().transpose() == M
        assert M.transpose().to_lists() == [list(col) for col in M.columns()]
        assert dense.to_lists() == lists
        assert [M.row(r) for r in range(M.rows)] == [tuple(row) for row in lists]
        assert all(M[r, c] == lists[r][c] for r in range(M.rows) for c in range(M.cols))
    # insertion order of a dict row does not matter to equality or hash
    a, b = IntMatrix([{0: 1, 2: 3}], 3), IntMatrix([{2: 3, 0: 1}], 3)
    assert a == b and hash(a) == hash(b)
    assert IntMatrix([[0, 0]]) != IntMatrix([[0], [0]])


@pytest.mark.parametrize("entry", [0.5, 2.0, True, False, Fraction(3, 2), Fraction(2)],
                         ids=["float", "integral-float", "true", "false", "fraction",
                              "integral-fraction"])
def test_int_matrix_refuses_entries_that_are_not_ints(entry):
    with pytest.raises(InputError, match="is not an integer"):
        IntMatrix([[1, entry], [0, 1]])
    with pytest.raises(InputError, match="is not an integer"):
        IntMatrix.from_columns([(1, 0), (entry, 1)], rows=2)
    with pytest.raises(InputError, match="is not an integer"):
        IntMatrix([[2, 0], [0, 4]]).scaled(entry)
    with pytest.raises(InputError, match="is not an integer"):
        IntMatrix([{0: 1, 1: entry}, {1: 1}], 2)
    with pytest.raises(InputError, match="is not an integer"):
        IntMatrix([{0: 2}, {1: 4}], 2).scaled(entry)
    with pytest.raises(InputError, match="is not an integer"):
        ZModule(0, (2, entry))
    with pytest.raises(InputError, match="is not an integer"):
        ZModule(entry)


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
        det(IntMatrix([[0.5]]))
    with pytest.raises(InputError):
        check_local_freeness(build_complex(3, [(1, 2), (2, 3)]),
                             SubgroupData(IntMatrix([[1.5, 1, 0], [0, 1, 1]])))
    with pytest.raises(InputError):
        cokernel_structure(IntMatrix([[2.0, 0], [0, 4.0]]))
    with pytest.raises(InputError):
        cokernel_structure(IntMatrix([{0: 0.5}], 1))
    with pytest.raises(InputError):
        ZModule(0, (2.5,))
