"""Slow reference computations used to cross-check the package.

Everything here works on plain lists and fractions.Fraction and shares no
code with bigtor.intlinalg, so a bug in the package's linear algebra cannot
hide by infecting both sides of a comparison.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def rational_rank(rows):
    """Rank over Q by Gaussian elimination with exact fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = Fraction(1) / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def det_fraction(rows):
    """Determinant over Q by elimination; rows must form a square matrix."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    value = Fraction(sign)
    for i in range(n):
        value *= a[i][i]
    assert value.denominator == 1
    return int(value)


def fp_rank(rows, p):
    """Rank over the field F_p, p prime, by Gaussian elimination mod p.

    rank over Q minus rank over F_p counts the invariant factors divisible
    by p, which checks torsion with no entry growth at all.
    """
    a = [[x % p for x in r] for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def smith_diagonal(rows):
    """Nonzero diagonal of the Smith normal form, textbook gcd chasing.

    Returns the invariant factors d_1 | d_2 | ... as positive integers.
    Each step moves the smallest nonzero entry of the remaining block to
    the corner and reduces its row and column by it, so the corner
    strictly shrinks until both are clear; taking the first nonzero entry
    instead lets entries reach millions of bits on random 8 x 10
    matrices with entries in [-3, 3].  Entries can still grow on larger
    inputs, such as the Koszul differentials of data/growth_repro.tcx, so
    this serves only small matrices; check larger ones with rational_rank
    and fp_rank.
    """
    a = [list(r) for r in rows]
    if not a or not a[0]:
        return []
    nr, nc = len(a), len(a[0])
    diag = []
    t = 0
    while t < min(nr, nc):
        while True:
            block = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
            if not block:
                return diag
            _, i, j = min(block)
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            p = a[t][t]
            for i in range(t + 1, nr):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, nc):
                q = a[t][j] // p
                if q:
                    for r in a:
                        r[j] -= q * r[t]
            if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][t + 1:]):
                continue  # a remainder smaller than p is left: it is the next corner
            bad = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        diag.append(abs(a[t][t]))
        t += 1
    return diag


def smith_with_transforms(rows, ncols):
    """(U, S, V) as lists with U * A * V = S, U and V unimodular and S the
    Smith normal form of the rows x ncols matrix A: the gcd chasing of
    smith_diagonal with every row operation repeated on U and every
    column operation on V, and each corner made positive.  Columns of V
    past the nonzero corners span the kernel of A."""
    a = [list(r) for r in rows]
    nr, nc = len(a), ncols
    u = [[int(i == k) for k in range(nr)] for i in range(nr)]
    v = [[int(i == k) for k in range(nc)] for i in range(nc)]

    def add_row(i, k, q):  # row i += q * row k, in A and U
        for m in (a, u):
            m[i] = [x + q * y for x, y in zip(m[i], m[k])]

    def add_col(j, k, q):  # column j += q * column k, in A and V
        for m in (a, v):
            for r in m:
                r[j] += q * r[k]

    t = 0
    while t < min(nr, nc):
        block = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        for m in (a, u):
            m[t], m[i] = m[i], m[t]
        for m in (a, v):
            for r in m:
                r[t], r[j] = r[j], r[t]
        p = a[t][t]
        for i in range(t + 1, nr):
            add_row(i, t, -(a[i][t] // p))
        for j in range(t + 1, nc):
            add_col(j, t, -(a[t][j] // p))
        if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][t + 1:]):
            continue  # a remainder smaller than p is left: it is the next corner
        bad = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])), None)
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if p < 0:
            add_row(t, t, -2)  # negate row t
        t += 1
    return u, a, v


def cokernel_invariants(rows, ambient):
    """(rank, torsion) of Z^ambient modulo the column span of the matrix."""
    torsion = [d for d in smith_diagonal(rows) if d > 1]
    rank = ambient - rational_rank(rows)
    return rank, torsion


def homology_structure(d_out_rows, d_in_rows, mid_dim):
    """(rank, torsion) of ker(d_out) / im(d_in) for integer matrices.

    Relies on im(d_in) being contained in ker(d_out): the quotient then
    embeds in coker(d_in), so its torsion equals the torsion of coker(d_in)
    while its rank is mid_dim minus the two matrix ranks.
    """
    rank = mid_dim - rational_rank(d_out_rows) - rational_rank(d_in_rows)
    torsion = [d for d in smith_diagonal(d_in_rows) if d > 1]
    return rank, torsion


def downward_closure(maximal):
    """All faces of the complex generated by the given vertex tuples."""
    faces = {frozenset()}
    for face in maximal:
        verts = sorted(face)
        for k in range(1, len(verts) + 1):
            faces.update(frozenset(c) for c in combinations(verts, k))
    return faces


def hilbert_coefficient(maximal, j):
    """Rank of the degree-j piece of the face ring, by binomial counting.

    Monomials of x-degree j = 2d with support exactly a face F number
    comb(d - 1, |F| - 1), so the coefficient is a sum over all faces.
    """
    if j < 0 or j % 2:
        return 0
    d = j // 2
    if d == 0:
        return 1
    total = 0
    for face in downward_closure(maximal):
        s = len(face)
        if 1 <= s <= d:
            total += comb(d - 1, s - 1)
    return total


def euler_characteristic(maximal, n, j):
    """Alternating Tor rank sum predicted by the Koszul resolution."""
    return sum(
        (-1) ** k * comb(n, k) * hilbert_coefficient(maximal, j - 2 * k)
        for k in range(n + 1)
    )


def structure_pair(module):
    """(rank, torsion list) of a bigtor ZModule, for comparisons."""
    return module.rank, list(module.torsion)
