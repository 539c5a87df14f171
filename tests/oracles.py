"""Slow reference computations used to cross-check the package.

Everything here works on plain lists and fractions.Fraction and shares no
code with bigtor.intlinalg, so a bug in the package's linear algebra cannot
hide by infecting both sides of a comparison.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm


def rational_rank(rows):
    """Rank over Q by forward Gaussian elimination with exact fractions.

    Rows are dicts column -> nonzero Fraction.  Each row is reduced by
    the pivot rows found so far, each scaled to a leading 1 and keyed by
    its leading column, until it vanishes or leads in a new column.  An
    echelon form gives the rank, so nothing above a pivot is cleared.
    """
    pivots = {}  # leading column -> pivot row, leading entry 1
    for values in rows:
        row = {c: Fraction(x) for c, x in enumerate(values) if x}
        while row:
            lead = min(row)
            factor = row[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = {c: x / factor for c, x in row.items()}
                break
            for c, y in pivot.items():
                x = row.get(c, 0) - factor * y
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


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


def sparse_fp_rank(rows, p):
    """Rank over F_p, p prime, of the matrix whose rows are dicts column
    -> entry, by the echelon elimination of rational_rank mod p: each row
    is reduced by the pivot rows found so far, each with a leading 1."""
    pivots = {}  # leading column -> pivot row, leading entry 1, entries in [1, p)
    for values in rows:
        row = {c: x % p for c, x in values.items() if x % p}
        while row:
            lead = min(row)
            factor = row[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(factor, -1, p)
                pivots[lead] = {c: x * inverse % p for c, x in row.items()}
                break
            for c, y in pivot.items():
                x = (row.get(c, 0) - factor * y) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


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


def in_column_span(G, x):
    """Whether x is an integer combination of the columns of G (a list of
    rows): with U G V = S the Smith normal form, G y = x has an integer
    solution exactly when U x is divisible by each nonzero corner of S and
    zero past the last one."""
    ncols = len(G[0]) if G else 0
    U, S, _ = smith_with_transforms(G, ncols)
    ux = [sum(a * b for a, b in zip(row, x)) for row in U]
    corners = [S[i][i] for i in range(min(len(S), ncols)) if S[i][i]]
    return all(y % d == 0 for y, d in zip(ux, corners)) and not any(ux[len(corners):])


def torsion_certificate(B_rows, extra, face):
    """(lambda, c) with lambda * extra + sum_r c_r * (row r of B) zero on
    the columns of face (1-based vertices, B_v nonsingular there), primitive
    with lambda > 0.  a = e_v B_v^{-1} by Cramer's rule: a_r is det B_v with
    row r replaced by e_v, over det B_v.  lambda is the lcm of a's
    denominators and c = -lambda a, both divided by the gcd of all n + 1."""
    B_v = [[row[i - 1] for i in face] for row in B_rows]
    e_v = [extra[i - 1] for i in face]
    d = det_fraction(B_v)
    a = [Fraction(det_fraction(B_v[:r] + [e_v] + B_v[r + 1:]), d) for r in range(len(B_v))]
    lam = lcm(*(x.denominator for x in a))
    c = [int(-x * lam) for x in a]
    g = gcd(lam, *c)
    return lam // g, tuple(x // g for x in c)


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


def reduced_cohomology(faces, J, q):
    """(rank, torsion) of H~^q(K_J; Z), K_J the full subcomplex on the
    vertex set J of the complex with the given faces (frozensets, the
    empty face among them), from its augmented simplicial cochains: the
    empty face spans C^{-1}, and delta^k takes a k-face to the sum of the
    (k+1)-faces tau over it, with sign (-1)^i for the i-th vertex of tau
    missing from it."""
    cells = {}
    for face in faces:
        if face <= J:
            cells.setdefault(len(face) - 1, []).append(tuple(sorted(face)))

    def coboundary(k):  # delta^k as dense rows, one per (k+1)-face
        index = {face: c for c, face in enumerate(cells.get(k, ()))}
        rows = []
        for tau in cells.get(k + 1, ()):
            row = [0] * len(index)
            for i in range(len(tau)):
                row[index[tau[:i] + tau[i + 1:]]] = (-1) ** i
            rows.append(row)
        return rows

    return homology_structure(coboundary(q), coboundary(q - 1), len(cells.get(q, ())))


def hochster_tor(maximal, m, p, j):
    """(rank, torsion) of Tor_p of Z[K] over Z[x_1..x_m] in degree j by
    Hochster's formula: the sum of H~^{j/2-p-1}(K_J; Z) over the j/2-subsets
    J of [m], its torsion as invariant factors (Bruns and Herzog,
    Cohen-Macaulay Rings, Thm 5.5.1; Buchstaber and Panov, Toric Topology,
    Thm 3.2.9)."""
    faces = downward_closure(maximal)
    rank, torsion = 0, []
    for J in combinations(range(1, m + 1), j // 2):
        r, t = reduced_cohomology(faces, frozenset(J), j // 2 - p - 1)
        rank += r
        torsion += t
    diagonal = [[t if r == c else 0 for c in range(len(torsion))] for r, t in enumerate(torsion)]
    return rank, [d for d in smith_diagonal(diagonal) if d > 1]


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


def face_ring_product(faces, f, g):
    """f * g in the face ring with the given faces (frozensets of 1-based
    vertices, as downward_closure gives them), for polynomials as dicts
    exponent tuple -> coefficient: the product term by term, with every
    monomial whose support is not a face dropped."""
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            e = tuple(s + t for s, t in zip(a, b))
            out[e] = out.get(e, 0) + x * y
    return {e: x for e, x in out.items()
            if x and frozenset(v + 1 for v, k in enumerate(e) if k) in faces}


def u_multiples(faces, forms, f, half_degree):
    """u^a f in the face ring, u_i the linear form with coefficient list
    forms[i], for every exponent vector a with |a| <= half_degree, as a
    dict a -> polynomial; each is some u_i times an earlier one."""
    m = len(forms[0])
    linear = [{tuple(int(k == v) for k in range(m)): c for v, c in enumerate(u) if c}
              for u in forms]
    out = {(0,) * len(forms): dict(f)}
    frontier = list(out)
    for _ in range(half_degree):
        grown = []
        for a in frontier:
            for i, u in enumerate(linear):
                b = a[:i] + (a[i] + 1,) + a[i + 1:]
                if b not in out:
                    out[b] = face_ring_product(faces, out[a], u)
                    grown.append(b)
        frontier = grown
    return out


def annihilator_kernel_rank(multiples, half_degree):
    """Rank of the kernel of g -> g f on the polynomials g of degree
    half_degree in the forms, from u_multiples: the number of u^a of that
    degree minus the rank over Q of the columns u^a f."""
    columns = [column for a, column in multiples.items() if sum(a) == half_degree]
    monomials = sorted({e for column in columns for e in column})
    return len(columns) - rational_rank([[column.get(e, 0) for column in columns]
                                         for e in monomials])


def prime_factors(n):
    """The primes dividing the positive integer n, by trial division."""
    primes, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            primes.add(p)
            n //= p
        p += 1
    return primes | {n} if n > 1 else primes


def h_vector(maximal):
    """h_0, ..., h_d of the complex with the given facets, d = dim + 1, from
    its f-vector (f_{-1} = 1 counts the empty face):
    h_k = sum over i <= k of (-1)^(k-i) C(d-i, k-i) f_{i-1}."""
    faces = downward_closure(maximal)
    d = max(map(len, faces))
    f = [sum(len(face) == i for face in faces) for i in range(d + 1)]
    return [sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1)]


def reisner_primes(maximal):
    """The primes l over which the pure complex with the given facets fails
    Reisner's criterion, or None when it fails over Q (and so over every
    F_l).  Over a field k the criterion holds when H~_i(lk F; k) = 0 for
    every face F and every i < dim lk F (Reisner, Adv. Math. 21, 1976).
    By universal coefficients, H~_i(X; F_l) has dimension rank H~^i(X; Z)
    plus the number of invariant factors of H~^i and H~^(i+1) that l
    divides, so the primes are those dividing the torsion of H~^q(lk F; Z)
    for q <= dim lk F, when every rank below the top is 0."""
    faces = downward_closure(maximal)
    dim = max(map(len, faces)) - 1
    primes = set()
    for F in faces:
        link = {G - F for G in faces if F <= G}
        top = dim - len(F)  # dim lk F, K being pure
        for q in range(top + 1):
            rank, torsion = reduced_cohomology(link, frozenset().union(*link), q)
            if rank and q < top:
                return None
            primes.update(*map(prime_factors, torsion))
    return primes


def allowed_torsion_primes(maximal, B_rows):
    """The primes that may divide an invariant factor of Tor of Z[K] over
    Z[u_1..u_n], u_i the forms of the rows of B, when every facet of K has
    n vertices and every facet minor of B is nonzero; None when any may.

    If l divides no facet minor, u is a linear system of parameters over
    F_l (Stanley, Combinatorics and Commutative Algebra, 2nd ed., III.2);
    if K is also Cohen-Macaulay over F_l, u is regular on F_l[K], and as
    Z[K] is a free Z-module, multiplication by l is onto Tor_{p>=1} and
    one to one on Tor_0.  So l divides a facet minor or is a Reisner
    prime, and every prime may occur when K fails the criterion over Q."""
    reisner = reisner_primes(maximal)
    if reisner is None:
        return None
    return reisner.union(*(prime_factors(abs(d)) for d in facet_minors(maximal, B_rows)))


def facet_minors(maximal, B_rows):
    """det of the columns of B at each facet (1-based vertex tuples)."""
    return [det_fraction([[row[v - 1] for v in face] for row in B_rows]) for face in maximal]


def structure_pair(module):
    """(rank, torsion list) of a bigtor ZModule, for comparisons."""
    return module.rank, list(module.torsion)


def invariant_factors(orders):
    """The invariant factors, increasing and each dividing the next, of
    the sum of the cyclic groups Z/c over the orders c > 1: split each
    into prime powers, then multiply the largest powers of every prime
    into the last factor, the next largest into the one before, and so on."""
    powers = {}  # prime -> its prime-power parts
    for c in orders:
        for p in prime_factors(c):
            q = p
            while c % (q * p) == 0:
                q *= p
            powers.setdefault(p, []).append(q)
    factors = []
    for parts in powers.values():
        factors += [1] * (len(parts) - len(factors))
        for k, q in enumerate(sorted(parts, reverse=True)):
            factors[k] *= q
    return sorted(factors)


def kunneth_join(first, second, D):
    """Tor of a join K1 * K2 over B1 + B2 (block-diagonal), as
    {(p, j): (rank, torsion)} over its nonzero cells with j <= D, from the
    factors' tables in the same form.  Z[K1 * K2] = Z[K1] (x) Z[K2], so
    the Koszul complex is the tensor product of the factors', free over
    Z, and Kuenneth's formula gives Tor_p(j) as the sum of T1 (x) T2 over
    p1 + p2 = p and j1 + j2 = j, plus the sum of Tor^Z_1(T1, T2) over
    p1 + p2 = p - 1."""
    ranks, orders = {}, {}
    for (p1, j1), (r1, t1) in first.items():
        for (p2, j2), (r2, t2) in second.items():
            if j1 + j2 > D:
                continue
            tensor, tor = (p1 + p2, j1 + j2), (p1 + p2 + 1, j1 + j2)
            ranks[tensor] = ranks.get(tensor, 0) + r1 * r2
            # (Z^r1 + T1) (x) (Z^r2 + T2) = Z^(r1 r2) + T1^r2 + T2^r1 + T1 (x) T2,
            # and Z/a (x) Z/b = Tor^Z_1(Z/a, Z/b) = Z/gcd(a, b)
            shared = [gcd(a, b) for a in t1 for b in t2]
            orders.setdefault(tensor, []).extend(t1 * r2 + t2 * r1 + shared)
            orders.setdefault(tor, []).extend(shared)
    out = {}
    for cell in ranks.keys() | orders.keys():
        rank, torsion = ranks.get(cell, 0), invariant_factors(c for c in orders.get(cell, ()) if c > 1)
        if rank or torsion:
            out[cell] = (rank, torsion)
    return out
