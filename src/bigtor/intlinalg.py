"""Exact integer linear algebra on sparse rows.

One vector format runs through the module: a dict, column -> nonzero
entry.  IntMatrix is a shape plus one such dict per row, and it is built
from such rows only; it holds the Koszul differentials and
multiplication maps from assembly to the engine, which reads its rows as
fresh dicts (sparse_rows), and small matrices such as B.

One sparse elimination engine answers every structure and kernel
question.  It removes the +-1 pivots of a matrix in Markowitz order
(Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001); a unit pivot
keeps each Schur update integral, so the matrix is equivalent to the
identity on the pivots plus a small residual.  The residual's invariant
factors come from Hermite forms on Lattice, of its rows, then of the
transposed basis, and so on until the matrix is diagonal (Kannan and
Bachem, SIAM J. Comput. 8, 1979).  homology_structures reads a chain
complex's homology, cokernels included, off one such pass per map;
kernels are lifted back through the logged pivot rows, and preimage,
{x : A x in the span of R}, is the kernel of [A | R] cut to x.

A homology subquotient ker/im is presented as a finitely generated
abelian group on the chain group divided by the boundaries first: the
cycles among the surviving coordinates, modulo the residual boundaries
as a list of columns, verified as it is built.  Quotient is the one
owner of the engine's pivot log: it divides by the boundaries of a
presentation and by the forms of the regular-sequence scan alike.

Lattice is the one echelon form, on the same dict rows, with its pivots
found by bisection: it serves kernels, presentations, solves, invariant
factors and determinants.  One size-reducing loop does its inserts,
Hermite form, membership, coordinates and solves, so entries stay small:
a vector is a member when its reduction leaves zero, and SnfSolver
solves A x = b by reducing on the rows (column k of A, e_k).  Lattice,
kernels, preimages and solves take and return dicts; dense tuples appear
only in IntMatrix.to_lists and Lattice.hnf_basis.  rational_rank is a
separate sparse fraction-free elimination that shares no code with the
engine, so the two can cross-check each other.  Everything runs on
Python ints, and IntMatrix, ZModule and Lattice refuse anything else.
"""
from __future__ import annotations

import bisect
import heapq
import math
import operator
from typing import NamedTuple

from .errors import InputError, InternalCheckError

__all__ = [
    "IntMatrix",
    "ZModule",
    "HomologyPresentation",
    "Quotient",
    "Lattice",
    "kernel_lattice",
    "preimage",
    "cokernel_structure",
    "homology_structures",
    "homology_presentation",
    "check_complex",
    "SnfSolver",
    "rational_rank",
    "det",
]


def _dimension(n, what: str) -> int:
    """n, once it is checked to be an int (not a bool) >= 0."""
    if type(n) is not int or n < 0:
        raise InputError(f"{what} {n!r} is not a nonnegative integer")
    return n


def _not_int(x):
    raise InputError(f"entry {x!r} is not an integer")


def _entry(vec, n: int) -> dict:
    """A new dict of the nonzero entries of the dict vec, checked to be
    ints at int columns; the message names the columns, [0, n)."""
    if not isinstance(vec, dict):
        raise InputError(f"vector {vec!r} is not a dict column -> entry")
    v = {c: x for c, x in vec.items() if (x if type(x) is int else _not_int(x))}
    if [*map(type, v)].count(int) < len(v):
        raise InputError(f"a column is not an integer in [0, {n})")
    return v


class _Immutable:
    """Base of the value types, whose slots are set once.

    A value is its public slots (the names not starting with "_"), in slot
    order: two values are equal when they have the same type and equal
    _key(), hash as their _key() and print as Type(field=value, ...).
    _key defaults to an attrgetter of the public slots, built once per
    class, so it is called on the class (an attrgetter does not bind); a
    type whose data sits in a private or unhashable slot defines its own.
    __setattr__ refuses assignment, and __setstate__ restores the slots
    for copy and pickle past it."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._public = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if "_key" not in vars(cls):
            cls._key = operator.attrgetter(*cls._public)

    def __eq__(self, other) -> bool:
        key = type(self)._key
        return type(other) is type(self) and key(self) == key(other)

    def __hash__(self):
        return hash(type(self)._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._public)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class IntMatrix(_Immutable):
    """Immutable matrix of arbitrary-precision integers: a shape plus one
    dict per row, column -> nonzero entry.

    No zero is stored, so equal matrices have equal rows, and the engine
    reads the rows as they are (sparse_rows): a Koszul differential is
    never densified.  The shape is kept explicitly so that 0 x n and
    n x 0 matrices stay distinguishable.  The constructor takes the rows
    as such dicts and the column count; entries must be ints (type int
    exactly: no bool, float or Fraction), a row may store no zero and no
    column outside [0, cols), and cols is a nonnegative int.  to_lists is
    the one dense view, with the zeros filled in.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries, cols: int):
        cols = _dimension(cols, "column count")
        data = []
        for row in entries:
            if not isinstance(row, dict):
                raise InputError(f"row {row!r} is not a dict column -> entry")
            for c, x in row.items():
                if type(c) is not int or not 0 <= c < cols:
                    raise InputError(f"column {c!r} is not an integer in [0, {cols})")
                if not (x if type(x) is int else _not_int(x)):
                    raise InputError(f"stored zero in column {c}")
            data.append(dict(row))
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", tuple(data))

    @classmethod
    def _of(cls, rows: int, cols: int, entries) -> "IntMatrix":
        """Wrap rows row dicts of nonzero int entries without copying or
        checking them; for matrices bigtor builds itself."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "_entries", tuple(entries))
        return matrix

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        rows, cols = _dimension(rows, "row count"), _dimension(cols, "column count")
        return cls._of(rows, cols, ({},) * rows)

    @classmethod
    def from_columns(cls, columns, rows: int) -> "IntMatrix":
        """The matrix with the given columns, dicts row -> nonzero entry."""
        return cls(columns, rows).transpose()

    def sparse_rows(self) -> list:
        """A shallow copy of the stored rows, free for the caller to
        change."""
        return [dict(row) for row in self._entries]

    def sparse_columns(self) -> list:
        """Each column as a new dict row -> nonzero entry."""
        out = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._entries):
            for c, x in row.items():
                out[c][r] = x
        return out

    def to_lists(self) -> list:
        """Nested-list form, zeros filled in."""
        return [list(_dense(row, self.cols)) for row in self._entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.cols, self.rows, self.sparse_columns())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        rows_in = other._entries
        out = []
        for row in self._entries:
            acc = {}
            for i, x in row.items():
                for c, y in rows_in[i].items():
                    acc[c] = acc.get(c, 0) + x * y
            out.append({c: x for c, x in acc.items() if x})
        return IntMatrix._of(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self._entries)

    def _key(self):
        return self.rows, self.cols, tuple(frozenset(row.items()) for row in self._entries)

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix([], shape=({self.rows}, {self.cols}))"
        return f"IntMatrix({self.to_lists()!r})"


class ZModule(_Immutable):
    """Finitely generated abelian group Z^rank + Z/d1 + ... with d1 | d2 | ...

    Invariant factors are stored in ascending divisibility order and
    never include 0 or 1.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion=()):
        if type(rank) is not int:
            raise InputError(f"rank {rank!r} is not an integer")
        if rank < 0:
            raise InputError("negative rank")
        tors = tuple(torsion)
        for d in tors:
            if type(d) is not int:
                raise InputError(f"invariant factor {d!r} is not an integer")
            if d < 2:
                raise InputError(f"invariant factor {d} out of range (needs d >= 2)")
        for a, b in zip(tors, tors[1:]):
            if b % a != 0:
                raise InputError(f"invariant factors {a}, {b} break the divisibility chain")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", tors)

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _dense(v: dict, n: int) -> tuple:
    """The sparse vector v as a dense tuple of n entries."""
    out = [0] * n
    for c, x in v.items():
        out[c] = x
    return tuple(out)


def _scaled(v: dict, factor: int) -> dict:
    """factor * v as a new sparse vector."""
    return {c: factor * x for c, x in v.items()} if factor else {}


def _add_multiple(v: dict, q: int, row: dict) -> dict:
    """v + q * row, in place, with zeros dropped; returns v."""
    if q:
        for k, y in row.items():
            x = v.get(k, 0) + q * y
            if x:
                v[k] = x
            else:
                del v[k]
    return v


def _eliminate_units(rows: list) -> tuple:
    """Remove +-1 pivots from sparse rows (dicts column -> entry), in
    Markowitz order: lowest (row count - 1) * (column count - 1) first,
    ties broken by (row, column).

    Each pivot row is subtracted from the other rows holding its column,
    which is exact because the pivot is a unit.  Returns (pivots,
    residual): pivots lists (column, row) in elimination order, each row
    as it stood when chosen, so it has no entry in an earlier pivot's
    column; residual lists the remaining nonzero rows, which have no
    entry in any pivot column.  The rows are consumed.
    """
    active = {i: row for i, row in enumerate(rows) if row}
    holders = {}  # column -> active rows with an entry there
    for i, row in active.items():
        for c in row:
            holders.setdefault(c, set()).add(i)

    def cost(i, c):
        return (len(active[i]) - 1) * (len(holders[c]) - 1)

    heap = [(cost(i, c), i, c) for i, row in active.items()
            for c, x in row.items() if x == 1 or x == -1]
    heapq.heapify(heap)
    pivots = []
    while heap:
        stale, i, c = heapq.heappop(heap)
        row = active.get(i)
        if row is None or row.get(c) not in (1, -1):
            continue
        now = cost(i, c)
        if now != stale:
            # counts moved since the push; requeue at the current cost
            heapq.heappush(heap, (now, i, c))
            continue
        del active[i]
        for k in row:
            holders[k].discard(i)
        unit = row[c]
        for t in holders.pop(c):
            target = active[t]
            factor = target[c] * unit
            for k, x in row.items():
                value = target.get(k, 0) - factor * x
                if value:
                    if k not in target:
                        holders[k].add(t)
                    target[k] = value
                    if value == 1 or value == -1:
                        heapq.heappush(heap, (cost(t, k), t, k))
                elif k in target:
                    del target[k]
                    if k != c:
                        holders[k].discard(t)
            if not target:
                del active[t]
        pivots.append((c, row))
    return pivots, [active[i] for i in sorted(active)]


def kernel_lattice(A: IntMatrix) -> Lattice:
    """{v : A v = 0} as a Lattice whose basis is Hermite-reduced.

    The residual's kernel is read off an echelon form of [R^T | I]: the
    rows whose first entries vanish are (0, w) with R w = 0.  Each w is
    lifted through the pivot rows, last to first, which fixes the pivot
    columns integrally.  A pivot row is visited only when it holds a
    column the lift has already filled in.
    """
    pivots, residual = _eliminate_units(A.sparse_rows())
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(A.cols) if c not in pivot_cols]
    holders = {}  # column -> pivot rows with an entry there, off their pivot
    for i, (c, row) in enumerate(pivots):
        for k in row:
            if k != c:
                holders.setdefault(k, []).append(i)
    width = len(residual)
    columns = IntMatrix._of(width, A.cols, residual).sparse_columns()
    lattice = Lattice(width + len(free))
    for f, c in enumerate(free):
        columns[c][width + f] = 1
        lattice.add(columns[c])
    kernel = Lattice(A.cols)
    for vec, lead in zip(lattice.basis, lattice.pivots):
        if lead < width:
            continue
        v = {free[k - width]: x for k, x in vec.items()}
        # a pivot row holds only free columns and later pivots' columns,
        # so taking rows latest first sees every entry it depends on
        heap = [-i for k in v for i in holders.get(k, ())]  # max-heap of rows
        heapq.heapify(heap)
        last = None
        while heap:
            i = -heapq.heappop(heap)
            if i == last:
                continue
            last = i
            c, row = pivots[i]
            s = sum(x * v[k] for k, x in row.items() if k in v)
            if s:
                v[c] = -row[c] * s
                for earlier in holders.get(c, ()):
                    heapq.heappush(heap, -earlier)
        kernel.add(v)
    return kernel.hermite()


def preimage(columns: list, relations: list, rows: int) -> list:
    """{x : A x in the span of R}, so the sign of R does not matter, for A
    and R lists of columns (dicts over rows coordinates): the Hermite basis
    of ker [A | R] in basis order, each vector cut to its first len(columns)."""
    stacked = columns + relations  # [A | R], built by bigtor itself, so unchecked
    kernel = kernel_lattice(IntMatrix._of(len(stacked), rows, stacked).transpose())
    return [{c: x for c, x in v.items() if c < len(columns)} for v in kernel.basis]


def homology_structures(differentials) -> list:
    """H_0, ..., H_k of the complex d_1, ..., d_k (d_p: C_p -> C_{p-1},
    k >= 1, nothing past C_k) as ZModules, from one elimination of each
    d_p in turn; the maps may come from a generator, so that none is
    built before its turn.

    d_{p+1} is checked to compose to zero with d_p, so its rows at d_p's
    unit pivot columns are integer combinations of its other rows (the
    pivot block is unimodular) and are blanked before it is eliminated
    (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35, 1998).  H_p
    has rank dim C_p - rank d_p - rank d_{p+1} and the torsion of coker
    d_{p+1} (ker d_p is saturated): _diagonal's entries by gcd and lcm.
    H_k is ker d_k, saturated and so free.
    """
    groups, d_out, rank_out, paired = [], None, 0, ()
    for d in differentials:
        if d_out is not None:
            check_complex(d_out, d)
        pivots, residual = _eliminate_units(
            [{} if r in paired else dict(row) for r, row in enumerate(d._entries)])
        diagonal = _diagonal(residual, d.cols) if residual else []
        factors = [x for x in diagonal if x > 1]
        for i in range(len(factors)):
            for k in range(i + 1, len(factors)):
                g = math.gcd(factors[i], factors[k])
                factors[i], factors[k] = g, factors[i] // g * factors[k]
        rank = len(pivots) + len(diagonal)
        groups.append(ZModule(d.rows - rank_out - rank, tuple(x for x in factors if x > 1)))
        d_out, rank_out, paired = d, rank, {c for c, _ in pivots}
        del pivots, residual  # free these rows before the next map is built
    groups.append(ZModule(d_out.cols - rank_out))
    return groups


def cokernel_structure(A: IntMatrix) -> ZModule:
    """Structure of Z^rows / column span of A: H_0 of Z^rows <- Z^cols."""
    return homology_structures([A])[0]


def _diagonal(rows: list, width: int) -> list:
    """The positive diagonal of a diagonal matrix equivalent to the sparse
    rows (dicts column -> entry in [0, width)), as the echelon basis of
    the rows, of its transpose, and so on, until each row holds only its
    pivot (Kannan and Bachem, SIAM J. Comput. 8, 1979).

    No cap bounds the loop.  Each round's leading pivot is the gcd of
    the previous echelon's first row, so it divides the previous leading
    pivot, and when the two are equal the pivot is alone in its row and
    column.  A pivot alone in its row and column stays alone, because
    Lattice combines rows only at a shared pivot and reduces a row only
    in pivot columns right of its own.  So every round the first pivot
    that is not yet alone either shrinks strictly or ends up alone.
    """
    lattice = Lattice(width, rows)
    while any(len(row) > 1 for row in lattice.basis):
        columns = IntMatrix._of(lattice.rank, lattice.n, lattice.basis).sparse_columns()
        lattice = Lattice(lattice.rank, [column for column in columns if column])
    return [row[lead] for row, lead in zip(lattice.basis, lattice.pivots)]


def check_complex(d_out: IntMatrix, d_in: IntMatrix):
    """Raise InternalCheckError unless d_out * d_in = 0, checked as one
    product of the two matrices as they are stored; a product with a
    dimension 0 is zero and is not formed."""
    if d_out.cols != d_in.rows:
        raise InternalCheckError(
            f"chain spaces disagree: d_out has {d_out.cols} columns, d_in has {d_in.rows} rows"
        )
    if 0 in (d_out.rows, d_out.cols, d_in.cols):
        return
    if not d_out.mul(d_in).is_zero():
        raise InternalCheckError("differentials do not compose to zero")


class SnfSolver:
    """Solves A x = b for integer x, factoring A once.

    The rows (column k of A, e_k) span a lattice whose echelon basis
    pairs the image of A with preimages: reducing (b, 0) leaves (0, -x)
    with A x = b, or b is off the image.  Any solution will do, so the
    reduction runs to the end like a membership test, and the rows with
    pivots right of A.rows (kernel vectors of A) only shift x within its
    coset.  The name is from the Smith-form solve this replaced; the
    benchmark's tracer hooks SnfSolver.solve by name.  ROADMAP item 6
    (after item 1(b)) retires it.
    """

    def __init__(self, A: IntMatrix):
        self.A = A
        columns = A.sparse_columns()
        for k, column in enumerate(columns):
            column[A.rows + k] = 1
        self._lattice = Lattice(A.rows + A.cols, columns)

    def solve(self, b: dict):
        """One integer solution x of A x = b, or None if none exists; b
        and x are dicts index -> entry, and x holds no zero."""
        m = self.A.rows
        v = _entry(b, m)
        if v and (min(v) < 0 or max(v) >= m):
            raise InputError(f"a right-hand side index lies outside [0, {m})")
        self._lattice._reduce(v, -1)
        return None if v and min(v) < m else {k - m: -x for k, x in v.items()}


class Lattice:
    """Subgroup of Z^n spanned by added vectors, held in row echelon form.

    Each basis row is a sparse dict, column -> nonzero entry, with a
    positive pivot (its smallest column); pivots lists them strictly
    increasing, and the row at a column is found by bisecting it.  One
    loop, _reduce, serves inserts, Hermite form, membership, coordinates
    and solves.  Each row a step inserts or combines, and the vector
    being inserted, is size-reduced against the rows with later pivots
    into [0, pivot) in those pivot columns: unreduced xgcd steps let
    entries grow without bound (Kannan and Bachem, SIAM J. Comput. 8,
    1979).  A Hermite-reduced basis added in pivot order is kept as it
    is.  A vector is a member exactly when reducing it leaves zero, and
    the multiples taken off are its coordinates (Cohen, GTM 138, 2.4).
    A vector handed in is a dict, int column -> int entry, copied once.

    sign is the determinant (+-1) of the row operations so far, the vector
    being added counted last: xgcd steps [[x, y], [-b/g, a/g]] and
    subtractions have determinant 1, so only negating a new pivot row and
    moving it from the end to its place flip it (det uses it).
    """

    __slots__ = ("n", "basis", "pivots", "sign")

    def __init__(self, n: int, vectors=()):
        self.n = _dimension(n, "lattice width")
        self.basis, self.pivots, self.sign = [], [], 1
        for v in vectors:
            self.add(v)

    def add(self, vec):
        v = _entry(vec, self.n)
        if v and (min(v) < 0 or max(v) >= self.n):
            raise InputError(f"a column is not an integer in [0, {self.n}) in Lattice.add")
        basis, pivots = self.basis, self.pivots
        while v:
            lead = min(v)
            pos = bisect.bisect_left(pivots, lead)
            if pos == len(pivots) or pivots[pos] != lead:
                if v[lead] < 0:
                    v = {c: -x for c, x in v.items()}
                    self.sign = -self.sign
                if (len(pivots) - pos) & 1:  # v moves from the end to pos
                    self.sign = -self.sign
                self._reduce(v, lead)
                basis.insert(pos, v)
                pivots.insert(pos, lead)
                return
            row = basis[pos]
            a, b = row[lead], v[lead]
            if b % a == 0:
                _add_multiple(v, -(b // a), row)
            else:
                g, x, y = _xgcd(a, b)
                basis[pos] = _add_multiple(_scaled(row, x), y, v)
                self._reduce(basis[pos], lead)
                v = _add_multiple(_scaled(row, -(b // g)), a // g, v)
            self._reduce(v, lead)

    def _reduce(self, v: dict, after: int) -> dict:
        """Reduce v, in place: its entry in each pivot column c > after
        goes into [0, pivot), c increasing (a row is zero left of its
        pivot, so no step disturbs an earlier one).  Returns the multiples
        of basis rows taken off, {position: nonzero entry}."""
        basis, pivots = self.basis, self.pivots
        stop = pivots[-1] + 1 if pivots else 0  # no pivot column lies right of it
        heap = [c for c in v if after < c < stop]
        heapq.heapify(heap)
        coords = {}
        pos = 0
        while heap:
            c = heapq.heappop(heap)
            pos = bisect.bisect_left(pivots, c, pos)
            x = v.get(c)
            if pivots[pos] != c or not x:
                continue
            row = basis[pos]
            q = x // row[c]
            if q:
                coords[pos] = q
                for k, y in row.items():
                    if k in v:
                        x = v[k] - q * y
                        if x:
                            v[k] = x
                        else:
                            del v[k]
                    else:
                        v[k] = -q * y
                        if k < stop:
                            heapq.heappush(heap, k)
        return coords

    def add_all(self, vectors):
        for v in vectors:
            self.add(v)

    def coordinates(self, vec: dict):
        """Integer coordinates of vec in the basis, a dict basis position
        -> nonzero coordinate, or None when vec is not in the lattice."""
        v = _entry(vec, self.n)
        coords = self._reduce(v, -1)
        return None if v else coords

    def __contains__(self, vec) -> bool:
        return self.coordinates(vec) is not None

    def contains_all(self, vectors) -> bool:
        return all(v in self for v in vectors)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def hermite(self) -> "Lattice":
        """Hermite-reduce the basis in place; returns the lattice."""
        for row, lead in zip(self.basis, self.pivots):
            self._reduce(row, lead)
        return self

    def hnf_basis(self) -> list:
        """The Hermite normal form of the basis, as dense tuples."""
        rows = [dict(row) for row in self.basis]
        for row, lead in zip(rows, self.pivots):
            self._reduce(row, lead)
        return [_dense(row, self.n) for row in rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice) or self.n != other.n:
            return NotImplemented
        return self.contains_all(other.basis) and other.contains_all(self.basis)

    def __repr__(self):
        return f"Lattice(n={self.n}, rank={self.rank})"


class Quotient(NamedTuple):
    """Z^n modulo relations, as the engine leaves it: each unit pivot of
    the relations writes one generator in terms of the others, so only
    the free generators survive.  relations holds the residual relations,
    dicts over the n generators; pivots logs (generator, row) in
    elimination order, and position maps each pivot generator to its
    place in the log.  A homology presentation divides by the
    boundaries with it, and the regular-sequence scan divides by one
    form at a time."""

    free: tuple
    relations: list
    pivots: list
    position: dict

    @classmethod
    def of(cls, n: int) -> "Quotient":
        """Z^n, with no relations."""
        return cls(tuple(range(_dimension(n, "generator count"))), [], [], {})

    def matrix(self, vectors: list) -> IntMatrix:
        """The vectors, over the n generators, as matrix rows."""
        return IntMatrix._of(len(vectors), len(self.free) + len(self.pivots), vectors)

    def divided_by(self, vectors: list) -> "Quotient":
        """This quotient modulo further vectors over its free generators."""
        if not vectors:
            return self
        new, residual = _eliminate_units([dict(v) for v in self.relations + vectors])
        gone = {g: len(self.pivots) + k for k, (g, _) in enumerate(new)}
        free = tuple(g for g in self.free if g not in gone)
        return Quotient(free, residual, self.pivots + new, {**self.position, **gone})

    def project(self, v: dict) -> dict:
        """The sparse vector v (left as it is) over the free generators,
        modulo the eliminated rows, with no zero entry.  A pivot row holds
        only free generators and later pivots' generators, so substituting
        the pivots in elimination order leaves only free generators."""
        pivots, position, v = self.pivots, self.position, dict(v)
        heap = [position[g] for g in v if g in position]
        heapq.heapify(heap)
        while heap:
            g, row = pivots[heapq.heappop(heap)]
            x = v.pop(g, 0)
            if not x:
                continue
            factor = x * row[g]  # g = -row[g] * (the rest of row), row[g] = +-1
            for k, y in row.items():
                if k == g:
                    continue
                if k in v:
                    v[k] -= factor * y
                else:
                    v[k] = -factor * y
                    if k in position:
                        heapq.heappush(heap, position[k])
        return {g: x for g, x in v.items() if x}


class HomologyPresentation(NamedTuple):
    """ker(d_out)/im(d_in) as Z^k modulo the span of relations.

    C_p is divided by the boundaries first (boundaries, a Quotient by the
    columns of d_in), so every chain is congruent to one on the surviving
    coordinates, and such a chain is a cycle exactly when d_out kills it.
    The k generators are the Hermite-reduced basis of cycles, the kernel
    of d_out on those coordinates with C_p indices; callers must not add
    to it.  relations lists the residual boundaries in that basis, as
    columns callers must not change, structure their cokernel and
    relation_lattice their span.
    homology_presentation verifies the result: every column of d_in must
    have class 0.
    """

    boundaries: Quotient
    cycles: Lattice
    relations: list
    structure: ZModule
    relation_lattice: Lattice

    @property
    def generator_count(self) -> int:
        return self.cycles.rank

    def coordinates(self, cycle: dict):
        """Generator coordinates of an ambient cycle (dicts), or None if it is not a cycle."""
        if not isinstance(cycle, dict):
            raise InputError(f"cycle {cycle!r} is not a dict index -> entry")
        return self.cycles.coordinates(self.boundaries.project(cycle))

    def class_is_zero(self, coords: dict) -> bool:
        """Whether the class with the given generator coordinates, a
        sparse dict index -> entry, is 0."""
        return coords in self.relation_lattice


def homology_presentation(d_out: IntMatrix, d_in: IntMatrix) -> HomologyPresentation:
    """Presentation of ker(d_out)/im(d_in), built on C_p modulo the
    boundaries, so no kernel over all of C_p is formed.

    Requires d_out * d_in = 0; anything else means the complex handed in
    is broken, which is reported as an internal error.
    """
    check_complex(d_out, d_in)
    image = d_in.sparse_columns()
    boundaries = Quotient.of(d_in.rows).divided_by(image)
    free = boundaries.free
    index = {c: k for k, c in enumerate(free)}
    restricted = [{index[c]: x for c, x in row.items() if c in index} for row in d_out._entries]
    kernel = kernel_lattice(IntMatrix._of(d_out.rows, len(free), restricted))
    # free is increasing, so the Hermite basis keeps its pivot order and stays reduced
    cycles = Lattice(d_in.rows, ({free[k]: x for k, x in vec.items()} for vec in kernel.basis))
    # the residual boundaries are cycles on the free coordinates, and the
    # kernel there is saturated, so each has integer coordinates
    columns = [cycles.coordinates(row) for row in boundaries.relations]
    if None in columns:
        raise InternalCheckError("a boundary escaped the kernel lattice")
    structure = cokernel_structure(IntMatrix._of(len(columns), cycles.rank, columns).transpose())
    pres = HomologyPresentation(boundaries, cycles, columns, structure, Lattice(cycles.rank, columns))
    for column in image:
        coords = pres.coordinates(column)
        if coords is None or not pres.class_is_zero(coords):
            raise InternalCheckError("a column of d_in has a nonzero class")
    return pres


def rational_rank(A: IntMatrix) -> int:
    """Rank over Q by sparse fraction-free row echelon over Z.

    Each row is reduced against the pivot rows found so far, keyed by
    their leading column: cross-multiply by the pivot, subtract, and
    divide the new row by its content.  Deliberately a separate code path
    from the unit-pivot engine so the two can cross-check each other.
    """
    pivots = {}  # leading column -> primitive row
    for row in A.sparse_rows():
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = math.gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            new = {c: a * x for c, x in row.items()}
            for c, y in pivot.items():
                value = new.get(c, 0) - b * y
                if value:
                    new[c] = value
                else:
                    del new[c]
            content = math.gcd(*new.values()) if new else 1
            row = {c: x // content for c, x in new.items()} if content > 1 else new
    return len(pivots)


def det(A: IntMatrix) -> int:
    """Determinant of a square integer matrix: the sign of one Lattice of
    its rows times the product of its pivots, or 0 below full rank."""
    if A.rows != A.cols:
        raise InputError("determinant of a non-square matrix")
    lattice = Lattice(A.cols, A._entries)
    if lattice.rank < A.rows:
        return 0
    return lattice.sign * math.prod(row[lead] for row, lead in zip(lattice.basis, lattice.pivots))
