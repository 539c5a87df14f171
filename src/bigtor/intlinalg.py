"""Exact integer linear algebra.

Two matrix types: SparseMatrix, a shape plus one dict per row, holds the
Koszul differentials and multiplication maps from assembly to the
engine, and dense IntMatrix holds small matrices (B, relations, induced
maps) and rendering.  Both hand the engine their rows as fresh dicts
(sparse_rows), so a sparse matrix is never densified.

One sparse elimination engine answers every structure and kernel
question.  It removes the +-1 pivots of a matrix in Markowitz order
(Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001); a unit pivot
keeps each Schur update integral, so the matrix is equivalent to the
identity on the pivots plus a small residual.  A fraction-free Bareiss
pass gives the residual's rank r and a nonzero r x r minor M, and its
invariant factors come from a Smith normal form of [R | M I] with every
entry reduced mod M (Domich, Kannan and Trotter 1987; Cohen, GTM 138,
section 2.4), so no entry ever exceeds M; a stage whose pivot is prime
to M splits off a factor 1 at once.  Kernels are lifted back
through the logged pivot rows and Hermite-reduced.

A homology subquotient ker/im is presented as a finitely generated
abelian group.  Its relations are the image columns written in a kernel
basis by echelon back-substitution, and the same engine, run on those
columns, prunes them: each unit pivot writes one basis row in terms of
the others, which leaves the group as Z^free modulo the residual
relations.  Only this module sees the full relations; the prune is
verified as it is built.  _substitute rewrites a vector through such a
log of pivots, for presentations and for the regular-sequence scan's
quotients alike.

Lattice is the one echelon form that carries transforms: it size-reduces
every row it builds, so entries stay small, and SnfSolver solves A x = b
on the echelon basis of the rows (column k of A, e_k).  rational_rank is
a separate sparse fraction-free elimination over the same rows that
shares no elimination code with the engine, so the two can cross-check
each other.  Everything runs on arbitrary-precision Python ints, and
IntMatrix, SparseMatrix and ZModule refuse any other entry type; no
floating point anywhere.
"""

from __future__ import annotations

import heapq
import math

from .errors import InputError, InternalCheckError

__all__ = [
    "IntMatrix",
    "SparseMatrix",
    "ZModule",
    "HomologyPresentation",
    "Lattice",
    "kernel_basis",
    "cokernel_structure",
    "homology_presentation",
    "check_complex",
    "SnfSolver",
    "hermite_reduce",
    "rational_rank",
    "det",
]


def _require_ints(data: tuple) -> tuple:
    """data, once every entry of its rows is checked to be an int."""
    bad = next((x for row in data for x in row if type(x) is not int), None)
    if bad is not None:
        raise InputError(f"matrix entry {bad!r} is not an integer")
    return data


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers.

    Rows or columns may be zero; the shape is kept explicitly so that
    0 x n and n x 0 matrices stay distinguishable.  Entries must be ints
    (type int exactly: no bool, float or Fraction) and are stored as
    given.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries, cols: int | None = None):
        data = tuple(tuple(row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise InputError("ragged rows in matrix literal")
            if cols is not None and cols != width:
                raise InputError(f"declared {cols} columns, rows have {width}")
        else:
            if cols is None:
                raise InputError("matrix with no rows needs an explicit column count")
            width = cols
        _require_ints(data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_entries", data)

    @classmethod
    def _of(cls, data: tuple, cols: int) -> "IntMatrix":
        """Wrap a tuple of equal-length int tuples without converting or
        checking it; for results the class computes itself."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", len(data))
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "_entries", data)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(((0,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(1 if i == k else 0 for k in range(n)) for i in range(n)), n)

    @classmethod
    def from_columns(cls, columns, rows: int) -> "IntMatrix":
        cols = [tuple(col) for col in columns]
        if any(len(col) != rows for col in cols):
            raise InputError(f"columns must have {rows} entries")
        return cls._of(_require_ints(tuple(zip(*cols))) if cols else ((),) * rows, len(cols))

    def __getitem__(self, key):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) out of range for {self.rows}x{self.cols} matrix")
        return self._entries[r][c]

    def row(self, r: int) -> tuple:
        if not 0 <= r < self.rows:
            raise IndexError(f"row {r} out of range")
        return self._entries[r]

    def column(self, c: int) -> tuple:
        if not 0 <= c < self.cols:
            raise IndexError(f"column {c} out of range")
        return tuple(row[c] for row in self._entries)

    def columns(self) -> list:
        return list(zip(*self._entries)) if self.rows else [()] * self.cols

    def sparse_rows(self) -> list:
        """Each row as a new dict column -> nonzero entry."""
        return [{c: x for c, x in enumerate(row) if x} for row in self._entries]

    def sparse_columns(self) -> list:
        """Each column as a dict row -> nonzero entry."""
        out = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._entries):
            for c, x in enumerate(row):
                if x:
                    out[c][r] = x
        return out

    def to_lists(self) -> list:
        """Nested-list form; round-trips exactly through the constructor."""
        return [list(row) for row in self._entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_columns(self._entries, rows=self.cols)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = other.transpose()._entries
        return IntMatrix._of(
            tuple(tuple(sum(a * b for a, b in zip(row, col) if a) for col in ot)
                  for row in self._entries),
            other.cols,
        )

    __matmul__ = mul

    def apply(self, vector) -> tuple:
        vec = tuple(vector)
        if len(vec) != self.cols:
            raise InputError("vector length does not match column count")
        support = [(k, x) for k, x in enumerate(vec) if x]
        return tuple(sum(row[k] * x for k, x in support) for row in self._entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise InputError("row counts differ in hstack")
        return IntMatrix._of(
            tuple(a + b for a, b in zip(self._entries, other._entries)),
            self.cols + other.cols,
        )

    def scaled(self, factor: int) -> "IntMatrix":
        if type(factor) is not int:
            raise InputError(f"scale factor {factor!r} is not an integer")
        return IntMatrix._of(
            tuple(tuple(factor * x for x in row) for row in self._entries), self.cols
        )

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix([], shape=({self.rows}, {self.cols}))"
        body = ", ".join(repr(list(row)) for row in self._entries)
        return f"IntMatrix([{body}])"


class SparseMatrix:
    """Immutable sparse matrix of arbitrary-precision integers: a shape
    plus one dict per row, column -> nonzero entry.

    Koszul differentials and multiplication maps are assembled in this
    form and reach the engine without ever being densified.  No zero is
    stored, so equal matrices have equal rows.  The constructor takes
    the row dicts as they are and checks their number and that every
    entry is an int, as IntMatrix does.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        data = tuple(entries)
        if len(data) != rows:
            raise InputError(f"declared {rows} rows, got {len(data)}")
        _require_ints(tuple(row.values() for row in data))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", data)

    @classmethod
    def _of(cls, rows: int, cols: int, entries) -> "SparseMatrix":
        """Wrap rows row dicts of int entries without checking them; for
        matrices bigtor builds itself."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "_entries", tuple(entries))
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls._of(rows, cols, [{} for _ in range(rows)])

    def row(self, r: int) -> dict:
        """Row r as stored, column -> nonzero entry; not to be changed."""
        return self._entries[r]

    def sparse_rows(self) -> list:
        """A shallow copy of the stored rows, free for the caller to
        change."""
        return [dict(row) for row in self._entries]

    def sparse_columns(self) -> list:
        """Each column as a dict row -> nonzero entry."""
        out = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._entries):
            for c, x in row.items():
                out[c][r] = x
        return out

    def columns(self) -> list:
        """Each column as a dense tuple."""
        return [tuple(column.get(r, 0) for r in range(self.rows))
                for column in self.sparse_columns()]

    def to_dense(self) -> IntMatrix:
        return IntMatrix._of(
            tuple(tuple(row.get(c, 0) for c in range(self.cols)) for row in self._entries),
            self.cols,
        )

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
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
        return SparseMatrix._of(self.rows, other.cols, out)

    def apply(self, vector) -> tuple:
        vec = tuple(vector)
        if len(vec) != self.cols:
            raise InputError("vector length does not match column count")
        return tuple(sum(x * vec[c] for c, x in row.items()) for row in self._entries)

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.rows != other.rows:
            raise InputError("row counts differ in hstack")
        shift = self.cols
        return SparseMatrix._of(self.rows, self.cols + other.cols, [
            {**a, **{shift + c: x for c, x in b.items()}}
            for a, b in zip(self._entries, other._entries)
        ])

    def scaled(self, factor: int) -> "SparseMatrix":
        if not factor:
            return SparseMatrix.zeros(self.rows, self.cols)
        return SparseMatrix._of(self.rows, self.cols, [
            {c: factor * x for c, x in row.items()} for row in self._entries
        ])

    def is_zero(self) -> bool:
        return not any(self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.rows}, {self.cols}, {list(self._entries)!r})"


class ZModule:
    """Finitely generated abelian group Z^rank + Z/d1 + ... with d1 | d2 | ...

    Invariant factors are stored in ascending divisibility order and
    never include 0 or 1.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion=()):
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

    def __setattr__(self, name, value):
        raise AttributeError("ZModule is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZModule)
            and self.rank == other.rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"ZModule(rank={self.rank}, torsion={self.torsion})"

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


def _substitute(pivots: list, position: dict, v: dict) -> dict:
    """Rewrite the sparse vector v (a dict, consumed) over the generators
    that the unit pivots logged by _eliminate_units left free, modulo
    the eliminated rows; position maps each pivot generator to its place
    in the log.  Returns the nonzero entries.

    Substitutes the pivots in elimination order.  A pivot row holds only
    free generators and later pivots' generators, so taking the pivots
    earliest first leaves only free generators.
    """
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


def _bareiss(m: list) -> tuple:
    """Fraction-free elimination of the dense rows m, in place, with row
    and column swaps.  Returns (rank, minor, sign): minor is the leading
    rank x rank minor of the swapped matrix (nonzero; 1 at rank 0) and
    sign the parity of the swaps."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    sign = 1
    prev = 1
    r = 0
    while r < rows and r < cols:
        found = next(((i, k) for i in range(r, rows) for k in range(r, cols) if m[i][k]), None)
        if found is None:
            break
        i, k = found
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        if k != r:
            for row in m:
                row[r], row[k] = row[k], row[r]
            sign = -sign
        top = m[r]
        p = top[r]
        for i in range(r + 1, rows):
            row = m[i]
            a = row[r]
            for k in range(r + 1, cols):
                row[k] = (row[k] * p - a * top[k]) // prev
            row[r] = 0
        prev = p
        r += 1
    return r, prev, sign


def _smith_mod(m: list, modulus: int, count: int) -> list:
    """The count smallest invariant factors of the lattice spanned by the
    columns of m and modulus * Z^rows, smallest first.

    Unimodular row and column operations run on entries reduced mod
    modulus; a stage ends with its row and column clear and every
    remaining entry divisible by d = gcd(pivot, modulus), which splits
    off d Z.  A remainder that is zero mod modulus holds only factors
    equal to modulus.
    """
    a = [[x % modulus for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    factors = []
    t = 0
    while len(factors) < count:
        found = next(((i, k) for i in range(t, rows) for k in range(t, cols) if a[i][k]), None)
        if found is None:
            factors.extend([modulus] * (count - len(factors)))
            break
        i, k = found
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[k] = row[k], row[t]
        while True:
            top = a[t]
            for k in range(t + 1, cols):
                b = top[k]
                if not b:
                    continue
                p = top[t]
                if b % p == 0:
                    q = b // p
                    for row in a:
                        row[k] = (row[k] - q * row[t]) % modulus
                else:
                    g, x, y = _xgcd(p, b)
                    p, b = p // g, b // g
                    for row in a:
                        u, v = row[t], row[k]
                        row[t] = (x * u + y * v) % modulus
                        row[k] = (p * v - b * u) % modulus
            dirty = False
            for i in range(t + 1, rows):
                row = a[i]
                b = row[t]
                if not b:
                    continue
                top = a[t]
                p = top[t]
                if b % p == 0:
                    q = b // p
                    a[i] = [(v - q * u) % modulus for u, v in zip(top, row)]
                else:
                    g, x, y = _xgcd(p, b)
                    p, b = p // g, b // g
                    a[t] = [(x * u + y * v) % modulus for u, v in zip(top, row)]
                    a[i] = [(p * v - b * u) % modulus for u, v in zip(top, row)]
                    dirty = True
            if dirty:
                continue
            d = math.gcd(a[t][t], modulus)
            if d == 1:
                break  # every entry is divisible by 1: nothing to scan for
            bad = next((i for i in range(t + 1, rows) if any(x % d for x in a[i][t + 1:])), None)
            if bad is None:
                break
            a[t] = [(u + v) % modulus for u, v in zip(a[t], a[bad])]
        factors.append(d)
        t += 1
    return factors


def hermite_reduce(vectors, width: int) -> list:
    """Row Hermite normal form of the span of the given vectors.

    Rows come back with strictly increasing pivot columns, positive
    pivots, and entries above each pivot reduced into [0, pivot).
    """
    return Lattice(width, vectors).hnf_basis()


def kernel_basis(A: IntMatrix | SparseMatrix) -> list:
    """Z-basis of {v : A v = 0}, Hermite-reduced for determinism.

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
    lattice = Lattice(width + len(free))
    for f, c in enumerate(free):
        unit = [0] * len(free)
        unit[f] = 1
        lattice.add([row.get(c, 0) for row in residual] + unit)
    vectors = []
    for vec, lead in zip(lattice.basis, lattice.pivots):
        if lead < width:
            continue
        v = {c: x for c, x in zip(free, vec[width:]) if x}
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
        vectors.append(tuple(v.get(c, 0) for c in range(A.cols)))
    return hermite_reduce(vectors, A.cols)


def cokernel_structure(A: IntMatrix | SparseMatrix) -> ZModule:
    """Structure of Z^rows / column span of A: each unit pivot adds 1 to
    the rank and an invariant factor 1; the residual adds its rank and
    invariant factors, found modulo a nonzero minor."""
    if A.is_zero():
        return ZModule(A.rows)
    pivots, residual = _eliminate_units(A.sparse_rows())
    rank = len(pivots)
    factors = []
    if residual:
        cols = sorted(set().union(*residual))
        dense = [[row.get(c, 0) for c in cols] for row in residual]
        r, minor, _ = _bareiss([list(row) for row in dense])
        rank += r
        factors = _smith_mod(dense, abs(minor), r)
    return ZModule(A.rows - rank, tuple(d for d in factors if d >= 2))


def check_complex(d_out: SparseMatrix | IntMatrix, d_in: SparseMatrix | IntMatrix):
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
    pairs the image of A with preimages: clearing (b, 0) against the
    basis rows whose pivot falls in A's first A.rows columns leaves
    (0, -x) with A x = b, and an entry that will not clear puts b off
    the image.  The name is from the Smith-form solve this replaced; it
    stays because the benchmark's tracer hooks SnfSolver.solve by name,
    and renaming it waits for in-package spans (ROADMAP item 2).
    """

    def __init__(self, A: IntMatrix):
        self.A = A
        unit = (0,) * A.cols
        lattice = Lattice(A.rows + A.cols, [
            column + unit[:k] + (1,) + unit[k + 1:] for k, column in enumerate(A.columns())
        ])
        self._rows = [(lead, {c: x for c, x in enumerate(row) if x})
                      for row, lead in zip(lattice.basis, lattice.pivots) if lead < A.rows]

    def solve(self, b):
        """One integer solution of A x = b, or None if none exists."""
        b = tuple(b)
        m = self.A.rows
        if len(b) != m:
            raise InputError("right-hand side has wrong length")
        v = {c: x for c, x in enumerate(b) if x}
        # rows in pivot order: each is zero left of its pivot, so a column
        # once passed stays as it is, and one no row clears stays nonzero
        for lead, row in self._rows:
            x = v.get(lead)
            if x:
                q, r = divmod(x, row[lead])
                if r:
                    return None
                for k, y in row.items():
                    v[k] = v.get(k, 0) - q * y
        if any(x for c, x in v.items() if c < m):
            return None
        return tuple(-v.get(m + k, 0) for k in range(self.A.cols))


class Lattice:
    """Subgroup of Z^n spanned by added vectors, held in row echelon form.

    The basis rows have strictly increasing pivot columns and positive
    pivots.  Every row a step inserts or combines, and the vector still
    being inserted, is size-reduced against the rows with later pivots,
    so its entries in those pivot columns lie in [0, pivot); unreduced
    xgcd steps let entries grow without bound although input and result
    are small (Kannan and Bachem, SIAM J. Comput. 8, 1979).  A
    Hermite-reduced basis added in pivot order is therefore
    kept as it is, so the lattice has that very basis.  Coordinates and
    membership come from back-substitution against the basis, pivot by
    pivot, with divisibility checks.
    """

    __slots__ = ("n", "basis", "pivots", "_sparse")

    def __init__(self, n: int, vectors=()):
        self.n = n
        self.basis = []
        self.pivots = []
        self._sparse = None  # pivot column -> (position, row as a dict)
        for v in vectors:
            self.add(v)

    def add(self, vec):
        v = list(vec)
        if len(v) != self.n:
            raise InputError("vector width mismatch in Lattice.add")
        self._sparse = None
        basis, pivots = self.basis, self.pivots
        pos = lead = 0
        while True:
            # v and every row from pos on are zero left of lead
            lead = next((c for c in range(lead, self.n) if v[c]), None)
            if lead is None:
                return
            while pos < len(pivots) and pivots[pos] < lead:
                pos += 1
            if pos == len(pivots) or pivots[pos] > lead:
                if v[lead] < 0:
                    v = [-x for x in v]
                basis.insert(pos, self._reduce(v, pos))
                pivots.insert(pos, lead)
                return
            row = basis[pos]
            head, tail, rest = v[:lead], v[lead:], row[lead:]
            a, b = rest[0], tail[0]
            if b % a == 0:
                q = b // a
                v = head + [x - q * y for x, y in zip(tail, rest)]
            else:
                g, x, y = _xgcd(a, b)
                basis[pos] = self._reduce(head + [x * p + y * q2 for p, q2 in zip(rest, tail)],
                                          pos + 1)
                v = head + [(-(b // g)) * p + (a // g) * q2 for p, q2 in zip(rest, tail)]
            v = self._reduce(v, pos + 1)

    def _reduce(self, v: list, start: int) -> list:
        """v with its entries in the pivot columns of basis rows start,
        start + 1, ... reduced into [0, pivot).  Rows are taken in pivot
        order, and each is zero left of its pivot, so a reduction never
        disturbs an earlier one."""
        basis, pivots = self.basis, self.pivots
        for pos in range(start, len(basis)):
            row, lead = basis[pos], pivots[pos]
            q = v[lead] // row[lead]
            if q:
                v = v[:lead] + [x - q * y for x, y in zip(v[lead:], row[lead:])]
        return v

    def add_all(self, vectors):
        for v in vectors:
            self.add(v)

    def coordinates(self, vec):
        """Integer coordinates of vec in the basis, or None when vec is
        not in the lattice.  vec is a sequence of n entries or a sparse
        vector, a dict index -> entry."""
        if isinstance(vec, dict):
            v = dict(vec)
        elif len(vec) != self.n:
            raise InputError("vector width mismatch in Lattice.coordinates")
        else:
            v = {c: x for c, x in enumerate(vec) if x}
        if self._sparse is None:
            self._sparse = {
                lead: (pos, {c: x for c, x in enumerate(row) if x})
                for pos, (row, lead) in enumerate(zip(self.basis, self.pivots))
            }
        rows = self._sparse
        # clear the nonzero entries of vec from the left; a basis row only
        # touches columns at or right of its pivot, so a column once
        # passed stays clear, and one with no pivot row cannot be cleared
        heap = list(v)
        heapq.heapify(heap)
        coords = [0] * len(self.basis)
        while heap:
            c = heapq.heappop(heap)
            x = v[c]
            if not x:
                continue
            hit = rows.get(c)
            if hit is None:
                return None
            pos, row = hit
            q, r = divmod(x, row[c])
            if r:
                return None
            coords[pos] = q
            for k, y in row.items():
                if k not in v:
                    heapq.heappush(heap, k)
                    v[k] = -q * y
                else:
                    v[k] -= q * y
        return tuple(coords)

    def __contains__(self, vec) -> bool:
        return self.coordinates(vec) is not None

    def contains_all(self, vectors) -> bool:
        return all(v in self for v in vectors)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def hnf_basis(self) -> list:
        """The Hermite normal form of the basis: positive pivots, and the
        entries above each pivot reduced into [0, pivot)."""
        return [tuple(self._reduce(row, pos + 1)) for pos, row in enumerate(self.basis)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice) or self.n != other.n:
            return NotImplemented
        return self.contains_all(other.basis) and other.contains_all(self.basis)

    def __repr__(self):
        return f"Lattice(n={self.n}, rank={self.rank})"


class HomologyPresentation:
    """ker(d_out)/im(d_in) as Z^k modulo the column span of relations.

    The cycles have a Hermite-reduced basis, kept in kernel_lattice(),
    and the columns of d_in written in that basis are the full
    relations.  Their unit relations are eliminated: run on the relation
    columns, the engine's +-1 pivots each write one basis row in terms of
    the others, so only the rows that survive are generators.  Generator
    f is basis row free[f], the cycle kernel[f]; relations holds the
    residual relations in generator coordinates, and project maps basis
    coordinates to generator coordinates.

    Verified on construction, not trusted: the residual must present the
    same group as the full relations, and every full relation must
    project into the residual lattice; since project is onto, the two
    make it an isomorphism.
    """

    __slots__ = ("kernel", "free", "relations", "structure", "_cycles",
                 "_pivots", "_position", "_index", "_relation_lattice")

    def __init__(self, cycles: Lattice, columns: list):
        """cycles has the Hermite-reduced kernel basis as its basis;
        columns lists the full relations as sparse dicts basis index ->
        entry."""
        k = len(cycles.basis)
        rows = [{} for _ in range(k)]
        for r, column in enumerate(columns):
            for g, x in column.items():
                rows[g][r] = x
        structure = cokernel_structure(SparseMatrix._of(k, len(columns), rows))
        pivots, residual = _eliminate_units([dict(column) for column in columns])
        pivot_gens = {g for g, _ in pivots}
        free = tuple(g for g in range(k) if g not in pivot_gens)
        relations = IntMatrix.from_columns(
            [tuple(row.get(g, 0) for g in free) for row in residual], rows=len(free)
        )
        object.__setattr__(self, "kernel", tuple(tuple(cycles.basis[g]) for g in free))
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "_cycles", cycles)
        object.__setattr__(self, "_pivots", pivots)
        object.__setattr__(self, "_position", {g: i for i, (g, _) in enumerate(pivots)})
        object.__setattr__(self, "_index", {g: f for f, g in enumerate(free)})
        object.__setattr__(self, "_relation_lattice", Lattice(len(free), relations.columns()))
        if cokernel_structure(relations) != structure:
            raise InternalCheckError("pruned relations present a different group")
        for column in columns:
            if self.project(column) not in self._relation_lattice:
                raise InternalCheckError("a relation escaped the pruned relation lattice")

    def __setattr__(self, name, value):
        raise AttributeError("HomologyPresentation is immutable")

    @property
    def generator_count(self) -> int:
        return len(self.free)

    def kernel_lattice(self) -> Lattice:
        """The cycles, with the Hermite-reduced kernel basis as basis:
        its coordinates() are basis coordinates.  The one lattice the
        presentation was built with; callers must not add to it."""
        return self._cycles

    def relation_lattice(self) -> Lattice:
        """The residual relations' lattice, built once; callers must not
        add to it."""
        return self._relation_lattice

    def project(self, coords) -> tuple:
        """Generator coordinates of the class with the given basis
        coordinates, a sequence or a sparse dict index -> entry."""
        if isinstance(coords, dict):
            v = dict(coords)
        else:
            v = {g: x for g, x in enumerate(coords) if x}
        out = [0] * len(self.free)
        index = self._index
        for g, x in _substitute(self._pivots, self._position, v).items():
            out[index[g]] = x
        return tuple(out)

    def coordinates(self, cycle):
        """Generator coordinates of an ambient cycle, or None when it is
        not a cycle."""
        x = self._cycles.coordinates(cycle)
        return None if x is None else self.project(x)

    def class_is_zero(self, coords) -> bool:
        """Whether the class with the given generator coordinates is 0."""
        return tuple(coords) in self._relation_lattice


def homology_presentation(d_out: SparseMatrix | IntMatrix,
                          d_in: SparseMatrix | IntMatrix) -> HomologyPresentation:
    """Presentation of ker(d_out)/im(d_in).

    Requires d_out * d_in = 0; anything else means the complex handed in
    is broken, which is reported as an internal error.
    """
    check_complex(d_out, d_in)
    # kernel of an integer matrix is a saturated sublattice, so every
    # image column has integer coordinates in the kernel basis
    lattice = Lattice(d_out.cols, kernel_basis(d_out))  # keeps it as its basis
    columns = []
    for column in d_in.sparse_columns():
        x = lattice.coordinates(column)
        if x is None:
            raise InternalCheckError("image vector escaped the kernel lattice")
        columns.append({g: v for g, v in enumerate(x) if v})
    return HomologyPresentation(lattice, columns)


def rational_rank(A: IntMatrix | SparseMatrix) -> int:
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
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    if A.rows != A.cols:
        raise InputError("determinant of a non-square matrix")
    rank, minor, sign = _bareiss(A.to_lists())
    return sign * minor if rank == A.rows else 0
