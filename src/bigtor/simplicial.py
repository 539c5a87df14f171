"""Simplicial complexes on [m] and the subring data attached to them.

Faces are bitsets over the vertex set {1, ..., m} with m <= 64, which
keeps closure and containment checks to a few integer operations.
Vertices that appear in no face (ghost vertices) are allowed; their
variables are killed in the face ring, since the singleton is already a
non-face.

A SimplicialComplex owns the memo (_memoized) of what derives from it
alone: faces here, monomial bases and multiplication maps in
stanley_reisner, GKM vertex and edge data in gkm.  No module caches.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import InputError
from .intlinalg import IntMatrix, cokernel_structure, det, rational_rank

MAX_VERTICES = 64


class CacheInfo(NamedTuple):
    hits: int
    misses: int


def _memoized(function):
    """Decorator that keeps each result in the _cache dict of the first
    argument (the instance, for a method), so a result lives exactly as
    long as the object that owns it.  The key holds the function name,
    the other arguments and their types, since 4.0, True or Fraction(4)
    equal an int but must meet the function's own checks.  Hits and
    misses are counted over all owners and read with cache_info()."""
    name = function.__name__
    counts = [0, 0]  # hits, misses

    @functools.wraps(function)
    def memo(owner, *args):
        key = (name, *args, *map(type, args))
        cache = owner._cache
        try:
            result = cache[key]
        except KeyError:
            counts[1] += 1
            result = cache[key] = function(owner, *args)
        else:
            counts[0] += 1
        return result

    memo.cache_info = lambda: CacheInfo(*counts)
    return memo


def _to_mask(vertices, m: int) -> int:
    mask = 0
    for v in vertices:
        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= m:
            raise InputError(f"vertex {v} out of range (m = {m})")
        mask |= 1 << (v - 1)
    return mask


def _to_vertices(mask: int) -> tuple:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


class SimplicialComplex:
    """Complex on [m] stored by its maximal faces (bitsets, input order,
    an inclusion antichain).  Equal complexes compare and hash alike; each
    instance owns its own memo, whose entries never refer back to it."""

    __slots__ = ("m", "maximal_faces", "_cache", "__weakref__")

    def __init__(self, m: int, maximal_faces: tuple):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "maximal_faces", maximal_faces)
        object.__setattr__(self, "_cache", {})  # (function name, *args) -> result

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and (self.m, self.maximal_faces) == (other.m, other.maximal_faces))

    def __hash__(self):
        return hash((self.m, self.maximal_faces))

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, maximal_faces={self.maximal_faces})"

    def face_vertices(self) -> list:
        """Maximal faces as sorted vertex tuples, in stored order."""
        return [_to_vertices(f) for f in self.maximal_faces]

    def contains_mask(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.maximal_faces) or mask == 0

    def __contains__(self, vertices) -> bool:
        return is_face(self, vertices)


def build_complex(m: int, maximal_faces) -> SimplicialComplex:
    """Normalize input faces into an antichain of maximal faces.

    Non-maximal entries are absorbed; duplicates collapse; the empty
    complex (no faces at all beyond the empty set) is legal.  Insertion
    order of the surviving faces is preserved, which later fixes the
    vertex order of GKM data.
    """
    if type(m) is not int:
        raise InputError(f"vertex count {m!r} is not an integer")
    if m < 0:
        raise InputError(f"negative vertex count {m}")
    if m > MAX_VERTICES:
        raise InputError(f"vertex count {m} exceeds the bitset limit {MAX_VERTICES}")
    masks = []
    for face in maximal_faces:
        mask = _to_mask(face, m)
        if any(mask & kept == mask for kept in masks):
            continue
        masks = [kept for kept in masks if kept & mask != kept] + [mask]
    return SimplicialComplex(m=m, maximal_faces=tuple(masks))


def is_face(K: SimplicialComplex, sigma) -> bool:
    """True iff sigma is contained in some maximal face (so the empty
    set is always a face)."""
    return K.contains_mask(_to_mask(sigma, K.m))


@_memoized
def all_faces(K: SimplicialComplex) -> frozenset:
    """Every face of K as a mask, the empty face included."""
    faces = {0}
    for top in K.maximal_faces:
        # enumerate submasks of top
        sub = top
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return frozenset(faces)


@_memoized
def face_count_by_size(K: SimplicialComplex) -> tuple:
    """Number of faces of each cardinality, index = cardinality."""
    counts = [0] * (K.m + 1)
    for mask in all_faces(K):
        counts[mask.bit_count()] += 1
    return tuple(counts)


def minimal_nonfaces(K: SimplicialComplex) -> list:
    """Inclusion-minimal non-faces, as sorted vertex tuples.

    These are the supports of the monomial generators of the face
    ideal.  A ghost vertex shows up here as a singleton.
    """
    faces = all_faces(K)
    found = set()
    for mask in faces:
        for v in range(K.m):
            bit = 1 << v
            if mask & bit:
                continue
            cand = mask | bit
            if cand in faces or cand in found:
                continue
            if all((cand & ~(1 << w)) in faces for w in range(K.m) if cand & (1 << w)):
                found.add(cand)
    return sorted((_to_vertices(mask) for mask in found), key=lambda t: (len(t), t))


class SubgroupData:
    """An n x m integer matrix B of full row rank over Q.

    Row i is the coefficient vector of the linear form u_i = sum_j
    B[i][j] x_j; full rank makes Z[u_1, ..., u_n] a polynomial subring.
    """

    __slots__ = ("B", "n", "m")

    def __init__(self, B: IntMatrix):
        if B.rows > B.cols:
            raise InputError(f"matrix is {B.rows}x{B.cols}; need no more rows than columns")
        if rational_rank(B) != B.rows:
            raise InputError("matrix rows are linearly dependent over Q")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "n", B.rows)
        object.__setattr__(self, "m", B.cols)

    def __setattr__(self, name, value):
        raise AttributeError("SubgroupData is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupData) and self.B == other.B

    def __hash__(self):
        return hash(self.B)

    def __repr__(self):
        return f"SubgroupData(B={self.B!r})"

    def row_coefficients(self, i: int) -> tuple:
        return self.B.row(i)


class LocalFreenessReport(NamedTuple):
    """Outcome of the vertex-submatrix determinant test."""

    status: str  # "PASS" | "FAIL" | "NOT_APPLICABLE"
    face_dets: tuple = ()  # pairs (vertex tuple, determinant)
    failing_faces: tuple = ()
    reason: str | None = None
    warnings: tuple = ()


def _column_submatrix(B: IntMatrix, vertices) -> IntMatrix:
    return IntMatrix([[B[r, v - 1] for v in vertices] for r in range(B.rows)], cols=len(vertices))


def check_local_freeness(K: SimplicialComplex, S: SubgroupData) -> LocalFreenessReport:
    """PASS iff every maximal-face column submatrix of B is nonsingular.

    Applicable only to pure complexes whose maximal faces have exactly
    n vertices; otherwise the verdict is NOT_APPLICABLE with a reason.
    """
    if K.m != S.m:
        raise InputError(f"complex has {K.m} vertices but matrix has {S.m} columns")
    warnings = []
    sizes = {mask.bit_count() for mask in K.maximal_faces}
    largest = max(sizes, default=0)
    if largest > S.n:
        warnings.append(
            f"largest face has {largest} vertices, more than the {S.n} subring rows; "
            "the necessary dimension condition already fails"
        )
    if not K.maximal_faces:
        return LocalFreenessReport(
            status="NOT_APPLICABLE",
            reason="complex has no maximal faces",
            warnings=tuple(warnings),
        )
    if len(sizes) > 1:
        return LocalFreenessReport(
            status="NOT_APPLICABLE",
            reason="complex is not pure",
            warnings=tuple(warnings),
        )
    if largest != S.n:
        return LocalFreenessReport(
            status="NOT_APPLICABLE",
            reason=f"maximal faces have {largest} vertices but the subring has {S.n} rows",
            warnings=tuple(warnings),
        )
    dets = []
    failing = []
    for mask in K.maximal_faces:
        vertices = _to_vertices(mask)
        d = det(_column_submatrix(S.B, vertices))
        dets.append((vertices, d))
        if d == 0:
            failing.append(vertices)
    status = "PASS" if not failing else "FAIL"
    return LocalFreenessReport(
        status=status,
        face_dets=tuple(dets),
        failing_faces=tuple(failing),
        warnings=tuple(warnings),
    )


def check_connected_kernel(S: SubgroupData) -> bool:
    """True iff B maps Z^m onto Z^n, i.e. Z^n / (column span of B) is
    zero."""
    return cokernel_structure(S.B).is_zero()
