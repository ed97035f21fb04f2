"""Exact linear algebra over GF(p)^n.

Subspaces are stored in reduced row echelon form (RREF), which is the one
canonical representation used everywhere: two subspaces are equal iff their
RREF matrices coincide, so they can be deduplicated and sorted reliably.

echelon_arrays enumerates every dim-k subspace of GF(p)^n by direct
generation of echelon pivot patterns, so the per-dimension counts are the
Gaussian binomials by construction rather than by filtering.
"""
from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache, wraps
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import numpy as np

DEFAULT_SUBSPACE_CAP = 10**7
# the arrays built from a shape (echelon_arrays, _parity_checks, the
# lattice's _plucker_table and _index_table), from (n, p) or from an algebra
# (lattice._vector_table, _bracket_table, _pairings) share one store of at
# most ECHELON_CACHE_TOTAL bytes, least recently used dropped first; it keeps
# an entry of at most a quarter of that (_kept: GF(2)^8 dim 4 with 29 MB,
# GF(31)^4's [v, e_j] table with 14.8 MB), so no lattice pins its arrays
ECHELON_CACHE_TOTAL = 2**27
# the values (int64 or float; a bool or a uint8 counts as one too) that the
# intermediate arrays of one row block of a lattice kernel may hold together
# (see lattice.py, whose kernels all go in such blocks); it also says which
# spaces are small enough for the closure and ideal test by lookup
# (_lookup_space), whose per-shape index arrays _shape_bytes counts
_BLOCK = 2**18

Vector = tuple


class CapExceededError(RuntimeError):
    """A lattice-sized computation would exceed its configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "subspaces"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{needed} {what} required, cap is {cap}")


def rref(rows: Iterable[Sequence[int]], n: int, p: int):
    """Row-reduce over GF(p); returns (rows, pivots) with zero rows dropped."""
    mat = [[x % p for x in r] for r in rows]
    for r in mat:
        if len(r) != n:
            raise ValueError(f"vector of length {len(r)} in ambient dimension {n}")
    pivots = []
    r = 0
    for col in range(n):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                row_r = mat[r]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], row_r)]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], tuple(pivots)


class Subspace:
    """A subspace of GF(p)^n held in canonical RREF."""

    __slots__ = ("n", "p", "rows", "pivots")

    def __init__(self, n, p, rows, pivots):
        self.n = n
        self.p = p
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, vectors: Iterable[Sequence[int]], n: int, p: int) -> "Subspace":
        rows, pivots = rref(vectors, n, p)
        return cls(n, p, tuple(rows), pivots)

    @classmethod
    def zero(cls, n: int, p: int) -> "Subspace":
        return cls(n, p, (), ())

    @classmethod
    def full(cls, n: int, p: int) -> "Subspace":
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return cls(n, p, rows, tuple(range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check_ambient(self, other: "Subspace"):
        if self.n != other.n or self.p != other.p:
            raise ValueError(
                f"ambient mismatch: GF({self.p})^{self.n} vs GF({other.p})^{other.n}"
            )

    def reduce(self, v: Sequence[int]) -> Vector:
        """Residual of v after projecting onto this subspace (zero iff member)."""
        p = self.p
        w = [x % p for x in v]
        for row, c in zip(self.rows, self.pivots):
            f = w[c]
            if f:
                w = [(x - f * y) % p for x, y in zip(w, row)]
        return tuple(w)

    def member(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim > self.dim:
            return False
        piv = set(self.pivots)
        if not set(other.pivots) <= piv:
            return False
        return all(self.member(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.rows + other.rows, self.n, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style: row reduce [U|U ; V|0], read right halves of rows
        whose left half vanished."""
        self._check_ambient(other)
        n, p = self.n, self.p
        block = [list(r) + list(r) for r in self.rows]
        block += [list(r) + [0] * n for r in other.rows]
        red, _ = rref(block, 2 * n, p)
        inter = [r[n:] for r in red if not any(r[:n])]
        return Subspace.span(inter, n, p)

    def sort_key(self):
        return (self.dim, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.p, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(GF({self.p})^{self.n}, rows={list(self.rows)})"


def gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def count_subspaces(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def _free_positions(pivots: Sequence[int], n: int):
    """Entries of an echelon matrix with the given pivot columns that may take
    arbitrary values: (row i, col j) with j > pivots[i] and j not a pivot."""
    pivset = set(pivots)
    return [
        (i, j)
        for i in range(len(pivots))
        for j in range(pivots[i] + 1, n)
        if j not in pivset
    ]


def _entry_dtype(p: int) -> np.dtype:
    """The smallest unsigned dtype that holds the residues 0 .. p - 1: the
    entries of the shape arrays (echelon_arrays, _parity_checks, plucker).
    It also holds p itself, as no prime is one more than a dtype's maximum.
    Kernels that multiply the arrays cast them to int64 or a float first,
    one row block at a time: two uint8 arrays multiply in uint8, and a
    Python int meeting a uint8 array stays uint8 (numpy 2)."""
    return np.min_scalar_type(p - 1)


def _pivot_dtype(n: int) -> np.dtype:
    """The smallest unsigned dtype that holds the pivot columns 0 .. n - 1
    of echelon_arrays."""
    return np.min_scalar_type(max(n - 1, 0))


def echelon_arrays(n: int, p: int, k: int):
    """All dim-k subspaces of GF(p)^n as numpy arrays, for batch computations.

    Returns (bases, pivots): bases has shape (m, k, n) with each slice a RREF
    basis, in _entry_dtype(p), pivots has shape (m, k), in _pivot_dtype(n).
    m = gaussian_binomial(n, k, p), which is 0 when k > n.  The arrays may
    be shared between calls, so they are read-only.
    """
    return _cached_echelon_arrays(n, p, k)


def _parity_checks(n: int, p: int, k: int) -> np.ndarray:
    """Parity checks of the dim-k subspaces of GF(p)^n, in echelon_arrays
    order: an (m, n, n - k) array H in _entry_dtype(p) with v in the span of
    bases[a] iff v @ H[a] == 0 mod p.  Column j of H[a] belongs to the j-th
    non-pivot column q of bases[a]: 1 at row q and -bases[a, r, q] mod p at
    row pivots[a, r], so v @ H[a][:, j] is v[q] minus the q-th entry of the
    combination of basis rows that agrees with v at the pivots.  Cached and
    read-only like echelon_arrays."""
    return _cached_parity_checks(n, p, k)


def _lookup_space(n: int, p: int) -> bool:
    """GF(p)^n has at most isqrt(_BLOCK) vectors, so a table over every
    pair of them holds at most _BLOCK values: there the lattice may test
    closure and ideals by lookup (lattice._lookup_masks)."""
    return p ** (2 * n) <= _BLOCK


def _index_dtype(n: int, p: int) -> np.dtype:
    """The smallest unsigned dtype that holds the indices 0 .. p^n - 1 of
    the vectors of GF(p)^n, their base-p digits (lattice._vector_table)."""
    return np.min_scalar_type(p**n - 1)


@lru_cache(maxsize=256)
def _shape_bytes(n: int, p: int, k: int) -> int:
    """The bytes of the arrays the shape caches hold for (n, p, k): per
    subspace, k n basis entries and n (n - k) parity-check entries in
    _entry_dtype(p), k pivots in _pivot_dtype(n), C(n, k) Plücker
    coordinates in _entry_dtype(p) (lattice._plucker_table) and, where
    _lookup_space(n, p), the indices of its k basis rows and n - k
    parity-check columns in _index_dtype(n, p) (lattice._index_table).
    Cached, as every dimension a lattice computes asks for it
    (_shape_kept)."""
    entries = _entry_dtype(p).itemsize * (n * n + comb(n, k))
    pivots = _pivot_dtype(n).itemsize * k
    indices = _index_dtype(n, p).itemsize * n if _lookup_space(n, p) else 0
    return gaussian_binomial(n, k, p) * (entries + pivots + indices)


def _kept(nbytes: int) -> bool:
    """_SHAPES keeps an entry of nbytes: at most a quarter of its total, so
    it holds at least four of the largest entries it admits."""
    return nbytes <= ECHELON_CACHE_TOTAL // 4


def _shape_kept(n: int, p: int, k: int) -> bool:
    return _kept(_shape_bytes(n, p, k))


class _LRU(OrderedDict):
    """A dict whose entries take at most `bound` together, each counting
    size(value) (1 by default) in `total`: get and assignment make a key the
    newest, and an assignment that takes the total past the bound drops the
    oldest entries.  Entries leave through del alone, which keeps the total."""

    def __init__(self, bound: int, size=lambda value: 1):
        super().__init__()
        self.bound, self.size, self.total = bound, size, 0

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value):
        if key in self:
            del self[key]
        super().__setitem__(key, value)
        self.total += self.size(value)
        while self.total > self.bound:
            del self[next(iter(self))]

    def __delitem__(self, key):
        self.total -= self.size(self[key])
        super().__delitem__(key)


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in (arrays if isinstance(arrays, tuple) else (arrays,)))


_SHAPES = _LRU(ECHELON_CACHE_TOTAL, _nbytes)


def _stored(key, nbytes: int, build):
    """The entry `key` of _SHAPES, or one built by build() and kept there
    where _kept(nbytes), nbytes its size; None, unbuilt, past that."""
    got = _SHAPES.get(key)
    if got is None and _kept(nbytes):
        got = _SHAPES[key] = build()
    return got


def _shape_cache(build):
    """build(n, p, k), kept in _SHAPES (_stored) for the shapes _shape_kept
    admits and built afresh past that; the builder is __wrapped__, and
    cache_clear drops what the store keeps of it."""

    @wraps(build)
    def cached(n: int, p: int, k: int):
        got = _stored((build, n, p, k), _shape_bytes(n, p, k), lambda: build(n, p, k))
        return build(n, p, k) if got is None else got

    def cache_clear():
        for key in [key for key in _SHAPES if key[0] is build]:
            del _SHAPES[key]

    cached.cache_clear = cache_clear
    return cached


@_shape_cache
def _cached_echelon_arrays(n: int, p: int, k: int):
    entries, pivot_dtype = _entry_dtype(p), _pivot_dtype(n)
    if k == 0 or k > n:
        # one zero subspace, or no subspace at all past the ambient dimension
        m = int(k == 0)
        return _read_only(
            np.zeros((m, k, n), dtype=entries), np.zeros((m, k), dtype=pivot_dtype)
        )
    blocks = []
    pivs = []
    for pivots in combinations(range(n), k):
        free = _free_positions(pivots, n)
        f = len(free)
        m = p**f
        # every filling of the free positions, in product(range(p), repeat=f)
        # order: row a holds the base-p digits of a
        fill = np.indices((p,) * f, dtype=entries).reshape(f, m)
        rows = np.zeros((m, k, n), dtype=entries)
        for i, c in enumerate(pivots):
            rows[:, i, c] = 1
        for t, (i, j) in enumerate(free):
            rows[:, i, j] = fill[t]
        blocks.append(rows)
        pivs.append(np.tile(np.array(pivots, dtype=pivot_dtype), (m, 1)))
    return _read_only(np.concatenate(blocks), np.concatenate(pivs))


@_shape_cache
def _cached_parity_checks(n: int, p: int, k: int) -> np.ndarray:
    if k > n:
        return _read_only(np.zeros((0, n, 0), dtype=_entry_dtype(p)))[0]
    return _read_only(_checks(*_cached_echelon_arrays(n, p, k), p))[0]


def _parity_check(space: Subspace) -> np.ndarray:
    """The (n, n - dim) parity check of one subspace, as _parity_checks
    builds it."""
    n, d, p = space.n, space.dim, space.p
    bases = np.array(space.rows, dtype=_entry_dtype(p)).reshape(1, d, n)
    pivots = np.array(space.pivots, dtype=np.intp).reshape(1, d)
    return _checks(bases, pivots, p)[0]


def _checks(bases: np.ndarray, piv: np.ndarray, p: int) -> np.ndarray:
    """Parity checks (see _parity_checks) of a batch of RREF bases of shape
    (m, k, n), in _entry_dtype(p), with their pivot columns, shape (m, k)."""
    m, k, n = bases.shape
    rows, cols = np.arange(m)[:, None], np.arange(n - k)
    free = np.ones((m, n), dtype=bool)
    free[rows, piv] = False
    nonpiv = np.nonzero(free)[1].reshape(m, n - k)  # ascending in each row
    checks = np.zeros((m, n, n - k), dtype=_entry_dtype(p))
    checks[rows, nonpiv, cols] = 1
    at_free = np.take_along_axis(bases, nonpiv[:, None, :], axis=2)
    # -x mod p as (p - x) mod p: -x would wrap in the unsigned dtype
    checks[rows[:, :, None], piv[:, :, None], cols] = (p - at_free) % p
    return checks


def _read_only(*arrays):
    """Mark arrays that a cache hands to every caller read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays
