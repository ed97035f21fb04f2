"""Exact linear algebra over GF(p)^n.

Subspaces are stored in reduced row echelon form (RREF), which is the one
canonical representation used everywhere: two subspaces are equal iff their
RREF matrices coincide, so they can be deduplicated and sorted reliably.

The module also enumerates the full subspace lattice of GF(p)^n by direct
generation of echelon pivot patterns, so the per-dimension counts are the
Gaussian binomials by construction rather than by filtering.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

DEFAULT_SUBSPACE_CAP = 10**7
# echelon_arrays and _parity_checks each keep the arrays of the last
# ECHELON_CACHE_SLOTS (n, p, k) (every 1 <= k <= n <= 6 over three fields
# fits) that have at most ECHELON_CACHE_ROWS subspaces (all of GF(3)^6 fits),
# so one large lattice cannot pin its arrays
ECHELON_CACHE_SLOTS = 64
ECHELON_CACHE_ROWS = 2**16

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


def count_subspaces(n: int, p: int, dims: Optional[Iterable[int]] = None) -> int:
    if dims is None:
        dims = range(n + 1)
    return sum(gaussian_binomial(n, k, p) for k in dims)


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


def enumerate_subspaces(
    n: int,
    p: int,
    dim_filter: Optional[int] = None,
    cap: int = DEFAULT_SUBSPACE_CAP,
) -> Iterator[Subspace]:
    """Every subspace of GF(p)^n exactly once, grouped by dimension then by
    pivot pattern.  Refuses (CapExceededError) if the total exceeds cap."""
    dims = range(n + 1) if dim_filter is None else [dim_filter]
    total = count_subspaces(n, p, dims)
    if total > cap:
        raise CapExceededError(total, cap)
    for k in dims:
        if k == 0:
            yield Subspace.zero(n, p)
            continue
        for pivots in combinations(range(n), k):
            free = _free_positions(pivots, n)
            for filling in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), val in zip(free, filling):
                    rows[i][j] = val
                yield Subspace(n, p, tuple(tuple(r) for r in rows), pivots)


def echelon_arrays(n: int, p: int, k: int):
    """All dim-k subspaces of GF(p)^n as numpy arrays, for batch computations.

    Returns (bases, pivots): bases has shape (m, k, n) with each slice a RREF
    basis, pivots has shape (m, k).  m = gaussian_binomial(n, k, p), which is
    0 when k > n.  The arrays may be shared between calls, so they are
    read-only.
    """
    return _shape_cached(_cached_echelon_arrays, n, p, k)


def _parity_checks(n: int, p: int, k: int) -> np.ndarray:
    """Parity checks of the dim-k subspaces of GF(p)^n, in echelon_arrays
    order: an (m, n, n - k) array H with v in the span of bases[a] iff
    v @ H[a] == 0 mod p.  Column j of H[a] belongs to the j-th non-pivot
    column q of bases[a]: 1 at row q and -bases[a, r, q] mod p at row
    pivots[a, r], so v @ H[a][:, j] is v[q] minus the q-th entry of the
    combination of basis rows that agrees with v at the pivots.  Cached and
    read-only like echelon_arrays."""
    return _shape_cached(_cached_parity_checks, n, p, k)


def _shape_cached(cached, n: int, p: int, k: int):
    """cached(n, p, k) for shapes of at most ECHELON_CACHE_ROWS subspaces;
    past that the uncached builder, so one large lattice cannot pin its
    arrays."""
    if gaussian_binomial(n, k, p) > ECHELON_CACHE_ROWS:
        return cached.__wrapped__(n, p, k)
    return cached(n, p, k)


def _build_echelon_arrays(n: int, p: int, k: int):
    if k == 0 or k > n:
        # one zero subspace, or no subspace at all past the ambient dimension
        m = int(k == 0)
        return _read_only(
            np.zeros((m, k, n), dtype=np.int64), np.zeros((m, k), dtype=np.int64)
        )
    blocks = []
    pivs = []
    for pivots in combinations(range(n), k):
        free = _free_positions(pivots, n)
        f = len(free)
        m = p**f
        fill = np.array(
            list(product(range(p), repeat=f)), dtype=np.int64
        ).reshape(m, f)
        rows = np.zeros((m, k, n), dtype=np.int64)
        for i, c in enumerate(pivots):
            rows[:, i, c] = 1
        for t, (i, j) in enumerate(free):
            rows[:, i, j] = fill[:, t]
        blocks.append(rows)
        pivs.append(np.tile(np.array(pivots, dtype=np.int64), (m, 1)))
    return _read_only(np.concatenate(blocks), np.concatenate(pivs))


def _build_parity_checks(n: int, p: int, k: int) -> np.ndarray:
    if k > n:
        return _read_only(np.zeros((0, n, 0), dtype=np.int64))[0]
    return _read_only(_checks(*_shape_cached(_cached_echelon_arrays, n, p, k), p))[0]


def _parity_check(space: Subspace) -> np.ndarray:
    """The (n, n - dim) parity check of one subspace, as _parity_checks
    builds it."""
    n, d = space.n, space.dim
    bases = np.array(space.rows, dtype=np.int64).reshape(1, d, n)
    pivots = np.array(space.pivots, dtype=np.int64).reshape(1, d)
    return _checks(bases, pivots, space.p)[0]


def _checks(bases: np.ndarray, piv: np.ndarray, p: int) -> np.ndarray:
    """Parity checks (see _parity_checks) of a batch of RREF bases of shape
    (m, k, n) with their pivot columns, shape (m, k)."""
    m, k, n = bases.shape
    rows, cols = np.arange(m)[:, None], np.arange(n - k)
    free = np.ones((m, n), dtype=bool)
    free[rows, piv] = False
    nonpiv = np.nonzero(free)[1].reshape(m, n - k)  # ascending in each row
    checks = np.zeros((m, n, n - k), dtype=np.int64)
    checks[rows, nonpiv, cols] = 1
    at_free = np.take_along_axis(bases, nonpiv[:, None, :], axis=2)
    checks[rows[:, :, None], piv[:, :, None], cols] = -at_free % p
    return checks


_cached_echelon_arrays = lru_cache(maxsize=ECHELON_CACHE_SLOTS)(_build_echelon_arrays)
_cached_parity_checks = lru_cache(maxsize=ECHELON_CACHE_SLOTS)(_build_parity_checks)


def _read_only(*arrays):
    """Mark arrays that a cache hands to every caller read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays
