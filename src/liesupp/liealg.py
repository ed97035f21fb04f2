"""Lie algebras over GF(p) given by structure constants.

An algebra is its dimension n plus the table c_{ij}^k for i < j, giving
[e_i, e_j] = sum_k c_{ij}^k e_k.  Antisymmetry is structural ([e_j, e_i] is
defined as -[e_i, e_j]); a full table given directly must be antisymmetric
and alternating ([e_i, e_i] = 0, which antisymmetry implies only for p odd).
The Jacobi identity is validated at construction, on the triples i < j < k,
and violations are rejected with the offending basis triple.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .gfp import PrimeField, require_int64_safe
from .subspace import Subspace, _read_only

Vector = Tuple[int, ...]


class InvalidAlgebraError(ValueError):
    """Structure constant table does not define a Lie algebra."""


class JacobiError(InvalidAlgebraError):
    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on basis triple {triple}: residual {residual}"
        )


class NotIdealError(ValueError):
    pass


class NotSubalgebraError(ValueError):
    pass


def jacobi_residuals(tables: np.ndarray, p: int) -> np.ndarray:
    """Jacobi residuals of a batch of alternating tables over GF(p).

    tables has shape (b, n, n, n) with entries in [0, p); the result has
    shape (b, C(n, 3), n) and out[b, t] is the coefficient vector of
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] mod p for the
    t-th triple i < j < k of combinations(range(n), 3).  For an alternating
    table the Jacobi form is trilinear and alternating, so it vanishes on
    every triple with a repeated index and changes sign under a swap: table
    b satisfies the Jacobi identity iff out[b] is all zero.
    """
    b, n = tables.shape[:2]
    pairs, last, _ = _jacobi_indices(n)
    # [[e_i, e_j], e_k] = [e_k, [e_j, e_i]] = sum_m c_ji^m [e_k, e_m], for
    # the triples (i, j, k), then (j, k, i), then (k, i, j)
    terms = tables.reshape(b, n * n, 1, n)[:, pairs] @ tables[:, last]
    return terms.reshape(b, 3, -1, n).sum(axis=1) % p


@lru_cache(maxsize=16)
def _jacobi_indices(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pairs, last, triples): triples holds the triples i < j < k < n in
    combinations order; pairs and last run over them, then over their
    rotations (j, k, i), then over (k, i, j), with pairs the flat index
    j * n + i of the reversed first two and last the third."""
    triples = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    i, j, k = triples.T
    pairs = np.concatenate([j * n + i, k * n + j, i * n + k])
    return _read_only(pairs, np.concatenate([k, i, j]), triples)


class LieAlgebra:
    """Immutable Lie algebra value.

    table is the full antisymmetrized numpy array of shape (n, n, n);
    table[i, j] is the coefficient vector of [e_i, e_j].
    """

    __slots__ = ("field", "dim", "table", "basis_names", "_key")

    def __init__(
        self,
        field: PrimeField,
        dim: int,
        brackets: Optional[Dict[Tuple[int, int], Sequence[int]]] = None,
        basis_names: Optional[Sequence[str]] = None,
        table: Optional[np.ndarray] = None,
    ):
        p = field.p
        n = dim
        require_int64_safe(p, n)
        if table is None:
            table = np.zeros((n, n, n), dtype=np.int64)
            for (i, j), coeffs in (brackets or {}).items():
                if not (0 <= i < j < n):
                    raise InvalidAlgebraError(
                        f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}"
                    )
                if len(coeffs) != n:
                    raise InvalidAlgebraError(
                        f"bracket ({i},{j}) has {len(coeffs)} coefficients, need {n}"
                    )
                table[i, j] = [c % p for c in coeffs]
                table[j, i] = [(-c) % p for c in coeffs]
        else:
            table = np.asarray(table, dtype=np.int64) % p
            if table.shape != (n, n, n):
                raise InvalidAlgebraError(f"table shape {table.shape} != {(n, n, n)}")
            if ((table + np.swapaxes(table, 0, 1)) % p).any():
                raise InvalidAlgebraError("table is not antisymmetric")
            # in characteristic 2, antisymmetry leaves [e_i, e_i] free
            if table.reshape(n * n, n)[:: n + 1].any():
                raise InvalidAlgebraError("table is not alternating: [e_i, e_i] != 0")
        self.field = field
        self.dim = n
        self.table = table
        self.table.setflags(write=False)
        self.basis_names = tuple(basis_names) if basis_names else None
        if self.basis_names and len(self.basis_names) != n:
            raise InvalidAlgebraError("basis_names length != dim")
        self._validate_jacobi()
        self._key = (p, n, self.table.tobytes())

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def key(self):
        """Hashable identity of the structure (modulus, dim, table bytes)."""
        return self._key

    def _validate_jacobi(self):
        if self.dim < 3:
            return
        jac = jacobi_residuals(self.table[None], self.p)[0]
        if jac.any():
            t = np.flatnonzero(jac.any(axis=1))[0]
            triple = tuple(int(a) for a in _jacobi_indices(self.dim)[2][t])
            raise JacobiError(triple, tuple(int(x) for x in jac[t]))

    # -- basic bracket operations -------------------------------------------

    def bracket(self, u: Sequence[int], v: Sequence[int]) -> Vector:
        p = self.p
        w = np.einsum(
            "i,j,ijk->k",
            np.asarray(u, dtype=np.int64),
            np.asarray(v, dtype=np.int64),
            self.table,
        )
        return tuple(int(x) for x in w % p)

    def _brackets(self, u: Subspace, v: Subspace) -> np.ndarray:
        """[x, y] mod p for every row x of u's basis and y of v's, shape
        (dim u, dim v, n): two matrix products with the table."""
        if u.n != self.dim or v.n != self.dim:
            raise ValueError("ambient mismatch")
        n = self.dim
        x = np.array(u.rows, dtype=np.int64).reshape(u.dim, n)
        y = np.array(v.rows, dtype=np.int64).reshape(v.dim, n)
        # ad[s, j] = [x_s, e_j], then [x_s, y_t] = sum_j y_t[j] ad[s, j]
        ad = (x @ self.table.reshape(n, n * n)).reshape(u.dim, n, n)
        return y @ ad % self.p

    def product_space(self, u: Subspace, v: Subspace) -> Subspace:
        """Span of all [x, y] with x, y ranging over the two bases."""
        prods = self._brackets(u, v).reshape(u.dim * v.dim, self.dim)
        return Subspace.span(prods.tolist(), self.dim, self.p)

    def is_subalgebra(self, u: Subspace) -> bool:
        prods = self._brackets(u, u)
        return _in_span(prods, _coordinates(prods, u), u)

    def is_ideal(self, u: Subspace) -> bool:
        prods = self._brackets(Subspace.full(self.dim, self.p), u)
        return _in_span(prods, _coordinates(prods, u), u)

    # -- derived constructions ----------------------------------------------

    def quotient(self, ideal: Subspace) -> "LieAlgebra":
        """Quotient by an ideal, on the coset basis given by the non-pivot
        coordinates of the ideal's RREF."""
        if not self.is_ideal(ideal):
            raise NotIdealError(f"{ideal!r} is not an ideal")
        comp = [j for j in range(self.dim) if j not in ideal.pivots]
        # [e_a, e_b] for the coset representatives, minus its part in the
        # ideal (Subspace.reduce, at once), read at the coset coordinates
        brackets = self.table[comp][:, comp]
        rows = np.array(ideal.rows, dtype=np.int64).reshape(ideal.dim, self.dim)
        brackets = (brackets - _coordinates(brackets, ideal) @ rows) % self.p
        return LieAlgebra(self.field, len(comp), table=brackets[..., comp])

    def as_algebra(self, space: Subspace) -> "LieAlgebra":
        """The induced algebra on a bracket-closed subspace, in its RREF
        basis."""
        prods = self._brackets(space, space)
        table = _coordinates(prods, space)
        if not _in_span(prods, table, space):
            raise NotSubalgebraError(f"{space!r} is not bracket-closed")
        return LieAlgebra(self.field, space.dim, table=table)

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        if self.field != other.field:
            raise ValueError("field mismatch in direct sum")
        na, nb = self.dim, other.dim
        n = na + nb
        table = np.zeros((n, n, n), dtype=np.int64)
        table[:na, :na, :na] = self.table
        table[na:, na:, na:] = other.table
        names = None
        if self.basis_names and other.basis_names:
            names = self.basis_names + other.basis_names
        return LieAlgebra(self.field, n, basis_names=names, table=table)

    # -- series and solvability ---------------------------------------------

    def derived_series(self) -> List[Subspace]:
        cur = Subspace.full(self.dim, self.p)
        series = [cur]
        while True:
            nxt = self.product_space(cur, cur)
            if nxt.dim == cur.dim:
                break
            series.append(nxt)
            cur = nxt
        return series

    def lower_central_series(self) -> List[Subspace]:
        full = Subspace.full(self.dim, self.p)
        cur = full
        series = [cur]
        while True:
            nxt = self.product_space(full, cur)
            if nxt.dim == cur.dim:
                break
            series.append(nxt)
            cur = nxt
        return series

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    # -- serialization helpers ----------------------------------------------

    def sparse_brackets(self) -> Dict[Tuple[int, int], Vector]:
        out = {}
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                coeffs = tuple(int(x) for x in self.table[i, j])
                if any(coeffs):
                    out[(i, j)] = coeffs
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"LieAlgebra(GF({self.p}), dim={self.dim})"


def _coordinates(vectors: np.ndarray, u: Subspace) -> np.ndarray:
    """The entries of vectors (shape (..., n)) at u's pivot columns: for a
    vector of u these are its coordinates in u's RREF basis."""
    return vectors[..., list(u.pivots)]


def _in_span(vectors: np.ndarray, coords: np.ndarray, u: Subspace) -> bool:
    """Whether all vectors lie in u, given their _coordinates: a vector is
    in u iff it equals the combination of u's rows with its coordinates."""
    rows = np.array(u.rows, dtype=np.int64).reshape(u.dim, u.n)
    return not ((coords @ rows - vectors) % u.p).any()


# -- catalog of named algebras ----------------------------------------------


def abelian(p: int, n: int) -> LieAlgebra:
    return LieAlgebra(PrimeField(p), n)


def nonabelian2(p: int) -> LieAlgebra:
    """The unique nonabelian 2-dimensional algebra: [x, y] = y."""
    return LieAlgebra(PrimeField(p), 2, {(0, 1): (0, 1)}, basis_names=("x", "y"))


def heisenberg(p: int) -> LieAlgebra:
    """Three-dimensional Heisenberg algebra, [x, y] = z with z central."""
    return LieAlgebra(
        PrimeField(p), 3, {(0, 1): (0, 0, 1)}, basis_names=("x", "y", "z")
    )


def counterexample_L1(p: int) -> LieAlgebra:
    """Solvable 3-dimensional algebra with [x,y] = y+z, [x,z] = z."""
    return LieAlgebra(
        PrimeField(p),
        3,
        {(0, 1): (0, 1, 1), (0, 2): (0, 0, 1)},
        basis_names=("x", "y", "z"),
    )


def counterexample_double(p: int) -> LieAlgebra:
    """Direct sum of two copies of counterexample_L1 (basis x,y,z,a,b,c)."""
    a = counterexample_L1(p)
    out = a.direct_sum(a)
    return LieAlgebra(
        out.field, 6, table=out.table, basis_names=("x", "y", "z", "a", "b", "c")
    )


def L1_gamma(p: int, gamma0: int = 0) -> LieAlgebra:
    """One-parameter 3-dimensional family: basis (u-1, u0, u1) with
    [u-1,u0] = u-1 + gamma0*u1, [u-1,u1] = u0, [u0,u1] = u1."""
    return LieAlgebra(
        PrimeField(p),
        3,
        {(0, 1): (1, 0, gamma0 % p), (0, 2): (0, 1, 0), (1, 2): (0, 0, 1)},
        basis_names=("u-1", "u0", "u1"),
    )


def sl2(p: int) -> LieAlgebra:
    """sl2 on basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h.

    Over p = 2 this table degenerates to a non-simple algebra; that is
    deliberate, characteristic-2 phenomena are exercised through L1_gamma.
    """
    return LieAlgebra(
        PrimeField(p),
        3,
        {(0, 1): ((-2) % p, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, (-2) % p)},
        basis_names=("e", "h", "f"),
    )


CATALOG = {
    "abelian": abelian,
    "nonabelian2": nonabelian2,
    "heisenberg": heisenberg,
    "counterexample_L1": counterexample_L1,
    "counterexample_double": counterexample_double,
    "L1_gamma": L1_gamma,
    "sl2": sl2,
}


def catalog(name: str, p: int, **params) -> LieAlgebra:
    """Build a named algebra; these names are the stable public identifiers."""
    try:
        ctor = CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog algebra {name!r}; known: {sorted(CATALOG)}"
        ) from None
    return ctor(p, **params)
