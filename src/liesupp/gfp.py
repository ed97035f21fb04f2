"""Exact arithmetic in prime fields GF(p).

Scalars are plain Python ints in [0, p); the modulus lives on the
containing PrimeField so that coefficient tables stay compact.

Structure-constant tables are int64 numpy arrays, so moduli are bounded:
PrimeField refuses p >= MODULUS_LIMIT, and LieAlgebra further refuses any
(p, n) whose bracket sums could overflow (see int64_safe).
"""
from __future__ import annotations

MODULUS_LIMIT = 2**21


class NotPrimeError(ValueError):
    """Raised when a PrimeField is requested for a composite modulus."""


class ModulusTooLargeError(ValueError):
    """The modulus is too large for exact int64 table arithmetic."""


class InternalError(RuntimeError):
    """A computation reached a state that the checks before it exclude: a
    fault in liesupp, not in its input."""


def int64_safe(p: int, n: int) -> bool:
    """True iff a sum of n*n products of three residues mod p, the worst
    case of the bracket einsum in dimension n, stays below 2**63."""
    return n * n * (p - 1) ** 3 < 2**63


def require_int64_safe(p: int, n: int) -> None:
    """Raise ModulusTooLargeError unless int64_safe(p, n)."""
    if not int64_safe(p, n):
        raise ModulusTooLargeError(
            f"GF({p}) in dimension {n}: bracket sums would overflow int64"
        )


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group of GF(p)."""
    factors, m, d = [], p - 1, 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    return next(
        g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )


class PrimeField:
    """The field GF(p) for a prime p; its scalars are ints reduced mod p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= MODULUS_LIMIT:
            raise ModulusTooLargeError(
                f"modulus {p} is not below the limit {MODULUS_LIMIT}"
            )
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"
