"""Exact integer and rational helpers used by every other module.

All values are plain Python ``int`` (arbitrary precision) and
``fractions.Fraction`` (always stored reduced, positive denominator).
Residues are canonicalized into ``[0, m)`` so that congruence checks are
simple equality on canonical representatives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidArgument, InvalidModulus, NotInvertible

__all__ = [
    "gcd",
    "mod_inverse",
    "rational_mod",
    "jacobi",
    "divisors",
    "euler_phi",
    "is_prime",
]


def mod_inverse(a: int, m: int) -> int:
    """Return x in [0, m) with a*x == 1 (mod m).

    mod_inverse(a, 1) is 0, so trivial moduli flow through callers
    without special cases.
    """
    if m < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 0
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible modulo {m}") from None


def rational_mod(r: Fraction, m: int) -> int:
    """Reduce an exact fraction into a canonical residue in [0, m).

    Requires gcd(r.denominator, m) == 1; the denominator is cleared by
    modular inversion.
    """
    if m < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {m}")
    return r.numerator * mod_inverse(r.denominator, m) % m


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; equals the Legendre symbol for prime n."""
    if n < 1 or n % 2 == 0:
        raise InvalidModulus(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise InvalidArgument(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1 (phi(1) = 1 by the empty-product convention)."""
    if n < 1:
        raise InvalidArgument(f"euler_phi requires n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with the prime bases 2..37;
    exact below 3.18e23 by Sorenson-Webster 2015, far beyond the scans)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
