"""Slow, independent reference computations that only the tests call.

Each one checks a fast path of the library from a different direction:
exact rationals for the modular sums, the recursive cyclotomic values for
the primitive parts, and the coefficient-wise operations on ``IntPoly`` for
the certificate divisions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from lucascong.arith import divisors, mod_inverse
from lucascong.errors import DegenerateSequence, InvalidArgument, InvalidModulus
from lucascong.lucas import LucasParams, LucasTable, _table_for
from lucascong.primitive import primitive_part
from lucascong.qpoly import IntPoly


def rational_mod(r: Fraction, m: int) -> int:
    """Reduce an exact fraction into a canonical residue in [0, m).

    Requires gcd(r.denominator, m) == 1; the denominator is cleared by
    modular inversion.
    """
    if m < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {m}")
    return r.numerator * mod_inverse(r.denominator, m) % m


def exact_sides(params: LucasParams, n: int,
                table: LucasTable | None = None) -> tuple[Fraction, Fraction]:
    """Both sides of the theorem as exact reduced rationals."""
    table = _table_for(params, n, table)
    if any(table.u[j] == 0 for j in range(1, n)) or table.v[n] == 0:
        raise DegenerateSequence("zero denominator in the exact sides")
    lhs = sum((Fraction(table.v[j], table.u[j]) for j in range(1, n)), Fraction(0))
    rhs = Fraction((n * n - 1) * params.delta, 6) * Fraction(table.u[n], table.v[n])
    return lhs, rhs


def homogeneous_cyclotomic(params: LucasParams, n: int,
                           table: LucasTable | None = None) -> int:
    """The integer Phi_n(alpha, beta), via exact recursive division.

    Phi_n(alpha, beta) = u_n / prod of Phi_d(alpha, beta) over divisors d
    of n with 1 < d < n. Every division must be exact; an inexact one
    indicates a bug and aborts loudly.
    """
    if n < 2:
        raise InvalidArgument(f"homogeneous cyclotomic value needs n >= 2, got {n}")
    table = _table_for(params, n, table)
    memo: dict[int, int] = {}

    def phi(m: int) -> int:
        if m in memo:
            return memo[m]
        val = table.u[m]
        if val == 0:
            raise DegenerateSequence(f"u_{m} = 0 while computing Phi_{n}(alpha, beta)")
        for d in divisors(m):
            if 1 < d < m:
                pd = phi(d)
                if pd == 0:
                    raise DegenerateSequence(
                        f"Phi_{d}(alpha, beta) = 0 while computing Phi_{n}(alpha, beta)")
                q, r = divmod(val, pd)
                if r:
                    raise DegenerateSequence(
                        f"inexact division by Phi_{d}(alpha, beta) at n = {m}: "
                        "implementation bug")
                val = q
        memo[m] = val
        return val

    return phi(n)


class CoprimalityReport(namedtuple("CoprimalityReport", "n w coprime_to_2 "
                                   "coprime_to_3 coprime_to_b coprime_to_v")):
    """Coprimality of w_n with 2, 3, B and v_n."""

    __slots__ = ()

    @property
    def all_coprime(self) -> bool:
        return (self.coprime_to_2 and self.coprime_to_3
                and self.coprime_to_b and self.coprime_to_v)


def coprimality_report(params: LucasParams, n: int,
                       table: LucasTable | None = None) -> CoprimalityReport:
    if n < 1:
        raise InvalidArgument(f"coprimality report needs n >= 1, got {n}")
    table = _table_for(params, n, table)
    w = primitive_part(params, n, table).w
    return CoprimalityReport(n=n, w=w, coprime_to_2=gcd(w, 2) == 1,
                             coprime_to_3=gcd(w, 3) == 1,
                             coprime_to_b=gcd(w, params.b) == 1,
                             coprime_to_v=gcd(w, table.v[n]) == 1)


def derivative(p: IntPoly) -> IntPoly:
    """The formal derivative of p."""
    return IntPoly([k * c for k, c in enumerate(p.coeffs)][1:])


def evaluate(p: IntPoly, x: int) -> int:
    """p(x) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc
