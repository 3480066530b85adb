"""Primitive parts w_n and homogenized cyclotomic values.

w_n is the largest positive divisor of u_n coprime to every earlier term
u_1, ..., u_{n-1}. The homogenized cyclotomic value Phi_n(alpha, beta) is the
integer obtained by clearing denominators in Phi_n(alpha/beta); the terms
factor as u_n = prod over divisors d > 1 of n of Phi_d(alpha, beta), and w_n
always divides the top factor Phi_n(alpha, beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import divisors
from .errors import DegenerateSequence, InvalidArgument
from .lucas import LucasParams, LucasTable, _table_for

__all__ = ["PrimitivePart", "CoprimalityReport", "primitive_part",
           "homogeneous_cyclotomic", "coprimality_report"]


@dataclass(frozen=True)
class PrimitivePart:
    n: int
    w: int
    trivial: bool  # w == 1


@dataclass(frozen=True)
class CoprimalityReport:
    """Coprimality of w_n with 2, 3, B and v_n."""

    n: int
    w: int
    coprime_to_2: bool
    coprime_to_3: bool
    coprime_to_b: bool
    coprime_to_v: bool

    @property
    def all_coprime(self) -> bool:
        return (self.coprime_to_2 and self.coprime_to_3
                and self.coprime_to_b and self.coprime_to_v)


def primitive_part(params: LucasParams, n: int,
                   table: LucasTable | None = None) -> PrimitivePart:
    """Compute w_n by gcd-stripping |u_n| against u_1 .. u_{n-1}.

    A zero among the earlier terms forces w_n = 1 (only +-1 is coprime
    to 0); u_n = 0 itself has no largest coprime divisor and raises.
    """
    if n < 1:
        raise InvalidArgument(f"primitive part needs n >= 1, got {n}")
    table = _table_for(params, n, table)
    un = table.u[n]
    if un == 0:
        raise DegenerateSequence(f"u_{n} = 0 for (A, B) = ({params.a}, {params.b}); "
                                 "the primitive part is undefined")
    w = abs(un)
    for j in range(1, n):
        uj = table.u[j]
        if uj == 0:
            w = 1
            break
        g = gcd(w, uj)
        while g > 1:
            w //= g
            g = gcd(w, uj)
    return PrimitivePart(n=n, w=w, trivial=(w == 1))


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


def coprimality_report(params: LucasParams, n: int,
                       table: LucasTable | None = None) -> CoprimalityReport:
    if n < 1:
        raise InvalidArgument(f"coprimality report needs n >= 1, got {n}")
    table = _table_for(params, n, table)
    w = primitive_part(params, n, table).w
    vn = table.v[n]
    return CoprimalityReport(
        n=n,
        w=w,
        coprime_to_2=gcd(w, 2) == 1,
        coprime_to_3=gcd(w, 3) == 1,
        coprime_to_b=gcd(w, params.b) == 1,
        coprime_to_v=gcd(w, vn) == 1,
    )
