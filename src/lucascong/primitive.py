"""Primitive parts w_n.

w_n is the largest positive divisor of u_n coprime to every earlier term
u_1, ..., u_{n-1}. It always divides the homogenized cyclotomic value
Phi_n(alpha, beta), the top factor of u_n = prod over divisors d > 1 of n of
Phi_d(alpha, beta).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import DegenerateSequence, InvalidArgument
from .lucas import LucasParams, LucasTable, _table_for

__all__ = ["PrimitivePart", "primitive_part"]


class PrimitivePart(namedtuple("PrimitivePart", "n w trivial")):
    """w_n for one index n; ``trivial`` is w == 1."""

    __slots__ = ()


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
