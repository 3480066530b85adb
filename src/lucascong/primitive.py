"""Primitive parts w_n.

w_n is the largest positive divisor of u_n coprime to every earlier term
u_1, ..., u_{n-1}. It always divides the homogenized cyclotomic value
Phi_n(alpha, beta), the top factor of u_n = prod over divisors d > 1 of n of
Phi_d(alpha, beta). It is found by stripping |u_n| against omega(n) + 1
earlier terms, u_2 and the u_{n/r} for r a prime factor of n, not all n - 1.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .arith import divisors, is_prime
from .errors import DegenerateSequence, InvalidArgument
from .lucas import LucasParams, LucasTable, _table_for

__all__ = ["PrimitivePart", "primitive_part"]


class PrimitivePart(namedtuple("PrimitivePart", "n w trivial")):
    """w_n for one index n; ``trivial`` is w == 1."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _strip_indices(n: int) -> tuple[int, ...]:
    indices = {n // r for r in divisors(n) if r < n and is_prime(r)}
    return tuple(indices | {2} if n > 2 else indices)


def primitive_part(params: LucasParams, n: int,
                   table: LucasTable | None = None) -> PrimitivePart:
    """Compute w_n by gcd-stripping |u_n| against u_2 (n > 2) and u_{n/r}
    for each prime r < n dividing n; a zero earlier term forces w_n = 1
    (only +-1 is coprime to 0), and u_n = 0 raises.

    The strip is exact: its terms are earlier terms, and a prime q of u_n
    dividing some u_j, 1 < j < n, divides one of them. If q | B, u_j ==
    A^{j-1} (mod q) gives q | A = u_2. If not, the zeros of u mod q are the
    multiples of the rank of q, which properly divides n, so divides some
    n/r, and q | u_{n/r}.

    Only u_1..u_6 can be zero: u_j = 0 means (alpha/beta)^j = 1, a root of
    unity of order 1, 2, 3, 4 or 6 in a quadratic field. Order 1 is delta = 0,
    where u_j = j * alpha^(j-1) != 0; order 2 needs A = 0; orders 3, 4 and 6
    are A^2 = B, 2B and 3B, with the first zero at u_3, u_4 and u_6.
    """
    if n < 1:
        raise InvalidArgument(f"primitive part needs n >= 1, got {n}")
    table = _table_for(params, n, table)
    un = table.u[n]
    if un == 0:
        raise DegenerateSequence(f"u_{n} = 0 for (A, B) = ({params.a}, {params.b}); "
                                 "the primitive part is undefined")
    w = 1 if 0 in table.u[1:min(n, 7)] else abs(un)
    for j in _strip_indices(n):
        while (g := gcd(w, table.u[j])) > 1:
            w //= g
    return PrimitivePart(n=n, w=w, trivial=(w == 1))
