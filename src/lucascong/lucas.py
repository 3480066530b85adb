"""Lucas sequences u_n and their companions v_n.

For nonzero integers A, B the sequence is u_0 = 0, u_1 = 1,
u_n = A*u_{n-1} - B*u_{n-2}; the companion runs v_0 = 2, v_1 = A under the
same recurrence. The discriminant is delta = A^2 - 4B. A = 1, B = -1 gives
the Fibonacci and Lucas numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import is_prime
from .errors import InvalidArgument

__all__ = ["LucasParams", "LucasTable", "discriminant", "lucas_table",
           "lucas_pair", "rank_of_apparition"]


def discriminant(a: int, b: int) -> int:
    return a * a - 4 * b


@dataclass(frozen=True)
class LucasParams:
    """The recurrence coefficients (A, B), both nonzero."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise InvalidArgument(f"A and B must both be nonzero, got ({self.a}, {self.b})")

    @property
    def delta(self) -> int:
        return discriminant(self.a, self.b)


@dataclass(frozen=True)
class LucasTable:
    """Prefix arrays u[0..n] and v[0..n] for one parameter pair."""

    params: LucasParams
    u: list[int] = field(repr=False)
    v: list[int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.u) - 1


def lucas_table(params: LucasParams, n: int) -> LucasTable:
    """Compute the full prefix table up to index n by the recurrence."""
    if n < 0:
        raise InvalidArgument(f"table length must be >= 0, got {n}")
    a, b = params.a, params.b
    u = [0, 1]
    v = [2, a]
    for _ in range(2, n + 1):
        u.append(a * u[-1] - b * u[-2])
        v.append(a * v[-1] - b * v[-2])
    del u[n + 1:], v[n + 1:]
    return LucasTable(params, u, v)


def _table_for(params: LucasParams, n: int, table: LucasTable | None) -> LucasTable:
    """``table`` when it belongs to ``params`` and reaches index n, else a new one."""
    if table is not None and table.params == params and table.n >= n:
        return table
    return lucas_table(params, n)


def lucas_pair(params: LucasParams, n: int) -> tuple[int, int]:
    """Single-point evaluation of (u_n, v_n) in O(log n) steps.

    Uses the doubling identities u_{2k} = u_k*v_k and v_{2k} = v_k^2 - 2*B^k,
    with (u_{k+1}, v_{k+1}) = ((A*u_k + v_k)/2, (delta*u_k + A*v_k)/2) for the
    odd steps; both halvings are exact because v_k = A*u_k (mod 2).
    """
    if n < 0:
        raise InvalidArgument(f"index must be >= 0, got {n}")
    a, b, delta = params.a, params.b, params.delta
    u, v, bk = 0, 2, 1  # (u_k, v_k, B^k) starting at k = 0
    for bit in map(int, bin(n)[2:]) if n else []:
        u, v, bk = u * v, v * v - 2 * bk, bk * bk
        if bit:
            u, v = (a * u + v) // 2, (delta * u + a * v) // 2
            bk *= b
    return u, v


def rank_of_apparition(params: LucasParams, p: int) -> int | None:
    """Least r >= 1 with p | u_r, or None when no such r exists.

    Scans u_j mod p for j = 1 .. p+1; classical theory bounds the rank by
    p+1 whenever p does not divide B. When p | B and p does not divide A,
    u_j = A^{j-1} (mod p) never vanishes, hence None.
    """
    if p < 2 or not is_prime(p):
        raise InvalidArgument(f"p must be prime, got {p}")
    a, b = params.a, params.b
    prev, cur = 0, 1 % p
    for r in range(1, p + 2):
        if cur == 0:
            return r
        prev, cur = cur, (a * cur - b * prev) % p
    return None
