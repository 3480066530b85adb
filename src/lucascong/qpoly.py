"""Integer polynomials in q: q-integers, cyclotomic polynomials, and the
divisibility certificates behind the q-analogue congruences.

The q-integer [n]_q = 1 + q + ... + q^{n-1}. The cleared congruence polynomial

    (12 * sum_j (1 + q^j)/[j]_q - (n^2-1)(1-q)(1-q^n)) * prod_j [j]_q

is an integer polynomial divisible by Phi_n(q)^2; ``q_certificate`` performs
that division and returns the integer quotient G(q), which constructively
witnesses the congruence. Products and quotients by Phi_n(q)^k run in integers
as O(deg) passes over the factors q^d - 1 of the Moebius product for Phi_n;
the long division only runs to name the remainder of an inexact one.

The cleared polynomial (degree about n^2/2) is built in O(n^3) list operations,
shared with ``verify_q_prime``: T = prod_j [j]_q by running-window sums, and
each cofactor T/[j]_q as (1-q)T/(1-q^j) by the exact recurrence r[k] += r[k-j].
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import add, neg, sub

from .arith import divisors, euler_phi, is_prime
from .errors import (CongruenceFails, DivisionByZeroPoly, InexactDivision,
                     InvalidArgument)

__all__ = ["IntPoly", "q_integer_poly", "cyclotomic_poly", "poly_divmod",
           "cleared_congruence_poly", "q_certificate", "verify_q_prime"]


class IntPoly:
    """Dense integer-coefficient polynomial, ascending degree order.

    Canonical form: trailing zeros stripped, so the zero polynomial has an
    empty coefficient tuple and degree -1 (the "minus infinity" marker).
    Immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 stands in for minus infinity on the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise InvalidArgument("negative polynomial power")
        return reduce(IntPoly.__mul__, [self] * exp, IntPoly([1]))

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly([x])
    raise TypeError(f"cannot coerce {type(x).__name__} to IntPoly")


def q_integer_poly(n: int) -> IntPoly:
    """[n]_q = 1 + q + ... + q^{n-1}; n = 0 is the empty sum."""
    if n < 0:
        raise InvalidArgument(f"q-integer needs n >= 0, got {n}")
    return IntPoly([1] * n)


def poly_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division: a = q*b + r with deg r < deg b, in integers. A divisor
    whose leading coefficient fails to divide some intermediate leading term
    raises InexactDivision; a monic one never does."""
    if b.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    if a.degree < b.degree:
        return IntPoly(), a
    rem = list(a.coeffs)
    db = b.degree
    lead = b.coeffs[-1]
    quot = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        if rem[k] == 0:
            continue
        c, leftover = divmod(rem[k], lead)
        if leftover:
            raise InexactDivision(
                f"leading coefficient {lead} does not divide {rem[k]}")
        quot[k - db] = c
        for j in range(db + 1):
            rem[k - db + j] -= c * b.coeffs[j]
    return IntPoly(quot), IntPoly(rem[:db])


def _times_phi_power(c, n: int, k: int) -> list[int] | None:
    """c * Phi_n(q)^k on coefficient lists, or None if k < 0 and the division
    is not exact. With Phi_n = prod_{d|n} (q^d - 1)^mu(n/d), multiply |k| times
    by each q^d - 1 with mu(n/d) k > 0, then divide |k| times by the others:
    g[i] = g[i - d] - c[i], exact iff the top d entries vanish. Phi_n^|k|
    divides c iff the quotient product divides c times the multiplied one."""
    mus = {n: 1}  # d -> mu(n/d) over the d | n with n/d squarefree
    for r in filter(is_prime, divisors(n)):
        mus.update({d // r: -mu for d, mu in mus.items()})
    c = list(c)
    for d in [d for d, mu in mus.items() if mu * k > 0] * abs(k):
        c = list(map(sub, [0] * d + c, c + [0] * d))
    for d in [d for d, mu in mus.items() if mu * k < 0] * abs(k):
        for r in range(d):
            c[r::d] = accumulate(map(neg, c[r::d]))
        if any(c[-d:]):
            return None
        del c[-d:]
    return c


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial Phi_n(q) = prod_{d | n} (q^d - 1)^mu(n/d),
    built from 1 by the passes of ``_times_phi_power``. Degree phi(n); monic
    for n >= 2 (Phi_1 = q - 1)."""
    if n < 1:
        raise InvalidArgument(f"cyclotomic index must be >= 1, got {n}")
    phi = IntPoly(_times_phi_power([1], n, 1))
    if phi.degree != euler_phi(n):
        raise InexactDivision(f"Phi_{n} came out with degree {phi.degree} != phi({n})")
    return phi


def _cleared_coeffs(n: int, weight: int, shifted: bool, lo: int, hi: int) -> list[int]:
    """Coefficients of weight * sum_j c_j T/[j]_q - (lo - hi q^n)(1 - q) T,
    where T = prod_{j<n} [j]_q and c_j = 1 + q^j if ``shifted``, else 1.
    Each step is O(deg T) on plain lists, so the build is O(n^3)."""
    total = [1]
    for j in range(2, n):  # T [j]_q = T (1 - q^j)/(1 - q): running sums
        total = list(accumulate(map(sub, total + [0] * (j - 1), [0] * j + total)))
    t = list(map(sub, total + [0], [0] + total))  # (1 - q) T
    s = [0] * len(t)
    for j in range(1, n):  # T/[j]_q = t/(1 - q^j): r[k] = t[k] + r[k - j]
        r = t[:]
        for c in range(j):
            r[c::j] = accumulate(r[c::j])
        if any(r[-j:]):
            raise InexactDivision(f"[{j}]_q does not divide prod_(k<{n}) [k]_q")
        s = list(map(add, s, r))
        if shifted:
            s[j:] = map(add, s[j:], r)
    out = [weight * a - lo * b for a, b in zip(s, t)] + [0] * n
    out[n:] = map(add, out[n:], [hi * b for b in t])
    return out


def cleared_congruence_poly(n: int) -> IntPoly:
    """The denominator-cleared congruence polynomial

        12 * sum_j (1 + q^j) * prod_{k != j} [k]_q
          - (n^2 - 1) * (1 - q) * (1 - q^n) * prod_j [j]_q

    (j, k over 1 .. n-1). n = 1 gives 0 by the empty-sum and empty-product
    conventions. Built in O(n^3) list operations by ``_cleared_coeffs``.
    """
    if n < 1:
        raise InvalidArgument(f"needs n >= 1, got {n}")
    return IntPoly(_cleared_coeffs(n, 12, True, n * n - 1, n * n - 1))


def q_certificate(n: int) -> IntPoly:
    """Divide the cleared congruence polynomial exactly by Phi_n(q)^2 and
    return the integer quotient G(q).

    It runs as the (q^d - 1) passes of ``_times_phi_power``. If they find it
    inexact, the remainder of the long division is raised as CongruenceFails.
    """
    if n < 1:
        raise InvalidArgument(f"needs n >= 1, got {n}")
    lhs = cleared_congruence_poly(n)
    g = _times_phi_power(lhs.coeffs, n, -2)
    if g is None:
        rem = poly_divmod(lhs, cyclotomic_poly(n) ** 2)[1]
        raise CongruenceFails(
            f"cleared congruence polynomial for n={n} is not divisible by "
            f"Phi_{n}(q)^2; remainder {rem!r}", remainder=rem)
    return IntPoly(g)


def verify_q_prime(p: int) -> bool:
    """Check the prime q-analogue in its stated form, modulo [p]_q^2:
    clear denominators of

        24 * sum_{j<p} 1/[j]_q - 12(p-1)(1-q) - (p^2-1)(1-q)^2 [p]_q

    by prod_{j<p} [j]_q and test exact divisibility by [p]_q^2 = Phi_p(q)^2:
    twice times q - 1, then twice by q^p - 1 (``_times_phi_power``)."""
    if p < 5 or not is_prime(p):
        raise InvalidArgument(f"p must be a prime >= 5, got {p}")
    k = p * p - 1  # subtracted terms times T: (1-q) T (12(p-1) + k - k q^p)
    cleared = _cleared_coeffs(p, 24, False, 12 * (p - 1) + k, k)
    return _times_phi_power(cleared, p, -2) is not None
