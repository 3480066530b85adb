"""Verification of the Lucas harmonic congruences.

The central statement checked here: for n >= 5,

    sum_{j=1}^{n-1} v_j/u_j  ==  (n^2 - 1) * delta / 6 * u_n / v_n   (mod w_n^2)

where w_n is the primitive part of u_n. Specializing to Fibonacci numbers
and a prime p with rank of apparition n gives the mod p^2 corollary; the
Kimball-Webb congruence (sum vanishes mod p^2 when delta = 0 or the rank is
p +- 1) and the classical Wolstenholme congruence for harmonic numbers are
verified by the same machinery.

Both sides are evaluated by pure modular arithmetic; the sum is carried as
one fraction N/D mod m, so it takes one inverse per sum, not one per term
(Montgomery 1987). A scan of consecutive n passes the exact tail of the sum
from its first n (``tail``), so each n adds only the terms below that first
n mod m. The tests check both sides against exact rationals.
Verification uses modulus w_n^2 directly rather than per-prime-power moduli:
by the Chinese remainder theorem the two forms are equivalent, and this
avoids factoring w_n.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .arith import gcd, is_prime, mod_inverse
from .errors import DegenerateSequence, InvalidArgument, NotInvertible
from .lucas import LucasParams, LucasTable, _table_for, lucas_table, rank_of_apparition
from .primitive import primitive_part

__all__ = ["CongruenceReport", "Status", "lucas_harmonic_sum_mod",
           "wolstenholme_rhs_mod", "verify_theorem",
           "verify_corollary_fib", "verify_kimball_webb", "verify_wolstenholme"]

FIBONACCI = LucasParams(1, -1)


class Status(Enum):
    """Verdict of one congruence verification."""

    HOLDS = "holds"                    # the residues agree
    TRIVIAL = "trivial"                # w_n = 1: holds vacuously
    FAILS = "fails"                    # the residues differ
    DEGENERATE = "degenerate"          # a zero term leaves the statement undefined
    NOT_APPLICABLE = "not-applicable"  # a premise (e.g. the Kimball-Webb rank) fails
    ERROR = "error"                    # no residue pair can be formed; see ``error``


# Reading an Enum member off its class costs ~0.1 us, about ten times a
# module global, and the report properties run for every record of a scan.
HOLDS, TRIVIAL, FAILS, DEGENERATE, NOT_APPLICABLE, ERROR = Status


class CongruenceReport(namedtuple(
        "CongruenceReport", "a b n w modulus lhs_residue rhs_residue status "
        "rank_used in_hypothesis error", defaults=(None, True, None))):
    """Outcome of one congruence verification.

    Residues are canonical (in [0, modulus)). ``status`` is the verdict and
    ``holds``, ``trivial``, ``degenerate`` and ``applicable`` are read from
    it. ``in_hypothesis`` is False when the parameters lie outside the
    statement's hypothesis (n < 5, p < 5), whatever the status. ``error``
    carries the NotInvertible message of an ERROR report. ``a`` and ``b``
    are None for the classical Wolstenholme check; ``rank_used`` is set by
    the rank-based checks.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.status is HOLDS or self.status is TRIVIAL

    @property
    def trivial(self) -> bool:
        return self.status is TRIVIAL

    @property
    def degenerate(self) -> bool:
        return self.status is DEGENERATE

    @property
    def applicable(self) -> bool:
        return self.status is not NOT_APPLICABLE


def lucas_harmonic_sum_mod(params: LucasParams, n: int, m: int,
                           table: LucasTable | None = None,
                           tail: tuple[int, int, int] | None = None) -> int:
    """sum_{j=1}^{n-1} v_j * u_j^{-1} reduced mod m.

    Every u_j (1 <= j < n) must be a unit mod m; this is guaranteed when m
    is a power of w_n. The sum is carried as num/den and inverted once; only
    when den is not a unit is the first u_j that is not one looked for.
    ``tail = (k, num, den)`` gives the terms k <= j < n exactly, with den =
    prod u_j, so only the terms j < k are added mod m.
    """
    if m < 1:
        raise InvalidArgument(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 0
    _, u, v = _table_for(params, n, table)
    k, num, den = tail or (n, 0, 1)
    num, den = num % m, den % m
    for j in range(1, k):
        num, den = (num * u[j] + v[j] * den) % m, den * u[j] % m
    try:
        return num * mod_inverse(den, m) % m
    except NotInvertible:
        j = next(j for j in range(1, n) if gcd(u[j], m) != 1)
    if u[j] == 0:
        raise DegenerateSequence(f"u_{j} = 0: the harmonic sum is undefined")
    raise NotInvertible(f"u_{j} = {u[j]} shares a factor with modulus {m}")


def wolstenholme_rhs_mod(params: LucasParams, n: int, m: int,
                         table: LucasTable | None = None) -> int:
    """(n^2 - 1) * delta * u_n * (6 * v_n)^{-1} reduced mod m."""
    if m < 1:
        raise InvalidArgument(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 0
    table = _table_for(params, n, table)
    vn = table.v[n]
    inv = mod_inverse(6 * vn % m, m)
    return (n * n - 1) * params.delta * table.u[n] * inv % m


def verify_theorem(params: LucasParams, n: int, table: LucasTable | None = None,
                   tail: tuple[int, int, int] | None = None) -> CongruenceReport:
    """Verify the harmonic congruence mod w_n^2 for one parameter triple.

    n < 5 is permitted for exploration; the report flags it as outside the
    n >= 5 hypothesis rather than erroring. All failure modes are encoded
    in the report. ``tail`` is passed on to ``lucas_harmonic_sum_mod``.
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    table = _table_for(params, n, table)
    common = dict(a=params.a, b=params.b, n=n, in_hypothesis=n >= 5)
    if table.u[n] == 0:
        return CongruenceReport(w=0, modulus=0, lhs_residue=None, rhs_residue=None,
                                status=DEGENERATE, **common)
    w = primitive_part(params, n, table).w
    if w == 1:
        return CongruenceReport(w=1, modulus=1, lhs_residue=0, rhs_residue=0,
                                status=TRIVIAL, **common)
    modulus = w * w
    try:
        lhs = lucas_harmonic_sum_mod(params, n, modulus, table, tail)
        rhs = wolstenholme_rhs_mod(params, n, modulus, table)
    except NotInvertible as exc:
        return CongruenceReport(w=w, modulus=modulus, lhs_residue=None,
                                rhs_residue=None, status=ERROR,
                                error=f"NotInvertible: {exc}", **common)
    return CongruenceReport(w=w, modulus=modulus, lhs_residue=lhs, rhs_residue=rhs,
                            status=HOLDS if lhs == rhs else FAILS, **common)


def verify_corollary_fib(p: int) -> CongruenceReport:
    """Fibonacci specialization: with n the rank of apparition of a prime
    p >= 5, check sum L_j/F_j == 5(n^2-1)/6 * F_n/L_n mod p^2."""
    if p < 5 or not is_prime(p):
        raise InvalidArgument(f"p must be a prime >= 5, got {p}")
    n = rank_of_apparition(FIBONACCI, p)
    if n is None:  # cannot happen: p never divides B = -1
        raise InvalidArgument(f"p={p} has no Fibonacci rank of apparition")
    table = lucas_table(FIBONACCI, n)
    modulus = p * p
    lhs = lucas_harmonic_sum_mod(FIBONACCI, n, modulus, table)
    rhs = wolstenholme_rhs_mod(FIBONACCI, n, modulus, table)
    w = primitive_part(FIBONACCI, n, table).w
    return CongruenceReport(a=1, b=-1, n=n, w=w, modulus=modulus,
                            lhs_residue=lhs, rhs_residue=rhs,
                            status=HOLDS if lhs == rhs else FAILS, rank_used=n)


def verify_kimball_webb(params: LucasParams, p: int) -> CongruenceReport:
    """Check sum_{j=1}^{r-1} v_j/u_j == 0 mod p^2, with r the rank of
    apparition, under the premise delta = 0 or r = p +- 1.

    When the premise fails (or no rank exists) the report is marked
    not-applicable instead of asserting anything.
    """
    if p < 5 or not is_prime(p):
        raise InvalidArgument(f"p must be a prime >= 5, got {p}")
    r = rank_of_apparition(params, p)
    modulus = p * p
    common = dict(a=params.a, b=params.b, w=p, modulus=modulus, rank_used=r)
    if r is None or not (params.delta == 0 or r == p - 1 or r == p + 1):
        return CongruenceReport(n=r if r is not None else 0, lhs_residue=None,
                                rhs_residue=None, status=NOT_APPLICABLE,
                                **common)
    table = lucas_table(params, r)
    lhs = lucas_harmonic_sum_mod(params, r, modulus, table)
    return CongruenceReport(n=r, lhs_residue=lhs, rhs_residue=0,
                            status=HOLDS if lhs == 0 else FAILS, **common)


def verify_wolstenholme(p: int) -> CongruenceReport:
    """Classical harmonic-number check: p^2 divides the reduced numerator
    of H_{p-1} = sum_{j<p} 1/j.

    H_{p-1} = N/(p-1)! is summed as one fraction with N and (p-1)! mod p^2.
    Reducing it divides N by a factor of (p-1)!, a unit mod p, so p^2 | N
    exactly when p^2 divides the reduced numerator. Only when it does not,
    as for every p < 5, is the exact sum needed for the numerator's residue.
    Primes below 5 are outside the hypothesis; they produce honest
    non-holding reports (H_2 = 3/2 is not divisible by 9).
    """
    if p < 2 or not is_prime(p):
        raise InvalidArgument(f"p must be prime, got {p}")
    modulus = p * p
    num, den = 0, 1  # H_{j-1} = num/den with den = (j-1)!, both mod p^2
    for j in range(1, p):
        num, den = (num * j + den) % modulus, den * j % modulus
    lhs = 0
    if num:
        from fractions import Fraction
        h = sum((Fraction(1, j) for j in range(1, p)), Fraction(0))
        lhs = h.numerator % modulus
    return CongruenceReport(a=None, b=None, n=p, w=p, modulus=modulus,
                            lhs_residue=lhs, rhs_residue=0,
                            status=HOLDS if lhs == 0 else FAILS, in_hypothesis=p >= 5)
