"""Independent recomputation of what lucascong prints.

Nothing here imports lucascong: the sequences, primitive parts, residues,
ranks and cyclotomic values are recomputed from their definitions, so a
fault shared by the program and this checker would have to be made twice.
Every check raises CheckError with a message naming the offending record.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod


class CheckError(Exception):
    """A program output disagrees with the recomputation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# --- Lucas sequences ---------------------------------------------------------

def lucas_uv(a: int, b: int, n: int) -> tuple[list[int], list[int]]:
    """u_0..u_n and v_0..v_n from the recurrence x_k = a x_{k-1} - b x_{k-2}."""
    u, v = [0, 1], [2, a]
    for _ in range(n - 1):
        u.append(a * u[-1] - b * u[-2])
        v.append(a * v[-1] - b * v[-2])
    return u[:n + 1], v[:n + 1]


def primitive_part_def(u: list[int], n: int) -> int:
    """Largest divisor of u_n coprime to every earlier term.

    Strips from |u_n| every prime of M = prod_{j<n} gcd(u_n, u_j); a zero
    earlier term puts u_n itself into M and leaves 1.
    """
    w = abs(u[n])
    m = prod(gcd(w, u[j]) for j in range(1, n))
    g = gcd(w, m)
    while g > 1:
        w //= g
        g = gcd(w, g)
    return w


def frac_mod(r: Fraction, m: int) -> int:
    """Residue of a reduced fraction mod m; its denominator must be a unit."""
    if m == 1:
        return 0
    try:
        return r.numerator * pow(r.denominator, -1, m) % m
    except ValueError:
        raise CheckError(f"denominator {r.denominator} is not a unit mod {m}") from None


@lru_cache(maxsize=None)
def rank_mod(a: int, b: int, p: int) -> int | None:
    """Least r >= 1 with p | u_r, by stepping the recurrence mod p."""
    prev, cur = 0, 1
    for r in range(1, p + 2):
        if cur == 0:
            return r
        prev, cur = cur, (a * cur - b * prev) % p
    return None


def harmonic_mod(a: int, b: int, n: int, m: int) -> int:
    """sum_{j<n} v_j/u_j mod m, carried as one fraction N/D and inverted once."""
    num, den = 0, 1
    u0, u1, v0, v1 = 0, 1, 2, a
    for _ in range(1, n):
        num, den = (num * u1 + v1 * den) % m, den * u1 % m
        u0, u1, v0, v1 = u1, (a * u1 - b * u0) % m, v1, (a * v1 - b * v0) % m
    try:
        return num * pow(den, -1, m) % m
    except ValueError:
        raise CheckError(f"a term u_j, j < {n}, is not a unit mod {m}") from None


# --- theorem records ---------------------------------------------------------

def theorem_record(rec: dict) -> tuple:
    """(A, B, n, w, modulus, lhs, rhs, holds, trivial, degenerate) from a JSON
    record, integers parsed, null kept as None."""
    require(rec.get("kind") == "theorem", f"not a theorem record: {rec}")
    require("error" not in rec, f"error record: {rec}")
    ints = [None if rec[k] is None else int(rec[k])
            for k in ("A", "B", "n", "w", "modulus", "lhs", "rhs")]
    return (*ints, rec["holds"], rec["trivial"], rec["degenerate"])


def theorem_csv_record(line: str) -> tuple:
    """The same tuple from one CSV line; an empty cell is None."""
    cells = line.split(",")
    require(len(cells) == 11 and cells[10] == "theorem", f"bad CSV record: {line}")
    ints = [int(c) if c else None for c in cells[:7]]
    flags = []
    for c in cells[7:10]:
        require(c in ("true", "false"), f"bad flag in CSV record: {line}")
        flags.append(c == "true")
    return (*ints, *flags)


def check_theorem(rec: tuple, a: int, b: int, n: int, u: list[int]) -> None:
    """Properties every theorem record must have, given the checker's u."""
    A, B, N, w, mod, lhs, rhs, holds, trivial, degen = rec
    where = f"record (A, B, n) = ({A}, {B}, {N})"
    require((A, B, N) == (a, b, n), f"{where} out of order; expected ({a}, {b}, {n})")
    if u[n] == 0:
        require(degen and not holds and not trivial and w == 0 and mod == 0
                and lhs is None and rhs is None, f"{where}: u_n = 0 not reported degenerate")
        return
    require(not degen, f"{where}: marked degenerate but u_n != 0")
    require(w is not None and w >= 1 and u[n] % w == 0, f"{where}: w = {w} does not divide u_n")
    require(mod == w * w, f"{where}: modulus {mod} != w^2")
    require(trivial == (w == 1), f"{where}: trivial flag disagrees with w = {w}")
    require(lhs is not None and rhs is not None and 0 <= lhs < mod and 0 <= rhs < mod,
            f"{where}: residues missing or out of range")
    require(lhs == rhs and holds, f"{where}: congruence reported as {lhs} vs {rhs}, holds={holds}")


def check_theorem_exact(rec: tuple, a: int, b: int, u: list[int], v: list[int]) -> None:
    """Recompute w_n from the definition and both sides as exact fractions."""
    A, B, n, w, mod, lhs, rhs = rec[:7]
    where = f"record (A, B, n) = ({A}, {B}, {n})"
    w_def = primitive_part_def(u, n)
    require(w == w_def, f"{where}: w = {w}, definition gives {w_def}")
    if w_def == 1:
        return
    m = w_def * w_def
    require(v[n] != 0, f"{where}: v_n = 0 with nontrivial w")
    exact_lhs = sum((Fraction(v[j], u[j]) for j in range(1, n)), Fraction(0))
    exact_rhs = Fraction((n * n - 1) * (a * a - 4 * b) * u[n], 6 * v[n])
    el, er = frac_mod(exact_lhs, m), frac_mod(exact_rhs, m)
    require(el == er == lhs == rhs,
            f"{where}: exact sides give {el}, {er}; record has {lhs}, {rhs}")


def check_summary(summary: dict, records: list[tuple]) -> None:
    """The scan summary counts what the records say, with no violations."""
    require(summary.get("kind") == "summary", f"missing summary line: {summary}")
    degen = sum(r[9] for r in records)
    expect = {"total": len(records), "holds": len(records) - degen,
              "trivial": sum(r[8] for r in records), "degenerate": degen,
              "violations": 0}
    got = {k: summary.get(k) for k in expect}
    require(got == expect, f"summary {got} != expected {expect}")


# --- q-certificates ----------------------------------------------------------

def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def cyclotomic_at(n: int, x: int) -> int:
    """Phi_n(x) = prod_{d|n} (x^d - 1)^mu(n/d), for |x| >= 2."""
    num = den = 1
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            num *= x ** d - 1
        elif mu == -1:
            den *= x ** d - 1
    q, r = divmod(num, den)
    require(r == 0, f"Phi_{n}({x}) is not an integer: checker fault")
    return q


def cleared_at(n: int, x: int) -> int:
    """C_n(x) = 12 sum_j (1 + x^j) prod_{k != j} [k]_x
    - (n^2 - 1)(1 - x)(1 - x^n) prod_j [j]_x, j and k over 1..n-1."""
    qint = [(x ** k - 1) // (x - 1) for k in range(1, n)]
    total = prod(qint)
    s = sum((1 + x ** j) * (total // qj) for j, qj in enumerate(qint, start=1))
    return 12 * s - (n * n - 1) * (1 - x) * (1 - x ** n) * total


def check_certificate(n: int, coeffs: list[int], points: list[int]) -> None:
    """G(q), given by its coefficients, satisfies G * Phi_n^2 = C_n."""
    if n == 1:
        require(coeffs == [], f"n = 1: C_1 = 0, so G must be 0, got {coeffs}")
        return
    deg_c = (n - 1) * (n - 2) // 2 + n + 1
    require(len(coeffs) - 1 == deg_c - 2 * totient(n),
            f"n = {n}: deg G = {len(coeffs) - 1}, expected {deg_c - 2 * totient(n)}")
    require(coeffs[-1] == -(n * n - 1), f"n = {n}: leading coefficient {coeffs[-1]}")
    for x in points:
        g = 0
        for c in reversed(coeffs):
            g = g * x + c
        require(g * cyclotomic_at(n, x) ** 2 == cleared_at(n, x),
                f"n = {n}: G({x}) * Phi_{n}({x})^2 != C_{n}({x})")


# --- single-prime commands ---------------------------------------------------

def _ints(rec: dict, *keys: str) -> list:
    return [None if rec.get(k) is None else int(rec[k]) for k in keys]


def check_fib(rec: dict, p: int, exact: bool) -> None:
    """Fibonacci corollary record for prime p: residues mod p^2 from the
    checker's own recurrence; with ``exact`` also w_n from the definition and
    both sides as exact fractions."""
    where = f"fib p={p}"
    r = rank_mod(1, -1, p)
    require(rec.get("kind") == "corollary" and (rec["A"], rec["B"]) == ("1", "-1"),
            f"{where}: wrong record {rec}")
    n, w, mod, lhs, rhs, rank = _ints(rec, "n", "w", "modulus", "lhs", "rhs", "rank")
    require(n == rank == r, f"{where}: rank {rank}, n {n}; the recurrence gives {r}")
    m = p * p
    require(mod == m, f"{where}: modulus {mod}")
    u, v = lucas_uv(1, -1, r)
    require(w is not None and w % p == 0 and u[r] % w == 0,
            f"{where}: w = {w} is not a divisor of F_{r} divisible by p")
    own_lhs = harmonic_mod(1, -1, r, m)
    own_rhs = 5 * (r * r - 1) * u[r] * pow(6 * v[r], -1, m) % m
    require(lhs == own_lhs and rhs == own_rhs and own_lhs == own_rhs and rec["holds"],
            f"{where}: residues {lhs}, {rhs}; recomputed {own_lhs}, {own_rhs}")
    require(not rec["trivial"] and not rec["degenerate"], f"{where}: wrong flags")
    if exact:
        require(w == primitive_part_def(u, r), f"{where}: w = {w} is not the primitive part")
        el = frac_mod(sum((Fraction(v[j], u[j]) for j in range(1, r)), Fraction(0)), m)
        er = frac_mod(Fraction(5 * (r * r - 1) * u[r], 6 * v[r]), m)
        require(el == lhs and er == rhs, f"{where}: exact sides give {el}, {er}")


def check_wolstenholme(rec: dict, p: int) -> None:
    """p^2 divides sum_{j<p} (p-1)!/j, so the numerator of H_{p-1} is 0 mod p^2."""
    where = f"wolstenholme p={p}"
    m = p * p
    suffix = [1] * (p + 1)              # suffix[j] = (j * (j+1) * ... * (p-1)) mod p^2
    for j in range(p - 1, 0, -1):
        suffix[j] = suffix[j + 1] * j % m
    total, prefix = 0, 1                # (p-1)!/j = (j-1)! * suffix[j+1], exactly, mod p^2
    for j in range(1, p):
        total += prefix * suffix[j + 1]
        prefix = prefix * j % m
    require(total % m == 0, f"{where}: p^2 does not divide the cleared harmonic sum")
    n, w, mod, lhs, rhs = _ints(rec, "n", "w", "modulus", "lhs", "rhs")
    require(rec.get("kind") == "wolstenholme" and (n, w, mod, lhs, rhs) == (p, p, p * p, 0, 0)
            and rec["holds"], f"{where}: wrong record {rec}")


def check_kw(rec: dict, a: int, b: int, p: int) -> None:
    """Kimball-Webb record: applicable exactly when delta = 0 or the rank is
    p +- 1, and then the harmonic sum up to the rank is 0 mod p^2."""
    where = f"kw (A, B) = ({a}, {b}) p={p}"
    r = rank_mod(a, b, p)
    applicable = r is not None and (a * a - 4 * b == 0 or r in (p - 1, p + 1))
    require(rec.get("kind") == "kimball-webb" and rec["A"] == str(a) and rec["B"] == str(b),
            f"{where}: wrong record {rec}")
    n, w, mod, lhs, rhs, rank = _ints(rec, "n", "w", "modulus", "lhs", "rhs", "rank")
    require(rank == r and w == p and mod == p * p, f"{where}: rank/w/modulus {rank}, {w}, {mod}")
    if not applicable:
        require(rec.get("applicable") is False and lhs is None and not rec["holds"],
                f"{where}: premise fails but record is {rec}")
        return
    own = harmonic_mod(a, b, r, p * p)
    require("applicable" not in rec and n == r and lhs == own == 0 and rhs == 0
            and rec["holds"], f"{where}: lhs {lhs}, recomputed {own}")
