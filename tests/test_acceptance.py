"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All checks are exact (integer / rational); there are no tolerances.
"""

import random
from fractions import Fraction
from math import gcd

from lucascong.arith import is_prime
from lucascong.congruence import (lucas_harmonic_sum_mod, verify_corollary_fib,
                                  verify_kimball_webb, verify_theorem,
                                  verify_wolstenholme, wolstenholme_rhs_mod)
from lucascong.lucas import LucasParams, lucas_table
from lucascong.primitive import primitive_part
from lucascong.qpoly import IntPoly, cyclotomic_poly, q_certificate, verify_q_prime
from oracles import exact_sides, homogeneous_cyclotomic, monomial, rational_mod

FIB = LucasParams(1, -1)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_theorem_sweep():
    """A, B in [-8, 8] nonzero, n in [5, 120]: zero violations, >= 500
    nontrivial holds."""
    violations = nontrivial = 0
    for a in range(-8, 9):
        if a == 0:
            continue
        for b in range(-8, 9):
            if b == 0:
                continue
            params = LucasParams(a, b)
            table = lucas_table(params, 120)
            for n in range(5, 121):
                r = verify_theorem(params, n, table)
                if r.degenerate:
                    continue
                if not r.holds:
                    violations += 1
                elif not r.trivial:
                    nontrivial += 1
    _report("criterion 1: theorem sweep", violations == 0 and nontrivial >= 500,
            f"violations={violations}, nontrivial holds={nontrivial}")


def test_criterion_2_fibonacci_spot_checks():
    r7 = verify_theorem(FIB, 7)
    r5 = verify_theorem(FIB, 5)
    ok = (r7.lhs_residue == r7.rhs_residue == 117 and r7.modulus == 169
          and r5.lhs_residue == r5.rhs_residue == 0 and r5.modulus == 25)
    l7, h7 = exact_sides(FIB, 7)
    l5, h5 = exact_sides(FIB, 5)
    ok = ok and (l7, h7) == (Fraction(767, 60), Fraction(520, 29))
    ok = ok and (l5, h5) == (Fraction(25, 3), Fraction(100, 11))
    # exact-sides oracle matches the modular path bit-for-bit
    ok = ok and r7.lhs_residue == rational_mod(l7, 169)
    ok = ok and r7.rhs_residue == rational_mod(h7, 169)
    ok = ok and r5.lhs_residue == rational_mod(l5, 25)
    ok = ok and r5.rhs_residue == rational_mod(h5, 25)
    _report("criterion 2: Fibonacci spot checks", ok)


def test_criterion_3_corollary():
    ok = True
    detail = ""
    for p in [q for q in range(5, 98) if is_prime(q)]:
        r = verify_corollary_fib(p)
        ok = ok and r.holds
        if p == 7:
            ok = ok and r.n == 8 and r.lhs_residue == r.rhs_residue == 0
            detail = f"p=7: n={r.n}, residues {r.lhs_residue}/{r.rhs_residue} mod 49"
    _report("criterion 3: Fibonacci corollary mod p^2", ok, detail)


def test_criterion_4_kimball_webb():
    checked = violations = 0
    for a in range(-5, 6):
        if a == 0:
            continue
        for b in range(-5, 6):
            if b == 0:
                continue
            params = LucasParams(a, b)
            for p in [q for q in range(5, 51) if is_prime(q)]:
                r = verify_kimball_webb(params, p)
                if not r.applicable:
                    continue
                checked += 1
                if not r.holds:
                    violations += 1
    _report("criterion 4: Kimball-Webb sweep", violations == 0 and checked > 0,
            f"applicable cases={checked}, violations={violations}")


def test_criterion_5_wolstenholme():
    ok = all(verify_wolstenholme(p).holds
             for p in range(5, 98) if is_prime(p))
    h4 = sum((Fraction(1, j) for j in range(1, 5)), Fraction(0))
    ok = ok and h4.numerator == 25
    ok = ok and not verify_wolstenholme(3).holds  # outside hypothesis
    _report("criterion 5: classical Wolstenholme", ok)


def test_criterion_6_q_certificates():
    ok = True
    for n in range(1, 65):
        q_certificate(n)  # raises CongruenceFails on any nonzero remainder
    ok = ok and q_certificate(2) == IntPoly([9, -3])
    ok = ok and q_certificate(3) == IntPoly([16, -8])
    primes = [p for p in range(5, 32) if is_prime(p)]
    ok = ok and all(verify_q_prime(p) for p in primes)
    _report("criterion 6: q-certificates", ok,
            f"n in [1, 64]; verify_q_prime on {primes}")


def test_criterion_7_structural_invariants():
    failures = []
    # cyclotomic factorization of q^n - 1
    for n in range(1, 129):
        prod = IntPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        if prod != monomial(n) - IntPoly([1]):
            failures.append(("cyclotomic", n))
    grid = [LucasParams(a, b)
            for a in (-3, -1, 1, 2, 3) for b in (-3, -2, -1, 1, 2, 3)]
    for params in grid:
        table = lucas_table(params, 200)
        bn = 1
        for n in range(0, 201):
            if table.v[n] ** 2 - params.delta * table.u[n] ** 2 != 4 * bn:
                failures.append(("norm", params, n))
            bn *= params.b
        for n in range(2, 201):
            if any(table.u[j] == 0 for j in range(1, n + 1)):
                continue
            prod = 1
            for d in range(2, n + 1):
                if n % d == 0:
                    prod *= homogeneous_cyclotomic(params, d, table)
            if prod != table.u[n]:
                failures.append(("product", params, n))
            w = primitive_part(params, n, table).w
            if homogeneous_cyclotomic(params, n, table) % w != 0:
                failures.append(("divides", params, n))
            if n >= 5 and gcd(w, 6 * params.b * table.v[n]) != 1:
                failures.append(("coprime", params, n))
    _report("criterion 7: structural invariants", not failures,
            f"failures={failures[:5]}")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(20250824)
    checked = 0
    while checked < 1000:
        a = rng.choice([x for x in range(-8, 9) if x])
        b = rng.choice([x for x in range(-8, 9) if x])
        n = rng.randint(2, 40)
        m = rng.randint(2, 10**9)
        params = LucasParams(a, b)
        table = lucas_table(params, n)
        if any(table.u[j] == 0 for j in range(1, n)) or table.v[n] == 0:
            continue
        if any(gcd(table.u[j], m) != 1 for j in range(1, n)):
            continue
        if gcd(6 * table.v[n], m) != 1:
            continue
        lhs, rhs = exact_sides(params, n, table)
        assert lucas_harmonic_sum_mod(params, n, m, table) == rational_mod(lhs, m)
        assert wolstenholme_rhs_mod(params, n, m, table) == rational_mod(rhs, m)
        checked += 1
    _report("criterion 8: oracle equivalence", checked == 1000,
            f"{checked} randomized triples")
