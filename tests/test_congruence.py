import random
from fractions import Fraction
from math import gcd

import pytest

from lucascong.arith import is_prime
from lucascong.congruence import (Status, lucas_harmonic_sum_mod,
                                  verify_corollary_fib, verify_kimball_webb,
                                  verify_theorem, verify_wolstenholme,
                                  wolstenholme_rhs_mod)
from lucascong.errors import (DegenerateSequence, InvalidArgument,
                              NotInvertible)
from lucascong.lucas import LucasParams, lucas_table, rank_of_apparition
from lucascong.primitive import primitive_part
from oracles import exact_sides, rational_mod

FIB = LucasParams(1, -1)
DEG = LucasParams(2, 1)  # delta = 0, u_n = n, v_n = 2


class TestHarmonicSum:
    def test_examples(self):
        assert lucas_harmonic_sum_mod(FIB, 7, 169) == 117
        assert lucas_harmonic_sum_mod(FIB, 5, 25) == 0
        assert lucas_harmonic_sum_mod(DEG, 5, 25) == 0

    def test_trivial_modulus(self):
        assert lucas_harmonic_sum_mod(FIB, 7, 1) == 0

    def test_names_offending_index(self):
        with pytest.raises(NotInvertible, match="u_3"):
            lucas_harmonic_sum_mod(FIB, 5, 4)  # u_3 = 2 shares a factor with 4

    def test_degenerate(self):
        with pytest.raises(DegenerateSequence):
            lucas_harmonic_sum_mod(LucasParams(2, 2), 5, 9)


class TestRhs:
    def test_examples(self):
        assert wolstenholme_rhs_mod(FIB, 7, 169) == 117
        assert wolstenholme_rhs_mod(DEG, 5, 25) == 0
        assert wolstenholme_rhs_mod(FIB, 5, 25) == 0

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            wolstenholme_rhs_mod(FIB, 7, 6)  # 6 not invertible mod 6


class TestExactSides:
    def test_fibonacci(self):
        assert exact_sides(FIB, 7) == (Fraction(767, 60), Fraction(520, 29))
        assert exact_sides(FIB, 5) == (Fraction(25, 3), Fraction(100, 11))

    def test_delta_zero(self):
        assert exact_sides(DEG, 5) == (Fraction(25, 6), Fraction(0))

    def test_degenerate(self):
        with pytest.raises(DegenerateSequence):
            exact_sides(LucasParams(2, 2), 5)


class TestVerifyTheorem:
    def test_fibonacci_7(self):
        r = verify_theorem(FIB, 7)
        assert r.holds and r.modulus == 169
        assert r.lhs_residue == r.rhs_residue == 117
        assert not r.trivial and r.in_hypothesis

    def test_trivial(self):
        r = verify_theorem(FIB, 6)
        assert r.holds and r.trivial and r.modulus == 1

    def test_delta_zero(self):
        r = verify_theorem(DEG, 5)
        assert r.holds and r.modulus == 25
        assert r.lhs_residue == r.rhs_residue == 0

    def test_degenerate(self):
        r = verify_theorem(LucasParams(2, 2), 4)
        assert r.degenerate and not r.holds

    def test_out_of_hypothesis_flag(self):
        assert not verify_theorem(FIB, 4).in_hypothesis

    def test_rejects_n_zero(self):
        with pytest.raises(InvalidArgument):
            verify_theorem(FIB, 0)

    def test_deterministic(self):
        assert verify_theorem(FIB, 30) == verify_theorem(FIB, 30)

    def test_modular_path_matches_exact_oracle(self, small_grid):
        for params in small_grid:
            t = lucas_table(params, 40)
            for n in range(5, 41):
                r = verify_theorem(params, n, t)
                if r.trivial or r.degenerate or r.error:
                    continue
                lhs, rhs = exact_sides(params, n, t)
                assert r.lhs_residue == rational_mod(lhs, r.modulus)
                assert r.rhs_residue == rational_mod(rhs, r.modulus)


class TestScope:
    """The n >= 5 hypothesis only makes w_n odd (n > 3) and prime to 3
    (n > 4); README "Scope and errata" has the counts."""

    def test_n_3_and_4_hold_when_w_is_prime_to_6(self):
        nontrivial = 0
        for a in range(-20, 21):
            for b in range(-20, 21):
                if not a or not b:
                    continue
                params = LucasParams(a, b)
                t = lucas_table(params, 4)
                for n in (3, 4):
                    r = verify_theorem(params, n, t)
                    assert r.status is not Status.FAILS, (a, b, n)
                    if r.degenerate or gcd(r.w, 6) != 1:
                        continue
                    assert r.holds and not r.in_hypothesis, (a, b, n)
                    nontrivial += not r.trivial
        assert nontrivial == 834 + 1098

    def test_erratum_w3_not_prime_to_v3(self):
        # the claim (w_n, v_n) = 1 for n >= 3 fails at n = 3, where w_3 may
        # be even; then 6 v_3 is no unit mod w_3^2 and the report is ERROR
        params = LucasParams(-3, -3)
        t = lucas_table(params, 3)
        assert primitive_part(params, 3, t).w == 4 and t.v[3] == -54
        assert gcd(4, -54) == 2
        r = verify_theorem(params, 3, t)
        assert r.status is Status.ERROR and r.modulus == 16


class TestCorollaryFib:
    def test_p13(self):
        r = verify_corollary_fib(13)
        assert r.n == 7 and r.modulus == 169
        assert r.lhs_residue == r.rhs_residue == 117 and r.holds

    def test_p5(self):
        r = verify_corollary_fib(5)
        assert r.n == 5 and r.modulus == 25
        assert r.lhs_residue == r.rhs_residue == 0 and r.holds

    def test_p7(self):
        r = verify_corollary_fib(7)
        assert r.n == 8 and r.modulus == 49
        assert r.lhs_residue == r.rhs_residue == 0 and r.holds
        # exact sides 11711/780 and 2205/94, both numerators divisible by 49
        lhs, rhs = exact_sides(FIB, 8)
        assert lhs == Fraction(11711, 780) and rhs == Fraction(2205, 94)
        assert lhs.numerator % 49 == 0 and rhs.numerator % 49 == 0

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidArgument):
            verify_corollary_fib(3)
        with pytest.raises(InvalidArgument):
            verify_corollary_fib(9)

    def test_agrees_with_theorem_mod_p2(self):
        # the theorem mod w_n^2 implies the corollary mod p^2 when p | w_n
        for p in [q for q in range(5, 98) if is_prime(q)]:
            rc = verify_corollary_fib(p)
            rt = verify_theorem(FIB, rc.n)
            assert rc.holds and rt.holds
            assert rt.w % p == 0
            assert rt.lhs_residue % (p * p) == rc.lhs_residue
            assert rt.rhs_residue % (p * p) == rc.rhs_residue


class TestKimballWebb:
    def test_delta_zero_premise(self):
        r = verify_kimball_webb(DEG, 5)
        assert r.applicable and r.rank_used == 5 and r.holds

    def test_rank_plus_one_premise(self):
        r = verify_kimball_webb(FIB, 7)
        assert r.applicable and r.rank_used == 8
        assert r.lhs_residue == 0 and r.holds

    def test_not_applicable(self):
        r = verify_kimball_webb(FIB, 5)  # r = 5, neither delta = 0 nor p +- 1
        assert not r.applicable

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidArgument):
            verify_kimball_webb(FIB, 4)

    def test_agrees_with_theorem_at_rank(self):
        for params in [LucasParams(a, b)
                       for a in range(-4, 5) if a
                       for b in range(-4, 5) if b]:
            for p in (5, 7, 11, 13):
                r = verify_kimball_webb(params, p)
                if not r.applicable:
                    continue
                assert r.holds, (params, p)
                rt = verify_theorem(params, r.rank_used)
                if rt.trivial or rt.degenerate:
                    continue
                if rt.w % p == 0:
                    assert rt.lhs_residue % (p * p) == 0


class TestWolstenholme:
    def test_p5(self):
        r = verify_wolstenholme(5)
        assert r.holds
        h4 = sum((Fraction(1, j) for j in range(1, 5)), Fraction(0))
        assert h4 == Fraction(25, 12)

    def test_p7(self):
        assert verify_wolstenholme(7).holds
        h6 = sum((Fraction(1, j) for j in range(1, 7)), Fraction(0))
        assert h6 == Fraction(49, 20)

    def test_p3_fails_outside_hypothesis(self):
        r = verify_wolstenholme(3)
        assert not r.holds and not r.in_hypothesis

    def test_rejects_composite(self):
        with pytest.raises(InvalidArgument):
            verify_wolstenholme(15)

    def test_matches_exact_numerator(self):
        # the residue summed mod p^2 is the reduced numerator of the exact
        # H_{p-1}, also below the hypothesis (H_1 = 1, H_2 = 3/2)
        for p in [2, 3] + [q for q in range(5, 500) if is_prime(q)]:
            h = sum((Fraction(1, j) for j in range(1, p)), Fraction(0))
            r = verify_wolstenholme(p)
            assert r.lhs_residue == h.numerator % (p * p), p
            assert r.holds == (p >= 5) == r.in_hypothesis, p
        assert verify_wolstenholme(2).lhs_residue == 1
        assert verify_wolstenholme(3).lhs_residue == 3


class TestOracleAgreement:
    def test_randomized_triples(self):
        rng = random.Random(987123)
        checked = 0
        while checked < 300:
            a = rng.choice([x for x in range(-8, 9) if x])
            b = rng.choice([x for x in range(-8, 9) if x])
            n = rng.randint(2, 30)
            m = rng.randint(2, 10**6)
            params = LucasParams(a, b)
            t = lucas_table(params, n)
            if any(t.u[j] == 0 for j in range(1, n)) or t.v[n] == 0:
                continue
            if any(gcd(t.u[j], m) != 1 for j in range(1, n)):
                continue
            lhs, rhs = exact_sides(params, n, t)
            assert lucas_harmonic_sum_mod(params, n, m, t) == rational_mod(lhs, m)
            if gcd(6 * t.v[n], m) == 1:
                assert wolstenholme_rhs_mod(params, n, m, t) == rational_mod(rhs, m)
            checked += 1
