from math import gcd

import pytest

from lucascong.errors import DegenerateSequence, InvalidArgument
from lucascong.lucas import LucasParams, lucas_table
from lucascong.primitive import primitive_part
from oracles import coprimality_report, homogeneous_cyclotomic, primitive_part_by_strip

FIB = LucasParams(1, -1)


class TestPrimitivePart:
    def test_fibonacci_examples(self):
        assert primitive_part(FIB, 7).w == 13
        assert primitive_part(FIB, 6).w == 1
        assert primitive_part(FIB, 6).trivial
        assert primitive_part(FIB, 10).w == 11

    def test_degenerate(self):
        with pytest.raises(DegenerateSequence):
            primitive_part(LucasParams(2, 2), 4)  # u_4 = 0

    def test_zero_earlier_term_forces_one(self):
        # u_4 = 0 for (2, 2), so every later primitive part collapses to 1
        assert primitive_part(LucasParams(2, 2), 5).w == 1

    def test_zero_terms_only_at_orders_3_4_6(self):
        # u_j = 0 exactly when alpha/beta is a root of unity of order 3, 4
        # or 6, that is A^2 = B, 2B or 3B, so primitive_part looks at u_1..u_6
        for a in range(-20, 21):
            for b in range(-20, 21):
                if a and b:
                    u = lucas_table(LucasParams(a, b), 60).u
                    first = next((j for j in range(1, 61) if u[j] == 0), None)
                    order = {b: 3, 2 * b: 4, 3 * b: 6}.get(a * a)
                    assert first == order, (a, b)

    def test_rejects_n_zero(self):
        with pytest.raises(InvalidArgument):
            primitive_part(FIB, 0)

    def test_strip_rule_traps(self):
        # gcd(A, B) = 20: its primes reach u_3 = 420 through u_2 = -20, not
        # through a prime of n; stripping only the primes of n would keep 420
        p = LucasParams(-20, -20)
        assert lucas_table(p, 3).u[3] == 420
        assert primitive_part(p, 3).w == 21 == primitive_part_by_strip(p, 3)
        # a prime of n that no earlier term has stays: F_5 = 5
        assert primitive_part(FIB, 5).w == 5
        # F_12 = 144: 2 | F_3 = F_{12/2/2} and 3 | F_4 = F_{12/3}
        assert primitive_part(FIB, 12).w == 1
        # delta = 0: u_n = n, so w_n = n at a prime and 1 at a prime power
        # or a product of two primes
        deg = LucasParams(2, 1)
        assert [primitive_part(deg, n).w for n in (2, 5, 7, 9, 12, 97)] == [2, 5, 7, 1, 1, 97]

    def test_definition_brute_force(self, small_grid):
        # every divisor of |u_n| coprime to all earlier terms divides w_n
        for params in small_grid:
            t = lucas_table(params, 12)
            for n in range(1, 13):
                if t.u[n] == 0 or abs(t.u[n]) > 10**6:
                    continue
                w = primitive_part(params, n, t).w
                un = abs(t.u[n])
                earlier = [t.u[j] for j in range(1, n)]
                for d in range(1, un + 1):
                    if un % d:
                        continue
                    if all(gcd(d, uj) == 1 for uj in earlier):
                        assert w % d == 0, (params, n, d)
                assert un % w == 0
                assert all(gcd(w, uj) == 1 for uj in earlier)

    def test_stripping_idempotent(self, small_grid):
        for params in small_grid:
            t = lucas_table(params, 60)
            for n in range(1, 61):
                if t.u[n] == 0:
                    continue
                w = primitive_part(params, n, t).w
                for j in range(1, n):
                    if t.u[j] != 0:
                        assert gcd(w, t.u[j]) == 1


class TestHomogeneousCyclotomic:
    def test_fibonacci_examples(self):
        assert homogeneous_cyclotomic(FIB, 6) == 4   # A^2 - 3B
        assert homogeneous_cyclotomic(FIB, 7) == 13  # prime index: u_7
        assert homogeneous_cyclotomic(FIB, 12) == 6  # 144 / (1*2*3*4)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidArgument):
            homogeneous_cyclotomic(FIB, 1)

    def test_degenerate(self):
        with pytest.raises(DegenerateSequence):
            homogeneous_cyclotomic(LucasParams(2, 2), 8)

    def test_product_formula(self, small_grid):
        # u_n = prod over divisors d > 1 of Phi_d(alpha, beta)
        for params in small_grid:
            t = lucas_table(params, 80)
            for n in range(2, 81):
                if any(t.u[j] == 0 for j in range(1, n + 1)):
                    continue
                prod = 1
                for d in range(2, n + 1):
                    if n % d == 0:
                        prod *= homogeneous_cyclotomic(params, d, t)
                assert prod == t.u[n], (params, n)

    def test_primitive_part_divides(self, small_grid):
        for params in small_grid:
            t = lucas_table(params, 80)
            for n in range(2, 81):
                if any(t.u[j] == 0 for j in range(1, n + 1)):
                    continue
                w = primitive_part(params, n, t).w
                assert homogeneous_cyclotomic(params, n, t) % w == 0


class TestCoprimality:
    def test_examples(self):
        assert coprimality_report(FIB, 7).all_coprime
        assert coprimality_report(FIB, 6).all_coprime  # w = 1
        assert coprimality_report(LucasParams(2, 1), 5).all_coprime

    def test_claimed_ranges(self, small_grid):
        for params in small_grid:
            t = lucas_table(params, 60)
            for n in range(1, 61):
                if t.u[n] == 0:
                    continue
                rep = coprimality_report(params, n, t)
                if n > 3:
                    assert rep.coprime_to_2, (params, n)
                if n > 4:
                    assert rep.coprime_to_3, (params, n)
                if n >= 3:
                    assert rep.coprime_to_b, (params, n)
                # coprimality to v_n rests on w_n being odd, so it can fail
                # at n = 3 where w_3 may be even: (A, B) = (-3, -3) has
                # w_3 = 4 and v_3 = -54
                if n >= 4:
                    assert rep.coprime_to_v, (params, n)
