from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from lucascong.arith import divisors, euler_phi, is_prime, jacobi, mod_inverse
from lucascong.errors import InvalidArgument, InvalidModulus, NotInvertible
from oracles import rational_mod


def test_gcd_basics():
    assert gcd(8, 2) == 2
    assert gcd(0, 5) == 5
    assert gcd(-12, 18) == 6
    assert gcd(0, 0) == 0


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(60, 169) == 31
        assert 60 * 31 == 11 * 169 + 1
        assert mod_inverse(3, 25) == 17
        assert 3 * 17 == 2 * 25 + 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inverse(2, 4)

    def test_trivial_modulus(self):
        assert mod_inverse(7, 1) == 0
        assert mod_inverse(0, 1) == 0

    def test_bad_modulus(self):
        with pytest.raises(InvalidModulus):
            mod_inverse(3, 0)

    @given(st.integers(-10**6, 10**6), st.integers(2, 10**6))
    def test_inverse_property(self, a, m):
        if gcd(a, m) != 1:
            with pytest.raises(NotInvertible):
                mod_inverse(a, m)
        else:
            x = mod_inverse(a, m)
            assert 0 <= x < m
            assert a * x % m == 1


class TestRationalMod:
    def test_examples(self):
        assert rational_mod(Fraction(25, 3), 25) == 0
        assert rational_mod(Fraction(1, 1), 7) == 1
        assert rational_mod(Fraction(767, 60), 169) == 117

    def test_shared_factor(self):
        with pytest.raises(NotInvertible):
            rational_mod(Fraction(1, 6), 9)

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=10**3),
           st.fractions(min_value=-100, max_value=100, max_denominator=10**3),
           st.integers(2, 10**4))
    def test_ring_homomorphism(self, r, s, m):
        if gcd(r.denominator, m) != 1 or gcd(s.denominator, m) != 1:
            return
        lhs = rational_mod(r + s, m)
        rhs = (rational_mod(r, m) + rational_mod(s, m)) % m
        assert lhs == rhs


class TestJacobi:
    def test_examples(self):
        assert jacobi(5, 13) == -1
        assert jacobi(5, 11) == 1
        assert jacobi(5, 5) == 0

    def test_even_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            jacobi(3, 8)
        with pytest.raises(InvalidModulus):
            jacobi(3, -5)

    def test_matches_quadratic_residue_scan(self):
        # brute-force oracle over every odd prime below 100
        for p in [q for q in range(3, 100) if is_prime(q)]:
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a % p == 0 else (1 if a in squares else -1)
                assert jacobi(a, p) == expected, (a, p)


class TestDivisorsPhi:
    def test_examples(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert euler_phi(12) == 4
        assert euler_phi(1) == 1
        assert divisors(1) == [1]

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument):
            divisors(0)
        with pytest.raises(InvalidArgument):
            euler_phi(-3)

    def test_totient_sum(self):
        for n in range(1, 501):
            assert sum(euler_phi(d) for d in divisors(n)) == n


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert [p for p in range(2, 50) if is_prime(p)] == primes
    assert not is_prime(1)
    assert not is_prime(-7)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
