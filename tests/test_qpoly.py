import pytest
from hypothesis import given, settings, strategies as st

from lucascong.arith import euler_phi, is_prime
from lucascong.errors import DivisionByZeroPoly, InvalidArgument
from lucascong.qpoly import (IntPoly, _cleared_coeffs, cleared_congruence_poly,
                             cyclotomic_poly, monomial, poly_divmod,
                             q_certificate, q_integer_poly, verify_q_prime)
from oracles import derivative, evaluate


def reference_cofactor_sum(n, shifted):
    """Slow reference builder: (sum_j c_j * prod_{k != j} [k]_q, prod_j [j]_q)
    over j, k in 1 .. n-1 from dense prefix x suffix IntPoly products, with
    c_j = 1 + q^j if shifted else 1. O(n^5) coefficient products."""
    one = IntPoly([1])
    qints = [q_integer_poly(j) for j in range(1, n)]
    prefix = [one]
    for p in qints:
        prefix.append(prefix[-1] * p)
    suffix = [one]
    for p in reversed(qints):
        suffix.append(suffix[-1] * p)
    suffix.reverse()
    s = IntPoly()
    for i, j in enumerate(range(1, n)):
        c = one + monomial(j) if shifted else one
        s = s + c * (prefix[i] * suffix[i + 1])
    return s, prefix[-1]


def reference_cleared(n):
    """cleared_congruence_poly(n), built the slow way."""
    s, total = reference_cofactor_sum(n, shifted=True)
    return 12 * s - (n * n - 1) * IntPoly([1, -1]) * (1 - monomial(n)) * total


def reference_q_prime_cleared(p):
    """The polynomial verify_q_prime divides by [p]_q^2, built the slow way."""
    s, total = reference_cofactor_sum(p, shifted=False)
    one_minus_q = IntPoly([1, -1])
    rhs = (12 * (p - 1) * one_minus_q
           + (p * p - 1) * one_minus_q * one_minus_q * q_integer_poly(p))
    return 24 * s - rhs * total


class TestIntPoly:
    def test_canonical_form(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()
        assert IntPoly().degree == -1
        assert IntPoly([5]).degree == 0

    def test_arithmetic(self):
        p = IntPoly([1, 1])
        assert p + p == IntPoly([2, 2])
        assert p - p == IntPoly()
        assert p * p == IntPoly([1, 2, 1])
        assert 3 * p == IntPoly([3, 3])
        assert p ** 3 == IntPoly([1, 3, 3, 1])
        assert -p == IntPoly([-1, -1])

    def test_evaluate_and_derivative(self):
        p = IntPoly([1, 2, 3])  # 1 + 2q + 3q^2
        assert evaluate(p, 2) == 17
        assert derivative(p) == IntPoly([2, 6])
        assert derivative(IntPoly([7])).is_zero()

    def test_immutable_and_hashable(self):
        p = IntPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()
        assert hash(p) == hash(IntPoly([1, 2]))


class TestQInteger:
    def test_examples(self):
        assert q_integer_poly(3) == IntPoly([1, 1, 1])
        assert q_integer_poly(1) == IntPoly([1])
        assert q_integer_poly(0).is_zero()

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgument):
            q_integer_poly(-1)

    def test_geometric_identity(self):
        # (1 - q) * [n]_q = 1 - q^n
        for n in range(0, 30):
            lhs = (IntPoly([1, -1])) * q_integer_poly(n)
            assert lhs == IntPoly([1]) - monomial(n)


class TestCyclotomic:
    def test_examples(self):
        assert cyclotomic_poly(1) == IntPoly([-1, 1])
        assert cyclotomic_poly(6) == IntPoly([1, -1, 1])
        assert cyclotomic_poly(12) == IntPoly([1, 0, -1, 0, 1])

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgument):
            cyclotomic_poly(0)

    def test_product_is_qn_minus_1(self):
        for n in range(1, 129):
            prod = IntPoly([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_poly(d)
            assert prod == monomial(n) - IntPoly([1]), n

    def test_degree_and_monic(self):
        for n in range(1, 129):
            phi = cyclotomic_poly(n)
            assert phi.degree == euler_phi(n)
            if n >= 2:
                assert phi.coeffs[-1] == 1

    def test_prime_index_is_q_integer(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert cyclotomic_poly(p) == q_integer_poly(p)


class TestDivMod:
    def test_examples(self):
        q, r = poly_divmod(IntPoly([-1, 0, 1]), IntPoly([-1, 1]))
        assert q == IntPoly([1, 1]) and r.is_zero()
        q, r = poly_divmod(IntPoly([9, 15, 3, -3]), IntPoly([1, 2, 1]))
        assert q == IntPoly([9, -3]) and r.is_zero()
        q, r = poly_divmod(monomial(3), monomial(2))
        assert q == IntPoly([0, 1]) and r.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroPoly):
            poly_divmod(IntPoly([1]), IntPoly())

    def test_short_dividend(self):
        q, r = poly_divmod(IntPoly([3, 1]), IntPoly([0, 0, 1]))
        assert q.is_zero() and r == IntPoly([3, 1])

    @settings(max_examples=200)
    @given(st.lists(st.integers(-50, 50), max_size=12),
           st.lists(st.integers(-10, 10), max_size=6))
    def test_round_trip_monic(self, a_coeffs, b_coeffs):
        a = IntPoly(a_coeffs)
        b = IntPoly(b_coeffs + [1])  # force monic
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


class TestClearedCongruence:
    def test_hand_expansions(self):
        assert cleared_congruence_poly(2) == IntPoly([9, 15, 3, -3])
        assert cleared_congruence_poly(1).is_zero()
        assert cleared_congruence_poly(3) == IntPoly([16, 24, 32, 8, 0, -8])

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgument):
            cleared_congruence_poly(0)

    def test_matches_reference_builder(self):
        for n in range(1, 41):
            assert cleared_congruence_poly(n) == reference_cleared(n), n

    def test_unshifted_cofactor_sum_matches_reference(self):
        # the c_j = 1 form behind verify_q_prime, bare and with its weights
        for n in range(1, 32):
            s, _ = reference_cofactor_sum(n, shifted=False)
            assert IntPoly(_cleared_coeffs(n, 1, False, 0, 0)) == s, n
            k = n * n - 1
            kernel = _cleared_coeffs(n, 24, False, 12 * (n - 1) + k, k)
            assert IntPoly(kernel) == reference_q_prime_cleared(n), n

    def test_vanishes_to_second_order_at_primitive_roots(self):
        # divisible by Phi_n twice: once for the polynomial, once for its
        # formal derivative -- checked algebraically, never numerically
        for n in range(2, 25):
            lhs = cleared_congruence_poly(n)
            phi = cyclotomic_poly(n)
            _, r1 = poly_divmod(lhs, phi)
            assert r1.is_zero(), n
            _, r2 = poly_divmod(derivative(lhs), phi)
            assert r2.is_zero(), n


class TestCertificate:
    def test_hand_values(self):
        assert q_certificate(2) == IntPoly([9, -3])
        assert q_certificate(3) == IntPoly([16, -8])
        assert q_certificate(1).is_zero()

    @staticmethod
    def check_certificates(ns):
        for n in ns:
            g = q_certificate(n)  # raises CongruenceFails on any remainder
            # specializing q -> 1 must reproduce the integer identity
            lhs = cleared_congruence_poly(n)
            phi_at_1 = evaluate(cyclotomic_poly(n), 1)
            assert evaluate(lhs, 1) == evaluate(g, 1) * phi_at_1 ** 2, n

    def test_all_small_n(self):
        self.check_certificates(range(1, 65))

    def test_n_65_to_80(self):
        self.check_certificates(range(65, 81))

    def test_check_is_discriminating(self):
        # the wrong modulus leaves a nonzero remainder, so a genuine
        # counterexample could not slip through the divisibility check
        _, rem = poly_divmod(cleared_congruence_poly(2),
                             cyclotomic_poly(3) ** 2)
        assert not rem.is_zero()


class TestQPrime:
    def test_examples(self):
        assert verify_q_prime(5)
        assert verify_q_prime(7)
        assert verify_q_prime(13)

    def test_all_primes_to_31(self):
        for p in range(5, 32):
            if is_prime(p):
                assert verify_q_prime(p), p

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgument):
            verify_q_prime(4)
        with pytest.raises(InvalidArgument):
            verify_q_prime(3)
