"""The per-cell theorem kernel against its slow reference paths.

``primitive_part`` strips u_n against omega(n) + 1 earlier terms and
``lucas_harmonic_sum_mod`` takes one inverse per sum; the oracles strip
against every earlier term and take one inverse per term. A scan cell
passes the sum the exact tail from its first n; the references are the
sums without one.
"""

import pytest
from hypothesis import given, settings, strategies as st

import lucascong.congruence as congruence
from lucascong.cli import _scan_cell
from lucascong.congruence import lucas_harmonic_sum_mod, verify_theorem
from lucascong.errors import DegenerateSequence, NotInvertible
from lucascong.lucas import LucasParams, lucas_table
from lucascong.primitive import primitive_part
from conftest import params_grid
from oracles import harmonic_sum_per_term, primitive_part_by_strip

FIB = LucasParams(1, -1)


def outcome(fn, *args):
    """fn's value, or its exception's type and message."""
    try:
        return fn(*args)
    except (DegenerateSequence, NotInvertible) as exc:
        return type(exc).__name__, str(exc)


def exact_tail(t, k, n):
    """(k, num, den) with num/den = sum_{k <= j < n} v_j/u_j, den = prod u_j."""
    num, den = 0, 1
    for j in range(k, n):
        num, den = num * t.u[j] + t.v[j] * den, den * t.u[j]
    return k, num, den


def test_w_matches_strip_oracle():
    for params in params_grid(6):
        t = lucas_table(params, 120)
        for n in range(1, 121):
            if t.u[n]:
                assert primitive_part(params, n, t).w == primitive_part_by_strip(params, n, t), \
                    (params, n)


def test_sum_matches_per_term_oracle():
    # at the theorem's modulus w_n^2 every earlier u_j is a unit; at u_n^2,
    # for n <= 30, most sums fail and the messages are compared
    errors = 0
    for params in params_grid(4):
        t = lucas_table(params, 120)
        for n in range(1, 121):
            if not t.u[n]:
                continue
            moduli = [primitive_part(params, n, t).w ** 2] + [t.u[n] ** 2] * (n <= 30)
            for m in moduli:
                got = outcome(lucas_harmonic_sum_mod, params, n, m, t)
                assert got == outcome(harmonic_sum_per_term, params, n, m, t), (params, n, m)
                errors += isinstance(got, tuple)
    assert errors > 1000


@settings(max_examples=40, deadline=None)
@given(a=st.integers(-10**6, 10**6).filter(bool), b=st.integers(-10**6, 10**6).filter(bool),
       n=st.integers(1, 60), data=st.data())
def test_kernel_matches_oracles_on_large_parameters(a, b, n, data):
    params = LucasParams(a, b)
    t = lucas_table(params, n)
    if not t.u[n]:
        return
    w = primitive_part(params, n, t).w
    assert w == primitive_part_by_strip(params, n, t)
    tail = exact_tail(t, data.draw(st.integers(1, n)), n)
    for m in (w * w, t.u[n] ** 2):
        want = outcome(harmonic_sum_per_term, params, n, m, t)
        assert outcome(lucas_harmonic_sum_mod, params, n, m, t) == want, m
        assert outcome(lucas_harmonic_sum_mod, params, n, m, t, tail) == want, (tail[0], m)


def test_scan_cell_matches_sums_without_tail():
    cells = [(p.a, p.b, lo, hi) for p in params_grid(4)
             for lo, hi in ((1, 60), (40, 45), (90, 90))]
    for cell in cells + [(-8, -8, 1, 6), (2, 2, 1, 12)]:  # error cell; u_4 = 0
        a, b, lo, hi = cell
        params = LucasParams(a, b)
        t = lucas_table(params, hi)
        assert _scan_cell(cell) == [verify_theorem(params, n, t)
                                    for n in range(lo, hi + 1)], cell


def test_scan_cell_passes_tail_from_first_n(monkeypatch):
    real, tails = congruence.lucas_harmonic_sum_mod, []

    def spy(params, n, m, table=None, tail=None):
        tails.append(tail[0])
        return real(params, n, m, table, tail)
    monkeypatch.setattr(congruence, "lucas_harmonic_sum_mod", spy)
    for a, b, lo, hi in [(1, -1, 5, 40), (3, 2, 7, 30), (-2, 3, 12, 12)]:
        del tails[:]
        _scan_cell((a, b, lo, hi))
        assert tails and set(tails) == {lo}, (a, b)


class TestOneInverse:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = congruence.mod_inverse

        def counted(a, m):
            seen.append((a, m))
            return real(a, m)

        monkeypatch.setattr(congruence, "mod_inverse", counted)
        return seen

    def test_one_call_per_sum(self, calls):
        t = lucas_table(FIB, 60)
        for n in range(2, 61):
            w = primitive_part(FIB, n, t).w
            if w == 1:
                continue
            del calls[:]
            lucas_harmonic_sum_mod(FIB, n, w * w, t)
            assert len(calls) == 1, n

    def test_one_call_per_sum_with_tail(self, calls):
        t = lucas_table(FIB, 60)
        for n in range(12, 61):
            w = primitive_part(FIB, n, t).w
            if w == 1:
                continue
            del calls[:]
            lucas_harmonic_sum_mod(FIB, n, w * w, t, exact_tail(t, 10, n))
            assert len(calls) == 1, n

    def test_names_offending_index(self, calls):
        with pytest.raises(NotInvertible, match=r"^u_3 = 2 shares a factor with modulus 4$"):
            lucas_harmonic_sum_mod(FIB, 5, 4)
        assert len(calls) == 1

    def test_names_first_of_several(self, calls):
        # mod 6: u_3 = 2, u_4 = 3 and u_6 = 8 all share a factor; u_3 is named
        with pytest.raises(NotInvertible, match=r"^u_3 = 2 shares a factor with modulus 6$"):
            lucas_harmonic_sum_mod(FIB, 8, 6)
        # a zero after a non-unit: the non-unit comes first, as per term
        with pytest.raises(NotInvertible, match=r"^u_2 = 2 "):
            lucas_harmonic_sum_mod(LucasParams(2, 2), 6, 4)  # u_4 = 0
        with pytest.raises(DegenerateSequence, match=r"^u_4 = 0"):
            lucas_harmonic_sum_mod(LucasParams(2, 2), 6, 9)
