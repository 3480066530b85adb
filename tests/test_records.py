"""The record types: construction, validation, immutability, equality and
pickling, which the process pool of ``scan --jobs`` depends on."""

import pickle

import pytest

from lucascong.congruence import CongruenceReport, Status
from lucascong.errors import InvalidArgument
from lucascong.lucas import LucasParams, LucasTable, lucas_table
from lucascong.primitive import PrimitivePart

FIB = LucasParams(1, -1)


def report(**changes):
    fields = dict(a=1, b=-1, n=7, w=13, modulus=169, lhs_residue=117,
                  rhs_residue=117, status=Status.HOLDS)
    return CongruenceReport(**{**fields, **changes})


class TestLucasParams:
    def test_keyword_construction(self):
        p = LucasParams(b=-1, a=1)
        assert (p.a, p.b) == (1, -1) and p == FIB
        assert p.delta == 5

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (0, 0)])
    def test_rejects_zero(self, a, b):
        with pytest.raises(InvalidArgument):
            LucasParams(a, b)
        with pytest.raises(InvalidArgument):
            LucasParams(a=a, b=b)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            FIB.a = 2
        with pytest.raises(AttributeError):
            FIB.c = 2

    def test_equality_and_hash(self):
        assert LucasParams(1, -1) == FIB and hash(LucasParams(1, -1)) == hash(FIB)
        assert LucasParams(1, 1) != FIB
        assert len({LucasParams(1, -1), FIB, LucasParams(2, 1)}) == 2

    def test_pickle_round_trip(self):
        p = pickle.loads(pickle.dumps(LucasParams(-3, 7)))
        assert p == LucasParams(-3, 7) and type(p) is LucasParams

    def test_repr(self):
        assert repr(FIB) == "LucasParams(a=1, b=-1)"


class TestLucasTable:
    def test_keyword_construction(self):
        t = LucasTable(params=FIB, u=[0, 1, 1], v=[2, 1, 3])
        assert t == lucas_table(FIB, 2) and t.n == 2

    def test_repr_omits_terms(self):
        assert repr(lucas_table(FIB, 40)) == "LucasTable(params=LucasParams(a=1, b=-1))"

    def test_immutable(self):
        t = lucas_table(FIB, 3)
        with pytest.raises(AttributeError):
            t.u = []
        with pytest.raises(AttributeError):
            t.w = []

    def test_equality_and_hash(self):
        assert lucas_table(FIB, 5) == lucas_table(FIB, 5)
        assert lucas_table(FIB, 5) != lucas_table(FIB, 6)
        with pytest.raises(TypeError):  # the term lists are mutable
            hash(lucas_table(FIB, 5))

    def test_pickle_round_trip(self):
        t = lucas_table(LucasParams(3, -2), 30)
        assert pickle.loads(pickle.dumps(t)) == t


class TestPrimitivePart:
    def test_keyword_construction(self):
        w = PrimitivePart(n=7, w=13, trivial=False)
        assert w == PrimitivePart(7, 13, False)
        assert (w.n, w.w, w.trivial) == (7, 13, False)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PrimitivePart(7, 13, False).w = 1

    def test_equality_and_hash(self):
        assert hash(PrimitivePart(6, 1, True)) == hash(PrimitivePart(6, 1, True))
        assert PrimitivePart(6, 1, True) != PrimitivePart(7, 13, False)

    def test_pickle_round_trip(self):
        w = PrimitivePart(10, 11, False)
        assert pickle.loads(pickle.dumps(w)) == w


class TestCongruenceReport:
    def test_defaults(self):
        r = report()
        assert (r.rank_used, r.in_hypothesis, r.error) == (None, True, None)
        assert r == CongruenceReport(1, -1, 7, 13, 169, 117, 117, Status.HOLDS)

    def test_keyword_construction(self):
        r = report(status=Status.ERROR, lhs_residue=None, rhs_residue=None,
                   rank_used=8, in_hypothesis=False, error="NotInvertible: x")
        assert (r.rank_used, r.in_hypothesis, r.error) == (8, False, "NotInvertible: x")
        assert r.status is Status.ERROR and r.lhs_residue is None

    @pytest.mark.parametrize("status, holds, trivial, degenerate, applicable", [
        (Status.HOLDS, True, False, False, True),
        (Status.TRIVIAL, True, True, False, True),
        (Status.FAILS, False, False, False, True),
        (Status.DEGENERATE, False, False, True, True),
        (Status.NOT_APPLICABLE, False, False, False, False),
        (Status.ERROR, False, False, False, True),
    ])
    def test_verdict_properties(self, status, holds, trivial, degenerate, applicable):
        r = report(status=status)
        assert (r.holds, r.trivial, r.degenerate, r.applicable) == (
            holds, trivial, degenerate, applicable)

    def test_immutable(self):
        r = report()
        with pytest.raises(AttributeError):
            r.status = Status.FAILS
        with pytest.raises(AttributeError):
            r.note = "x"

    def test_equality_and_hash(self):
        assert report() == report() and hash(report()) == hash(report())
        assert report() != report(rhs_residue=116)
        assert report() != report(in_hypothesis=False)

    def test_pickle_round_trip(self):
        for r in (report(), report(status=Status.ERROR, error="NotInvertible: x"),
                  report(a=None, b=None, rank_used=8)):
            back = pickle.loads(pickle.dumps(r))
            assert back == r and back.status is r.status
