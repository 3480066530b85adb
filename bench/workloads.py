"""The four workloads: which operations each runs and how each output is checked.

An operation is one ``lucascong.cli.run(argv)`` call or one library call.
The set of operations of a workload is fixed; the seed picks the order they
run in, the records recomputed exactly, and the points at which
q-certificates are evaluated. Runs on different seeds therefore do the same
work and check it differently.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import check
from check import require

# Sized for rounds of 1-3 s, so that a 20 s run samples every operation 7-20
# times and the median of its samples is steady (README.md).
THEOREM_BOX = (-4, 4, 5, 120)       # |A|, |B| <= 4, n 5..120: 64 cells, 7,424 records
THEOREM_WIDE = (-20, 20, 5, 24)     # |A|, |B| <= 20, n 5..24: 1,600 cells, 32,000 records
WIDE_SAMPLE = 256                   # records of theorem-wide recomputed exactly
QCERT_N = range(1, 37)              # the build is O(n^5): n 37..48 would take 5x as long
Q_PRIMES_BELOW = 32
PRIME_LIMIT = 700
FIB_EXACT_BELOW, FIB_EXACT_SAMPLE = 300, 8
BIG_RANK_PRIMES = 5                 # the first primes above 10^6, for rank's O(p) scan


@dataclass
class Result:
    """What one operation returned: exit code (or library return value),
    captured stdout and stderr, and the text of its --out file, if any."""
    rc: object
    out: str
    err: str
    file: str = ""


@dataclass
class Op:
    key: str
    records: int
    check: Callable[[Result], None]
    argv: list[str] | None = None
    lib: tuple[str, str, tuple] | None = None   # (module, function, args)
    parallel: bool = False                      # runs on several CPUs at once


def primes_below(limit: int, start: int = 2) -> list[int]:
    """Primes in [start, limit) by trial division; independent of lucascong."""
    return [p for p in range(max(start, 2), limit)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _cells(lo: int, hi: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(lo, hi + 1) if a != 0
            for b in range(lo, hi + 1) if b != 0]


def _scan_argv(a_lo, a_hi, b_lo, b_hi, n_lo, n_hi) -> list[str]:
    return ["scan", "--a-min", str(a_lo), "--a-max", str(a_hi),
            "--b-min", str(b_lo), "--b-max", str(b_hi),
            "--n-min", str(n_lo), "--n-max", str(n_hi)]


def _require_rc(res: Result) -> None:
    require(res.rc == 0, f"exit code {res.rc}; stderr: {res.err[-500:]}")


# --- theorem-box -------------------------------------------------------------

def theorem_box(seed: int, out_path: str) -> list[Op]:
    lo, hi, n_lo, n_hi = THEOREM_BOX

    def op(a: int, b: int) -> Op:
        def verify(res: Result) -> None:
            _require_rc(res)
            lines = res.out.splitlines()
            require(len(lines) == n_hi - n_lo + 2, f"cell ({a}, {b}): {len(lines)} lines")
            u, v = check.lucas_uv(a, b, n_hi)
            recs = [check.theorem_record(json.loads(line)) for line in lines[:-1]]
            for n, rec in zip(range(n_lo, n_hi + 1), recs):
                check.check_theorem(rec, a, b, n, u)
            check.check_summary(json.loads(lines[-1]), recs)
            # one record per cell, at a seeded n, recomputed from the definitions
            rec = recs[random.Random(f"{seed}/{a}/{b}").randrange(len(recs))]
            if not rec[9]:
                check.check_theorem_exact(rec, a, b, u, v)
        return Op(f"box/{a}/{b}", n_hi - n_lo + 1, verify,
                  argv=_scan_argv(a, a, b, b, n_lo, n_hi) + ["--jobs", "1"])

    return [op(a, b) for a, b in _cells(lo, hi)]


# --- theorem-wide ------------------------------------------------------------

def theorem_wide(seed: int, out_path: str) -> list[Op]:
    lo, hi, n_lo, n_hi = THEOREM_WIDE
    cells = _cells(lo, hi)
    ns = range(n_lo, n_hi + 1)
    total = len(cells) * len(ns)

    def verify(res: Result) -> None:
        _require_rc(res)
        require(res.out == "", "scan --out also wrote to stdout")
        lines = res.file.splitlines()
        require(len(lines) == total + 1 and lines[0] == "A,B,n,w,modulus,lhs,rhs,"
                "holds,trivial,degenerate,kind", f"{len(lines)} CSV lines or bad header")
        sample = set(random.Random(seed).sample(range(total), WIDE_SAMPLE))
        recs, i = [], 0
        for a, b in cells:
            u, v = check.lucas_uv(a, b, n_hi)
            for n in ns:
                rec = check.theorem_csv_record(lines[i + 1])
                check.check_theorem(rec, a, b, n, u)
                if i in sample and not rec[9]:
                    check.check_theorem_exact(rec, a, b, u, v)
                recs.append(rec)
                i += 1
        check.check_summary(json.loads(res.err.splitlines()[-1]), recs)

    argv = _scan_argv(lo, hi, lo, hi, n_lo, n_hi) + [
        "--jobs", "2", "--csv", "--out", out_path]
    return [Op("wide", total, verify, argv=argv, parallel=True)]


# --- qcert -------------------------------------------------------------------

def qcert(seed: int, out_path: str) -> list[Op]:
    def qcheck(n: int) -> Op:
        def verify(res: Result) -> None:
            _require_rc(res)
            coeffs = [int(c) for c in json.loads(res.out)]
            rng = random.Random(f"{seed}/q/{n}")
            points = [rng.randint(2, 10_000), rng.randint(2, 10_000), -rng.randint(2, 10_000)]
            check.check_certificate(n, coeffs, points)
        return Op(f"qcheck/{n}", 1, verify, argv=["qcheck", "--n", str(n)])

    def q_prime(p: int) -> Op:
        def verify(res: Result) -> None:
            require(res.rc is True, f"verify_q_prime({p}) returned {res.rc!r}")
        return Op(f"verify_q_prime/{p}", 1, verify, lib=("lucascong.qpoly", "verify_q_prime", (p,)))

    return [qcheck(n) for n in QCERT_N] + [q_prime(p) for p in primes_below(Q_PRIMES_BELOW, 5)]


# --- primes ------------------------------------------------------------------

def primes(seed: int, out_path: str) -> list[Op]:
    ps = primes_below(PRIME_LIMIT, 5)
    exact = set(random.Random(seed).sample(
        [p for p in ps if p < FIB_EXACT_BELOW], FIB_EXACT_SAMPLE))

    def single(key: str, argv: list[str], verify_record) -> Op:
        def verify(res: Result) -> None:
            _require_rc(res)
            lines = res.out.splitlines()
            require(len(lines) == 1, f"{key}: {len(lines)} output lines")
            verify_record(json.loads(lines[0]))
        return Op(key, 1, verify, argv=argv)

    def rank(p: int) -> Op:
        def verify(res: Result) -> None:
            _require_rc(res)
            r = check.rank_mod(1, -1, p)
            require(res.out.strip() == str(r), f"rank p={p}: printed {res.out.strip()}, loop gives {r}")
        return Op(f"rank/{p}", 1, verify, argv=["rank", "--A", "1", "--B", "-1", "--p", str(p)])

    ops = []
    for p in ps:
        sp = str(p)
        ops.append(single(f"fib/{p}", ["fib", "--p", sp],
                          lambda rec, p=p: check.check_fib(rec, p, p in exact)))
        ops.append(single(f"wolstenholme/{p}", ["wolstenholme", "--p", sp],
                          lambda rec, p=p: check.check_wolstenholme(rec, p)))
        for a, b in ((2, 1), (1, -1)):
            ops.append(single(f"kw/{a}/{b}/{p}", ["kw", "--A", str(a), "--B", str(b), "--p", sp],
                              lambda rec, a=a, b=b, p=p: check.check_kw(rec, a, b, p)))
        ops.append(rank(p))
    big = primes_below(10 ** 6 + 200, 10 ** 6)[:BIG_RANK_PRIMES]
    return ops + [rank(p) for p in big]


WORKLOADS = {"theorem-box": theorem_box, "theorem-wide": theorem_wide,
             "qcert": qcert, "primes": primes}

__all__ = ["WORKLOADS", "Op", "Result"]
