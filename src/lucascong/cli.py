"""Command-line front end: single verifications, parameter-space scans, and
q-congruence checks, emitting machine-readable report lines.

Output is one record per line (JSON by default, flat CSV with ``--csv``)
with the fixed field order A, B, n, w, modulus, lhs, rhs, holds, trivial,
degenerate, kind. Integers are rendered as decimal strings so arbitrary
precision survives any downstream parser. Each record comes from one report
status, which fixes its verdict fields and, for ``verify``, ``fib``, ``kw``
and ``wolstenholme``, the exit code:

    status          holds  trivial  degenerate  extra field          exit
    holds           true   false    false                            0
    trivial         true   true     false                            0
    fails           false  false    false                            1
    not-applicable  false  false    false       "applicable": false  0
    degenerate      false  false    true                             2
    error           false  false    false       "error": message     2

``scan`` streams its records cell by cell in canonical (A, B, n) order, then
writes a summary record (to stderr with ``--csv``) with the keys total (all
records), holds (holds or trivial), trivial, degenerate and violations
(status fails inside the n >= 5 hypothesis). It exits 1 when there is a
violation, else 0. Usage, I/O and invalid-argument errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack

from .congruence import (FAILS, CongruenceReport, Status, verify_corollary_fib,
                         verify_kimball_webb, verify_theorem,
                         verify_wolstenholme)
from .errors import CongruenceFails, DegenerateSequence, InvalidArgument
from .lucas import LucasParams, lucas_table, rank_of_apparition
from .primitive import primitive_part
from .qpoly import q_certificate

FIELDS = ("A", "B", "n", "w", "modulus", "lhs", "rhs",
          "holds", "trivial", "degenerate", "kind")
CSV_HEADER = ",".join(FIELDS) + "\n"
EXIT_CODES = {Status.HOLDS: 0, Status.TRIVIAL: 0, Status.NOT_APPLICABLE: 0,
              Status.FAILS: 1, Status.DEGENERATE: 2, Status.ERROR: 2}


def _s(x):
    """Integers become decimal strings; None stays None."""
    return None if x is None else str(x)


def report_record(report: CongruenceReport, kind: str) -> dict:
    rec = {
        "A": _s(report.a),
        "B": _s(report.b),
        "n": _s(report.n),
        "w": _s(report.w),
        "modulus": _s(report.modulus),
        "lhs": _s(report.lhs_residue),
        "rhs": _s(report.rhs_residue),
        "holds": report.holds,
        "trivial": report.trivial,
        "degenerate": report.degenerate,
        "kind": kind,
    }
    if report.rank_used is not None:
        rec["rank"] = _s(report.rank_used)
    if not report.applicable:
        rec["applicable"] = False
    if report.error is not None:
        rec["error"] = report.error
    return rec


def _render(rec: dict, csv_mode: bool) -> str:
    if not csv_mode:
        return json.dumps(rec)
    cells = []
    for f in FIELDS:
        v = rec.get(f)
        if v is None:
            cells.append("")
        elif isinstance(v, bool):
            cells.append("true" if v else "false")
        else:
            cells.append(str(v))
    return ",".join(cells)


def _stream(fh, batches, kind: str, csv_mode: bool) -> Counter:
    """Write each batch of reports as it arrives and return the summary
    counts: total, holds, trivial, degenerate, violations, in that order."""
    if csv_mode:
        fh.write(CSV_HEADER)
    counts = Counter()
    for reports in batches:
        for r in reports:
            counts["total"] += 1
            counts["holds"] += r.holds
            counts["trivial"] += r.trivial
            counts["degenerate"] += r.degenerate
            counts["violations"] += r.status is FAILS and r.in_hypothesis
        fh.write("".join(_render(report_record(r, kind), csv_mode) + "\n"
                         for r in reports))
    return counts


def _params(args) -> LucasParams:
    return LucasParams(args.A, args.B)


# --- subcommand implementations -------------------------------------------

def cmd_report(args) -> int:
    """verify, fib, kw and wolstenholme: one report, one record."""
    report = args.verifier(args)
    _stream(sys.stdout, [[report]], args.kind, args.csv)
    return EXIT_CODES[report.status]


def ProcessPoolExecutor(max_workers):
    """The process pool, imported on first use: only ``scan --jobs`` > 1 needs
    it, and the import costs more than the rest of the CLI's start-up.
    ``cmd_scan`` looks this name up at call time, so it can be replaced."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _scan_cell(cell) -> list[CongruenceReport]:
    a, b, n_min, n_max = cell
    params = LucasParams(a, b)
    table = lucas_table(params, n_max)
    return [verify_theorem(params, n, table) for n in range(n_min, n_max + 1)]


def cmd_scan(args) -> int:
    if args.jobs < 1:
        raise InvalidArgument(f"--jobs must be >= 1, got {args.jobs}")
    if args.a_min > args.a_max or args.b_min > args.b_max:
        raise InvalidArgument("empty A or B range")
    if args.n_min > args.n_max or args.n_min < 1:
        raise InvalidArgument("n range must be nonempty with n-min >= 1")
    cells = [(a, b, args.n_min, args.n_max)
             for a in range(args.a_min, args.a_max + 1) if a != 0
             for b in range(args.b_min, args.b_max + 1) if b != 0]
    if not cells:
        raise InvalidArgument("A and B ranges contain only zero")
    jobs = min(args.jobs, os.cpu_count() or 1)
    with ExitStack() as stack:
        fh = (stack.enter_context(open(args.out, "w", encoding="utf-8"))
              if args.out else sys.stdout)
        if jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            per_cell = pool.map(_scan_cell, cells, chunksize=4)
        else:
            per_cell = map(_scan_cell, cells)
        # cells are in canonical order and map keeps it: no sort is needed
        counts = _stream(fh, per_cell, "theorem", args.csv)
        print(json.dumps({"kind": "summary", **counts}),
              file=sys.stderr if args.csv else fh)
    return 1 if counts["violations"] else 0


def cmd_wn(args) -> int:
    print(primitive_part(_params(args), args.n).w)
    return 0


def cmd_rank(args) -> int:
    r = rank_of_apparition(_params(args), args.p)
    print("none" if r is None else r)
    return 0


def cmd_qcheck(args) -> int:
    try:
        g = q_certificate(args.n)
    except CongruenceFails as exc:
        print(f"nonzero remainder: {list(exc.remainder.coeffs)}", file=sys.stderr)
        return 1
    print(json.dumps([str(c) for c in g.coeffs]))
    return 0


def cmd_qscan(args) -> int:
    if args.n_max < 1:
        raise InvalidArgument("n-max must be >= 1")
    failures = 0
    for n in range(1, args.n_max + 1):
        try:
            g = q_certificate(n)
            rec = {"kind": "q", "n": str(n), "holds": True,
                   "g": [str(c) for c in g.coeffs]}
        except CongruenceFails as exc:
            failures += 1
            rec = {"kind": "q", "n": str(n), "holds": False,
                   "remainder": [str(c) for c in exc.remainder.coeffs]}
        print(json.dumps(rec))
    print(json.dumps({"kind": "summary", "total": args.n_max,
                      "failures": failures}))
    return 0 if failures == 0 else 1


# --- argument parsing ------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once on first use; importing the module stays cheap."""
    parser = argparse.ArgumentParser(
        prog="lucascong",
        description="Verify Wolstenholme-type congruences for Lucas sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ab(p):
        p.add_argument("--A", type=int, required=True, help="coefficient A (nonzero)")
        p.add_argument("--B", type=int, required=True, help="coefficient B (nonzero)")

    def add_csv(p):
        p.add_argument("--csv", action="store_true",
                       help="flat CSV output instead of JSON lines")

    def add_report(p, kind, verifier):
        add_csv(p)
        p.set_defaults(func=cmd_report, kind=kind, verifier=verifier)

    p = sub.add_parser("verify", help="verify the congruence mod w_n^2")
    add_ab(p)
    p.add_argument("--n", type=int, required=True)
    add_report(p, "theorem", lambda a: verify_theorem(_params(a), a.n))

    p = sub.add_parser("scan", help="sweep a parameter box and report violations")
    p.add_argument("--a-min", type=int, required=True)
    p.add_argument("--a-max", type=int, required=True)
    p.add_argument("--b-min", type=int, required=True)
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", type=str, default=None, help="write records to file")
    add_csv(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("wn", help="primitive part w_n of u_n")
    add_ab(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_wn)

    p = sub.add_parser("rank", help="rank of apparition of a prime")
    add_ab(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("fib", help="Fibonacci corollary mod p^2")
    p.add_argument("--p", type=int, required=True)
    add_report(p, "corollary", lambda a: verify_corollary_fib(a.p))

    p = sub.add_parser("kw", help="Kimball-Webb congruence mod p^2")
    add_ab(p)
    p.add_argument("--p", type=int, required=True)
    add_report(p, "kimball-webb", lambda a: verify_kimball_webb(_params(a), a.p))

    p = sub.add_parser("wolstenholme", help="classical harmonic congruence mod p^2")
    p.add_argument("--p", type=int, required=True)
    add_report(p, "wolstenholme", lambda a: verify_wolstenholme(a.p))

    p = sub.add_parser("qcheck", help="q-congruence certificate G(q) for one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_qcheck)

    p = sub.add_parser("qscan", help="q-certificates for all n up to a bound")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_qscan)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgument, DegenerateSequence, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
