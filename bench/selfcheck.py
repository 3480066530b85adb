"""Mutation check of the benchmark's output checker.

    PYTHONPATH=src python3 bench/selfcheck.py

Runs a few operations of every workload, confirms the checker accepts their
genuine output, then alters one residue, w, rank, certificate coefficient or
verdict at a time by one and confirms the checker rejects every altered
copy. Exits 1 if any genuine output is rejected or any alteration passes.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

from lucascong import cli

from workloads import WORKLOADS
from worker import run_op

SEED = 1
FIELDS = ("w", "lhs", "rhs", "rank")


def bump_json_lines(text: str, lines_to_bump) -> list[tuple[str, str]]:
    """Copies of JSON-lines text with one integer field of one line moved by +-1."""
    lines = text.splitlines()
    out = []
    for i in lines_to_bump:
        rec = json.loads(lines[i])
        for field in FIELDS:
            if isinstance(rec.get(field), str):
                for d in (1, -1):
                    altered = dict(rec, **{field: str(int(rec[field]) + d)})
                    copy = lines[:i] + [json.dumps(altered)] + lines[i + 1:]
                    out.append((f"line {i} {field}{d:+d}", "\n".join(copy) + "\n"))
    return out


def bump_csv_lines(text: str, lines_to_bump) -> list[tuple[str, str]]:
    """Copies of the scan CSV with w, lhs or rhs of one record moved by +1."""
    lines = text.splitlines()
    out = []
    for i in lines_to_bump:
        cells = lines[i].split(",")
        for col, field in ((3, "w"), (5, "lhs"), (6, "rhs")):
            if cells[col]:
                altered = cells[:col] + [str(int(cells[col]) + 1)] + cells[col + 1:]
                copy = lines[:i] + [",".join(altered)] + lines[i + 1:]
                out.append((f"line {i} {field}+1", "\n".join(copy) + "\n"))
    return out


def bump_coeffs(text: str) -> list[tuple[str, str]]:
    coeffs = json.loads(text)
    return [(f"coefficient {k}{d:+d}",
             json.dumps(coeffs[:k] + [str(int(c) + d)] + coeffs[k + 1:]) + "\n")
            for k, c in enumerate(coeffs) for d in (1, -1)]


def main() -> int:
    scratch = Path(__file__).resolve().parent.parent / ".bench_out" / "selfcheck"
    scratch.mkdir(parents=True, exist_ok=True)
    out_path = scratch / "out.csv"
    rng = random.Random(SEED)
    cases = []   # (op, [(label, altered Result)])
    ops = {op.key: op for name in WORKLOADS
           for op in WORKLOADS[name](SEED, str(out_path))}

    def genuine(key: str) -> tuple:
        op = ops[key]
        res, _ = run_op(cli, op, out_path)
        return op, res

    for key in ("box/1/-1", "box/1/1", "box/-4/3"):
        op, res = genuine(key)
        n_lines = len(res.out.splitlines()) - 1
        cases.append((op, res, [(label, replace(res, out=text)) for label, text
                                in bump_json_lines(res.out, range(n_lines))]))
    op, res = genuine("wide")
    picks = rng.sample(range(1, len(res.file.splitlines())), 6)
    cases.append((op, res, [(label, replace(res, file=text)) for label, text
                            in bump_csv_lines(res.file, picks)]))
    for n in (2, 7, 12, 20):
        op, res = genuine(f"qcheck/{n}")
        cases.append((op, res, [(label, replace(res, out=text))
                                for label, text in bump_coeffs(res.out)]))
    op, res = genuine("verify_q_prime/13")
    cases.append((op, res, [("verdict False", replace(res, rc=False))]))
    for key in ("fib/13", "fib/691", "wolstenholme/101", "kw/2/1/7", "kw/1/-1/7",
                "kw/1/-1/13"):
        op, res = genuine(key)
        cases.append((op, res, [(label, replace(res, out=text))
                                for label, text in bump_json_lines(res.out, [0])]))
    for p in (13, 1000003):
        op, res = genuine(f"rank/{p}")
        r = int(res.out)
        cases.append((op, res, [(f"rank{d:+d}", replace(res, out=f"{r + d}\n"))
                                for d in (1, -1)]))

    problems, altered = [], 0
    for op, res, mutants in cases:
        try:
            op.check(res)
        except Exception as exc:  # the worker counts any exception as a failed check
            problems.append(f"{op.key}: genuine output rejected: {exc!r}")
        for label, mutant in mutants:
            altered += 1
            try:
                op.check(mutant)
            except Exception:
                continue
            problems.append(f"{op.key}: {label} was accepted")
    out_path.unlink(missing_ok=True)
    for line in problems:
        print(line)
    print(f"{len(cases)} genuine outputs, {altered} altered copies, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
