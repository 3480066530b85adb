"""Spans around the calls into each lucascong module, installed from outside.

``install`` replaces module attributes (and ``IntPoly.__mul__``) with timing
wrappers. A span is (id, parent, name, start, end, nested), where ``nested``
marks a span opened inside another of the same name, as in the recursion of
``cyclotomic_poly``. Calls made millions of times (``mod_inverse``, record
rendering) are leaves: their count and time are summed per parent span
instead of kept one by one. Spans stay in memory; a forked ``scan`` worker
writes its own to a file after each cell, the parent writes its at the end,
and ``layer_metrics`` derives every layer's times from those files.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list[int]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.stack = [0]
        self.depth: dict[str, int] = defaultdict(int)
        self.next_id = 1

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        rec = {"pid": self.pid, "spans": self.spans,
               "leaves": [[p, n, c, t] for (p, n), (c, t) in self.leaves.items()],
               "counts": self.counts}
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        self.spans, self.leaves, self.counts = [], {}, defaultdict(int)

    def span(self, name: str, fn, count=None, flush_in_child=False):
        """Wrap fn so each call is a span; count(args, result) adds to the
        counter of the same name."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self.next_id, self.stack[-1]
            self.next_id += 1
            nested = self.depth[name] > 0
            self.depth[name] += 1
            self.stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                self.depth[name] -= 1
                self.spans.append((sid, parent, name, start, end, nested))
            if count is not None:
                self.counts[name] += count(args, result)
            if flush_in_child and self.pid != self.root_pid:
                self.flush()
            return result
        return wrapper

    def leaf(self, name: str, fn, count=None):
        """Wrap a function that calls nothing traced; calls are summed per parent."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - start
                key = (self.stack[-1], name)
                acc = self.leaves.get(key)
                if acc is None:
                    self.leaves[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
                if count is not None:
                    self.counts[name] += count(args)
        return wrapper


def _rebind(original, wrapper) -> None:
    """Point every lucascong module attribute that names ``original`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "lucascong" or modname.startswith("lucascong."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(out_dir: Path) -> Tracer:
    """Wrap the public entry points of every layer. Call before any work."""
    from lucascong import arith, cli, congruence, lucas, primitive, qpoly

    tr = Tracer(out_dir)

    def poly_len(x) -> int:
        return len(x.coeffs) if isinstance(x, qpoly.IntPoly) else int(x != 0)

    traced = [
        (cli.run, "cli.run", None, False),
        (cli._scan_cell, "cli.scan_cell", None, True),
        (congruence.verify_theorem, "congruence.verify", None, False),
        (congruence.verify_corollary_fib, "congruence.special", None, False),
        (congruence.verify_kimball_webb, "congruence.special", None, False),
        (congruence.verify_wolstenholme, "congruence.wolstenholme", None, False),
        (congruence.lucas_harmonic_sum_mod, "congruence.lhs",
         lambda a, r: a[1] - 1 if a[2] > 1 else 0, False),
        (congruence.wolstenholme_rhs_mod, "congruence.rhs", None, False),
        (primitive.primitive_part, "primitive.w", None, False),
        (lucas.lucas_table, "lucas.table", lambda a, r: len(r.u), False),
        (lucas.rank_of_apparition, "lucas.rank", None, False),
        (qpoly.q_certificate, "qpoly.certificate", None, False),
        (qpoly.cleared_congruence_poly, "qpoly.cleared", None, False),
        (qpoly.poly_divmod, "qpoly.divmod",
         lambda a, r: sum(1 for c in r[0].coeffs if c) * (a[1].degree + 1), False),
        (qpoly.cyclotomic_poly, "qpoly.cyclotomic", None, False),
        (qpoly.verify_q_prime, "qpoly.verify_q_prime", None, False),
    ]
    for fn, name, count, flush in traced:
        _rebind(fn, tr.span(name, fn, count, flush))
    for fn, name in [(arith.mod_inverse, "arith.mod_inverse"), (arith.is_prime, "arith.is_prime"),
                     (cli.report_record, "cli.record"), (cli._render, "cli.record")]:
        _rebind(fn, tr.leaf(name, fn))

    mul = tr.leaf("qpoly.mul", qpoly.IntPoly.__mul__,
                  lambda a: poly_len(a[0]) * poly_len(a[1]))
    qpoly.IntPoly.__mul__ = qpoly.IntPoly.__rmul__ = mul

    class TracedPool(ProcessPoolExecutor):
        """Times the parent blocked on results: each next() of map's
        iterator and the join at shutdown."""

        def map(self, fn, *iterables, **kwargs):
            it = super().map(fn, *iterables, **kwargs)
            wait = tr.span("cli.pool_wait", lambda: next(it, it))
            while (item := wait()) is not it:
                yield item

        def shutdown(self, *args, **kwargs):
            return tr.span("cli.pool_wait", super().shutdown)(*args, **kwargs)

    cli.ProcessPoolExecutor = TracedPool
    return tr


def layer_metrics(out_dir: Path, root_pid: int, rounds: int, cache_hits: int,
                  cache_misses: int, output_bytes: int) -> dict:
    """Per-layer metrics from the span files in out_dir, per round of the
    workload; the cache counts are the run's ``cache_info()`` totals.

    ``*_s`` is inclusive time (children included, nested spans not counted
    twice); ``*self_s`` subtracts the direct child spans and leaves.
    """
    incl, self_t, calls = defaultdict(int), defaultdict(int), defaultdict(int)
    leaf_t, leaf_n, counts = defaultdict(int), defaultdict(int), defaultdict(int)
    pool_busy = 0
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                child = defaultdict(int)
                for sid, parent, name, start, end, nested in rec["spans"]:
                    child[parent] += end - start
                for parent, name, cnt, t in rec["leaves"]:
                    child[parent] += t
                    leaf_t[name] += t
                    leaf_n[name] += cnt
                for sid, parent, name, start, end, nested in rec["spans"]:
                    calls[name] += 1
                    self_t[name] += end - start - child[sid]
                    if not nested:
                        incl[name] += end - start
                        if name == "cli.scan_cell" and rec["pid"] != root_pid:
                            pool_busy += end - start
                for name, cnt in rec["counts"].items():
                    counts[name] += cnt

    def s(ns: int) -> tuple[float, str]:
        return ns / 1e9 / rounds, "s"

    def n(count: int) -> tuple[float, str]:
        return count / rounds, "count"

    return {
        "arith.mod_inverse_calls": n(leaf_n["arith.mod_inverse"]),
        "arith.mod_inverse_s": s(leaf_t["arith.mod_inverse"]),
        "arith.is_prime_s": s(leaf_t["arith.is_prime"]),
        "lucas.table_s": s(incl["lucas.table"]),
        "lucas.table_terms": n(counts["lucas.table"]),
        "lucas.rank_s": s(incl["lucas.rank"]),
        "lucas.rank_calls": n(calls["lucas.rank"]),
        "primitive.w_s": s(incl["primitive.w"]),
        "primitive.w_calls": n(calls["primitive.w"]),
        "congruence.lhs_s": s(incl["congruence.lhs"]),
        "congruence.lhs_terms": n(counts["congruence.lhs"]),
        "congruence.rhs_s": s(incl["congruence.rhs"]),
        "congruence.verify_self_s": s(self_t["congruence.verify"]),
        "congruence.wolstenholme_s": s(incl["congruence.wolstenholme"]),
        "congruence.special_self_s": s(self_t["congruence.special"]),
        "qpoly.cleared_s": s(incl["qpoly.cleared"]),
        "qpoly.mul_coeff_products": n(counts["qpoly.mul"]),
        "qpoly.divmod_s": s(incl["qpoly.divmod"]),
        "qpoly.divmod_coeff_ops": n(counts["qpoly.divmod"]),
        "qpoly.cyclotomic_s": s(incl["qpoly.cyclotomic"]),
        "qpoly.cyclotomic_cache_hits": n(cache_hits),
        "qpoly.cyclotomic_cache_misses": n(cache_misses),
        "qpoly.verify_q_prime_s": s(incl["qpoly.verify_q_prime"]),
        "cli.self_s": s(self_t["cli.run"]),
        "cli.record_s": s(leaf_t["cli.record"]),
        "cli.output_bytes": (output_bytes / rounds, "bytes"),
        "cli.pool_busy_s": s(pool_busy),
        "cli.pool_wait_s": s(incl["cli.pool_wait"]),
    }
