"""One measured run of one workload, in a fresh interpreter.

Started by run.py with lucascong's source on PYTHONPATH. Runs whole rounds
of the workload's operations, each round in a seeded order, until the time
spent inside operations reaches --seconds. Each output is checked outside
the timed call. Prints one JSON object with the counts, latencies, set-up
time and peak RSS.

Every time is expressed at a fixed host speed. On a shared host the same
call runs up to 1.5-2x slower, in stretches from milliseconds to minutes,
while neighbours are busy, and the two vCPUs need not be slow at the same
moment. A fixed reference kernel, which calls nothing in lucascong, is
therefore timed between operations and set-up launches: one pass for every
REF_EVERY_NS they took since the last passes. A workload that runs on one
CPU is pinned to it; one that runs on several is referred to each. Each
sample is scaled by REF_NOMINAL_NS over the mean of the
reference times just before and just after it, and an operation's latency
is the median of its scaled samples. The unscaled (wall-clock) figures are
returned too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime_ns, perf_counter_ns

import spans
from workloads import WORKLOADS, Result

PROBE = "import time, lucascong.cli; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"


# Reference kernel: big-integer inverses at a 521-bit modulus and a
# small-integer loop, as in the theorem's sums and argparse, then list, dict
# and string work and a dense product of two integer lists, as in rendering
# and IntPoly. It takes 1.1-2.7 ms on the reference host (README.md).
REF_MODULUS = 2 ** 521 - 1
REF_NOMINAL_NS = 1_000_000
REF_EVERY_NS = 20_000_000
SETUP = "setup"


def reference_ns() -> int:
    """Time one pass of the reference kernel."""
    start = perf_counter_ns()
    x, s = 12345, 0
    for i in range(1, 16):
        x = (x * 0x9E3779B97F4A7C15 + i) % REF_MODULUS
        s += pow(x, -1, REF_MODULUS) & 0xFF
    for i in range(6000):
        s += i * i % 7
    counts, items = {}, []
    for i in range(1200):
        items.append(i * 7 % 13)
        counts[i & 255] = counts.get(i & 255, 0) + i
    s += len(",".join([str(v) for v in items]))
    a = [i * 1000003 for i in range(1, 30)]
    b = [i * 999983 for i in range(3, 32)]
    prod = [0] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return perf_counter_ns() - start


def reference_time(passes: int, cpus: list[int] | None) -> float:
    """Median time of the reference kernel over `passes` passes. With cpus,
    the passes are split over those CPUs, this process pinned to each in
    turn, and the result is the mean of the per-CPU medians."""
    if cpus is None:
        return statistics.median(reference_ns() for _ in range(passes))
    mask = os.sched_getaffinity(0)
    try:
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(
                reference_ns() for _ in range(max(1, passes // len(cpus)))))
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.mean(per_cpu)


def setup_sample() -> int:
    """Nanoseconds from launching a fresh interpreter until lucascong.cli is
    imported. CLOCK_MONOTONIC is system-wide, so the child's stamp compares
    with ours."""
    start = clock_gettime_ns(CLOCK_MONOTONIC)
    ready = int(subprocess.run([sys.executable, "-c", PROBE], check=True,
                               capture_output=True, text=True).stdout)
    return ready - start


def run_op(cli, op, out_path: Path) -> tuple[Result, int]:
    """Run one operation; return its result and its latency in ns. A crash
    is returned as an exit code of "exception" with the traceback as stderr."""
    out, err = io.StringIO(), io.StringIO()
    fn, args = cli.run, (op.argv,)
    if op.lib is not None:
        module, name, args = op.lib
        fn = getattr(importlib.import_module(module), name)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter_ns()
        try:
            rc = fn(*args)
        except Exception:  # a crash is a failed operation, not a failed run
            rc = "exception"
            traceback.print_exc()
        elapsed = perf_counter_ns() - start
    text = ""
    if out_path.exists():
        text = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    return Result(rc, out.getvalue(), err.getvalue(), text), elapsed


def latency_metrics(ops, samples: dict[str, list]) -> dict:
    """Rate and latency percentiles from each operation's median sample (ns)."""
    ms = [statistics.median(samples[op.key]) / 1e6 for op in ops]
    return {
        "records_per_s": sum(op.records for op in ops) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p95_ms": statistics.quantiles(ms, n=20, method="inclusive")[18] if len(ms) > 1 else ms[0],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scratch", required=True, help="directory for --out files and spans")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    from lucascong import cli, qpoly
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"lucascong imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    scratch = Path(args.scratch)
    out_path = scratch / f"out-{os.getpid()}.csv"
    ops = WORKLOADS[args.workload](args.seed, str(out_path))
    cyclotomic = qpoly.cyclotomic_poly
    tracer = spans.install(scratch) if args.trace else None

    rng = random.Random(args.seed)
    # samples in ns, by operation key; set-up samples under SETUP
    wall, scaled, refs = defaultdict(list), defaultdict(list), []
    busy, rounds, attempted, failed = 0, 0, 0, 0
    output_bytes, errors, verified = 0, [], {}
    cache_hits = cache_misses = 0
    # A workload that runs on several CPUs at once is referred to all of them.
    # Any other is pinned to one CPU, so that it and the kernel share a CPU.
    cpus = sorted(os.sched_getaffinity(0))
    if not any(op.parallel for op in ops):
        os.sched_setaffinity(0, {cpus[-1]})
        cpus = None
    pending, owed = [], 0          # samples taken since the last reference time
    refs.append(reference_time(1, cpus))

    def sample(key: str, elapsed: int, flush: bool = False) -> None:
        """Record a sample; scale the pending ones once REF_EVERY_NS is owed."""
        nonlocal owed
        wall[key].append(elapsed)
        pending.append((key, elapsed))
        owed += elapsed
        if owed >= REF_EVERY_NS or flush:
            refs.append(reference_time(max(1, owed // REF_EVERY_NS), cpus))
            factor = 2 * REF_NOMINAL_NS / (refs[-2] + refs[-1])
            for k, e in pending:
                scaled[k].append(e * factor)
            pending.clear()
            owed = 0

    def sample_setup() -> None:
        for _ in range(2):
            sample(SETUP, setup_sample(), flush=True)

    sample_setup()
    while rounds == 0 or busy < args.seconds * 1e9:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            # each operation starts from the empty cache a fresh lucascong process has
            info = cyclotomic.cache_info()
            cache_hits, cache_misses = cache_hits + info.hits, cache_misses + info.misses
            cyclotomic.cache_clear()
            res, elapsed = run_op(cli, op, out_path)
            sample(op.key, elapsed)
            attempted += 1
            busy += elapsed
            output_bytes += len((res.out + res.err + res.file).encode())
            digest = hashlib.sha256(repr((res.rc, res.out, res.err, res.file)).encode()).digest()
            if verified.get(op.key) == digest:
                continue
            try:
                op.check(res)
                verified[op.key] = digest
            except Exception as exc:  # malformed output fails its check, not the run
                failed += 1
                errors.append(f"{op.key}: {exc!r}")
        rounds += 1
        sample_setup()
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "attempted": attempted, "failed": failed, "rounds": rounds,
        "records": rounds * sum(op.records for op in ops), "busy_s": busy / 1e9,
        **latency_metrics(ops, scaled),
        "peak_rss_mb": max(ru_self, ru_children) / 1024,
        "setup_s": statistics.median(scaled[SETUP]) / 1e9,
        "wall": {**latency_metrics(ops, wall),
                 "setup_s": statistics.median(wall[SETUP]) / 1e9,
                 "reference_ms": statistics.median(refs) / 1e6},
        "errors": errors[:20],
    }
    if tracer is not None:
        tracer.flush()
        info = cyclotomic.cache_info()
        result["layers"] = spans.layer_metrics(
            scratch, os.getpid(), rounds, cache_hits + info.hits,
            cache_misses + info.misses, output_bytes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
