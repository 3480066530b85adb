"""lucascong benchmark: one run of one workload.

    python3 bench/run.py --workload theorem-box --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is taken from the
checkout's ``src/``. Each run runs the workload in a fresh interpreter
(worker.py), which also times fresh interpreters importing ``lucascong.cli``
for the set-up time. With ``--trace 1`` it runs the workload for half the
time untraced and half traced, each in a fresh interpreter, and reports
per-layer metrics and the tracing overhead instead of the end-to-end metrics. The last line of stdout is the result; the line before it
is the provenance. Both are also written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170       # every process this run starts is gone by then


class RunFailed(Exception):
    pass


def spawn(cmd: list[str], env: dict, deadline: float) -> str:
    """Run cmd in its own process group; return its stdout. The whole group
    is killed if it outlives the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{cmd[1]} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(cmd[:2])} exited {proc.returncode}: {err[-2000:]}")
    return out


def run_worker(args, env: dict, scratch: Path, trace: int, seconds: float,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--scratch", str(scratch), "--trace", str(trace)]
    return json.loads(spawn(cmd, env, deadline).splitlines()[-1])


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; checkouts
    without .git report 'unknown' and rely on src_sha256."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lucascong").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scratch = OUT / (f"trace-{args.workload}" if args.trace else f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            # half the run untraced, half traced, so a traced run costs what an untraced one does
            base = run_worker(args, env, scratch, 0, args.seconds / 2, deadline)
            res = run_worker(args, env, scratch, 1, args.seconds / 2, deadline)
            traced, plain = res["records_per_s"], base["records_per_s"]
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
            metrics["trace.records_per_s"] = {"value": traced, "unit": "records/s"}
            metrics["trace.untraced_records_per_s"] = {"value": plain, "unit": "records/s"}
            metrics["trace.overhead_pct"] = {"value": 100 * (plain - traced) / plain, "unit": "%"}
            metrics["trace.round_s"] = {"value": res["busy_s"] / res["rounds"], "unit": "s"}
            runs = [base, res]
        else:
            res = run_worker(args, env, scratch, 0, args.seconds, deadline)
            metrics = {
                "records_per_s": {"value": res["records_per_s"], "unit": "records/s"},
                "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
                "op_p95_ms": {"value": res["op_p95_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
                "setup_s": {"value": res["setup_s"], "unit": "s"},
            }
            runs = [res]
    finally:
        if not args.trace:
            shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    provenance = {
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "src_sha256": src_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "records": sum(r["records"] for r in runs),
        "rounds": [r["rounds"] for r in runs], "busy_s": [r["busy_s"] for r in runs],
        "wall_clock": [r["wall"] for r in runs],
        "errors": [e for r in runs for e in r["errors"]],
    }
    return result, provenance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lucascong" / "cli.py").is_file():
        print(f"error: no lucascong source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result, provenance = measure(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
