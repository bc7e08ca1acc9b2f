"""partcat benchmark: per-operation medians over whole rounds of fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a fixed list of operations run round-robin, one child
interpreter at a time.  A cold operation runs in a fresh child per
repetition; the session workload is one warm child per slice of the run.
Only whole rounds are run: a round starts only if it should end within the
time given.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; --trace 1 reports the per-layer
metrics of a traced run instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD = HERE / "child.py"
OUT = Path("perfbench/out")
# a program so slow that a round overruns --seconds is cut off, so that a run
# still ends within a few minutes: children get this much beyond the deadline,
# and output checks get CHECK_LIMIT_S in all
GRACE_S = 100
CHECK_LIMIT_S = 30
SESSION_CHILDREN = 3


class Run:
    """What one workload's run collected."""

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.walls = {}  # op -> wall seconds per measured round
        self.layers = {}  # op -> per-layer metrics per measured round
        self.setups = []
        self.rss_kb = []
        self.attempted = 0
        self.failed = 0
        self.errors = []  # check failures
        self.failures = {}  # op -> first error it raised
        self.rounds = 0

    def record(self, name: str, rec: dict, measured: bool):
        self.attempted += 1
        if "error" in rec:
            self.failed += 1
            self.failures.setdefault(name, rec["error"])
        if measured:
            self.walls.setdefault(name, []).append(rec["wall_s"])
            self.layers.setdefault(name, []).append(rec.get("layers", {}))

    def check(self, checker, name, payload, key):
        try:
            checker.check(name, payload, key)
        except Exception as exc:  # a malformed payload fails its check, the run goes on
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def medians(self) -> dict:
        return {name: statistics.median(v) for name, v in self.walls.items()}

    def metrics(self) -> dict:
        med = self.medians()
        answer = sum(med.values())
        if self.trace:
            out = {"trace.answer_s": (answer, "s")}
            for metric, (_, what) in tracer.LAYER_METRICS.items():
                total = sum(statistics.median(r.get(metric, 0) for r in rounds)
                            for rounds in self.layers.values())
                if what in ("incl", "self"):
                    out[metric] = (total, "s")
                else:  # counts repeat from round to round, so their medians are whole
                    out[metric] = (int(total) if total == int(total) else total, "count")
            return out
        return {
            "answer_s": (answer, "s"),
            "op_geomean_ms": (math.exp(statistics.fmean(math.log(v * 1e3) for v in med.values())), "ms"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (max(self.rss_kb) / 1024, "MB"),
        }


def launch(cutoff: float, mode: str, trace: str, *args: str) -> dict:
    """Run one child to its end, killing it at time ``cutoff``; returns its
    result, or raises RuntimeError or TimeoutExpired."""
    started = time.monotonic()
    argv = [sys.executable, str(CHILD), mode, repr(started), trace, *args]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=max(1.0, cutoff - started), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_file(run: Run, name: str) -> str:
    return str(OUT / "trace" / run.workload / f"{name}.json") if run.trace else "-"


def run_cold(run: Run, seed: int, seconds: float):
    ops = workloads.cold_ops(run.workload)
    random.Random(seed).shuffle(ops)  # the seed fixes the order within a round
    checker = checks.Checker(run.workload)
    checker.prepare()
    pending = {}  # distinct payloads, checked once timing is over
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        for op in ops:
            if time.monotonic() >= deadline + GRACE_S:
                break
            try:
                out = launch(deadline + GRACE_S, "cold", trace_file(run, op.name), run.workload, op.name)
            except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
                run.record(op.name, {"error": str(exc)}, measured=False)
                continue
            run.setups.append(out["setup_s"])
            run.rss_kb.append(out["rss_kb"])
            rec = out["record"]
            run.record(op.name, rec, measured=True)
            if "payload" in rec:
                key = op.name + workloads.payload_hash(rec["payload"])
                pending[key] = (op.name, rec["payload"], key)
        run.rounds += 1
        now = time.monotonic()
        if now + (now - start) > deadline:
            break
    check_all(run, checker, pending.values())


def run_session(run: Run, seed: int, seconds: float):
    session = workloads.session(seed)
    requests = workloads.write_session(session)
    checker = checks.Checker("session", session)
    checker.prepare()
    pending = {}
    end = time.monotonic() + seconds
    for k in range(SESSION_CHILDREN):
        deadline = time.monotonic() + (end - time.monotonic()) / (SESSION_CHILDREN - k)
        try:
            out = launch(end + GRACE_S, "session", trace_file(run, f"session-{k}"), str(requests), repr(deadline))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            for op in session.ops:
                run.record(op.name, {"error": str(exc)}, measured=False)
            continue
        run.setups.append(out["setup_s"])
        run.rss_kb.append(out["rss_kb"])
        for i, rnd in enumerate(out["session_rounds"]):
            for op, rec in zip(session.ops, rnd["records"]):
                run.record(op.name, rec, measured=i > 0)  # the first round warms up
            if rnd["payloads"] is not None:
                pending[rnd["hash"]] = ("session", rnd["payloads"], rnd["hash"])
            elif rnd["hash"] not in pending:
                run.errors.append("session: a round's outputs were never checked")
            run.rounds += 1
    check_all(run, checker, pending.values())


class CheckTimeout(BaseException):
    """Raised by the timer that limits output checking; not a check failure of its own."""


def check_all(run: Run, checker, items):
    """Check each distinct (name, payload, key); what is unchecked after
    CHECK_LIMIT_S counts as wrong."""

    def expire(signum, frame):
        raise CheckTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CHECK_LIMIT_S)
    try:
        for name, payload, key in items:
            run.check(checker, name, payload, key)
    except CheckTimeout:
        run.errors.append(f"outputs not all checked within {CHECK_LIMIT_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(workload, trace)
    if workload == "session":
        run_session(run, seed, seconds)
    else:
        run_cold(run, seed, seconds)
    return run


def report(runs: list, prefix: bool) -> dict:
    metrics = {}
    for run in runs:
        print(f"workload {run.workload}: {run.rounds} rounds, {run.attempted} operations attempted, "
              f"{run.failed} failed")
        for name, med in sorted(run.medians().items()):
            print(f"  {name:32s} median {med * 1e3:10.2f} ms over {len(run.walls[name])} rounds")
        for name, error in sorted(run.failures.items()):
            print(f"  failed {name}: {error}")
        for error in run.errors:
            print(f"  CHECK FAILED {error}", file=sys.stderr)
        if run.walls:
            for name, (value, unit) in run.metrics().items():
                print(f"  {name} = {value:.6g} {unit}")
                key = f"{run.workload}.{name}" if prefix else name
                metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(not r.errors and r.walls for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "partcat" / "__init__.py").is_file():
        print(f"error: no partcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in chosen]
    result = report(runs, prefix=args.workload == "all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
