"""One benchmark child: a fresh interpreter that imports partcat and runs operations.

Cold mode runs a single operation once.  Session mode runs the session's
request list round after round until its deadline, as one warm client.
The child prints one JSON line with its readiness time, its peak resident
set size and, per operation and round, the wall time and the output payload.
Outputs are checked by the parent, after the timer has stopped.

    python3 perfbench/child.py cold <launch> <trace-file or -> <workload> <op>
    python3 perfbench/child.py session <launch> <trace-file or -> <requests.json> <deadline>

<launch> is the parent's time.monotonic() when it started the child.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import partcat  # noqa: E402
from partcat import algkit, cli, coeff, delta, linalg, pcat, tl, young  # noqa: E402

import workloads  # noqa: E402


def run_cli(argv):
    """cli.main with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


PC = types.SimpleNamespace(partcat=partcat, algkit=algkit, cli=cli, coeff=coeff, delta=delta,
                           linalg=linalg, pcat=pcat, tl=tl, young=young, run_cli=run_cli)


def _cli_payload(op, result):
    code, out, err = result
    files = {}
    for path in op.reads:
        p = Path(path)
        files[path] = p.read_text() if p.exists() else None
    return {"code": code, "out": out, "err": err, "files": files}


def run_op(op, tracer):
    """Time one operation; returns its record (wall time, payload or error)."""
    if op.call:
        call, make_payload = workloads.LIBRARY[op.call]
        thunk = lambda: call(PC)  # noqa: E731
    else:
        thunk = lambda: run_cli(op.argv)  # noqa: E731
        make_payload = lambda pc, result: _cli_payload(op, result)  # noqa: E731
    if tracer is not None:
        tracer.begin()
    error = None
    t0 = time.perf_counter()
    try:
        result = thunk()
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    record = {"wall_s": wall}
    if tracer is not None:
        record["layers"] = tracer.end(op.name)
    if error is not None:
        record["error"] = error
    else:
        record["payload"] = make_payload(PC, result)
    return record


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _make_tracer(trace_file: str):
    if trace_file == "-":
        return None
    import tracer

    return tracer.install(PC)


def cold(launch: float, trace_file: str, workload: str, name: str) -> dict:
    op = next(o for o in workloads.cold_ops(workload) if o.name == name)
    ready = time.monotonic()
    trace = _make_tracer(trace_file)
    record = run_op(op, trace)
    rss = _peak_rss_kb()  # read before the payload is built: the op's own peak
    if trace is not None:
        trace.write(trace_file)
    return {"setup_s": ready - launch, "rss_kb": rss, "record": record}


def session(launch: float, trace_file: str, requests: str, deadline: float) -> dict:
    ops = [workloads.Op.from_json(o) for o in json.loads(Path(requests).read_text())]
    ready = time.monotonic()
    trace = _make_tracer(trace_file)
    rounds, seen, longest = [], set(), 0.0
    while True:
        start = time.monotonic()
        records = [run_op(op, trace) for op in ops]
        payloads = {op.name: rec.pop("payload", None) for op, rec in zip(ops, records)}
        key = workloads.payload_hash(payloads)
        rounds.append({"records": records, "hash": key,
                       "payloads": payloads if key not in seen else None})
        seen.add(key)
        now = time.monotonic()
        longest = max(longest, now - start)
        # the first round warms caches and is not measured: always run a second
        if len(rounds) >= 2 and now + longest > deadline:
            break
    rss = _peak_rss_kb()
    if trace is not None:
        trace.write(trace_file)
    return {"setup_s": ready - launch, "rss_kb": rss, "session_rounds": rounds}


def main(argv) -> int:
    mode, launch, trace_file = argv[0], float(argv[1]), argv[2]
    if mode == "cold":
        out = cold(launch, trace_file, argv[3], argv[4])
    elif mode == "session":
        out = session(launch, trace_file, argv[3], float(argv[4]))
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
