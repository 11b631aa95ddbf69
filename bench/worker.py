"""One timed pass: a fresh interpreter that runs a workload's jobs in order.

Protocol, on standard streams:

1. the worker imports ``rsexact.cli`` from the checkout's ``src`` and
   prints ``ready``; the parent times set-up up to that line;
2. it reads ``{"jobs": [argv, ...], "trace": bool}`` from standard input;
3. it runs each job through ``rsexact.cli.main(argv)`` with the report
   captured, and prints one JSON line with, per job, the exit code, the
   sha256 of the report bytes, the report's verdict and the wall time,
   plus the pass totals (and the per-layer trace when asked).

Run with no jobs, it only measures set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def verdict(command: str, report: str):
    """The report's own pass/fail field, or None when it has no report."""
    if not report:
        return None
    data = json.loads(report)
    if command == "verify":
        return data["passed"]
    if command == "reduce":
        return data["match"]
    if command == "oracle-check":
        return data["all_match"]
    return all(v for k, v in data["checks"].items() if k != "pairs_checked")


def run_job(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # a traceback is a failed job, not a dead pass
            code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    report = out.getvalue()
    try:
        ok = verdict(argv[0], report)
    except (ValueError, KeyError) as exc:
        ok = f"unreadable report: {exc}"
    return {
        "argv": list(argv),
        "exit": code,
        "sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
        "verdict": ok,
        "wall_s": wall,
    }


def main() -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rsexact.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"rsexact imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    request = json.loads(sys.stdin.read())
    if not request["jobs"]:
        return 0
    tracer = None
    if request["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    cpu0 = _cpu()
    start = time.perf_counter()
    jobs = [run_job(cli.main, argv) for argv in request["jobs"]]
    run_s = time.perf_counter() - start
    result = {
        "jobs": jobs,
        "run_s": run_s,
        "cpu_s": _cpu() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        result["missing_targets"] = missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
