"""The rsexact benchmark: real CLI jobs, each pass in a fresh interpreter.

    python3 bench/run.py --workload dz-verify --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Each workload is a closed loop with one client: a pass starts a fresh
interpreter, which imports ``rsexact.cli`` and then runs the workload's
jobs one after the other through ``rsexact.cli.main`` (see ``worker.py``).
Module caches therefore start cold in every pass, as in a user's sweep.

``--trace 0`` repeats passes until ``--seconds`` would be exceeded and
reports the median over passes of every end-to-end metric.  ``--trace 1``
runs one untraced pass and two traced passes, reports the per-layer
metrics of the first traced pass, fails if the two disagree on any count,
and writes the per-layer table to ``bench/out/``.

Every job's exit code and report digest are checked against
``reference.json``, and its report's own verdict must be a pass.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import DEFAULT_SEED, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_ONLY_STARTS = 2
PASS_TIMEOUT_S = 170

END_TO_END = {  # name -> unit
    "run_s": "s",
    "slowest_job_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Outcome counters -> the call count they are a share of.
RATIOS = {
    "simpletypes.support_decompose.hit_ratio":
        ("simpletypes.support_decompose.hits", "simpletypes.support_decompose.calls"),
    "integral.RSPair.pair_value.nonzero_ratio":
        ("integral.RSPair.pair_value.nonzero", "integral.RSPair.pair_value.calls"),
    "cuspchar.BesselFunction.value.memo_hit_ratio":
        ("cuspchar.BesselFunction.value.memo_hits", "cuspchar.BesselFunction.value.calls"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def run_pass(jobs, trace: bool) -> dict:
    """Run `jobs` in one fresh worker; add its set-up time to the result."""
    request = json.dumps({"jobs": [list(j.argv) for j in jobs], "trace": trace})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], cwd=ROOT, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,  # so a timeout can stop the oracle pool too
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(request, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {ready}{err}".strip())
    result = json.loads(out) if jobs else {}
    result["setup_s"] = setup_s
    return result


def check_jobs(results, reference) -> list[str]:
    """One line per job whose exit code, report digest or verdict is wrong."""
    bad = []
    for r in results:
        key = " ".join(r["argv"])
        want = reference.get(key)
        if want is None:
            bad.append(f"{key}: no reference")
        elif r["exit"] != want["exit"]:
            bad.append(f"{key}: exit {r['exit']}, expected {want['exit']}")
        elif r["sha256"] != want["sha256"]:
            bad.append(f"{key}: report differs from the reference")
        elif r["verdict"] not in (True, None):
            bad.append(f"{key}: report verdict {r['verdict']}")
    return bad


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}") from exc


def measure(jobs, seconds: float) -> tuple[dict, list]:
    """Passes until the next would end after `seconds`; returns the
    per-pass samples of each end-to-end metric.

    A few set-up-only starts come first, so that set-up has enough samples
    even when a single pass fills the run.  Passes of one run agree to a few
    per cent; the spread between runs comes from the machine's speed
    drifting over minutes, which more passes per run would not remove.
    """
    start = time.perf_counter()
    setups = [run_pass([], trace=False)["setup_s"] for _ in range(SETUP_ONLY_STARTS)]
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(run_pass(jobs, trace=False))
        passes[-1]["pass_s"] = time.perf_counter() - began
        typical = statistics.median(p["pass_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    values = {
        "run_s": [p["run_s"] for p in passes],
        "slowest_job_s": [max(j["wall_s"] for j in p["jobs"]) for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    return values, passes


def counts(trace: dict) -> dict:
    return {k: v for k, v in trace.items()
            if not k.endswith("_s") and not k.endswith("_ratio")}


def traced(jobs, workload: str, seed: int) -> tuple[dict, list, list]:
    """One untraced and two traced passes; per-layer metrics and problems."""
    plain = run_pass(jobs, trace=False)
    first, second = (run_pass(jobs, trace=True) for _ in range(2))
    problems = [f"count {k} differs between traced passes: {v} vs {second['trace'].get(k)}"
                for k, v in counts(first["trace"]).items()
                if second["trace"].get(k) != v]
    layer = dict(first["trace"])
    for name, (part, whole) in RATIOS.items():
        layer[name] = layer[part] / layer[whole] if layer[whole] else 0.0
    layer["trace_overhead"] = first["run_s"] / plain["run_s"]
    for name in first["missing_targets"]:
        print(f"NOTE {name} is not in the package; it reports zero calls")
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "untraced_run_s": plain["run_s"],
         "passes": [first, second]}, indent=1))
    return layer, [plain, first, second], problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference) -> dict:
    jobs = jobs_for(workload, seed)
    if trace:
        metrics, passes, problems = traced(jobs, workload, seed)
        samples = {}
    else:
        samples, passes = measure(jobs, seconds)
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        problems = []
    results = [j for p in passes for j in p["jobs"]]
    bad = check_jobs(results, reference)
    print(f"== {workload}  seed {seed}  {len(passes)} passes of {len(jobs)} jobs  "
          f"(python {platform.python_version()}, nproc {os.cpu_count()})")
    for line in bad + problems:
        print(f"FAILED {line}")
    print(f"failed_frac {len(bad) / len(results):.4f} ratio")
    for name, value in metrics.items():
        line = f"{name} {value:.6g} {unit_of(name)}"
        if name in samples:
            v = samples[name]
            line += f"  median of {len(v)}, min {min(v):.6g}, max {max(v):.6g}"
        print(line)
    if not trace:
        for i, job in enumerate(jobs):
            wall = statistics.median(p["jobs"][i]["wall_s"] for p in passes)
            print(f"  job {wall:8.3f} s  {job.key}")
    return {
        "correct": not bad and not problems,
        "attempted": len(results),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reference = load_reference()
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), reference)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
