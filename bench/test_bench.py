"""Self-tests of the benchmark harness:  python3 -m pytest bench -q"""

from __future__ import annotations

import itertools
import json

import pytest

import run
import tracer
from jobs import DEFAULT_SEED, WORKLOADS, all_jobs, jobs_for
from run import check_jobs, counts, load_reference, run_pass

CHEAP = [job for job in all_jobs()
         if job.key in ("verify --q 3 --theta 1 --theta2 2", "reduce --q 2 --theta 1 --ell 3")]


def test_default_seed_gives_the_documented_jobs():
    assert [j.key for j in jobs_for("ram-verify", DEFAULT_SEED)] == [
        "verify --family ramified --p 3 --sigma 1",
        "verify --family ramified --p 3 --sigma 1 --sigma2 0",
        "verify --family ramified --p 5 --sigma 1",
    ]
    assert [j.key for j in jobs_for("finite-reduce", DEFAULT_SEED)][:5] == [
        "reduce --q 3 --theta 1 --ell 5",
        "reduce --q 3 --theta 1 --ell 7 --ideal 1",
        "reduce --q 5 --theta 1 --ell 7",
        "reduce --family ramified --p 3 --sigma 1 --ell 7",
        "reduce --q 2 --theta 1 --ell 3",
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    for seed in range(20):
        assert jobs_for(workload, seed) == jobs_for(workload, seed)
    assert len({tuple(jobs_for(workload, seed)) for seed in range(20)}) > 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    t = tracer.Tracer()
    for modname, qualname in tracer.TARGETS:
        t.wrap(f"{modname}.{qualname}", lambda: None)
    t.counters = dict.fromkeys(tracer.COUNTERS, 0)
    layer = [*t.report(), *run.RATIOS, "trace_overhead"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in layer]


def test_every_job_has_a_reference():
    reference = load_reference()
    for job in all_jobs():
        assert reference[job.key]["exit"] == job.exit_code


def test_corrupted_reference_digest_is_a_failure():
    reference = load_reference()
    results = run_pass(CHEAP, trace=False)["jobs"]
    assert check_jobs(results, reference) == []

    key = CHEAP[0].key
    digest = reference[key]["sha256"]
    corrupted = dict(reference)
    corrupted[key] = {**reference[key],
                      "sha256": digest[:-1] + ("0" if digest[-1] != "0" else "1")}
    bad = check_jobs(results, corrupted)
    assert len(bad) == 1 and bad[0].startswith(key)


def test_wrong_exit_code_and_failed_verdict_are_failures():
    reference = load_reference()
    (good,) = run_pass(CHEAP[:1], trace=False)["jobs"]
    assert check_jobs([{**good, "exit": 1}], reference)
    assert check_jobs([{**good, "verdict": False}], reference)


def _ticks():
    return itertools.count().__next__


def test_self_time_excludes_wrapped_children_and_recursion():
    t = tracer.Tracer(clock=_ticks())

    def leaf():
        return 1

    wrapped_leaf = t.wrap("leaf", leaf)

    def walk(depth):
        return wrapped_leaf() + (wrapped_walk(depth - 1) if depth else 0)

    wrapped_walk = t.wrap("walk", walk)
    wrapped_walk(3)
    stats = t.report()
    assert stats["walk.calls"] == 4 and stats["leaf.calls"] == 4
    for name in ("walk", "leaf"):
        assert 0 <= stats[f"{name}.self_s"] <= stats[f"{name}.incl_s"]
    # every tick of the outermost walk is either its own or a leaf's
    assert stats["walk.self_s"] + stats["leaf.incl_s"] == stats["walk.incl_s"]


def test_traced_passes_repeat_their_counts_and_keep_self_within_inclusive():
    first, second = (run_pass(CHEAP, trace=True)["trace"] for _ in range(2))
    assert counts(first) == counts(second)
    assert first["integral.RSPair.pair_value.calls"] > 0
    for key, incl in first.items():
        if key.endswith(".incl_s"):
            assert first[key.replace(".incl_s", ".self_s")] <= incl + 1e-9


def test_a_missing_target_reports_zero_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    gone = (("padic", "no_such_function"), ("cuspchar", "NoSuchClass.value"))
    monkeypatch.setattr(tracer, "TARGETS", gone)
    t = tracer.Tracer()
    assert tracer.install(t) == ["padic.no_such_function", "cuspchar.NoSuchClass.value"]
    assert t.report()["padic.no_such_function.calls"] == 0


def test_failed_import_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    worker = tmp_path / "bench" / "worker.py"
    worker.parent.mkdir()
    worker.write_text((run.HERE / "worker.py").read_text())
    monkeypatch.setattr(run, "WORKER", worker)
    with pytest.raises(run.BenchError):
        run.run_pass(CHEAP, trace=False)
