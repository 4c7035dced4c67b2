"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Checks the result schema, the known-answer gate, the scaling of times to
the reference speed, that tracing puts every wrapped attribute back, and
that call counts repeat exactly.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_CHECKS = ("P9 keep/keep", "P-COM keep/keep")


def tiny(seed, workdir, flip=False):
    full = workloads.theorems_2atom(seed, workdir)
    checks = [c for c in full.checks if c.name in TINY_CHECKS]
    if flip:
        checks = [workloads.Check(c.name, c.run, lambda v, j=c.judge: not j(v)) for c in checks]
    return workloads.Workload(checks, full.nominal_instances // len(full.checks) * len(checks), full.digest)


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-wrong", lambda s, w: tiny(s, w, flip=True))
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(run, "MIN_CHECK_SAMPLES", 1)


def wrapped_attributes():
    entries = tracing.ENTRY_POINTS + [tracing.HASH_ENTRY] + tracing.PROP_ENTRIES
    found = {}
    for _, module, path in entries:
        resolved = tracing._resolve(module, path)
        assert resolved is not None, f"{module}.{path} missing"
        found[(module, path)] = resolved[2]
    return found


def test_result_schema_and_gate():
    out = run.run_workload("tiny", seed=1, seconds=0, trace=False)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0
    assert out["info"]["error_rate"] == 0
    assert set(out["info"]["raw"]) == {"setup_s", "wall_s", "check_ms_p50", "check_ms_p90"}


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    cals = iter([1.0, 3.0])  # a host at half the reference speed, on average
    monkeypatch.setattr(run, "calibrate", lambda: next(cals) * run.CAL_REF_S)
    times = run.Scaled()
    result, ref, after = times.time(lambda: "done")
    assert result == "done" and after == 3.0 * run.CAL_REF_S
    assert ref == pytest.approx(times.raw_s[0] / 2)
    assert times.ref_s == [ref] and times.cal_s == [run.CAL_REF_S]


def test_gate_counts_wrong_verdicts():
    result = run.run_workload("tiny-wrong", seed=1, seconds=0, trace=False)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def is_wrapper(obj) -> bool:
    fn = obj.fget if isinstance(obj, property) else obj
    return "<locals>" in fn.__qualname__


def test_trace_restores_originals_and_repeats_counts():
    first = run.run_workload("tiny", seed=1, seconds=0, trace=True)
    assert not any(is_wrapper(obj) for obj in wrapped_attributes().values())
    second = run.run_workload("tiny", seed=1, seconds=0, trace=True)
    assert not any(is_wrapper(obj) for obj in wrapped_attributes().values())
    assert not first["info"]["missing_entry_points"]

    metrics = first["result"]["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert first["result"]["correct"]
    counts = lambda r: {k: m["value"] for k, m in r["result"]["metrics"].items() if k.endswith(".calls")}
    assert counts(first) == counts(second)
    assert metrics["verify.suite.self_s"]["value"] > 0
    assert metrics["states.hash.calls"]["value"] > 0


def test_patches_restore_the_same_objects():
    run.import_revlab()
    before = wrapped_attributes()
    spans, counting = tracing.SpanTracer(), tracing.CountingPass()
    with tracing.patched(spans.install):
        during = wrapped_attributes()
        assert all(is_wrapper(during[(module, path)]) for _, module, path in tracing.ENTRY_POINTS)
    with tracing.patched(counting.install):
        pass
    after = wrapped_attributes()
    assert all(after[key] is original for key, original in before.items())


def test_missing_entry_point_is_reported():
    with tracing.patched(lambda p: p.wrap("revlab.verify", "no_such_entry_point", lambda fn: fn)) as patches:
        pass
    assert patches.missing == ["revlab.verify.no_such_entry_point"]


def test_sample_inputs_follow_the_seed():
    run.import_revlab()
    digests = [workloads.sample_3atom(seed, "").digest for seed in (1, 1, 2)]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_revlab_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorems-2atom", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
