"""Verdict benchmark: time to verdict on revlab's verification workloads.

    python3 perfbench/run.py --workload theorems-2atom --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload (or, with `all`, each workload in its own process, one
after another) from the root of a revlab checkout, importing revlab from
its `src/`.  Load is closed-loop: one client in one thread, each check
starting after the previous verdict returns.  Every verdict is judged
against its known answer.

A run makes whole passes over the workload's checks until `--seconds` have
gone by, leaving out a pass that would end past twice `--seconds`, with at
least one pass and enough checks for a p90.  Each pass starts from a fresh
set-up: it re-imports revlab and rebuilds the workload, so no pass reuses
what revlab cached in an earlier one.  `wall_s` is the median over passes
of the time the checks of a pass took, and `check_ms_p50` and
`check_ms_p90` are percentiles over all checks of all passes.  Between
checks the run sets up again about `SETUPS` times over `--seconds`;
`setup_s` is the median of all set-ups.

Times are scaled to a reference host speed.  A shared host's speed drifts
by a third and more over minutes, and a process's CPU time drifts with it,
so raw times of the same code spread past any useful bound.  Right before
and right after every check and set-up the run times `calibrate()`, a fixed
piece of pure-Python work that allocates no tracked objects and runs with
the collector off, so revlab's code and heap cannot change its time.  Each
time is multiplied by `CAL_REF_S` over the mean of the two calibrations
around it: it reads as seconds on a host where `calibrate()` takes
`CAL_REF_S`.  The raw times and the calibration times are in the info line.

With `--trace 1` it makes one untraced pass, one pass with timing wrappers
installed and one counting pass, and reports per-layer metrics instead of
end-to-end ones; those are raw times.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing  # the benchmark's own modules, beside this file
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUPS = 20  # set-ups spread over --seconds, besides one per pass
MIN_CHECK_SAMPLES = 110  # at least 10 samples beyond the p90
CHILD_TIMEOUT_S = 600
CAL_ROUNDS = 40_000
CAL_REF_S = 0.01  # the reference host's calibrate() time

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernels.posterior.calls": "count",
    "kernels.posterior.self_s": "s",
    "kernels.bel_table.calls": "count",
    "kernels.bel_table.self_s": "s",
    "kernels.revise_mask.calls": "count",
    "operators.apply.calls": "count",
    "operators.apply.self_s": "s",
    "operators.apply.distinct_ratio": "ratio",
    "operators.extensional_apply.calls": "count",
    "operators.tabulate.calls": "count",
    "operators.canonical_assignment.calls": "count",
    "classify.classify_state.calls": "count",
    "classify.classify_state.self_s": "s",
    "classify.classify_state.distinct_ratio": "ratio",
    "classify.immanent_classes.calls": "count",
    "verify.postulate.calls": "count",
    "verify.postulate.self_s": "s",
    "verify.condition.calls": "count",
    "verify.condition.self_s": "s",
    "verify.suite.self_s": "s",
    "states.enumerate_states.self_s": "s",
    "states.hash.calls": "count",
    "prop.signature_props.calls": "count",
    "cli.main.calls": "count",
    "trace_overhead": "ratio",
}
# Self times of layers that only some workloads enter.  Elsewhere they read
# exactly 0, so they are reported in the run's info line, not as metrics.
WORKLOAD_LAYER_TIMES = [
    "operators.tabulate.self_s",
    "operators.canonical_assignment.self_s",
    "classify.immanent_classes.self_s",
    "cli.main.self_s",
]


def import_revlab():
    """Imports revlab afresh from the checkout and returns its kernels module."""
    for name in [m for m in sys.modules if m == "revlab" or m.startswith("revlab.")]:
        del sys.modules[name]
    for name in ("revlab", "revlab.verify", "revlab.cli"):
        importlib.import_module(name)
    return sys.modules["revlab.kernels"]


def _cal_step(x: int, y: int) -> int:
    return (x * 31 + y) & 0xFFFF


def calibrate() -> float:
    """Times a fixed piece of pure-Python work: loads, calls and integer ops.

    It makes no object the cycle collector tracks and runs with the
    collector off, so its time depends on the host, not on revlab's heap.
    """
    table = {i: i * 7 & 0xFF for i in range(256)}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ROUNDS):
            acc = _cal_step(acc, table[i & 0xFF]) ^ (i >> 3)
        took = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    return took


class Scaled:
    """Raw and reference-speed times, and the calibrations behind them."""

    def __init__(self):
        self.raw_s: list[float] = []
        self.ref_s: list[float] = []
        self.cal_s: list[float] = []

    def time(self, fn, before: float | None = None):
        """Calls `fn` between two calibrations, the first of which may be given.

        Returns its result, its reference-speed time and the calibration
        taken after it.
        """
        if before is None:
            before = calibrate()
        t0 = time.perf_counter()
        result = fn()
        took = time.perf_counter() - t0
        after = calibrate()
        ref = took * CAL_REF_S * 2 / (before + after)
        self.raw_s.append(took)
        self.ref_s.append(ref)
        self.cal_s.append(before)
        return result, ref, after


def verdict(check):
    try:
        return check.run()
    except Exception as err:  # a crashing check is a wrong verdict
        return err


class Pass:
    """Check samples and known-answer results, accumulated over passes.

    `between`, if given, runs between two checks once `every` seconds have
    gone by since it last ran; it is not part of any check's time.  Samples
    are reference-speed times; `times` also keeps the raw ones.
    """

    def __init__(self, between=None, every: float = 0.0):
        self.times = Scaled()
        self.failures: list[str] = []
        self._between = between
        self._every = every
        self._last = time.perf_counter()

    @property
    def samples_s(self) -> list[float]:
        return self.times.ref_s

    def run(self, workload) -> float:
        """One pass over the workload's checks; returns their summed reference-speed time."""
        total = 0.0
        cal = None
        for check in workload.checks:
            result, took, cal = self.times.time(lambda: verdict(check), cal)
            total += took
            if isinstance(result, Exception) or not check.judge(result):
                self.failures.append(f"{check.name}: {result!r}"[:200])
            if self._between is not None and time.perf_counter() - self._last >= self._every:
                self._between()
                self._last = time.perf_counter()
                cal = None
        return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def layer_value(metric: str, spans, counting):
    layer, _, kind = metric.rpartition(".")
    if kind == "calls":
        return counting.count(layer) if layer in tracing.COUNTED_LAYERS else spans.calls(layer)
    if kind == "self_s":
        return spans.self_s(layer)
    return counting.distinct_ratio(layer)


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    build = WORKLOADS[name]
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = Scaled()

        def set_up(into: Path):
            (kernels, workload), _, _ = setups.time(lambda: (import_revlab(), build(seed, str(into))))
            return kernels, workload

        # Each pass runs on a fresh set-up.  Further set-ups are spread
        # through the run and thrown away, so that the median set-up time
        # sees the same host load as the checks.  Each re-imports revlab;
        # a workload keeps the modules it was built with.
        probe_dir = workdir / "probe"
        probe_dir.mkdir()
        measured = Pass(between=lambda: set_up(probe_dir), every=seconds / SETUPS)
        walls = []
        started = time.perf_counter()
        while True:
            kernels, workload = set_up(workdir)
            walls.append(measured.run(workload))
            if trace:
                break
            if len(measured.samples_s) < MIN_CHECK_SAMPLES:
                continue
            elapsed = time.perf_counter() - started
            if elapsed >= seconds or elapsed + statistics.median(walls) > 2 * seconds:
                break
        wall_s = statistics.median(walls)
        passes = [measured]
        raw = measured.times.raw_s
        per_pass = len(workload.checks)
        info = {
            "passes": len(walls),
            "check_samples": len(measured.samples_s),
            "nominal_instances": workload.nominal_instances,
            "calibrate_s_median": statistics.median(measured.times.cal_s),
            "raw": {
                "setup_s": statistics.median(setups.raw_s),
                "wall_s": statistics.median(sum(raw[i : i + per_pass]) for i in range(0, len(raw), per_pass)),
                "check_ms_p50": percentile(raw, 50) * 1e3,
                "check_ms_p90": percentile(raw, 90) * 1e3,
            },
        }

        if not trace:
            metrics = {
                "setup_s": statistics.median(setups.ref_s),
                "wall_s": wall_s,
                "instances_per_s": workload.nominal_instances / wall_s,
                "check_ms_p50": percentile(measured.samples_s, 50) * 1e3,
                "check_ms_p90": percentile(measured.samples_s, 90) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        else:
            # Both traced passes start from a fresh import, so that what
            # revlab caches, and so the call counts, do not depend on the
            # passes before them.
            spans = tracing.SpanTracer()
            timed = Pass()
            import_revlab()
            with tracing.patched(spans.install) as timed_patches:
                traced_workload = build(seed, str(workdir))
                traced_wall = timed.run(traced_workload)
            counting = tracing.CountingPass()
            counted = Pass()
            t0 = time.perf_counter()
            import_revlab()
            with tracing.patched(counting.install) as counting_patches:
                counted.run(build(seed, str(workdir)))
            info["counting_pass_s"] = time.perf_counter() - t0
            passes += [timed, counted]
            layers = lambda names: {m: layer_value(m, spans, counting) for m in names}
            metrics = layers(m for m in PER_LAYER if m != "trace_overhead")
            metrics["trace_overhead"] = traced_wall / wall_s
            info["traced_wall_s"] = traced_wall
            info["workload_layer_times_s"] = layers(WORKLOAD_LAYER_TIMES)
            info["missing_entry_points"] = sorted(set(timed_patches.missing + counting_patches.missing))
            units = PER_LAYER

        attempted = sum(len(p.samples_s) for p in passes)
        failures = [f for p in passes for f in p.failures]
        info.update(
            {
                "workload": name,
                "seeds": {"workload": seed},
                "inputs_digest": workload.digest,
                "error_rate": len(failures) / attempted,
                "failures": failures[:10],
                "python": platform.python_version(),
                "backend": getattr(kernels, "BACKEND", None),
                "git_sha": git_sha(),
                "nproc": len(os.sched_getaffinity(0)),
                "setups_s": setups.ref_s,
            }
        )
        return {
            "info": info,
            "result": {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


def report(name: str, out: dict) -> None:
    info, result = out["info"], out["result"]
    print(f"# {name}: {info['passes']} passes, {info['check_samples']} check samples, "
          f"error_rate {info['error_rate']:.4g} ({result['failed']}/{result['attempted']})")
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"info": info}, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "revlab" / "__init__.py").is_file():
        print(f"error: no revlab source under {SRC}; run from a revlab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
