"""The benchmark's workloads: generated inputs, checks and their known answers.

Each workload's `build(seed, workdir)` runs after `revlab` has been imported
and returns a `Workload`: the checks of one pass, in order, and the pass's
nominal (state, input) instance count.  A check calls one entry point of
`revlab` and is judged against the answer known for the code at the time
the benchmark was written.  Checks hold revlab's modules, bound when the
workload is built, and look entry points up on them at call time, so trace
wrappers installed before a build are seen.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

# Criterion 9: the five equivalences that fail as printed, and the scope
# rule they fail under (None: under every update policy).
RED_THEOREMS = {"P9": None, "P10": None, "P12": "keep", "P14a": None, "P14b": None}

SAMPLE_STATES = 1000
SAMPLE_BATCH = 100
MUTATION_TRIALS = 200
MUTATIONS_DETECTED_MIN = 190
IL_SCOPE = 0b0110  # worlds 1 and 2

# Instance counts a green representation round trip reports on the 2-atom
# universes (backward postulate instances plus forward reconstructions).
ROUNDTRIP_INSTANCES = {"DL": 199_798, "CL": 85_973, "IL": 7_413, "AGM": 61_950, "DP": 5_625}


@dataclass
class Check:
    """One call into revlab, timed on its own, and its known answer."""

    name: str
    run: Callable[[], Any]
    judge: Callable[[Any], bool]


@dataclass
class Workload:
    checks: list[Check]
    nominal_instances: int
    digest: str


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _states_digest(sig, states, alphas=None) -> str:
    from revlab.states import dump_state

    alphas = alphas if alphas is not None else [None] * len(states)
    return _digest(f"{dump_state(sig, st)}{a}" for st, a in zip(states, alphas))


def _green(full: int) -> Callable[[Any], bool]:
    return lambda v: v.holds and v.instances == full


def _red(v) -> bool:
    return not v.holds and bool(v.counterexamples)


# ---------------------------------------------------------------------------
# theorems-2atom: criterion 9 exhaustive


def theorems_2atom(seed: int, workdir: str) -> Workload:
    from revlab import operators, prop, states, verify

    uni = states.enumerate_states(prop.Signature.of("a b"), "faithful", global_consistency=True)
    full = len(uni.states) * 16
    # Policy-major, so each theorem's checks are spread over the pass and
    # the percentiles do not hinge on one stretch of time.
    checks = []
    for policy in operators.all_policies():
        for theorem in verify.THEOREM_IDS:
            op = operators.RevisionOperator("dl", policy)
            red = theorem in RED_THEOREMS and RED_THEOREMS[theorem] in (None, policy.scope_rule)
            checks.append(
                Check(
                    f"{theorem} {policy}",
                    lambda op=op, t=theorem: verify.verify_equivalence(op, uni, t),
                    _red if red else _green(full),
                )
            )
    return Workload(checks, len(checks) * full, _states_digest(uni.sig, uni.states))


# ---------------------------------------------------------------------------
# sample-3atom: the green theorems on seeded 3-atom faithful states


def sample_faithful_states(sig, count: int, rng: random.Random):
    """Seeded faithful, globally consistent states over `sig`.

    Each state draws a nonempty scope, builds a ranked order over it by
    inserting its shuffled worlds one at a time (joining an existing level
    or opening a new one with even odds), and takes beliefs as the order's
    minimum or nothing, plus any worlds outside the scope.  Empty beliefs
    fall back to the minimum.  The draws follow the library sampler used by
    the acceptance tests at the time this benchmark was written, and live
    here so the workload's inputs stay fixed if that sampler changes.
    """
    from revlab.orders import RankedOrder
    from revlab.states import EpistemicState

    full = sig.all_worlds
    out = []
    for _ in range(count):
        scope = rng.randrange(1, full + 1)
        worlds = [w for w in range(sig.n_worlds) if scope >> w & 1]
        rng.shuffle(worlds)
        levels: list[int] = []
        for w in worlds:
            if levels and rng.random() < 0.5:
                levels[rng.randrange(len(levels))] |= 1 << w
            else:
                levels.insert(rng.randrange(len(levels) + 1), 1 << w)
        order = RankedOrder(tuple(levels))
        inner = order.levels[0] if rng.random() < 0.5 else 0
        bel = inner | (rng.randrange(full + 1) & ~scope)
        if bel == 0:
            bel = order.levels[0]
        out.append(EpistemicState(bel, scope, order))
    return out


def sample_3atom(seed: int, workdir: str) -> Workload:
    from revlab import operators, prop, states, verify

    sig = prop.Signature.of("a b c")
    rng = random.Random(seed)
    sample = sample_faithful_states(sig, SAMPLE_STATES, rng)
    alphas = [rng.randrange(1 << sig.n_worlds) for _ in sample]
    instances = list(zip(sample, alphas))
    uni = states.enumerate_states(sig, "faithful", global_consistency=True)
    op = operators.RevisionOperator("dl", operators.UpdatePolicy("keep", "doc"))
    green = [t for t in verify.THEOREM_IDS if t not in RED_THEOREMS]
    checks = []
    for lo in range(0, len(instances), SAMPLE_BATCH):  # batch-major, as above
        batch = instances[lo : lo + SAMPLE_BATCH]
        for theorem in green:
            checks.append(
                Check(
                    f"{theorem} [{lo}:{lo + len(batch)}]",
                    lambda t=theorem, b=batch: verify.verify_equivalence(op, uni, t, instance_list=b),
                    _green(len(batch)),
                )
            )
    return Workload(checks, len(green) * len(instances), _states_digest(sig, sample, alphas))


# ---------------------------------------------------------------------------
# representation-2atom: criteria 3 and 4 and the family round trips


def _cli_check(cli, path: str):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", "--operator", path, "--sig", "a b", "--format", "json", "all"])
    return code, json.loads(out.getvalue())


def _cli_judge(n_states: int) -> Callable[[Any], bool]:
    def judge(result) -> bool:
        code, report = result
        want = {f"DL{i}": n_states * 16 * (16 if i == 7 else 1) for i in range(1, 8)}
        got = {c["id"]: c["instances"] for c in report["checks"] if c["result"] == "PASS"}
        return code == 0 and got == want

    return judge


def _reconstruction_mismatches(kernels, operators, op, uni) -> int:
    mismatches = 0
    for st in uni.states:
        order, scope = operators.canonical_assignment(op, st, uni.sig)
        for alpha in range(1 << uni.sig.n_worlds):
            if kernels.revise_mask(order.levels, scope, st.bel, alpha) != op.revise_beliefs(st, alpha):
                mismatches += 1
    return mismatches


def _mutations_detected(v) -> bool:
    detected = int(v.note.split()[1].split("/")[0])
    return v.instances == MUTATION_TRIALS and detected >= MUTATIONS_DETECTED_MIN


def representation_2atom(seed: int, workdir: str) -> Workload:
    """Criterion 3 through `revlab check`, criterion 4 and five round trips.

    The mutation trials are drawn from the workload seed; the rest is
    exhaustive.
    """
    from revlab import cli, kernels, operators, prop, states, verify

    sig = prop.Signature.of("a b")
    enum = states.enumerate_states
    faithful = enum(sig, "faithful")
    faithful_gc = enum(sig, "faithful", global_consistency=True)
    fa = enum(sig, "fa")
    roundtrips = {
        "DL": (operators.RevisionOperator("dl"), faithful),
        "CL": (operators.RevisionOperator("cl"), enum(sig, "clf", global_consistency=True)),
        "IL": (
            operators.RevisionOperator("il", il_scope=IL_SCOPE),
            enum(sig, "il", global_consistency=True, il_scope=IL_SCOPE),
        ),
        "AGM": (operators.RevisionOperator("agm"), fa),
        "DP": (operators.RevisionOperator("agm", operators.UpdatePolicy("natural", "keep")), fa),
    }
    keep = operators.RevisionOperator("dl", operators.UpdatePolicy("keep", "keep"))

    checks = []
    for policy in operators.all_policies():
        path = os.path.join(workdir, f"dl-{policy.order_rule}-{policy.scope_rule}.op")
        with open(path, "w") as fh:
            fh.write(operators.dump_operator(operators.RevisionOperator("dl", policy)))
        checks.append(Check(f"revlab check {policy}", lambda p=path: _cli_check(cli, p), _cli_judge(len(faithful.states))))
    checks.append(Check("reconstruction", lambda: _reconstruction_mismatches(kernels, operators, keep, faithful), lambda n: n == 0))
    checks.append(
        Check(
            "mutation-detection",
            lambda: verify.mutation_detection(keep, faithful_gc, trials=MUTATION_TRIALS, seed=seed),
            _mutations_detected,
        )
    )
    for family, (op, uni) in roundtrips.items():
        checks.append(
            Check(
                f"roundtrip-{family}",
                lambda op=op, uni=uni, f=family: verify.representation_roundtrip(op, uni, f),
                _green(ROUNDTRIP_INSTANCES[family]),
            )
        )

    n_classes = 1 << sig.n_worlds
    nominal = (
        len(operators.all_policies()) * len(faithful.states) * n_classes
        + len(faithful.states) * n_classes
        + MUTATION_TRIALS
        + sum(len(uni.states) * n_classes for _, uni in roundtrips.values())
    )
    digest = _digest([f"mutation seed {seed}", *(_states_digest(sig, u.states) for _, u in roundtrips.values())])
    return Workload(checks, nominal, digest)


WORKLOADS = {
    "theorems-2atom": theorems_2atom,
    "sample-3atom": sample_3atom,
    "representation-2atom": representation_2atom,
}
