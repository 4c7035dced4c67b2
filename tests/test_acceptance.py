"""Acceptance suite: exact reproduction of the worked examples plus the
exhaustive / sampled oracle runs, one test per criterion.

Every tolerance is exact (set equality / zero counterexamples); the runtime
bounds are asserted where stated.  One PASS/FAIL line per criterion is
printed in the terminal summary.

Criterion 9 is asserted as stated, per characterisation theorem.  Five of
the eighteen equivalences (P9, P10, P12, P14a, P14b) fail on concrete
faithful states; the checker emits the counterexamples and the failures are
left red deliberately — see the project notes for the analysis.  The other
thirteen hold exhaustively at 2 atoms across all nine policies and on the
seeded 3-atom sample.
"""

import random
import time

import pytest

from condition_oracle import is_unbiased, semantic_scope
from conftest import record_criterion
from revlab import classify
from revlab.fixtures import fig1_fixture, karl_fixture
from revlab.operators import RevisionOperator, UpdatePolicy, all_policies
from revlab.orders import RankedOrder, enumerate_orders, trichotomy_check
from revlab.prop import Signature, iter_worlds, parse_models
from revlab.states import (
    EpistemicState,
    StateUniverse,
    check_fa,
    enumerate_states,
    sample_states,
)
from revlab.verify import (
    MAX_COUNTEREXAMPLES,
    THEOREM_IDS,
    check_postulate,
    mutation_detection,
    representation_roundtrip,
    verify_equivalence,
)

AB = Signature.of("a b")
ABC = Signature.of("a b c")
SEED = 20240809

DL_POSTULATES = [f"DL{i}" for i in range(1, 8)]
CL_POSTULATES = [f"CL{i}" for i in range(1, 7)]
IL_POSTULATES = [f"IL{i}" for i in range(1, 8)]


def mask(*worlds):
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


@pytest.fixture(scope="module")
def faithful_all():
    return enumerate_states(AB, "faithful")


@pytest.fixture(scope="module")
def faithful_gc():
    return enumerate_states(AB, "faithful", global_consistency=True)


@pytest.fixture(scope="module")
def fa_universe():
    return enumerate_states(AB, "fa")


def test_criterion_1_karl_reproduction():
    t0 = time.perf_counter()
    sig, st, op = karl_fixture()
    after_t = op.apply(st, parse_models("t", sig))
    after_o = op.apply(after_t, parse_models("o", sig))
    elapsed = time.perf_counter() - t0
    ok = after_t.bel == mask(1) and after_o.bel == mask(1) and elapsed < 1.0
    record_criterion("01", "karl fixture: revision by t then denial of o", ok,
                     f"{elapsed:.3f}s")
    assert after_t.bel == mask(1)
    assert after_t.scope == mask(1)
    assert after_o.bel == mask(1)
    assert elapsed < 1.0


def test_criterion_2_fixed_scope_table_reproduction():
    t0 = time.perf_counter()
    sig, st1, st2, op = fig1_fixture()
    a = parse_models("a", sig)
    ab = parse_models("a & b", sig)
    rows = {
        "st1": st1.bel,
        "st1/a": op.apply(st1, a).bel,
        "st1/ab": op.apply(st1, ab).bel,
        "st2": st2.bel,
        "st2/ab": op.apply(st2, ab).bel,
    }
    want = {
        "st1": mask(3, 1),
        "st1/a": mask(2),
        "st1/ab": mask(3, 1),
        "st2": mask(0),
        "st2/ab": mask(0),
    }
    elapsed = time.perf_counter() - t0
    ok = rows == want and elapsed < 1.0
    record_criterion("02", "fixed-scope operator: all five belief rows", ok, f"{elapsed:.3f}s")
    assert rows == want
    assert elapsed < 1.0


def test_criterion_3_backward_representation_suite(faithful_all):
    t0 = time.perf_counter()
    counterexamples = 0
    for policy in all_policies():
        op = RevisionOperator("dl", policy)
        for pid in DL_POSTULATES:
            v = check_postulate(op, faithful_all, pid)
            counterexamples += len(v.counterexamples)
    elapsed = time.perf_counter() - t0
    ok = counterexamples == 0 and elapsed < 120
    record_criterion(
        "03",
        "every faithful assignment x every policy satisfies the seven DL postulates",
        ok,
        f"{len(faithful_all.states)} states x 9 policies, {elapsed:.1f}s",
    )
    assert counterexamples == 0
    assert elapsed < 120


def test_criterion_4_forward_representation_and_mutations(faithful_all, faithful_gc):
    # The reconstruction reads only belief tables, which every policy
    # shares, so one pass covers the operators of criterion 3.
    from revlab.kernels import revise_mask
    from revlab.operators import canonical_assignment

    op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
    mismatches = 0
    for st in faithful_all.states:
        order, scope = canonical_assignment(op, st, AB)
        for alpha in range(16):
            if revise_mask(order.levels, scope, st.bel, alpha) != op.revise_beliefs(st, alpha):
                mismatches += 1
    v = mutation_detection(op, faithful_gc, trials=200, seed=SEED)
    detected = int(v.note.split()[1].split("/")[0])
    ok = mismatches == 0 and v.holds
    record_criterion(
        "04",
        "canonical reconstruction reproduces every revision; table mutations detected",
        ok,
        f"0 of {len(faithful_all.states) * 16} pairs mismatch; {v.note}, seed {SEED}",
    )
    assert mismatches == 0
    assert detected >= 190  # 95% of 200


def syntactic_scope(op, st, sig):
    """The classes that revision by them makes believed, as a set."""
    return set(iter_worlds(classify.classify_state(op, st, sig).scope_syntactic))


def test_criterion_5_scope_equality(faithful_all):
    op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
    bad = sum(syntactic_scope(op, st, AB) != semantic_scope(st, AB) for st in faithful_all.states)
    rng = random.Random(SEED)
    bad3 = sum(
        syntactic_scope(op, st, ABC) != semantic_scope(st, ABC)
        for st in sample_states(ABC, "faithful", 500, rng)
    )
    # Both scopes use worlds only through set operations, so the orbit
    # representatives decide them on every 3-atom state.
    t0 = time.perf_counter()
    reps = [st for st, _ in enumerate_states(ABC, "faithful").orbits()]
    bad_reps = sum(syntactic_scope(op, st, ABC) != semantic_scope(st, ABC) for st in reps)
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and bad3 == 0 and bad_reps == 0
    record_criterion(
        "05",
        f"syntactic scope equals semantic scope (exhaustive n=2, 500 seeded n=3, {len(reps)} n=3 representatives)",
        ok,
        f"seed {SEED}; representatives {elapsed:.2f}s",
    )
    assert bad == 0
    assert bad3 == 0
    assert (len(reps), bad_reps) == (1004, 0)


def test_criterion_6_agm_scope_is_total(fa_universe):
    op = RevisionOperator("agm")
    everything = set(range(16))
    bad = sum(syntactic_scope(op, st, AB) != everything for st in fa_universe.states)
    t0 = time.perf_counter()
    reps = [st for st, _ in enumerate_states(ABC, "fa").orbits()]
    bad3 = sum(syntactic_scope(op, st, ABC) != set(range(256)) for st in reps)
    elapsed = time.perf_counter() - t0
    record_criterion(
        "06",
        f"AGM operators accept every class in every FA state (all n=2, the {len(reps)} n=3 representatives)",
        bad == 0 and bad3 == 0,
        f"representatives {elapsed:.2f}s",
    )
    assert bad == 0
    assert (len(reps), bad3) == (128, 0)


def test_criterion_7_closure_witness_equivalence():
    t0 = time.perf_counter()
    consistent = list(range(1, 16))
    mismatches = 0
    for bits in range(1 << 15):
        classes = {c for i, c in enumerate(consistent) if bits >> i & 1}
        closed = classify.check_ssc(classes, AB) and classify.check_dc(classes, AB)
        if closed != (classify.find_witness_M(classes, AB) is not None):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    record_criterion(
        "07",
        "closure properties hold iff a witness world set exists (2^15 class sets)",
        ok,
        f"{elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60


def test_criterion_8_minimisation_trichotomy():
    failures = 0
    checked = 0
    for domain in range(1, 16):
        for order in enumerate_orders(domain):
            for a in range(16):
                for b in range(16):
                    checked += 1
                    failures += not trichotomy_check(order, a, b)
    record_criterion(
        "08", "minimisation trichotomy over all weak orders on up to 4 worlds",
        failures == 0, f"{checked} triples",
    )
    assert failures == 0


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_criterion_9_characterisation_equivalences(theorem, faithful_gc):
    mismatches = 0
    first = None
    for policy in all_policies():
        op = RevisionOperator("dl", policy)
        v = verify_equivalence(op, faithful_gc, theorem)
        mismatches += len(v.counterexamples)
        if v.counterexamples and first is None:
            first = (policy, v.counterexamples[0])
    if mismatches == 0:
        rng = random.Random(SEED)
        states3 = sample_states(ABC, "faithful", 1000, rng, global_consistency=True)
        instances = [(st, rng.randrange(256)) for st in states3]
        uni3 = enumerate_states(ABC, "faithful", global_consistency=True)
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        v3 = verify_equivalence(op, uni3, theorem, instance_list=instances)
        mismatches += len(v3.counterexamples)
    detail = f"n=2 all policies + 1000 seeded n=3, seed {SEED}"
    if first is not None:
        policy, ce = first
        detail = (
            f"first mismatch under {policy}: state (bel={ce.state.bel}, "
            f"scope={ce.state.scope}), input class {ce.alpha}; {ce.clause}"
        )
    record_criterion(f"09[{theorem}]", "postulate iff semantic conditions", mismatches == 0, detail)
    assert mismatches == 0, (
        f"{theorem}: {mismatches} instance mismatches; the condition side as "
        f"printed is not equivalent to the postulate on faithful states "
        f"({detail}); see README.md, Acceptance status"
    )


# Under keep/doc at 3 atoms: the mismatches of the four red theorems counted
# on the 749 orbit representatives, one per (representative, input).  P12 is
# red only under the */keep policies.
RED_3ATOM_KEEP_DOC = {"P9": 161_707, "P10": 7_168, "P14a": 26_003, "P14b": 7_690}


def test_theorems_exhaustive_3atom_keep_doc():
    # Beside criterion 9's seeded sample: every 3-atom faithful, globally
    # consistent state at every input, decided one state per orbit.
    uni3 = enumerate_states(ABC, "faithful", global_consistency=True)
    reps = {st for st, _ in uni3.orbits()}
    op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
    for theorem in THEOREM_IDS:
        v = verify_equivalence(op, uni3, theorem, max_counterexamples=10**6)
        assert v.instances == 3_274_497 * 256, theorem
        assert len(v.counterexamples) == RED_3ATOM_KEEP_DOC.get(theorem, 0), theorem
        assert v.holds == (theorem not in RED_3ATOM_KEEP_DOC)
        assert all(ce.state in reps for ce in v.counterexamples)


# Under every policy at 3 atoms and the default cap: the instances a red
# theorem counts up to the mismatch past its fifth counterexample, each
# representative weighted by its orbit.  P12 is red only under the */keep
# policies, and P14b reaches its cap later there.
RED_3ATOM_CAPPED = {"P9": 672, "P10": 672, "P14a": 1_344, "P14b": 560}
RED_3ATOM_CAPPED_KEEP = {**RED_3ATOM_CAPPED, "P12": 529_968, "P14b": 1_232}


@pytest.fixture(scope="module")
def faithful_gc_3atom():
    return enumerate_states(ABC, "faithful", global_consistency=True)


# One test per policy: the nine took 25–35 s in all on a 2-core container.
@pytest.mark.parametrize("policy", all_policies(), ids=str)
def test_theorems_exhaustive_3atom_every_policy(policy, faithful_gc_3atom):
    reps = {st for st, _ in faithful_gc_3atom.orbits()}
    op = RevisionOperator("dl", policy)
    red = RED_3ATOM_CAPPED_KEEP if policy.scope_rule == "keep" else RED_3ATOM_CAPPED
    for theorem in THEOREM_IDS:
        v = verify_equivalence(op, faithful_gc_3atom, theorem)
        if theorem in red:
            assert (v.holds, v.instances, v.note) == (False, red[theorem], "counterexample cap hit"), theorem
            assert len(v.counterexamples) == MAX_COUNTEREXAMPLES
            assert all(ce.state in reps for ce in v.counterexamples)
        else:
            assert (v.holds, v.instances, v.counterexamples) == (True, 3_274_497 * 256, []), theorem


def test_readme_p9_witness_fails_under_every_policy(faithful_gc):
    # The README's smallest P9 witness: beliefs {01}, scope {00}, order [00],
    # revised by 00|01.  Every printed condition holds and DP1 fails.
    st = EpistemicState(mask(1), mask(0), RankedOrder((mask(0),)))
    assert st in faithful_gc.states
    for policy in all_policies():
        v = verify_equivalence(RevisionOperator("dl", policy), faithful_gc, "P9", instance_list=[(st, mask(0, 1))])
        assert not v.holds, policy
        assert [ce.clause for ce in v.counterexamples] == ["P9: condition holds, postulate fails"]


def _passes_both_suites(op, universe):
    return all(
        check_postulate(op, universe, pid, consistent_only=True).holds
        for pid in CL_POSTULATES + IL_POSTULATES
    )


def test_criterion_10_family_separation(faithful_gc, fa_universe):
    # (a) a proper fixed scope breaks vacuity, witnessed by the all-models state
    scope = mask(1, 2)
    il_uni = enumerate_states(AB, "il", global_consistency=True, il_scope=scope)
    il_op = RevisionOperator("il", il_scope=scope)
    v = check_postulate(il_op, il_uni, "CL2", max_counterexamples=10_000)
    top_witness = any(ce.state.bel == AB.all_worlds for ce in v.counterexamples)

    # (b) the credibility-limited operator whose credible set is exactly the
    # belief models fails the fixed-scope suite
    cl_states = tuple(EpistemicState(b, b, RankedOrder((b,))) for b in range(1, 16))
    cl_uni = StateUniverse(AB, "clf", True, None, cl_states)
    cl_op = RevisionOperator("cl")
    cl_fails_il = not all(
        check_postulate(cl_op, cl_uni, pid, consistent_only=True).holds
        for pid in IL_POSTULATES
    )

    # (c) across the constructed family, passing both suites characterises
    # total-scope FA validity
    candidates = []
    for il_scope in range(1, 16):
        uni = enumerate_states(AB, "il", global_consistency=True, il_scope=il_scope)
        candidates.append((RevisionOperator("il", il_scope=il_scope), uni))
    candidates.append((cl_op, cl_uni))
    candidates.append((RevisionOperator("dl"), faithful_gc))
    candidates.append((RevisionOperator("agm"), fa_universe))
    separation_ok = True
    for op, uni in candidates:
        passes = _passes_both_suites(op, uni)
        is_agm = all(check_fa(st, AB) for st in uni.states)
        if passes != is_agm:
            separation_ok = False
    ok = (not v.holds) and top_witness and cl_fails_il and separation_ok
    record_criterion(
        "10",
        "fixed-scope vs credibility-limited separation; both suites only for total scope",
        ok,
    )
    assert not v.holds and top_witness
    assert cl_fails_il
    assert separation_ok


def test_criterion_10_family_separation_at_3_atoms():
    # (c) on the globally consistent 3-atom il universes of the scopes made of the first k worlds:
    # both suites hold only at k = 8, where every orbit representative is an fa state, and each
    # proper scope fails CL2 alone
    start = time.perf_counter()
    failing, all_fa = {}, {}
    for k in range(1, 9):
        scope = (1 << k) - 1
        uni = enumerate_states(ABC, "il", global_consistency=True, il_scope=scope)
        op = RevisionOperator("il", il_scope=scope)
        failing[k] = [
            pid for pid in CL_POSTULATES + IL_POSTULATES
            if not check_postulate(op, uni, pid, consistent_only=True).holds
        ]
        all_fa[k] = all(check_fa(st, ABC) for st, _ in uni.orbits())
    time_c = time.perf_counter() - start

    # (a) a proper fixed scope breaks vacuity, witnessed by the all-models state
    start = time.perf_counter()
    scope = mask(1, 2)
    il_uni = enumerate_states(ABC, "il", global_consistency=True, il_scope=scope)
    v = check_postulate(RevisionOperator("il", il_scope=scope), il_uni, "CL2", max_counterexamples=10_000)
    top_witness = any(ce.state.bel == ABC.all_worlds for ce in v.counterexamples)
    time_a = time.perf_counter() - start

    want_failing = {k: ["CL2"] if k < 8 else [] for k in range(1, 9)}
    want_fa = {k: k == 8 for k in range(1, 9)}
    witnessed = (v.holds, v.instances, len(v.counterexamples), top_witness) == (False, 97_536, 5_010, True)
    record_criterion(
        "10[3 atoms]",
        "fixed-scope vs credibility-limited separation; both suites only for total scope",
        failing == want_failing and all_fa == want_fa and witnessed,
        f"(c) 8 scopes in {time_c:.2f}s, (a) scope 0x06 in {time_a:.2f}s",
    )
    assert failing == want_failing
    assert all_fa == want_fa
    assert witnessed


def _latency_mismatches(op, states, sig: Signature) -> int:
    """The classes and minterms at which criterion 11's characterisation fails, over `states`."""
    bad = 0
    for st in states:
        cls = classify.classify_state(op, st, sig)
        for alpha in range(1 << sig.n_worlds):
            want = alpha != 0 and alpha & ~st.scope == 0
            bad += bool(cls.reasonable >> alpha & 1) != want
        for w in range(sig.n_worlds):
            wm = 1 << w
            in_scope = bool(st.scope & wm)
            if st.bel & wm:
                bad += bool(cls.s1 >> wm & 1) != in_scope
            else:
                bad += bool(cls.s2 >> wm & 1) != in_scope
    return bad


def test_criterion_11_latency_and_reasonableness_characterised(faithful_all):
    # Every state at 2 atoms, and the 1,004 faithful orbit representatives at 3: the
    # characterisation is renaming-invariant, so they stand for the 3-atom universe.
    op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
    bad = _latency_mismatches(op, faithful_all.states, AB)
    start = time.perf_counter()
    reps = [st for st, _ in enumerate_states(ABC, "faithful").orbits()]
    bad_3atom = _latency_mismatches(op, reps, ABC)
    elapsed = time.perf_counter() - start
    record_criterion(
        "11", "reasonable iff inside scope; acceptance conditions split by belief",
        bad == bad_3atom == 0, f"{len(reps)} 3-atom representatives in {elapsed:.2f}s",
    )
    assert len(reps) == 1_004
    assert (bad, bad_3atom) == (0, 0)


def test_criterion_12_inherence_boundaries(fa_universe):
    agm = RevisionOperator("agm")
    assert is_unbiased(fa_universe)
    inh = classify.inherent_classes(agm, fa_universe)
    imm = classify.immanent_classes(agm, fa_universe)
    singletons = sum(1 << (1 << w) for w in range(4))
    nonempty = sum(1 << a for a in range(1, 16))
    cl_states = tuple(EpistemicState(b, b, RankedOrder((b,))) for b in range(1, 16))
    cl_uni = StateUniverse(AB, "clf", True, None, cl_states)
    cl_op = RevisionOperator("cl")
    cl_inh = classify.inherent_classes(cl_op, cl_uni)
    cl_imm = classify.immanent_classes(cl_op, cl_uni)
    ok = inh == singletons and imm == nonempty and cl_inh == 0 and cl_imm == 0
    record_criterion(
        "12",
        "AGM: singletons inherent, all consistent classes immanent; "
        "belief-bound credible sets: none",
        ok,
    )
    assert inh == singletons
    assert imm == nonempty
    assert cl_inh == 0
    assert cl_imm == 0


def test_representation_roundtrips_all_families(faithful_all, faithful_gc, fa_universe):
    # companion to criteria 3/4: the other families' construct/reconstruct runs
    results = {
        "DL": representation_roundtrip(
            RevisionOperator("dl"), faithful_all, "DL"
        ).holds,
        "CL": representation_roundtrip(
            RevisionOperator("cl"),
            enumerate_states(AB, "clf", global_consistency=True),
            "CL",
        ).holds,
        "IL": representation_roundtrip(
            RevisionOperator("il", il_scope=mask(1, 2)),
            enumerate_states(AB, "il", global_consistency=True, il_scope=mask(1, 2)),
            "IL",
        ).holds,
        "AGM": representation_roundtrip(RevisionOperator("agm"), fa_universe, "AGM").holds,
        "DP": representation_roundtrip(
            RevisionOperator("agm", UpdatePolicy("natural", "keep")), fa_universe, "DP"
        ).holds,
    }
    assert all(results.values()), results
