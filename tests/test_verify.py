import hashlib
import random

import pytest
from condition_oracle import oracle_condition

from revlab.classify import syntactic_scope
from revlab.errors import PreconditionError
from revlab import operators, verify
from revlab.fixtures import karl_fixture
from revlab.operators import (
    ExtensionalOperator,
    RevisionOperator,
    UpdatePolicy,
    all_policies,
    canonical_assignment,
    tabulate,
)
from revlab.orders import RankedOrder
from revlab.prop import Signature, parse_models
from revlab.states import EpistemicState, enumerate_states, sample_states
from revlab.transitions import TransitionTable
from revlab.verify import (
    _THEOREM_CONDITIONS,
    CONDITION_IDS,
    CONDITIONS,
    POSTULATE_IDS,
    THEOREM_IDS,
    Counterexample,
    check_condition,
    check_postulate,
    mutation_detection,
    representation_roundtrip,
    verify_equivalence,
)

AB = Signature.of("a b")
DL_OP = RevisionOperator("dl", UpdatePolicy("keep", "keep"))


def mask(*worlds):
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


@pytest.fixture(scope="module")
def faithful():
    return enumerate_states(AB, "faithful")


@pytest.fixture(scope="module")
def faithful_gc():
    return enumerate_states(AB, "faithful", global_consistency=True)


class TestCheckPostulate:
    def test_dl_suite_passes(self, faithful):
        for pid in [f"DL{i}" for i in range(1, 8)]:
            assert check_postulate(DL_OP, faithful, pid).holds

    def test_dl_operators_satisfy_cl5(self, faithful):
        # success closed under weakening follows from the full DL list
        assert check_postulate(DL_OP, faithful, "CL5").holds

    def test_dl_operator_fails_vacuity_outside_scope(self, faithful):
        # a state whose beliefs are partly outside its scope breaks CL2
        v = check_postulate(DL_OP, faithful, "CL2")
        assert not v.holds
        ce = v.counterexamples[0]
        assert ce.state.bel & ~ce.state.scope

    def test_il_operator_fails_cl2_with_full_belief_witness(self):
        scope = mask(1, 2)
        uni = enumerate_states(AB, "il", global_consistency=True, il_scope=scope)
        op = RevisionOperator("il", il_scope=scope)
        v = check_postulate(op, uni, "CL2", max_counterexamples=10_000)
        assert not v.holds
        assert any(ce.state.bel == AB.all_worlds for ce in v.counterexamples)

    def test_unknown_id_lists_valid_ones(self, faithful):
        with pytest.raises(ValueError, match="DL1"):
            check_postulate(DL_OP, faithful, "DL9")

    def test_keep_policy_satisfies_dldp(self, faithful_gc):
        # the order-preserving policy keeps revision by scoped inputs stable
        for pid in ("DLDP1", "DLDP2"):
            assert check_postulate(DL_OP, faithful_gc, pid).holds

    def test_keep_policy_fails_cldp(self, faithful_gc):
        # scoped two-step stability fails once believed inputs outside the
        # scope come into play
        v = check_postulate(DL_OP, faithful_gc, "CLDP1")
        assert not v.holds and v.counterexamples

    def test_doc_policy_satisfies_doc(self, faithful_gc):
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        assert check_postulate(op, faithful_gc, "DOC").holds

    def test_keep_policy_fails_doc(self, faithful_gc):
        v = check_postulate(DL_OP, faithful_gc, "DOC")
        assert not v.holds

    @pytest.mark.parametrize("pid", ["FC", "FR", "SC", "SR"])
    def test_scope_monotony_reports_the_class_that_moved(self, faithful_gc, pid):
        # beta is the least class that left the scope (FC, SC) or entered it
        # (FR, SR), by the revision's own acceptance, not a bit of that set
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        v = check_postulate(op, faithful_gc, pid, max_counterexamples=10**6)
        if pid in ("FC", "SR"):
            assert v.counterexamples
        for ce in v.counterexamples:
            sc = syntactic_scope(op, ce.state, AB)
            scp = syntactic_scope(op, op.apply(ce.state, ce.alpha), AB)
            moved = sc - scp if pid in ("FC", "SC") else scp - sc
            assert ce.beta == min(moved)


class TestCheckCondition:
    def test_identity_transition_satisfies_cr(self):
        _, st, _ = karl_fixture()
        sig = Signature.of("z o t")
        for cid in ("CR8", "CR9", "CR10", "CR11"):
            assert check_condition(st, st, parse_models("t", sig), cid, sig)

    def test_karl_transition_p9ii_otherwise_branch(self):
        # one scope world satisfies the input, so the fallback branch of the
        # scope-preservation condition applies and holds
        sig, st, op = karl_fixture()
        alpha = parse_models("t", sig)
        post = op.apply(st, alpha)
        assert check_condition(st, post, alpha, "P9.ii", sig)

    def test_dropping_scope_world_fails_p9ii(self):
        st = EpistemicState(mask(0, 1), mask(0, 1), RankedOrder((mask(0, 1),)))
        alpha = mask(0, 1)
        post = EpistemicState(mask(0), mask(0), RankedOrder((mask(0),)))
        assert not check_condition(st, post, alpha, "P9.ii", AB)

    def test_assignment_conditions(self):
        _, karl, _ = karl_fixture()
        assert check_condition(karl, karl, 0, "LIM-FAITHFUL", Signature.of("z o t"))
        assert not check_condition(karl, karl, 0, "CLF", Signature.of("z o t"))
        fa = EpistemicState(mask(1), mask(0, 1, 2, 3), RankedOrder((mask(1), mask(0, 2, 3))))
        assert check_condition(fa, fa, 0, "FA1", AB)
        assert check_condition(fa, fa, 0, "FA2", AB)

    def test_unknown_condition(self):
        _, st, _ = karl_fixture()
        with pytest.raises(ValueError, match="SI1"):
            check_condition(st, st, 0, "NOPE", AB)

    def test_conditions_that_read_revisions_need_the_operator(self):
        sig, st, _ = karl_fixture()
        for cid in CONDITION_IDS:
            if cid.startswith(("P14", "P16", "C-")) and cid not in ("C-DOC", "C-COM"):
                with pytest.raises(PreconditionError):
                    check_condition(st, st, 1, cid, sig)
            else:
                assert check_condition(st, st, 1, cid, sig) in (True, False)

    def test_every_listed_condition_evaluates(self):
        sig, st, op = karl_fixture()
        alpha = parse_models("t", sig)
        post = op.apply(st, alpha)
        for cid in CONDITION_IDS:
            assert check_condition(st, post, alpha, cid, sig, op) in (True, False)


def _distinct_transitions(sig, pairs):
    """The distinct (state, posterior, input) transitions of (state, input) pairs under every policy."""
    seen = {}
    for policy in all_policies():
        op = RevisionOperator("dl", policy)
        for st, a in pairs:
            seen.setdefault((st, op.apply(st, a), a), None)
    return list(seen)


# The ids that read consistent_only are also compared with it set.
_CONSISTENT_ONLY_IDS = [cid for cid in CONDITION_IDS if cid[:2] in ("SI", "SD", "C-")]


def _oracle_mismatches(sig, transitions):
    # The dl prior's belief table and success worlds do not depend on the
    # policy, so one table serves the conditions that read them.
    tab = TransitionTable(RevisionOperator("dl"), sig)
    bad = []
    for st, post, a in transitions:
        for cid, co in [(cid, False) for cid in CONDITION_IDS] + [(cid, True) for cid in _CONSISTENT_ONLY_IDS]:
            got = check_condition(st, post, a, cid, sig, tab, co)
            want = oracle_condition(st, post, a, cid, sig, tab, co)
            if got is not want:
                bad.append((cid, co, st, post, a, got, want))
    return bad


class TestConditionsMatchOracle:
    """The mask-algebra condition table against the literal world-pair and class loops."""

    def test_every_2atom_transition_under_every_policy(self, faithful):
        transitions = _distinct_transitions(AB, [(st, a) for st in faithful.states for a in range(16)])
        assert len(transitions) == 21_226
        assert _oracle_mismatches(AB, transitions)[:5] == []

    def test_seeded_3atom_sample_under_every_policy(self):
        sig = Signature.of("a b c")
        rng = random.Random(20240809)
        states = sample_states(sig, "faithful", 150, rng)
        pairs = [(st, rng.randrange(256)) for st in states for _ in range(3)]
        assert _oracle_mismatches(sig, _distinct_transitions(sig, pairs))[:5] == []

    @pytest.mark.parametrize("atoms", ["a b", "a b c"])
    def test_seeded_arbitrary_pairs(self, atoms):
        # The conditions are defined on any two states, not only on a state
        # and its posterior; unrelated pairs with arbitrary beliefs reach
        # the order relations no revision produces (FA1 and FA2 on
        # unfaithful priors, ties between an input and its complement).
        sig = Signature.of(atoms)
        rng = random.Random(7)
        orders = sample_states(sig, "faithful", 2 * 1200, rng)
        states = [EpistemicState(rng.randrange(1 << sig.n_worlds), st.scope, st.order) for st in orders]
        triples = [
            (states[i], states[i + 1], rng.randrange(1 << sig.n_worlds)) for i in range(0, len(states), 2)
        ]
        assert _oracle_mismatches(sig, triples)[:5] == []


class TestEquivalences:
    def test_p15a_zero_mismatches_every_policy(self, faithful_gc):
        for policy in all_policies():
            op = RevisionOperator("dl", policy)
            assert verify_equivalence(op, faithful_gc, "P15a").holds

    def test_p13a_scope_monotony_characterised(self, faithful_gc):
        op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
        assert verify_equivalence(op, faithful_gc, "P13a").holds

    def test_doc_characterisation(self, faithful_gc):
        for policy in (UpdatePolicy("keep", "doc"), UpdatePolicy("lex", "keep")):
            op = RevisionOperator("dl", policy)
            assert verify_equivalence(op, faithful_gc, "P-DOC").holds

    def test_dp1_characterisation_is_one_sided(self, faithful_gc):
        # the condition side is necessary but not sufficient: every
        # mismatch has the conditions true and the postulate false
        v = verify_equivalence(DL_OP, faithful_gc, "P9", max_counterexamples=50)
        assert not v.holds
        assert all(ce.observed is False for ce in v.counterexamples)

    def test_unknown_theorem(self, faithful_gc):
        with pytest.raises(ValueError, match="P13a"):
            verify_equivalence(DL_OP, faithful_gc, "nope")


# Counterexamples of the five red criterion-9 equivalences under keep/keep on
# the 2-atom faithful universe: the first five as (bel, scope, levels), input
# and clause, the instances checked when the cap stops the run, and the
# length and digest of the full list.  Sharing belief tables between the
# postulate and the condition side must not move them.
_HOLDS, _FAILS = "condition holds, postulate fails", "postulate holds, condition fails"
RED_COUNTEREXAMPLES = {
    "P9": (
        [((2, 1, (1,)), a, _HOLDS) for a in (1, 3, 5, 7, 9)],
        12, 4308, "bdd1e99cdcf7486e",
    ),
    "P10": (
        [((2, 1, (1,)), a, _HOLDS) for a in (1, 3, 5, 7, 9)],
        12, 4308, "7a47f24fb2617864",
    ),
    "P12": (
        [((4, 3, (1, 2)), a, _FAILS) for a in (2, 6, 10, 14)] + [((8, 3, (1, 2)), 2, _FAILS)],
        503, 2452, "dd996078ab35d3f9",
    ),
    "P14a": (
        [((2, 1, (1,)), a, _HOLDS) for a in (3, 7, 11, 15)] + [((4, 1, (1,)), 5, _HOLDS)],
        24, 710, "85f13117920ea567",
    ),
    "P14b": (
        [((2, 1, (1,)), a, _HOLDS) for a in (1, 5, 9, 13)] + [((4, 1, (1,)), 1, _HOLDS)],
        20, 710, "a409c49aa7265859",
    ),
}


def _rows(verdict):
    return [
        ((ce.state.bel, ce.state.scope, ce.state.order.levels), ce.alpha, ce.clause)
        for ce in verdict.counterexamples
    ]


@pytest.mark.parametrize("theorem", sorted(RED_COUNTEREXAMPLES))
def test_red_counterexamples_pinned(theorem, faithful_gc):
    first, at_cap, total, digest = RED_COUNTEREXAMPLES[theorem]
    v = verify_equivalence(DL_OP, faithful_gc, theorem)
    assert not v.holds and v.note == "counterexample cap hit"
    assert v.instances == at_cap
    assert _rows(v) == [(st, a, f"{theorem}: {side}") for st, a, side in first]
    full = verify_equivalence(DL_OP, faithful_gc, theorem, max_counterexamples=10**6)
    assert full.instances == len(faithful_gc.states) * 16
    rows = _rows(full)
    assert len(rows) == total
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


# Uncapped postulate verdicts with consistent_only off and on: one digest
# per postulate over holds, instances, note and every counterexample field.
# They run on the 2-atom faithful universe under three policies and on the
# fixed-scope universe under the il operator, each also as a lookup table
# with some entries replaced by random states of its universe, which makes
# the postulates every policy satisfies fail somewhere.  Pinned from the
# postulate checker written as one branch per postulate id.
_PINNED_POLICIES = (UpdatePolicy("keep", "keep"), UpdatePolicy("keep", "doc"), UpdatePolicy("lex", "result_only"))
POSTULATE_DIGESTS = {
    "DL1": "4935a9377b9af01f",
    "DL2": "922c03fe6e02800b",
    "DL3": "0c5d737e1cc6f7c2",
    "DL4": "a58d3e465f4b6366",
    "DL5": "2b1ee11c6d079570",
    "DL6": "d64a1c2f3a497a7a",
    "DL7": "7f8caddd24c6952e",
    "CL1": "3d7734bbbaa0e79f",
    "CL2": "5b39cbaa706ec751",
    "CL3": "31b003a531995900",
    "CL4": "d64a1c2f3a497a7a",
    "CL5": "960af9ab008d2270",
    "CL6": "8b3e3e710e480e46",
    "IL1": "5694ba6f0e06cd83",
    "IL2": "fed6055cc8ac63ad",
    "IL3": "b5ab414c06be97ad",
    "IL4": "52e857d29180d274",
    "IL5": "5ede8644d04ee4fa",
    "IL6": "d64a1c2f3a497a7a",
    "IL7": "5db17c48606e9b96",
    "DP1": "0bed934036666e1d",
    "DP2": "6bdd4f90bd2978e0",
    "DP3": "b868aba868cd4a9a",
    "DP4": "b4c00626f1315942",
    "CLDP1": "00b5dd70d7959ded",
    "CLDP2": "d4c2dad044a5ae62",
    "CLP": "a4e8aade655c911f",
    "CLCD": "23da437c37eab9a0",
    "CM1": "b007c0129b34cece",
    "CM2": "776d68a03929658a",
    "FC": "0461fed2d78c6a23",
    "FR": "914e63a687ef0c05",
    "SC": "563d4774e94480f0",
    "SR": "af1ecb138bd7f44f",
    "DOC": "e4a59f29ddc1a236",
    "COM": "77c4614b46f1231d",
    "DLDP1": "04639e5358434c99",
    "DLDP2": "36ce273d0606e466",
}
SAMPLED_POSTULATE_DIGEST = "933e71cf294a6031"


def _corrupted_table(op, universe, n, seed):
    rng = random.Random(seed)
    mapping = dict(tabulate(op, universe).mapping)
    for _ in range(n):
        st = universe.states[rng.randrange(len(universe.states))]
        mapping[(st, rng.randrange(16))] = universe.states[rng.randrange(len(universe.states))]
    return ExtensionalOperator(AB, tuple(universe.states), mapping)


def _pinned_runs(faithful):
    il_op = RevisionOperator("il", il_scope=mask(1, 2))
    il_uni = enumerate_states(AB, "il", il_scope=il_op.il_scope)
    ops = [RevisionOperator("dl", policy) for policy in _PINNED_POLICIES]
    return [(op, faithful) for op in ops + [_corrupted_table(DL_OP, faithful, 40, 3)]] + [
        (op, il_uni) for op in (il_op, _corrupted_table(il_op, il_uni, 10, 8))
    ]


def _verdict_bytes(v):
    ces = [
        (ce.state.bel, ce.state.scope, ce.state.order.levels, ce.alpha, ce.beta, ce.clause,
         repr(ce.observed), repr(ce.required))
        for ce in v.counterexamples
    ]
    return repr((v.holds, v.instances, v.note, ces)).encode()


def test_postulate_verdicts_pinned(faithful):
    digests = {pid: hashlib.sha256() for pid in POSTULATE_IDS}
    failing = 0
    for op, universe in _pinned_runs(faithful):
        for co in (False, True):
            for pid in POSTULATE_IDS:
                v = check_postulate(op, universe, pid, consistent_only=co, max_counterexamples=10**7)
                digests[pid].update(_verdict_bytes(v))
                failing += not v.holds
    assert failing == 248
    assert {pid: h.hexdigest()[:16] for pid, h in digests.items()} == POSTULATE_DIGESTS


def test_sampled_postulate_verdicts_pinned(faithful):
    rng = random.Random(11)
    instances = [(faithful.states[rng.randrange(len(faithful.states))], rng.randrange(16)) for _ in range(80)]
    h = hashlib.sha256()
    for op, _ in _pinned_runs(faithful)[:4]:  # the operators on the faithful universe
        for pid in POSTULATE_IDS:
            v = check_postulate(op, faithful, pid, instance_list=instances, max_counterexamples=10**7)
            h.update(_verdict_bytes(v))
    assert h.hexdigest()[:16] == SAMPLED_POSTULATE_DIGEST


# Uncapped theorem verdicts with consistent_only off and on: one digest per
# theorem over holds, instances, note and every counterexample field, on the
# 417-state universe under three policies and a corrupted lookup table,
# which makes the green theorems fail in both directions.  The sampled
# digest covers every theorem on seeded 3-atom (state, input) pairs.  Pinned
# from the suite that evaluated both sides once per (state, input).
THEOREM_DIGESTS = {
    "P9": "2913a38854e43025",
    "P10": "c730c4c7f159aa9d",
    "P11": "bd96dcc3045734ba",
    "P12": "a381810ff2103a32",
    "P13a": "30fab218c5b65c27",
    "P13b": "619839f7df153995",
    "P14a": "fd95cb1912ea8011",
    "P14b": "4f05d8b0c277939a",
    "P15a": "8d37e96f743fcc20",
    "P15b": "26a5d2261fd5f94e",
    "P16": "d77dc923934573d5",
    "P-CLCD": "785108bba048ad1a",
    "P-CM1": "e92691d8cd30bfb9",
    "P-CM2": "a54d30a25d283493",
    "P-FCFR": "2555d7c04108e5d3",
    "P-SCSR": "7da8595e607d3fc9",
    "P-DOC": "39fecf8cedab49a2",
    "P-COM": "3efc801f6c3ff303",
}
SAMPLED_THEOREM_DIGEST = "4522a88322c82e10"


def _theorem_ops(universe):
    return [RevisionOperator("dl", policy) for policy in _PINNED_POLICIES] + [_corrupted_table(DL_OP, universe, 40, 3)]


def test_theorem_verdicts_pinned(faithful_gc):
    digests = {theorem: hashlib.sha256() for theorem in THEOREM_IDS}
    failing, sides = 0, set()
    for op in _theorem_ops(faithful_gc):
        for co in (False, True):
            for theorem in THEOREM_IDS:
                v = verify_equivalence(op, faithful_gc, theorem, consistent_only=co, max_counterexamples=10**7)
                digests[theorem].update(_verdict_bytes(v))
                failing += not v.holds
                if theorem not in RED_COUNTEREXAMPLES:
                    sides.update(ce.clause.split(": ")[1] for ce in v.counterexamples)
    assert failing == 62
    assert sides == {_HOLDS, _FAILS}
    assert {theorem: h.hexdigest()[:16] for theorem, h in digests.items()} == THEOREM_DIGESTS


def test_sampled_theorem_verdicts_pinned():
    sig = Signature.of("a b c")
    uni = enumerate_states(sig, "faithful", global_consistency=True)
    rng = random.Random(5)
    # Two inputs per state, one after the other, so a bitset kept across
    # instances of one state would show.
    states = sample_states(sig, "faithful", 100, rng, global_consistency=True)
    instances = [(st, rng.randrange(256)) for st in states for _ in range(2)]
    h = hashlib.sha256()
    for policy in _PINNED_POLICIES:
        for theorem in THEOREM_IDS:
            v = verify_equivalence(
                RevisionOperator("dl", policy), uni, theorem, instance_list=instances, max_counterexamples=10**7
            )
            h.update(_verdict_bytes(v))
    assert h.hexdigest()[:16] == SAMPLED_THEOREM_DIGEST


# The postulate ids the theorems read, each as a per-state bitset.
_THEOREM_PIDS = sorted({pid for parts in _THEOREM_CONDITIONS.values() for pid, _ in parts if pid})


@pytest.mark.parametrize("co", [False, True])
def test_postulate_bitset_matches_one_input_runs(faithful, co):
    # One pass over a state's inputs flags exactly the inputs at which a
    # pass over that input alone finds a counterexample.
    for op, _ in _pinned_runs(faithful)[:4]:  # three policies and the corrupted table
        tab = TransitionTable(op, AB, faithful, co)
        for pid in _THEOREM_PIDS:
            for st in faithful.states:
                sid = tab.id_of(st)
                alone = [a for a in tab.classes() if any(True for _ in verify._iter_postulate(tab, pid, sid, [a]))]
                want = sum(1 << a for a in alone)
                assert verify._postulate_instance(tab, pid, sid, tab.classes()) == want, (pid, st)


class TestRoundtrips:
    def test_dl_roundtrip(self, faithful):
        assert representation_roundtrip(DL_OP, faithful, "DL").holds

    def test_cl_roundtrip(self):
        uni = enumerate_states(AB, "clf", global_consistency=True)
        assert representation_roundtrip(RevisionOperator("cl"), uni, "CL").holds

    def test_il_roundtrip_and_constant_scope(self):
        scope = mask(1, 2)
        uni = enumerate_states(AB, "il", global_consistency=True, il_scope=scope)
        op = RevisionOperator("il", il_scope=scope)
        assert representation_roundtrip(op, uni, "IL").holds

    def test_agm_and_dp_roundtrips(self):
        uni = enumerate_states(AB, "fa")
        for family in ("AGM", "DP"):
            assert representation_roundtrip(RevisionOperator("agm"), uni, family).holds

    def test_unknown_family(self, faithful):
        with pytest.raises(ValueError):
            representation_roundtrip(DL_OP, faithful, "XX")


class TestMutation:
    def test_detection_rate(self, faithful_gc):
        v = mutation_detection(DL_OP, faithful_gc, trials=60, seed=1)
        assert v.holds
        assert v.seed == 1

    def test_verdicts_for_seeds_0_and_1(self, faithful):
        # pinned from the version that copied the table for every trial
        v0 = mutation_detection(DL_OP, faithful, trials=200, seed=0)
        assert (v0.holds, v0.instances, v0.note, v0.counterexamples) == (True, 200, "detected 200/200", [])
        v1 = mutation_detection(DL_OP, faithful, trials=200, seed=1)
        assert (v1.holds, v1.instances, v1.note) == (True, 200, "detected 199/200")
        miss = EpistemicState(0, 15, RankedOrder((1, 4, 2, 8)))
        assert v1.counterexamples == [
            Counterexample(miss, 10, 8, "mutation not detected", "accepted", "detected")
        ]

    def test_tabulated_operator_is_restored_after_every_trial(self, faithful, monkeypatch):
        # Each trial must see the tabulated table with exactly its own entry
        # overwritten, and the table must be whole again when the run ends,
        # also when a trial raises.
        tables = []

        def recording_tabulate(op, universe):
            base = tabulate(op, universe)
            tables.append((base, dict(base.mapping)))
            return base

        def checking_assignment(op, st, sig):
            base, snapshot = tables[0]
            assert op is base
            changed = [k for k, v in base.mapping.items() if snapshot[k] is not v]
            assert len(changed) == 1 and changed[0][0] == st
            calls.append(changed[0])
            return canonical_assignment(op, st, sig)

        calls = []
        monkeypatch.setattr(operators, "tabulate", recording_tabulate)
        monkeypatch.setattr(verify, "canonical_assignment", checking_assignment)
        mutation_detection(DL_OP, faithful, trials=30, seed=1)
        base, snapshot = tables[0]
        assert len(calls) == 30 and base.mapping == snapshot
        assert all(base.mapping[k] is v for k, v in snapshot.items())

        def failing_assignment(op, st, sig):
            raise RuntimeError("trial failed")

        tables.clear()
        monkeypatch.setattr(verify, "canonical_assignment", failing_assignment)
        with pytest.raises(RuntimeError):
            mutation_detection(DL_OP, faithful, trials=5, seed=1)
        base, snapshot = tables[0]
        assert all(base.mapping[k] is v for k, v in snapshot.items())


def test_id_registries_are_disjoint_and_complete():
    assert len(set(POSTULATE_IDS)) == len(POSTULATE_IDS) == 38
    assert len(set(THEOREM_IDS)) == 18
    assert len(set(CONDITION_IDS)) == len(CONDITION_IDS)
    assert CONDITION_IDS == tuple(
        ["FA1", "FA2", "CLF", "LIM-FAITHFUL"]
        + [f"CR{i}" for i in range(8, 12)]
        + [f"P9.{s}" for s in ("i", "ii", "iii")]
        + [f"P10.{s}" for s in ("i", "ii", "iii")]
        + [f"P11.{s}" for s in ("i", "ii", "iii", "iv")]
        + [f"P12.{s}" for s in ("i", "ii", "iii", "iv")]
        + ["SI1", "SI2", "SD1", "SD2", "P14.a", "P14.b", "P15.a", "P15.b"]
        + [f"P16.{s}" for s in ("i", "ii", "iii", "iv")]
        + ["C-CLCD", "C-CM1", "C-CM2", "C-FC", "C-FR", "C-SC", "C-SR", "C-DOC", "C-COM"]
    )
    assert THEOREM_IDS == (
        "P9", "P10", "P11", "P12", "P13a", "P13b", "P14a", "P14b", "P15a", "P15b", "P16",
        "P-CLCD", "P-CM1", "P-CM2", "P-FCFR", "P-SCSR", "P-DOC", "P-COM",
    )
    for parts in _THEOREM_CONDITIONS.values():
        for pid, cids in parts:
            assert pid is None or pid in POSTULATE_IDS
            assert all(cid in CONDITIONS for cid in cids)


# ---------------------------------------------------------------------------
# Transition tables shared by the suite calls on one universe


def _faithful_gc():
    return enumerate_states(AB, "faithful", global_consistency=True)


def _verdict(v):
    return v.holds, v.instances, v.counterexamples, v.note


@pytest.mark.parametrize(
    "policy",
    [UpdatePolicy("keep", "keep"), UpdatePolicy("natural", "doc"), UpdatePolicy("lex", "result_only")],
    ids=str,
)
def test_shared_table_gives_the_verdicts_of_fresh_universes(policy):
    # Every theorem in turn on one universe, so all but the first call read
    # a table that earlier calls filled, against each call on its own.
    shared = _faithful_gc()
    op = RevisionOperator("dl", policy)
    kept = None
    for theorem in THEOREM_IDS:
        got = verify_equivalence(op, shared, theorem)
        kept = kept or shared._transitions
        assert shared._transitions is kept
        want = verify_equivalence(RevisionOperator("dl", policy), _faithful_gc(), theorem)
        assert _verdict(got) == _verdict(want), theorem


def test_table_is_not_shared_across_consistent_only():
    uni = _faithful_gc()
    check_postulate(DL_OP, uni, "DL1")
    loose = uni._transitions
    v = check_postulate(DL_OP, uni, "CL3", consistent_only=True)
    assert uni._transitions is not loose and uni._transitions.consistent_only
    assert _verdict(v) == _verdict(check_postulate(DL_OP, _faithful_gc(), "CL3", consistent_only=True))


def test_table_is_not_shared_across_policies():
    uni = _faithful_gc()
    keep = verify_equivalence(DL_OP, uni, "P13b")
    doc = verify_equivalence(RevisionOperator("dl", UpdatePolicy("keep", "doc")), uni, "P13b")
    fresh = verify_equivalence(RevisionOperator("dl", UpdatePolicy("keep", "doc")), _faithful_gc(), "P13b")
    assert _verdict(doc) == _verdict(fresh)
    assert keep.holds and doc.holds and uni._transitions.op.policy.scope_rule == "doc"


def test_table_is_not_shared_across_tabulated_operators():
    # Two lookup-table operators that differ in one entry: the second one
    # breaks DL1 there, which a table kept from the first would hide.
    uni = _faithful_gc()
    base = tabulate(DL_OP, uni)
    st = uni.states[0]
    old = base.mapping[(st, 1)]
    bad_bel = AB.all_worlds & ~1
    assert bad_bel != st.bel
    mapping = dict(base.mapping)
    mapping[(st, 1)] = EpistemicState(bad_bel, old.scope, old.order)
    mutant = ExtensionalOperator(AB, base.states, mapping)
    assert check_postulate(base, uni, "DL1").holds
    v = check_postulate(mutant, uni, "DL1")
    assert not v.holds
    assert [(ce.state, ce.alpha) for ce in v.counterexamples] == [(st, 1)]


def test_sampled_calls_leave_no_table():
    uni = _faithful_gc()
    instances = [(st, a) for st in uni.states[:40] for a in (3, 6)]
    assert verify_equivalence(DL_OP, uni, "P15a", instance_list=instances).instances == 80
    assert check_postulate(DL_OP, uni, "DL1", instance_list=instances).holds
    assert uni._transitions is None
