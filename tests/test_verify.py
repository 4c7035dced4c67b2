import collections
import hashlib
import random

import pytest
from condition_oracle import oracle_condition
from lane_oracle import EmptiedAtAllWorlds, corrupted_table

from revlab.conditions import _READS_REVISIONS
from revlab.errors import PreconditionError, ScopeMismatchError, TooLargeError
from revlab import classify, kernels, postulates, verify
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
from revlab.states import EpistemicState, StateUniverse, _generate_states, enumerate_states, sample_states
from revlab.transitions import TransitionTable, suite_table
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
ABC = Signature.of("a b c")
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
        def accepted(st):
            return {b for b in range(16) if op.revise_beliefs(st, b) & ~b == 0}

        for ce in v.counterexamples:
            sc = accepted(ce.state)
            scp = accepted(op.apply(ce.state, ce.alpha))
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
    tab = TransitionTable(RevisionOperator("dl"), enumerate_states(sig))
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


def test_conditions_outside_the_registry_read_no_revision_results(faithful):
    # Without an operator `check_condition` hands a condition None for the
    # prior's scope classes and success worlds, and refuses the ids of
    # `_READS_REVISIONS`; an id that reads them without being listed raises here.
    assert _READS_REVISIONS <= set(CONDITION_IDS)
    free = [cid for cid in CONDITION_IDS if cid not in _READS_REVISIONS]
    transitions = _distinct_transitions(AB, [(st, a) for st in faithful.states for a in range(16)])
    for st, post, a in transitions:
        for cid in free:
            assert check_condition(st, post, a, cid, AB) in (True, False), cid


def test_conditions_are_handed_the_state_id(monkeypatch):
    # An exhaustive suite looks up each state once and each posterior once;
    # the conditions read the prior's rows by the id the suite holds.
    looked_up = []
    id_of = TransitionTable.id_of
    monkeypatch.setattr(TransitionTable, "id_of", lambda tab, st: looked_up.append(st) or id_of(tab, st))
    universe = enumerate_states(AB, "faithful", global_consistency=True)
    v = verify_equivalence(RevisionOperator("dl", UpdatePolicy("keep", "doc")), universe, "P16")
    assert v.holds and v.instances == len(universe.states) * 16
    assert len(looked_up) <= len(universe.states) + v.instances


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


def test_red_theorem_builds_the_states_once(generated):
    # A representative fails, so the universe builds its states for the walk, once for both calls,
    # and the counterexamples are the pinned ones of the plain run.
    universe = enumerate_states(AB, "faithful", global_consistency=True)
    first, at_cap, total, digest = RED_COUNTEREXAMPLES["P9"]
    v = verify_equivalence(DL_OP, universe, "P9")
    assert generated == [(AB, "faithful", True, None)]
    assert v.instances == at_cap and _rows(v) == [(st, a, f"P9: {side}") for st, a, side in first]
    rows = _rows(verify_equivalence(DL_OP, universe, "P9", max_counterexamples=10**6))
    assert len(rows) == total and hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest
    assert len(generated) == 1


def test_red_theorem_reads_the_universe_states_once(monkeypatch):
    # The table keeps the walk's work list, so a second red check on it reads the states no more,
    # and both give the pinned counterexamples.
    read = []
    states = StateUniverse.states
    monkeypatch.setattr(StateUniverse, "states", property(lambda uni: read.append(uni) or states.fget(uni)))
    universe = enumerate_states(AB, "faithful", global_consistency=True)
    first, at_cap, _, _ = RED_COUNTEREXAMPLES["P9"]
    for _ in range(2):
        v = verify_equivalence(DL_OP, universe, "P9")
        assert v.instances == at_cap and _rows(v) == [(st, a, f"P9: {side}") for st, a, side in first]
    assert read == [universe]


def test_postulates_sharing_a_table_read_the_orbit_inputs_once(monkeypatch):
    # Equal operators share one table, which builds the representatives' work list once.
    read = []
    orbit_inputs = StateUniverse.orbit_inputs
    monkeypatch.setattr(StateUniverse, "orbit_inputs", lambda uni: read.append(uni) or orbit_inputs(uni))
    universe = enumerate_states(AB, "faithful")
    for pid in [f"DL{i}" for i in range(1, 8)]:
        assert check_postulate(RevisionOperator("dl"), universe, pid).holds, pid
    assert read == [universe]


def test_a_3atom_universe_given_its_states_is_walked():
    # Given every state of its kind by hand, a 3-atom universe has orbits but can still list its
    # states, so a failing check walks them as the plain run does.  The cap stops the walk within
    # the first failing state's 256 inputs; the representatives would count 24,576 there.
    given = StateUniverse(ABC, "il", True, 0x0F, tuple(_generate_states(ABC, "il", True, 0x0F)))
    assert len(given.states) == 2_325 and given.orbits() is not None
    v = check_postulate(DL_OP, given, "CL2")
    assert not v.holds and v.instances == 256
    assert [(ce.state.bel, ce.state.scope, ce.alpha) for ce in v.counterexamples] == [(16, 15, a) for a in range(17, 22)]


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
# Re-pinned when the β of a sampled DL7, CL5, CL6 or IL7 input ranged over
# every class, not only over the input itself: only their instance counts moved.
SAMPLED_POSTULATE_DIGEST = "1aa737910953c057"


def _pinned_runs(faithful):
    il_op = RevisionOperator("il", il_scope=mask(1, 2))
    il_uni = enumerate_states(AB, "il", il_scope=il_op.il_scope)
    ops = [RevisionOperator("dl", policy) for policy in _PINNED_POLICIES]
    return [(op, faithful) for op in ops + [corrupted_table(DL_OP, faithful, 40, 3)]] + [
        (op, il_uni) for op in (il_op, corrupted_table(il_op, il_uni, 10, 8))
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


def test_sampled_two_input_postulates_pair_each_input_with_every_class(faithful):
    # The corrupted entry breaks DL7 at every pair (α, β) that covers all
    # worlds, so a sampled α paired only with itself would never fail.
    assert not check_postulate(EmptiedAtAllWorlds(AB), faithful, "DL7").holds
    sig = Signature.of("a b c")
    uni = enumerate_states(sig, "faithful", global_consistency=True)
    rng = random.Random(7)
    states = sample_states(sig, "faithful", 1000, rng, global_consistency=True)
    instances = [(st, rng.randrange(256)) for st in states]
    v = check_postulate(EmptiedAtAllWorlds(sig), uni, "DL7", instance_list=instances)
    assert not v.holds and v.counterexamples[0].alpha | v.counterexamples[0].beta == sig.all_worlds
    for pid in verify._PAIRED:
        v = check_postulate(DL_OP, uni, pid, instance_list=instances)
        assert (v.holds, v.instances) == (True, 1000 * 256), pid


def test_theorem_suites_build_no_postulate_rows(faithful_gc, monkeypatch):
    expand, expanded, built = verify._postulate_rows, [], []

    def counted_rows(*args):
        expanded.append(args[1])
        return expand(*args)

    class Counted(Counterexample):
        def __init__(self, *fields):
            super().__init__(*fields)
            built.append(self)

    monkeypatch.setattr(verify, "_postulate_rows", counted_rows)
    monkeypatch.setattr(verify, "Counterexample", Counted)
    reported = 0
    for theorem in THEOREM_IDS:
        reported += len(verify_equivalence(DL_OP, faithful_gc, theorem, max_counterexamples=10**7).counterexamples)
    assert expanded == [] and len(built) == reported > 0


def test_check_postulate_builds_rows_only_up_to_the_cap(faithful, monkeypatch):
    expand, rows = verify._postulate_rows, []

    def counted_rows(*args):
        for row in expand(*args):
            rows.append(row)
            yield row

    monkeypatch.setattr(verify, "_postulate_rows", counted_rows)
    failing = 0
    for op, _ in _pinned_runs(faithful)[:4]:
        for pid in POSTULATE_IDS:
            for cap in (0, 2):
                rows.clear()
                v = check_postulate(op, faithful, pid, max_counterexamples=cap)
                assert len(rows) <= cap + 1 and len(v.counterexamples) <= cap, (pid, cap)
                failing += not v.holds
    assert failing > 0


# Uncapped theorem verdicts with consistent_only off and on: one digest per
# theorem over holds, instances, note and every counterexample field, on the
# 417-state universe under three policies and a corrupted lookup table,
# which makes the green theorems fail in both directions.  The sampled
# digest covers every theorem on seeded 3-atom (state, input) pairs.  Pinned
# from the suite that evaluated both sides once per (state, input); P-FCFR and
# P-SCSR re-pinned when a two-part mismatch took its label from its first
# differing part, which moved only their clause strings.
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
    "P-FCFR": "c2ced2773433c336",
    "P-SCSR": "fe5f54c493fafea7",
    "P-DOC": "39fecf8cedab49a2",
    "P-COM": "3efc801f6c3ff303",
}
SAMPLED_THEOREM_DIGEST = "4522a88322c82e10"


def _theorem_ops(universe):
    return [RevisionOperator("dl", policy) for policy in _PINNED_POLICIES] + [corrupted_table(DL_OP, universe, 40, 3)]


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


def test_two_part_mismatch_is_labelled_by_its_first_differing_part(faithful_gc):
    # Under the corrupted table every P-FCFR and P-SCSR mismatch has a
    # postulate failing where its condition holds, in the first part that differs.
    op = _theorem_ops(faithful_gc)[-1]
    ces = []
    for theorem in ("P-FCFR", "P-SCSR"):
        for co in (False, True):
            v = verify_equivalence(op, faithful_gc, theorem, consistent_only=co, max_counterexamples=10**7)
            ces += v.counterexamples
    assert len(ces) == 510
    for ce in ces:
        first = next(i for i, (lhs, rhs) in enumerate(zip(ce.observed, ce.required)) if lhs != rhs)
        assert ce.observed[first] is False and ce.clause.endswith(_HOLDS), ce


# The postulate ids the theorems read, each as a per-state bitset.
_THEOREM_PIDS = sorted({pid for parts in _THEOREM_CONDITIONS.values() for pids, _ in parts for pid in pids})


@pytest.mark.parametrize("co", [False, True])
def test_postulate_bitset_matches_one_input_runs(faithful, co):
    # One pass over a state's inputs flags exactly the inputs at which a
    # pass over that input alone finds a counterexample.
    for op, _ in _pinned_runs(faithful)[:4]:  # three policies and the corrupted table
        tab = TransitionTable(op, faithful, co)
        for pid in _THEOREM_PIDS:
            for st in faithful.states:
                sid = tab.id_of(st)
                alone = [a for a in tab.classes() if any(True for _ in verify._iter_postulate(tab, pid, sid, [a]))]
                want = sum(1 << a for a in alone)
                assert verify._postulate_instance(tab, pid, sid, tab.classes()) == want, (pid, st)


@pytest.mark.parametrize("co", [False, True])
def test_p13_rows_match_the_scope_class_comparison(faithful, co):
    # P13a's postulate side is FC or SC failing and P13b's FR or SR; the
    # oracle compares the scope classes of prior and posterior directly:
    # none may leave (P13a), resp. enter (P13b), the contradiction aside
    # under consistent_only.
    kept = -2 if co else -1
    for op, _ in _pinned_runs(faithful)[:4]:  # three policies and the corrupted table
        tab = TransitionTable(op, faithful, co)
        for st in faithful.states:
            sid = tab.id_of(st)
            sc = tab.scope_classes(sid)
            for theorem in ("P13a", "P13b"):
                ((pids, _),) = _THEOREM_CONDITIONS[theorem]
                got = 0
                for pid in pids:
                    got |= verify._postulate_instance(tab, pid, sid, tab.classes())
                for a in tab.classes():
                    scp = tab.scope_classes(tab.post(sid, a))
                    moved = sc & ~scp if theorem == "P13a" else scp & ~sc
                    assert (got >> a) & 1 == (moved & kept != 0), (theorem, st, a)


def _per_instance_mismatches(tab, parts, work):
    """The suite loop with one truth list per side and instance: the postulate side
    from each state's `_postulate_instance` bitsets, the condition side from
    `check_condition` on the instance's transition."""
    seen = None
    for instances, (item, a) in enumerate(work, 1):
        if item is not seen:
            seen = item
            st, sid, ins, _ = item
            fails = []
            for pids, _ in parts:
                bad = 0
                for pid in pids:
                    bad |= verify._postulate_instance(tab, pid, sid, ins)
                fails.append(bad)
        post = tab.states[tab.post(sid, a)]
        lhs = [not (bad >> a) & 1 for bad in fails]
        rhs = [
            all(check_condition(st, post, a, cid, tab.sig, tab, tab.consistent_only) for cid in cids)
            for _, cids in parts
        ]
        if lhs != rhs:
            yield instances, st, a, lhs, rhs


def _suite_mismatches_agree(op, universe, parts, instance_list=None, consistent_only=False):
    """Both loops' full mismatch sequences on one suite's work list; their length."""
    tab = suite_table(op, universe, consistent_only, instance_list)
    work = verify._flat(tab.work())
    got = list(verify._mismatches(tab, parts, work))
    assert got == list(_per_instance_mismatches(tab, parts, work))
    return len(got)


class TestMismatchesMatchPerInstanceLoop:
    """The per-state failing-input bitsets of `_mismatches` against one truth list per instance."""

    def test_every_theorem_under_every_policy(self, faithful_gc):
        ops = [RevisionOperator("dl", policy) for policy in all_policies()]
        found = 0
        for op in ops + [_theorem_ops(faithful_gc)[-1]]:  # the corrupted table fails both ways
            for theorem, parts in _THEOREM_CONDITIONS.items():
                found += _suite_mismatches_agree(op, faithful_gc, parts)
        assert found > 0

    def test_dp_round_trip_parts(self):
        fa = enumerate_states(AB, "fa")
        agm = RevisionOperator("agm")
        assert _suite_mismatches_agree(agm, fa, verify._DP_PARTS, consistent_only=True) == 0
        assert _suite_mismatches_agree(corrupted_table(agm, fa, 20, 5), fa, verify._DP_PARTS, consistent_only=True) > 0

    def test_green_theorems_on_sampled_3atom_instances(self):
        sig = Signature.of("a b c")
        uni = enumerate_states(sig, "faithful", global_consistency=True)
        rng = random.Random(11)
        # Two inputs per state, one after the other, as in a sampled batch.
        states = sample_states(sig, "faithful", 100, rng, global_consistency=True)
        instances = [(st, rng.randrange(256)) for st in states for _ in range(2)]
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        green = [parts for theorem, parts in _THEOREM_CONDITIONS.items() if theorem not in RED_COUNTEREXAMPLES]
        assert len(green) == 13
        for parts in green:
            _suite_mismatches_agree(op, uni, parts, instance_list=instances)


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


# Uncapped round-trip verdicts, one digest over holds, instances, note and
# every counterexample field: each family on its own operator, the dl
# keep/keep operator under the CL, IL and AGM round trips (which it fails),
# and corrupted lookup tables under DL and DP.  Mutation verdicts for seeds
# 0-3 on both 2-atom faithful universes.  Pinned from the suite that checked
# reconstructions in the round trip and in mutation detection separately.
ROUNDTRIP_DIGEST = "8b0783f65a800092"
MUTATION_DIGEST = "0f717cfb2eba23ec"


def _roundtrip_runs(faithful):
    scope = mask(1, 2)
    il_uni = enumerate_states(AB, "il", global_consistency=True, il_scope=scope)
    clf = enumerate_states(AB, "clf", global_consistency=True)
    fa = enumerate_states(AB, "fa")
    agm = RevisionOperator("agm")
    return [
        (DL_OP, faithful, "DL"),
        (RevisionOperator("cl"), clf, "CL"),
        (RevisionOperator("il", il_scope=scope), il_uni, "IL"),
        (agm, fa, "AGM"),
        (agm, fa, "DP"),
        (DL_OP, faithful, "CL"),
        (DL_OP, faithful, "IL"),
        (DL_OP, faithful, "AGM"),
        (corrupted_table(DL_OP, faithful, 40, 3), faithful, "DL"),
        (corrupted_table(DL_OP, faithful, 40, 3), faithful, "DP"),
        (corrupted_table(agm, fa, 20, 5), fa, "DP"),
    ]


def test_roundtrip_verdicts_pinned(faithful):
    h = hashlib.sha256()
    clauses = set()
    for op, universe, family in _roundtrip_runs(faithful):
        v = representation_roundtrip(op, universe, family, max_counterexamples=10**7)
        h.update(_verdict_bytes(v))
        clauses.update(ce.clause.split(":")[0] for ce in v.counterexamples)
    assert {"CL2", "IL2", "reconstruction not CLF-valid", "AGM scope not total"} <= clauses
    assert {f"DP{i} vs CR{i + 7} mismatch" for i in range(1, 5)} <= clauses
    assert h.hexdigest()[:16] == ROUNDTRIP_DIGEST


@pytest.mark.parametrize("family, instances", [("CL", 326_582), ("AGM", 467_516)])
def test_roundtrip_instance_count_does_not_depend_on_the_cap(faithful, family, instances):
    # The dl keep/keep operator fails both round trips; a capped run reports
    # the whole instance count and the first counterexamples of the uncapped run.
    full = representation_roundtrip(DL_OP, faithful, family, max_counterexamples=10**7)
    assert (full.holds, full.instances) == (False, instances)
    for cap in (1, 5):
        v = representation_roundtrip(DL_OP, faithful, family, max_counterexamples=cap)
        assert (v.holds, v.instances) == (False, instances)
        assert v.counterexamples == full.counterexamples[:cap]


@pytest.mark.parametrize("cap", [0, 1])
def test_capped_roundtrip_fails_with_the_cap_note(faithful, cap):
    # The cap bounds the counterexamples listed, not the verdict: a failing
    # round trip fails at cap 0 too, and says that the cap cut its list.
    op = RevisionOperator("dl")
    full = representation_roundtrip(op, faithful, "CL", max_counterexamples=10**7)
    v = representation_roundtrip(op, faithful, "CL", max_counterexamples=cap)
    assert not full.holds and len(full.counterexamples) > 1
    assert (v.holds, v.instances, v.note) == (False, full.instances, "counterexample cap hit")
    assert v.counterexamples == full.counterexamples[:cap]


@pytest.mark.parametrize(
    "suite, check_id",
    [(check_postulate, "CL2"), (verify_equivalence, "P9"), (representation_roundtrip, "CL")],
    ids=["postulate", "theorem", "roundtrip"],
)
def test_negative_cap_is_refused(faithful, suite, check_id):
    # Every suite refuses a negative cap alike, rather than reading it as a cap
    # hit before the first counterexample.
    with pytest.raises(ValueError, match="max_counterexamples"):
        suite(RevisionOperator("dl"), faithful, check_id, max_counterexamples=-1)


@pytest.mark.parametrize("alpha", [-1, 16])
@pytest.mark.parametrize("suite, check_id", [(check_postulate, "DL1"), (verify_equivalence, "P9")], ids=["postulate", "theorem"])
def test_sampled_input_outside_the_classes_is_refused(faithful, suite, check_id, alpha):
    # Refused before any check: read past the belief row, an input outside the
    # classes gives a verdict or an error that says nothing of the input.
    instances = [(faithful.states[0], 3), (faithful.states[1], alpha)]
    with pytest.raises(ValueError, match=rf"\[{alpha}\] lie outside the classes 0\.\.15"):
        suite(DL_OP, faithful, check_id, instance_list=instances)


@pytest.mark.parametrize("suite, check_id", [(check_postulate, "DL1"), (verify_equivalence, "P9")], ids=["postulate", "theorem"])
def test_sampled_contradiction_is_refused_under_consistent_only(faithful, suite, check_id):
    # Under consistent_only the classes start at 1: an exhaustive check walks no α = 0, so a sampled
    # one may not check and count it either.
    instances = [(faithful.states[0], 3), (faithful.states[1], 0)]
    with pytest.raises(ValueError, match=r"\[0\] lie outside the classes 1\.\.15"):
        suite(DL_OP, faithful, check_id, instance_list=instances, consistent_only=True)


@pytest.mark.parametrize("family", ["CL", "AGM"])
def test_roundtrip_builds_backward_counterexamples_only_up_to_the_cap(faithful, family, monkeypatch):
    # dl keep/keep fails thousands of backward instances; past the cap they
    # are counted, and no Counterexample is built for them.
    built = []

    class Counted(Counterexample):
        def __init__(self, *fields):
            super().__init__(*fields)
            built.append(self.clause.split(":")[0])

    monkeypatch.setattr(verify, "Counterexample", Counted)
    v = representation_roundtrip(DL_OP, faithful, family)
    backward = [pid for pid in built if pid in verify.FAMILY_POSTULATES[family]]
    assert len(backward) == len(v.counterexamples) == verify.MAX_COUNTEREXAMPLES


def test_mutation_verdicts_pinned(faithful, faithful_gc):
    h = hashlib.sha256()
    for universe in (faithful, faithful_gc):
        for seed in range(4):
            v = mutation_detection(DL_OP, universe, seed=seed)
            h.update(_verdict_bytes(v) + repr(v.seed).encode())
    assert h.hexdigest()[:16] == MUTATION_DIGEST


class TestMutation:
    def test_detection_rate(self, faithful_gc):
        v = mutation_detection(DL_OP, faithful_gc, trials=60, seed=1)
        assert v.holds
        assert v.seed == 1

    def test_no_trials_is_refused(self, faithful):
        # Zero trials would detect 0 of 0 mutations and pass.
        with pytest.raises(ValueError, match="trials"):
            mutation_detection(DL_OP, faithful, trials=0)

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

    def test_belief_table_is_restored_after_every_trial(self, faithful, monkeypatch):
        # Each trial must see the operator's belief rows with exactly its own
        # (state, input) entry overwritten, and every row must be whole again
        # when the run ends, also when a trial raises.
        tables = []

        def wrong_entries(tab):
            return [
                (st, a)
                for sid, st in enumerate(tab.states)
                for a, (got, want) in enumerate(zip(tab.lanes.entries(tab.row(sid)), tab.lanes.entries(DL_OP.bel_row(st, 16))))
                if got != want
            ]

        def checking_assignment(tab, st, sig, family="dl"):
            tables.append(tab)
            changed = wrong_entries(tab)
            assert len(changed) == 1 and changed[0][0] == st
            return canonical_assignment(tab, st, sig, family)

        monkeypatch.setattr(verify, "canonical_assignment", checking_assignment)
        mutation_detection(DL_OP, faithful, trials=30, seed=1)
        assert len(tables) == 30 and all(tab is tables[0] for tab in tables)
        assert tables[0].states and wrong_entries(tables[0]) == []

        def failing_assignment(tab, st, sig, family="dl"):
            tables.append(tab)
            raise RuntimeError("trial failed")

        tables.clear()
        monkeypatch.setattr(verify, "canonical_assignment", failing_assignment)
        with pytest.raises(RuntimeError):
            mutation_detection(DL_OP, faithful, trials=5, seed=1)
        assert len(tables) == 1 and wrong_entries(tables[0]) == []


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
        for pids, cids in parts:
            assert pids and all(pid in POSTULATE_IDS for pid in pids)
            assert all(cid in CONDITIONS for cid in cids)


def test_postulate_tables_are_disjoint_and_every_id_is_dispatched(faithful):
    tables = [set(postulates._ROW_TESTS), set(postulates._SCOPE_MOVES), set(postulates._ONE_STEP)]
    assert sum(map(len, tables)) == len(set().union(*tables))
    assert set().union(*tables) == set(POSTULATE_IDS)
    tab = TransitionTable(DL_OP, faithful)
    sid = tab.id_of(faithful.states[0])
    for pid in POSTULATE_IDS:  # a ValueError here is an id no branch dispatches
        list(postulates._iter_postulate(tab, pid, sid, tab.classes()))


def test_unknown_postulate_id_names_the_valid_ones(faithful):
    tab = TransitionTable(DL_OP, faithful)
    with pytest.raises(ValueError, match=r"^unknown postulate id 'DL8'; valid ids: DL1, DL2, .*, DLDP2$"):
        list(postulates._iter_postulate(tab, "DL8", tab.id_of(faithful.states[0]), tab.classes()))


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


def test_immanence_needs_a_universe():
    # The table holds its universe weakly, and nothing else holds this one.
    tab = TransitionTable(DL_OP, enumerate_states(AB))
    with pytest.raises(PreconditionError, match="^immanence needs a state universe$"):
        tab.immanent()


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


def test_sampled_table_keeps_only_the_last_sample():
    uni = _faithful_gc()
    first = [(st, a) for st in uni.states[:40] for a in (3, 6)]
    second = [(st, a) for st in uni.states[20:60] for a in (3, 6)]
    assert verify_equivalence(DL_OP, uni, "P15a", instance_list=first).instances == 80
    kept = uni._transitions
    assert check_postulate(DL_OP, uni, "DL1", instance_list=list(first)).holds
    assert uni._transitions is kept
    # A new sample replaces the table: of the first sample's states only
    # those the second one shares (or reaches as posteriors) stay interned.
    check_postulate(DL_OP, uni, "DL1", instance_list=second)
    tab = uni._transitions
    assert tab is not kept
    gone = {st for st, _ in first} - {st for st, _ in second}
    assert gone and not gone & set(tab.states)
    assert set(tab.states) <= {st for st, _ in second} | {DL_OP.apply(st, a) for st, a in second}
    # Exhaustive after sampled, and sampled after exhaustive, replace it too.
    check_postulate(DL_OP, uni, "DL1")
    exhaustive = uni._transitions
    assert exhaustive is not tab and exhaustive.sample is None
    check_postulate(DL_OP, uni, "DL1", instance_list=second)
    assert uni._transitions is not exhaustive and uni._transitions.sample == tuple(second)


def test_green_theorems_intern_a_sample_once_and_build_no_classification(monkeypatch):
    # The 13 green theorems over one seeded 3-atom batch of 100, as the
    # sample-3atom benchmark runs them: the suites share one table, which
    # interns the sample once, and read the reasonable classes off the minterm
    # lanes.  A sampled state is looked up again only as the posterior of some
    # sampled (state, input) pair, once per pair.
    rng = random.Random(26)
    states = sample_states(ABC, "faithful", 100, rng, global_consistency=True)
    batch = [(st, rng.randrange(256)) for st in states]
    op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
    uni = enumerate_states(ABC, "faithful", global_consistency=True)
    looked_up = collections.Counter()
    id_of = TransitionTable.id_of

    def counting(tab, st):
        looked_up[st] += 1
        return id_of(tab, st)

    classified = []
    classify_row = classify.classify_row
    monkeypatch.setattr(TransitionTable, "id_of", counting)
    monkeypatch.setattr(classify, "classify_row", lambda *args: classified.append(args) or classify_row(*args))
    green = [theorem for theorem in THEOREM_IDS if theorem not in RED_COUNTEREXAMPLES]
    assert len(green) == 13
    for theorem in green:
        assert verify_equivalence(op, uni, theorem, instance_list=batch).holds, theorem
    sampled = collections.Counter(st for st, _ in batch)
    posteriors = collections.Counter(op.apply(st, a) for st, a in set(batch))
    assert {st: looked_up[st] - posteriors[st] for st in sampled} == sampled
    assert classified == []


def test_shared_sampled_table_gives_the_verdicts_of_fresh_universes():
    # The sampled twin of the exhaustive test above: every theorem and then
    # every postulate over one seeded 3-atom sample on one universe, so all
    # but the first call read a table that earlier calls filled.
    sig = Signature.of("a b c")
    rng = random.Random(13)
    states = sample_states(sig, "faithful", 60, rng, global_consistency=True)
    instances = [(st, rng.randrange(256)) for st in states]
    policy = UpdatePolicy("keep", "doc")
    shared = enumerate_states(sig, "faithful", global_consistency=True)
    op = RevisionOperator("dl", policy)
    calls = [(verify_equivalence, theorem) for theorem in THEOREM_IDS]
    calls += [(check_postulate, pid) for pid in POSTULATE_IDS]
    kept = None
    for check, cid in calls:
        got = check(op, shared, cid, instance_list=instances)
        kept = kept or shared._transitions
        assert shared._transitions is kept
        fresh = enumerate_states(sig, "faithful", global_consistency=True)
        want = check(RevisionOperator("dl", policy), fresh, cid, instance_list=instances)
        assert _verdict(got) == _verdict(want), cid


# ---------------------------------------------------------------------------
# Theorem checks decided on one state per world-permutation orbit


def _tabulated_closure(op, universe):
    """`op` frozen into a lookup table over the universe and every posterior it reaches.

    An `ExtensionalOperator` always takes the full path, so its verdicts are
    the oracle of the orbit decision.  The closure covers posteriors outside
    the universe, such as the empty beliefs agm reaches on the contradiction.
    """
    seen, todo = set(), list(universe.states)
    while todo:
        st = todo.pop()
        if st not in seen:
            seen.add(st)
            todo.extend(op.apply(st, a) for a in range(1 << universe.sig.n_worlds))
    closure = StateUniverse(universe.sig, universe.kind, universe.global_consistency, universe.il_scope, tuple(seen))
    return tabulate(op, closure)


# The fixed scope of the il universes in the orbit oracles: three worlds, not the first three.
ORACLE_IL_SCOPE = mask(0, 1, 3)

# (operator family, universe kind, global consistency) of the orbit oracles, il and dl
# operators on il universes among them.
ORBIT_ORACLE_CASES = [
    ("dl", "faithful", True),
    ("dl", "faithful", False),
    ("cl", "clf", True),
    ("agm", "fa", False),
    ("il", "il", True),
    ("il", "il", False),
    ("dl", "il", True),
    ("dl", "il", False),
]


def _oracle_case(family, kind, gc, policy):
    """The operator and universe of an `ORBIT_ORACLE_CASES` entry under `policy`."""
    op = RevisionOperator(family, policy, ORACLE_IL_SCOPE if family == "il" else None)
    return op, enumerate_states(AB, kind, gc, ORACLE_IL_SCOPE if kind == "il" else None)


@pytest.mark.parametrize("family, kind, gc", ORBIT_ORACLE_CASES, ids=str)
def test_orbit_decision_gives_the_full_verdict(family, kind, gc):
    decided = 0
    for policy in all_policies():
        op, universe = _oracle_case(family, kind, gc, policy)
        table = _tabulated_closure(op, universe)
        for co in (False, True):
            # Theorem-major per operator, so each operator's calls share one table.
            got = [verify_equivalence(op, universe, t, consistent_only=co) for t in THEOREM_IDS]
            want = [verify_equivalence(table, universe, t, consistent_only=co) for t in THEOREM_IDS]
            for theorem, g, w in zip(THEOREM_IDS, got, want):
                assert (g.check_id, g.seed) == (w.check_id, w.seed)
                assert _verdict(g) == _verdict(w), (policy, co, theorem)
                decided += g.holds
    assert decided > 0


def test_orbit_decision_checks_only_representatives(monkeypatch):
    # A theorem that holds is decided on the 37 orbit representatives alone.
    checked = []
    instance = verify._postulate_instance

    def counted(tab, pid, sid, ins):
        checked.append(sid)
        return instance(tab, pid, sid, ins)

    monkeypatch.setattr(verify, "_postulate_instance", counted)
    uni = _faithful_gc()
    v = verify_equivalence(RevisionOperator("dl", UpdatePolicy("keep", "doc")), uni, "P16")
    assert v.holds and v.instances == len(uni.states) * 16
    assert len(set(checked)) == len(uni.orbits()) == 37


def test_red_theorem_walks_the_universe_once(monkeypatch):
    # A mismatch among the representatives sends the check over the whole
    # universe, which still looks up each state and each posterior once.
    looked_up = []
    id_of = TransitionTable.id_of
    monkeypatch.setattr(TransitionTable, "id_of", lambda tab, st: looked_up.append(st) or id_of(tab, st))
    uni = _faithful_gc()
    v = verify_equivalence(DL_OP, uni, "P9", max_counterexamples=10**7)
    assert not v.holds and v.instances == len(uni.states) * 16
    assert set(uni.states) <= set(looked_up)
    # Each representative with its 16 posteriors, then each state with its posteriors.
    assert len(looked_up) <= len(uni.orbits()) * 17 + len(uni.states) + v.instances


def test_orbit_decision_skips_sampled_il_and_tabulated_calls(monkeypatch):
    # Only an exhaustive call with a policy operator of no fixed scope, or of
    # the universe's own, reads the orbits: not a sampled call, not a lookup
    # table, and not an il operator of another scope.
    read = []
    monkeypatch.setattr(StateUniverse, "orbits", lambda uni: read.append(uni) or None)
    uni = _faithful_gc()
    il_op = RevisionOperator("il", il_scope=mask(1, 2))
    il_uni = enumerate_states(AB, "il", global_consistency=True, il_scope=mask(1, 2))
    table = tabulate(DL_OP, uni)
    verify_equivalence(DL_OP, uni, "P16", instance_list=[(uni.states[0], 3)])
    verify_equivalence(table, uni, "P16")
    check_postulate(DL_OP, uni, "DL7", instance_list=[(uni.states[0], 3)])
    check_postulate(table, uni, "DL7")
    representation_roundtrip(table, uni, "DL")
    with pytest.raises(ScopeMismatchError):
        check_postulate(RevisionOperator("il", il_scope=mask(0, 1)), il_uni, "IL1")
    assert read == []
    verify_equivalence(DL_OP, uni, "P16")
    check_postulate(DL_OP, uni, "DL7")
    representation_roundtrip(DL_OP, uni, "DL")
    assert read == [uni] * 3
    verify_equivalence(il_op, il_uni, "P16")
    check_postulate(il_op, il_uni, "IL7")
    check_postulate(DL_OP, il_uni, "DL7")
    assert read == [uni] * 3 + [il_uni] * 3
    # A round trip of the IL family reads them twice, to decide it and for the
    # immanent classes, and with none given walks every state.
    representation_roundtrip(il_op, il_uni, "IL")
    assert read == [uni] * 3 + [il_uni] * 5 and set(il_uni.states) <= set(il_uni._transitions.states)


@pytest.mark.parametrize(
    "call",
    [
        lambda uni: mutation_detection(DL_OP, uni, trials=1),
        lambda uni: verify_equivalence(RevisionOperator("il", il_scope=0b11), uni, "P9"),
        lambda uni: verify_equivalence(ExtensionalOperator(uni.sig, (), {}), uni, "P9"),
        lambda uni: tabulate(DL_OP, uni),
    ],
    ids=["mutation_detection", "il_theorem", "extensional_theorem", "tabulate"],
)
def test_exhaustive_calls_on_a_lazy_universe_raise_before_any_state(call):
    # A 3-atom universe holds only its orbit representatives, so a call that
    # must walk its 3,274,497 states raises before interning any.
    uni = enumerate_states(ABC, "faithful", global_consistency=True)
    with pytest.raises(TooLargeError):
        call(uni)
    assert uni._transitions is None or uni._transitions.states == []


@pytest.mark.parametrize(
    "call, holds, instances",
    [
        (lambda uni: check_postulate(DL_OP, uni, "DL1"), True, 3_274_497 * 256),
        # A dl operator rebuilds assignments that are not CLF-valid.
        (lambda uni: representation_roundtrip(DL_OP, uni, "CL"), False, 3_274_497 * (4 * 256 + 2 * 256 * 256 + 1)),
    ],
    ids=["check_postulate", "roundtrip"],
)
def test_lazy_universe_calls_decided_on_representatives(call, holds, instances):
    uni = enumerate_states(ABC, "faithful", global_consistency=True)
    v = call(uni)
    assert (v.holds, v.instances) == (holds, instances)
    reps = [st for st, _ in uni.orbits()]
    assert uni._transitions.states[: len(reps)] == reps
    assert v.holds or (v.counterexamples and all(ce.state in reps for ce in v.counterexamples))


@pytest.mark.parametrize(
    "family, op_family, kind, gc, total, per_state",
    [
        # DL1-DL6 at each input, DL7 at each pair, one reconstruction.
        ("DL", "dl", "faithful", False, 4_366_166, 6 * 256 + 256 * 256 + 1),
        ("CL", "cl", "clf", True, 1_091_669, 4 * 256 + 2 * 256 * 256 + 1),
        # IL1-IL6 at each input, IL7 at each pair, one reconstruction; il_scope 0x0f.
        ("IL", "il", "il", True, 2_325, 6 * 256 + 256 * 256 + 1),
        # On the consistent inputs: CL1-CL6 and IL1-IL7, three of them paired.
        ("AGM", "agm", "fa", False, 545_835, 10 * 255 + 3 * 255 * 255 + 1),
        # DP1-DP4, and the four DP parts together, at each input.
        ("DP", "agm", "fa", False, 545_835, 4 * 255 + 255),
    ],
    ids=["DL", "CL", "IL", "AGM", "DP"],
)
def test_roundtrips_hold_on_the_3atom_representatives(family, op_family, kind, gc, total, per_state):
    il_scope = 0x0F if kind == "il" else None
    uni = enumerate_states(ABC, kind, gc, il_scope)
    v = representation_roundtrip(RevisionOperator(op_family, UpdatePolicy("keep", "doc"), il_scope), uni, family)
    assert sum(size for _, size in uni.orbits()) == total
    assert (v.holds, v.instances, v.counterexamples) == (True, total * per_state, [])


@pytest.mark.parametrize("rebuilt, holds", [(0x0F, True), (0xF0, True), (0xFF, True), (0x01, False), (0x1F, False)])
def test_il_roundtrip_on_representatives_needs_a_scope_their_renamings_keep(rebuilt, holds, monkeypatch):
    # Were every representative to rebuild `rebuilt`, renaming them would
    # rebuild its images across the universe: one scope only if `rebuilt` is
    # a union of the fixed scope 0x0f and its complement.
    monkeypatch.setattr(verify, "_reconstruction_errors", lambda *args: (rebuilt, iter(())))
    uni = enumerate_states(ABC, "il", True, 0x0F)
    v = representation_roundtrip(RevisionOperator("il", UpdatePolicy("keep", "doc"), 0x0F), uni, "IL")
    assert v.holds == holds
    assert holds or [(ce.clause, ce.observed) for ce in v.counterexamples] == [("reconstructed scope not constant", [rebuilt])]


@pytest.mark.parametrize(
    "call, instances",
    [
        (lambda uni: check_postulate(DL_OP, uni, "DL7"), 566 * 16 * 16),
        (lambda uni: representation_roundtrip(DL_OP, uni, "DL"), 199_798),
    ],
    ids=["check_postulate", "roundtrip"],
)
def test_holding_checks_intern_only_the_representatives(call, instances):
    uni = enumerate_states(AB, "faithful")
    v = call(uni)
    assert (v.holds, v.instances) == (True, instances)
    reps = [st for st, _ in uni.orbits()]
    assert uni._transitions.states == reps and len(reps) == 52


@pytest.mark.parametrize("family, kind, gc", [("cl", "clf", True), ("agm", "fa", False)], ids=str)
def test_orbit_decided_postulates_give_the_full_verdict(family, kind, gc):
    universe = enumerate_states(AB, kind, gc)
    decided = 0
    for policy in all_policies():
        op = RevisionOperator(family, policy)
        table = _tabulated_closure(op, universe)
        for co in (False, True):
            # Postulate-major per operator, so each operator's calls share one table.
            got = [check_postulate(op, universe, pid, consistent_only=co) for pid in POSTULATE_IDS]
            want = [check_postulate(table, universe, pid, consistent_only=co) for pid in POSTULATE_IDS]
            for pid, g, w in zip(POSTULATE_IDS, got, want):
                assert g.check_id == w.check_id
                assert _verdict(g) == _verdict(w), (policy, co, pid)
                decided += g.holds
    assert decided > 0


def _roundtrip_oracle_runs():
    fa = enumerate_states(AB, "fa")
    own = [
        ("DL", "dl", enumerate_states(AB, "faithful")),
        ("CL", "cl", enumerate_states(AB, "clf", global_consistency=True)),
        ("AGM", "agm", fa),
        ("DP", "agm", fa),
    ]
    runs = [(family, RevisionOperator(op_family, policy), uni) for family, op_family, uni in own for policy in all_policies()]
    # The IL round trip of il and dl operators on il universes.
    for family, kind, gc in ORBIT_ORACLE_CASES:
        if kind == "il":
            runs += [("IL", *_oracle_case(family, kind, gc, policy)) for policy in all_policies()]
    return runs + [(family, DL_OP, own[0][2]) for family in ("CL", "AGM")]


def test_orbit_decided_roundtrips_give_the_full_verdict():
    decided = failed = 0
    for family, op, universe in _roundtrip_oracle_runs():
        got = representation_roundtrip(op, universe, family)
        want = representation_roundtrip(_tabulated_closure(op, universe), universe, family)
        assert got.check_id == want.check_id
        assert _verdict(got) == _verdict(want), (family, op)
        decided += got.holds
        failed += not got.holds
    assert decided > 0 and failed > 0


@pytest.mark.parametrize("family, kind, gc", ORBIT_ORACLE_CASES, ids=str)
def test_one_input_per_stabilizer_orbit_decides_as_every_input(family, kind, gc, monkeypatch):
    # The orbit pass asks each representative one input per orbit of the
    # renamings that fix it; asking it every input gives the same verdicts.
    def verdicts():
        got = []
        for policy in all_policies():
            op, universe = _oracle_case(family, kind, gc, policy)
            for co in (False, True):
                got += [verify_equivalence(op, universe, t, consistent_only=co) for t in THEOREM_IDS]
                got += [check_postulate(op, universe, pid, consistent_only=co) for pid in POSTULATE_IDS]
            got += [representation_roundtrip(op, universe, f) for f in verify.FAMILY_POSTULATES]
        return [_verdict(v) for v in got]

    reduced = verdicts()
    assert sum(holds for holds, *_ in reduced) > 0 and not all(holds for holds, *_ in reduced)
    every = tuple(range(16))
    monkeypatch.setattr(StateUniverse, "orbit_inputs", lambda uni: [every for _ in uni.orbits()])
    assert verdicts() == reduced


@pytest.mark.parametrize("sig, asked", [(AB, 576), (ABC, 88_804)], ids=["2atom", "3atom"])
def test_orbit_pass_asks_one_input_per_stabilizer_orbit(sig, asked, monkeypatch):
    # A green orbit-decided check asks each representative exactly its
    # stabilizer inputs.  Asking every input changes no verdict, so only this
    # count tells the two apart: 1,004 x 256 = 257,024 pairs at 3 atoms.
    counts = []
    iter_postulate = verify._iter_postulate

    def counted(tab, pid, sid, alphas):
        counts.append(len(alphas))
        return iter_postulate(tab, pid, sid, alphas)

    monkeypatch.setattr(verify, "_iter_postulate", counted)
    universe = enumerate_states(sig, "faithful")
    assert check_postulate(RevisionOperator("dl"), universe, "DL1").holds
    assert len(counts) == len(universe.orbits())
    assert sum(counts) == sum(len(ins) for ins in universe.orbit_inputs()) == asked


# ---------------------------------------------------------------------------
# Posteriors built once per distinct key: `TransitionTable.posts`


def _interned_by_apply(op, states, inputs):
    """(states, posterior ids per state) of a table that interns `states` and then builds every
    input's posterior with its own `op.apply`, in order: the oracle of the grouped build."""
    ids = {st: i for i, st in enumerate(states)}
    order = list(states)
    rows = []
    for st, alphas in zip(states, inputs):
        row = {}
        for a in alphas:
            post = op.apply(st, a)
            if post not in ids:
                ids[post] = len(order)
                order.append(post)
            row[a] = ids[post]
        rows.append(row)
    return order, rows


def _interned_by_posts(op, sig, states, inputs):
    tab = TransitionTable(op, enumerate_states(sig))
    sids = [tab.id_of(st) for st in states]
    rows = [dict(tab.posts(sid, alphas)) for sid, alphas in zip(sids, inputs)]
    return tab.states, rows


_GROUPED_CASES = [
    ("dl", "faithful", None),
    ("cl", "clf", None),
    ("agm", "fa", None),
    ("il", "il", 0b0110),
]


@pytest.mark.parametrize("family, kind, il_scope", _GROUPED_CASES, ids=[c[0] for c in _GROUPED_CASES])
def test_grouped_posteriors_intern_as_per_input_builds_at_2_atoms(family, kind, il_scope):
    universe = enumerate_states(AB, kind, il_scope=il_scope)
    inputs = [range(16)] * len(universe.states)
    for policy in all_policies():
        op = RevisionOperator(family, policy, il_scope)
        want = _interned_by_apply(op, universe.states, inputs)
        assert _interned_by_posts(op, AB, universe.states, inputs) == want, policy


@pytest.mark.parametrize("policy", [UpdatePolicy("keep", "doc"), UpdatePolicy("lex", "doc")], ids=str)
def test_grouped_posteriors_intern_as_per_input_builds_at_the_3atom_representatives(policy):
    reps = [st for st, _ in enumerate_states(ABC, "faithful", True).orbits()]
    inputs = [range(256)] * len(reps)
    op = RevisionOperator("dl", policy)
    assert _interned_by_posts(op, ABC, reps, inputs) == _interned_by_apply(op, reps, inputs)


def _kernel_calls(monkeypatch, name):
    """A list that grows by one entry, the arguments, at each call of `kernels.<name>`."""
    calls, fn = [], getattr(kernels, name)
    monkeypatch.setattr(kernels, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_posts_builds_each_distinct_posterior_of_a_state_once(faithful, monkeypatch):
    # Under keep/keep a posterior is fixed by its beliefs, so keys and posteriors are one to one.
    tab = TransitionTable(DL_OP, faithful)
    distinct = [len({DL_OP.apply(st, a) for a in tab.classes()}) for st in faithful.states]
    built = _kernel_calls(monkeypatch, "posterior")
    for st, want in zip(faithful.states, distinct):
        built.clear()
        tab.posts(tab.id_of(st), tab.classes())
        assert len(built) == want, st


def test_every_input_is_keyed_once(faithful, monkeypatch):
    # The key of an input is handed to its level build, not computed again there.
    tab = TransitionTable(DL_OP, faithful)
    distinct = sum(len({DL_OP.apply(st, a) for a in tab.classes()}) for st in faithful.states)
    keyed, built = _kernel_calls(monkeypatch, "posterior_key"), _kernel_calls(monkeypatch, "posterior")
    for st in faithful.states:
        tab.posts(tab.id_of(st), tab.classes())
    assert len(keyed) == len(faithful.states) * len(tab.classes())
    assert len(built) == distinct


def test_a_lookup_table_keys_each_input_by_itself(faithful):
    table = tabulate(RevisionOperator("dl", UpdatePolicy("lex", "doc")), faithful)
    inputs = [range(16)] * len(table.states)
    assert _interned_by_posts(table, AB, table.states, inputs) == _interned_by_apply(table, table.states, inputs)
