import random

import pytest
from condition_oracle import is_unbiased, semantic_scope

from revlab import kernels
from revlab.classify import (
    bel_row_of,
    check_dc,
    check_ssc,
    classification_report,
    classify_state,
    find_witness_M,
    immanent_classes,
    inherent_classes,
    renaming_orbits,
)
from revlab.fixtures import fig1_fixture, karl_fixture
from revlab.operators import RevisionOperator, UpdatePolicy, all_policies
from revlab.orders import RankedOrder
from revlab.prop import Signature, iter_worlds
from revlab.states import EpistemicState, StateUniverse, enumerate_states, sample_states

AB = Signature.of("a b")
ABC = Signature.of("a b c")
DL_OP = RevisionOperator("dl", UpdatePolicy("keep", "keep"))


def mask(*worlds):
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


# ---------------------------------------------------------------------------
# Slow oracle: the acceptance conditions and the cover conditions as
# quantifier loops over classes, as they are stated.


def _subsets(a):
    s = a
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & a


def _supersets(a, full):
    return (a | s for s in _subsets(full & ~a))


def _covered(a, members):
    """a is the union of its subclasses in the bitset `members`."""
    cover = 0
    for b in _subsets(a):
        if b and (members >> b) & 1:
            cover |= b
    return cover == a


def oracle_classify(op, st, sig):
    n_classes = 1 << sig.n_worlds
    full = sig.all_worlds
    table = tuple(op.revise_beliefs(st, a) for a in range(n_classes))
    s1 = s2 = scope = 0
    for a in range(n_classes):
        ta = table[a]
        if not st.bel & a or all(ta & ~table[b] == 0 for b in _supersets(a, full)):
            s1 |= 1 << a
        if not any(ta & ~tb == 0 and tb & a == 0 for tb in table):
            s2 |= 1 << a
        if ta & ~a == 0:
            scope |= 1 << a
    both = s1 & s2
    latent = 0
    for a in range(1, n_classes):
        if all((both >> b) & 1 for b in _subsets(a) if b):
            latent |= 1 << a
    reasonable = sum(1 << a for a in range(1, n_classes) if _covered(a, latent))
    return table, s1, s2, latent, reasonable, scope


def oracle_immanent(op, universe):
    n_classes = 1 << universe.sig.n_worlds
    inh = 0
    for a in range(1, n_classes):
        if all(op.revise_beliefs(st, a) == a for st in universe.states):
            inh |= 1 << a
    return sum(1 << a for a in range(1, n_classes) if _covered(a, inh))


def assert_matches_oracle(op, st, sig):
    cls = classify_state(op, st, sig)
    table = kernels.lanes(1 << sig.n_worlds).entries(bel_row_of(op, st, sig))
    got = (table, cls.s1, cls.s2, cls.latent, cls.reasonable, cls.scope_syntactic)
    assert got == oracle_classify(op, st, sig), st


class TableOp:
    """Duck-typed operator: one fixed belief table per state, nothing else."""

    def __init__(self, tables):
        self.tables = tables

    def revise_beliefs(self, st, alpha):
        return self.tables[st][alpha]


def _arbitrary_state(rng, sig):
    # Only the beliefs matter to the classification; scope and order are
    # whatever a valid state needs.
    full = sig.all_worlds
    return EpistemicState(rng.randrange(full + 1), full, RankedOrder((full,)))


class TestTransformsMatchOracle:
    def test_faithful_n2_every_policy(self):
        uni = enumerate_states(AB, "faithful")
        for policy in all_policies():
            op = RevisionOperator("dl", policy)
            for st in uni.states:
                assert_matches_oracle(op, st, AB)
            assert immanent_classes(op, uni) == oracle_immanent(op, uni)

    def test_fa_universe_agm(self):
        uni = enumerate_states(AB, "fa")
        op = RevisionOperator("agm")
        for st in uni.states:
            assert_matches_oracle(op, st, AB)
        assert immanent_classes(op, uni) == oracle_immanent(op, uni)

    @pytest.mark.parametrize("kind", ["faithful", "clf", "fa", "il"])
    @pytest.mark.parametrize("family", ["dl", "cl", "agm"])
    def test_immanent_classes_from_representatives(self, family, kind):
        # Read off the orbit representatives alone, against the walk over every state.  An il
        # universe under each of its 15 scopes, read with the il operator of that scope too.
        for gc in (False, True):
            for scope in range(1, 16) if kind == "il" else [None]:
                uni = enumerate_states(AB, kind, gc, scope)
                for policy in all_policies():
                    ops = [RevisionOperator(family, policy)] + ([RevisionOperator("il", policy, scope)] if scope else [])
                    for op in ops:
                        assert renaming_orbits(op, uni) is not None
                        assert immanent_classes(op, uni) == oracle_immanent(op, uni), (gc, scope, policy, op)

    def test_il_universe(self):
        sig, _, _, op = fig1_fixture()
        uni = enumerate_states(sig, "il", global_consistency=True, il_scope=op.il_scope)
        for st in uni.states:
            assert_matches_oracle(op, st, sig)
        assert immanent_classes(op, uni) == oracle_immanent(op, uni)

    def test_arbitrary_tables_n2(self):
        # Tables that no DL operator produces, so no shortcut may lean on
        # the structure of minimisation.
        rng = random.Random(20240809)
        for _ in range(20_000):
            st = _arbitrary_state(rng, AB)
            table = [rng.randrange(16) for _ in range(16)]
            assert_matches_oracle(TableOp({st: table}), st, AB)

    def test_arbitrary_immanence_n2(self):
        # Classes are accepted as themselves in most states, so the
        # inherent sets vary and are rarely down-closed.
        rng = random.Random(7)
        for _ in range(2_000):
            states = {_arbitrary_state(rng, AB) for _ in range(rng.randrange(1, 4))}
            tables = {
                st: [a if rng.random() < 0.8 else rng.randrange(16) for a in range(16)]
                for st in states
            }
            uni = StateUniverse(AB, "faithful", False, None, tuple(states))
            op = TableOp(tables)
            assert immanent_classes(op, uni) == oracle_immanent(op, uni)

    def test_sampled_n3(self):
        rng = random.Random(20240809)
        for st in sample_states(ABC, "faithful", 300, rng):
            assert_matches_oracle(DL_OP, st, ABC)


class TestS1S2:
    def test_believed_scope_world_is_s1(self):
        sig, st, op = karl_fixture()
        assert classify_state(op, st, sig).s1 >> mask(2) & 1

    def test_believed_world_outside_scope_fails_s1(self):
        sig, st, op = karl_fixture()
        assert not classify_state(op, st, sig).s1 >> mask(3) & 1

    def test_s1_vacuous_when_inconsistent_with_beliefs(self):
        sig, st, op = karl_fixture()
        assert classify_state(op, st, sig).s1 >> mask(4) & 1  # beliefs miss world 4

    def test_unbelieved_scope_world_is_s2(self):
        sig, st, op = karl_fixture()
        assert classify_state(op, st, sig).s2 >> mask(4) & 1

    def test_world_outside_beliefs_and_scope_fails_s2(self):
        sig, st, op = karl_fixture()
        assert not classify_state(op, st, sig).s2 >> mask(5) & 1

    def test_inconsistent_state_fails_s2_outside_scope(self):
        st = EpistemicState(0, mask(1), RankedOrder((mask(1),)))
        assert not classify_state(DL_OP, st, AB).s2 >> mask(2) & 1


class TestLatentReasonable:
    def test_karl_scope_minterm_latent(self):
        sig, st, op = karl_fixture()
        assert classify_state(op, st, sig).latent >> mask(4) & 1

    def test_karl_nonscope_set_not_latent(self):
        sig, st, op = karl_fixture()
        latent = classify_state(op, st, sig).latent
        assert not latent >> (mask(1, 2, 3) & ~st.scope | mask(3)) & 1
        assert not latent >> mask(3) & 1

    def test_bottom_never_latent_or_reasonable(self):
        sig, st, op = karl_fixture()
        cls = classify_state(op, st, sig)
        assert not cls.latent & 1
        assert not cls.reasonable & 1

    def test_reasonable_iff_inside_scope_exhaustive(self):
        # the model-set characterisation of reasonable inputs
        for st in enumerate_states(AB, "faithful").states:
            cls = classify_state(DL_OP, st, AB)
            for alpha in range(16):
                want = alpha != 0 and alpha & ~st.scope == 0
                assert bool(cls.reasonable >> alpha & 1) == want

    def test_latency_splits_by_belief_membership_exhaustive(self):
        # world in beliefs: in scope iff its minterm is S1;
        # world outside beliefs: in scope iff its minterm is S2
        for st in enumerate_states(AB, "faithful").states:
            cls = classify_state(DL_OP, st, AB)
            for w in range(4):
                wm = 1 << w
                in_scope = bool(st.scope & wm)
                if st.bel & wm:
                    assert bool(cls.s1 >> wm & 1) == in_scope
                else:
                    assert bool(cls.s2 >> wm & 1) == in_scope


def scope_of(op, st, sig):
    """The classes revision accepts, as a set."""
    return set(iter_worlds(classify_state(op, st, sig).scope_syntactic))


class TestScope:
    def test_agm_scope_is_everything(self):
        op = RevisionOperator("agm")
        for st in enumerate_states(AB, "fa").states[::6]:
            assert scope_of(op, st, AB) == set(range(16))

    def test_karl_scope_shape(self):
        sig, st, op = karl_fixture()
        syn = scope_of(op, st, sig)
        bel_classes = {c for c in range(256) if st.bel & ~c == 0}
        touching = {c for c in range(256) if c & st.scope}
        assert syn == bel_classes | touching
        assert syn == semantic_scope(st, sig)

    def test_posterior_karl_scope(self):
        sig, st, op = karl_fixture()
        post = op.apply(st, 0b10101010 & 0xAA)  # models of t
        syn = scope_of(op, post, sig)
        assert syn == semantic_scope(post, sig)

    def test_scope_equality_exhaustive_n2(self):
        for st in enumerate_states(AB, "faithful").states:
            assert scope_of(DL_OP, st, AB) == semantic_scope(st, AB)

    def test_inconsistent_state_scope_contains_bottom(self):
        st = EpistemicState(0, mask(1), RankedOrder((mask(1),)))
        assert 0 in semantic_scope(st, AB)
        assert 0 in scope_of(DL_OP, st, AB)


class TestInherence:
    def test_agm_inherent_iff_single_model(self):
        uni = enumerate_states(AB, "fa")
        assert is_unbiased(uni)
        op = RevisionOperator("agm")
        inh = inherent_classes(op, uni)
        assert inh == sum(1 << (1 << w) for w in range(4))
        assert immanent_classes(op, uni) == sum(1 << a for a in range(1, 16))

    def test_cl_with_credible_set_equal_beliefs_has_none(self):
        states = tuple(
            EpistemicState(b, b, RankedOrder((b,))) for b in range(1, 16)
        )
        uni = StateUniverse(AB, "clf", True, None, states)
        op = RevisionOperator("cl")
        assert inherent_classes(op, uni) == 0
        assert immanent_classes(op, uni) == 0

    def test_il_inherent_iff_inside_fixed_scope(self):
        sig, _, _, op = fig1_fixture()
        uni = enumerate_states(sig, "il", global_consistency=True, il_scope=op.il_scope)
        inh = inherent_classes(op, uni)
        for w in range(4):
            assert bool(inh >> (1 << w) & 1) == bool(op.il_scope >> w & 1)
        imm = immanent_classes(op, uni)
        for alpha in range(16):
            assert bool(imm >> alpha & 1) == (alpha != 0 and alpha & ~op.il_scope == 0)


class TestClosure:
    def test_touching_sets_satisfy_both_and_witness(self):
        classes = {c for c in range(1, 16) if c & mask(1, 2)}
        assert check_ssc(classes, AB)
        assert check_dc(classes, AB)
        assert find_witness_M(classes, AB) == mask(1, 2)

    def test_ssc_failure(self):
        assert not check_ssc({mask(1, 2)}, AB)

    def test_dc_failure_on_upward_closure(self):
        classes = {c for c in range(16) if mask(1, 2) & ~c == 0}
        assert check_ssc(classes, AB)
        assert not check_dc(classes, AB)
        assert find_witness_M(classes, AB) is None

    def test_scope_minus_beliefs_is_witnessed(self):
        # the non-belief part of every scope is exactly the classes meeting
        # the state's scope set, which the witness construction recovers
        for st in enumerate_states(AB, "faithful", global_consistency=True).states[::11]:
            touching = {c for c in range(1, 16) if c & st.scope}
            assert check_ssc(touching, AB) and check_dc(touching, AB)
            assert find_witness_M(touching, AB) == st.scope


class TestReport:
    def test_report_lines(self):
        sig, st, op = karl_fixture()
        rows = classification_report(op, st, None, sig)
        assert len(rows) == 256
        assert list(rows[0]) == ["class", "scope", "latent", "reasonable"] and rows[0]["class"] == 0
        uni = enumerate_states(AB, "fa")
        rows = classification_report(RevisionOperator("agm"), uni.states[0], uni, AB)
        assert "inherent" in rows[1] and "immanent" in rows[1]
