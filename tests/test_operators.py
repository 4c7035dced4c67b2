import random
import re

import pytest
from condition_oracle import level_of

from revlab import kernels
from revlab.errors import (
    NonWeakOrderError,
    ParseError,
    ScopeMismatchError,
    TableMissError,
)
from revlab.fixtures import fig1_fixture, karl_fixture
from revlab.operators import (
    ExtensionalOperator,
    RevisionOperator,
    UpdatePolicy,
    all_policies,
    canonical_assignment,
    dump_operator,
    parse_operator,
    tabulate,
)
from revlab.orders import RankedOrder
from revlab.prop import Signature, iter_worlds, parse_models
from revlab.states import EpistemicState, enumerate_states, sample_states

AB = Signature.of("a b")


def mask(*worlds):
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


DL = RevisionOperator("dl")
CL = RevisionOperator("cl")
AGM = RevisionOperator("agm")


class TestBeliefEquations:
    def test_karl_accepts_t(self):
        sig, st, _ = karl_fixture()
        assert DL.revise_beliefs(st, parse_models("t", sig)) == mask(1)

    def test_posterior_karl_denies_o(self):
        sig, st, op = karl_fixture()
        post = op.apply(st, parse_models("t", sig))
        assert DL.revise_beliefs(post, parse_models("o", sig)) == mask(1)

    def test_contradiction_keeps_beliefs(self):
        _, st, _ = karl_fixture()
        assert DL.revise_beliefs(st, 0) == st.bel

    def test_cl_examples(self):
        st = EpistemicState(mask(0), mask(0, 1), RankedOrder((mask(0), mask(1))))
        assert CL.revise_beliefs(st, mask(1, 2)) == mask(1)
        assert CL.revise_beliefs(st, mask(2)) == mask(0)

    def test_cl_vacuity_against_expansion_oracle(self):
        for st in enumerate_states(AB, "clf").states:
            for alpha in range(16):
                if st.bel & alpha:
                    assert CL.revise_beliefs(st, alpha) == st.bel & alpha

    def test_agm_examples(self):
        st = EpistemicState(mask(1), AB.all_worlds, RankedOrder((mask(1), mask(0, 2, 3))))
        assert AGM.revise_beliefs(st, mask(2, 3)) == mask(2, 3)
        assert AGM.revise_beliefs(st, mask(0, 1, 2)) == mask(1)  # vacuity
        assert AGM.revise_beliefs(st, 0) == 0  # min over the empty set

    def test_il_fig1_values(self):
        sig, st1, st2, op = fig1_fixture()
        a = parse_models("a", sig)
        ab = parse_models("a & b", sig)
        assert op.revise_beliefs(st1, a) == mask(2)
        assert op.revise_beliefs(st1, ab) == st1.bel
        assert op.revise_beliefs(st2, ab) == st2.bel

    def test_il_scope_mismatch(self):
        _, st1, _, op = fig1_fixture()
        other = EpistemicState(st1.bel, mask(0, 1), RankedOrder((mask(0), mask(1))))
        for call in (
            lambda: op.revise_beliefs(other, 1),
            lambda: op.bel_row(other, 16),
            lambda: op.apply(other, 1),
        ):
            with pytest.raises(ScopeMismatchError):
                call()

    def test_dl_matches_agm_on_fa_states_for_consistent_inputs(self):
        for st in enumerate_states(AB, "fa").states:
            for alpha in range(1, 16):
                assert DL.revise_beliefs(st, alpha) == AGM.revise_beliefs(st, alpha)
            # the one divergence: the shared core keeps beliefs at the
            # contradiction, plain minimisation empties them
            assert DL.revise_beliefs(st, 0) == st.bel
            assert AGM.revise_beliefs(st, 0) == 0

    def test_dl_matches_cl_on_clf_states(self):
        for st in enumerate_states(AB, "clf").states:
            for alpha in range(16):
                assert DL.revise_beliefs(st, alpha) == CL.revise_beliefs(st, alpha)


class TestApply:
    def test_karl_doc_policy(self):
        sig, st, op = karl_fixture()
        post = op.apply(st, parse_models("t", sig))
        assert (post.bel, post.scope) == (mask(1), mask(1))

    def test_keep_keep_fallback_is_identity(self):
        _, st, _ = karl_fixture()
        op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
        assert op.apply(st, mask(5)) == st  # input misses the scope entirely

    def test_posteriors_stay_faithful(self):
        from revlab.states import check_faithful_limited

        for policy in all_policies():
            op = RevisionOperator("dl", policy)
            for st in enumerate_states(AB, "faithful").states[::7]:
                for alpha in range(16):
                    assert check_faithful_limited(op.apply(st, alpha))

    def test_lex_orders_alpha_worlds_below_the_rest(self):
        rng = random.Random(5)
        op = RevisionOperator("dl", UpdatePolicy("lex", "keep"))
        sig = Signature.of("a b c")
        for st in sample_states(sig, "faithful", 40, rng):
            alpha = rng.randrange(1, 256)
            if not alpha & st.scope:
                continue
            post = op.apply(st, alpha)
            inside = [w for w in iter_worlds(post.scope) if alpha >> w & 1]
            outside = [w for w in iter_worlds(post.scope) if not alpha >> w & 1]
            bel2 = post.bel
            for w1 in inside:
                for w2 in outside:
                    assert level_of(post.order, w1) <= level_of(post.order, w2)
            # relative order within each side is preserved, except for the
            # promotion of the new belief minimum
            for group in (inside, outside):
                for w1 in group:
                    for w2 in group:
                        if bel2 >> w1 & 1 or bel2 >> w2 & 1:
                            continue
                        assert (level_of(post.order, w1) <= level_of(post.order, w2)) == (
                            level_of(st.order, w1) <= level_of(st.order, w2)
                        )

    def test_bel_table_matches_pointwise_revision(self):
        _, st, op = karl_fixture()
        table = _bel_table(op, st, 256)
        for alpha in range(256):
            assert table[alpha] == op.revise_beliefs(st, alpha)

    def test_agm_bel_table_minimises_outside_the_scope(self):
        # the agm fix-up: inputs missing the scope (⊥ here) empty the beliefs
        op = RevisionOperator("agm")
        for st in enumerate_states(AB, "fa").states:
            table = _bel_table(op, st, 16)
            assert table == tuple(op.revise_beliefs(st, alpha) for alpha in range(16))
            assert table[0] == 0


def _bel_table(op, st, n_classes):
    """The operator's packed belief row unpacked, one posterior belief mask per class."""
    return kernels.lanes(n_classes).entries(op.bel_row(st, n_classes))


def _plain_agm_bel_table(st):
    """The agm belief table as the fallback core plus a fix-up: misses minimise to ⊥."""
    table = list(kernels.bel_table(st.order.levels, st.scope, st.bel, 16))
    for alpha in range(16):
        if not alpha & st.scope:
            table[alpha] = kernels.min_mask(st.order.levels, alpha)
    return tuple(table)


def _plain_agm_apply(op, st, alpha):
    """The agm posterior with an input missing the scope handled apart."""
    if not alpha & st.scope:
        return EpistemicState(0, st.scope, st.order)
    bel2, scope2, levels2 = kernels.posterior(
        st.order.levels, st.scope, st.bel, alpha, op.policy.order_rule, "keep"
    )
    return EpistemicState(bel2, scope2, RankedOrder(levels2))


@pytest.mark.parametrize("kind", ["faithful", "clf", "fa"])
def test_agm_matches_plain_minimisation(kind):
    # agm is the shared core with an empty fallback; the oracle is plain
    # minimisation with inputs that miss the scope as a separate case.
    states = enumerate_states(AB, kind).states
    for policy in all_policies():
        op = RevisionOperator("agm", policy)
        for st in states:
            assert _bel_table(op, st, 16) == _plain_agm_bel_table(st)
            for alpha in range(16):
                assert op.revise_beliefs(st, alpha) == kernels.min_mask(st.order.levels, alpha)
                assert op.apply(st, alpha) == _plain_agm_apply(op, st, alpha)


class TestCanonicalAssignment:
    def test_reconstructs_karl_assignment(self):
        sig, st, op = karl_fixture()
        order, scope = canonical_assignment(op, st, sig)
        assert (order, scope) == (st.order, st.scope)

    def test_reconstructs_every_faithful_assignment(self):
        op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
        for st in enumerate_states(AB, "faithful").states:
            order, scope = canonical_assignment(op, st, AB)
            assert (order.levels, scope) == (st.order.levels, st.scope)

    def test_agm_operator_reconstructs_total_scope(self):
        op = RevisionOperator("agm")
        for st in enumerate_states(AB, "fa").states[::5]:
            order, scope = canonical_assignment(op, st, AB)
            assert scope == AB.all_worlds
            assert order == st.order

    def test_totality_violation_detected(self):
        # A state whose beliefs miss the scope: scope worlds stay latent no
        # matter what the pair entries say, so corrupting a two-world
        # disjunction surfaces as a broken pairwise relation.
        op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
        uni = enumerate_states(AB, "faithful")
        st = EpistemicState(
            mask(3), mask(0, 1, 2), RankedOrder((mask(0), mask(1), mask(2)))
        )
        table = tabulate(op, uni)
        broken = dict(table.mapping)
        post = broken[(st, mask(0, 1))]
        broken[(st, mask(0, 1))] = EpistemicState(mask(2), post.scope, post.order)
        mutant = ExtensionalOperator(AB, table.states, broken)
        with pytest.raises(NonWeakOrderError, match="total"):
            canonical_assignment(mutant, st, AB)

    def test_cycle_violation_detected(self):
        op = RevisionOperator("dl", UpdatePolicy("keep", "keep"))
        uni = enumerate_states(AB, "faithful")
        st = EpistemicState(
            mask(3), mask(0, 1, 2), RankedOrder((mask(0), mask(1), mask(2)))
        )
        table = tabulate(op, uni)
        broken = dict(table.mapping)
        for pair, winner in ((mask(0, 1), 0), (mask(1, 2), 1), (mask(0, 2), 2)):
            post = broken[(st, pair)]
            broken[(st, pair)] = EpistemicState(mask(winner), post.scope, post.order)
        mutant = ExtensionalOperator(AB, table.states, broken)
        with pytest.raises(NonWeakOrderError):
            canonical_assignment(mutant, st, AB)


class TestExtensional:
    def test_tabulate_reproduces_operator(self):
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        uni = enumerate_states(AB, "clf")
        table = tabulate(op, uni)
        table.check_total()
        for st in table.states[::9]:
            for alpha in range(16):
                assert table.apply(st, alpha) == op.apply(st, alpha)

    def test_miss_error(self):
        op = ExtensionalOperator(AB, (), {})
        st = EpistemicState(mask(0), mask(0), RankedOrder((mask(0),)))
        with pytest.raises(TableMissError) as miss:
            op.apply(st, 3)
        # The bare message: KeyError's own str would put it in quotes.
        assert str(miss.value) == f"no table entry for state {st} and class 3"


class TestOperatorFiles:
    def test_policy_round_trip(self):
        for family, il_scope in (("dl", None), ("cl", None), ("agm", None), ("il", 6)):
            for policy in all_policies():
                op = RevisionOperator(family, policy, il_scope)
                assert parse_operator(dump_operator(op)) == op

    def test_il_scope_world_syntax(self):
        op = parse_operator("family: il\nil_scope: 01 10\n", AB)
        assert op.il_scope == mask(1, 2)

    def test_il_scope_single_world(self):
        # One world of the signature's width is a world, not a decimal mask.
        assert parse_operator("family: il\nil_scope: 10\n", AB).il_scope == mask(2)
        assert parse_operator("family: il\nil_scope: 01\n", AB).il_scope == mask(1)
        assert parse_operator("family: il\nil_scope: 011\n", Signature.of("a b c")).il_scope == mask(3)
        assert parse_operator("family: il\nil_scope: 10\n").il_scope == 10

    def test_il_scope_decimal_masks(self):
        for sig in (None, AB):
            assert parse_operator("family: il\nil_scope: 3\n", sig).il_scope == 3
            assert parse_operator("family: il\nil_scope: 6\n", sig).il_scope == 6
        with pytest.raises(ParseError, match="^line 2: "):
            parse_operator("family: il\nil_scope: 01 1\n", AB)
        for outside in ("16", "0xff"):
            with pytest.raises(ParseError, match="^line 2: "):
                parse_operator(f"family: il\nil_scope: {outside}\n", AB)

    def test_dumped_il_scope_reads_back_with_and_without_a_signature(self):
        for sig in (AB, Signature.of("a b c")):
            for scope in range(1, 1 << sig.n_worlds):
                op = RevisionOperator("il", UpdatePolicy("lex", "doc"), scope)
                text = dump_operator(op)
                assert parse_operator(text) == op == parse_operator(text, sig), text

    def test_extensional_round_trip(self):
        op = RevisionOperator("dl", UpdatePolicy("natural", "doc"))
        uni = enumerate_states(Signature.of("a"), "faithful")
        table = tabulate(op, uni)
        parsed = parse_operator(dump_operator(table))
        assert parsed.states == table.states
        assert parsed.mapping == table.mapping

    def test_posteriors_outside_the_table_states_round_trip(self):
        # The agm posterior of the contradiction believes nothing, so it is no FA state.
        table = tabulate(RevisionOperator("agm"), enumerate_states(AB, "fa"))
        assert set(table.mapping.values()) - set(table.states)
        parsed = parse_operator(dump_operator(table))
        assert parsed.states == table.states
        assert parsed.name == table.name == "extensional(75 states)"
        assert parsed.mapping == table.mapping
        parsed.check_total()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("family: extensional\nsig: a\nstate x: bel 0 ; scope 0 ; order [0]\n", 3),
            ("family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [0]\nentry: 0 one 0\n", 4),
            ("family: il\nil_scope: six\n", 2),
            ("family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [0]\nentry: 0 4 0\n", 4),
            ("family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [0]\nentry: 0 -1 0\n", 4),
            ("family: dl\norder_rule: sideways\n", 2),
            ("family: dl\n\nscope_rule: wide\n", 3),
            ("family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [0]\nstate 0: bel 1 ; scope 1 ; order [1]\n", 4),
            ("family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [0]\nentry: 0 1 0\nentry: 0 1 0\n", 5),
            ("family: dl\norder_rule: lex\nfamily: cl\n", 3),
            ("family: dl\norder_rule: lex\n\norder_rule: keep\n", 4),
            ("scope_rule: doc\nfamily: dl\nscope_rule: doc\n", 3),
            ("family: il\nil_scope: 6\nil_scope: 2\n", 3),
            ("family: extensional\nsig: a\nsig: a b\n", 3),
            ("family: extensional\nsig: a b\nstate 0: bel 00 ; scope 00 01 ; order [00]\n", 3),
            ("family: extensional\nsig: a\n# states\nstate 0: bel 0 ; scope 0\n", 4),
            ("family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [2]\n", 3),
            ("family: dl\norder_rul: lex\n", 2),
            ("family: dl\n\nil_scope: 6\n", 3),
            ("family: agm\nsig: a\n", 2),
            ("family: cl\nstate 0: bel 0 ; scope 0 ; order [0]\n", 2),
            ("family: il\nil_scope: 6\nentry: 0 1 0\n", 3),
            ("family: extensional\nsig: a\nscope_rule: doc\n", 3),
            ("family: il\nil_scope: 0\n", 2),
            ("family: il\nil_scope: -6\n", 2),
        ],
        ids=[
            "state-id", "entry-field", "il-scope", "class-too-large", "class-negative",
            "order-rule", "scope-rule", "duplicate-state", "duplicate-entry",
            "duplicate-family", "duplicate-order-rule", "duplicate-scope-rule", "duplicate-il-scope",
            "duplicate-sig", "state-order-domain", "state-body", "state-bad-world",
            "unknown-key", "il-scope-on-dl", "sig-on-policy", "state-on-policy", "entry-on-policy",
            "rule-on-extensional", "il-scope-empty", "il-scope-negative",
        ],
    )
    def test_malformed_files_name_the_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_operator(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("family: dl\norder_rule keep\n", "line 2: expected 'key: value', got 'order_rule keep'"),
            (
                "family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [0]\nentry: 0 1\n",
                "line 4: entry wants 'state class state', got '0 1'",
            ),
            (
                "family: extensional\nsig: a\nstate 0: bel 0 ; scope 0 ; order [0]\nentry: 0 1 7\n",
                "line 4: entry references unknown state id in (0, 1, 7)",
            ),
            ("family: extensional\n\nsig: a a\n", "line 3: atom names must be unique"),
            ("family: extensional\nsig: A\n", "line 2: bad atom name 'A' (want [a-z][a-z0-9_]*)"),
            (
                "family: extensional\nsig: a\nstate 0: bel 1 ; scope 1 ; order [1] ; bel 0\n",
                "line 3: state 0: repeated part 'bel'",
            ),
        ],
        ids=["no-colon", "entry-arity", "entry-unknown-state", "sig-repeated-atom", "sig-bad-atom", "state-repeated-part"],
    )
    def test_malformed_lines_are_named_in_full(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_operator(text)

    @pytest.mark.parametrize("given", ["x", "a", "b a"])
    def test_extensional_file_over_another_signature(self, given):
        # A table holds the states of its own `sig:` line, so it is refused with another signature.
        text = "family: extensional\n# two atoms\nsig: a b\n"
        assert parse_operator(text, AB).sig == parse_operator(text).sig == AB
        with pytest.raises(ParseError, match=f"^line 3: sig: a b does not match the signature {given}$"):
            parse_operator(text, Signature.of(given))

    def test_extensional_file_without_a_signature(self):
        with pytest.raises(ParseError, match="^extensional operator file needs a sig line$"):
            parse_operator("family: extensional\nstate 0: bel 0 ; scope 0 ; order [0]\nentry: 0 1 0\n")

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_operator("family: nope\n")
        with pytest.raises(ParseError):
            parse_operator("family: il\n")
        with pytest.raises(ValueError):
            UpdatePolicy("sideways", "keep")
