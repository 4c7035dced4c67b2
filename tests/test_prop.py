import pytest
from hypothesis import given, strategies as st

from revlab.errors import ParseError, TooLargeError, UnknownAtomError
from revlab.prop import (
    And,
    Atom,
    Not,
    Or,
    Signature,
    eval_world,
    iter_worlds,
    models,
    parse,
    parse_models,
)

ZOT = Signature.of("z o t")
AB = Signature.of("a b")


def mask(*worlds):
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


class TestSignature:
    def test_world_encoding_follows_atom_order(self):
        # textual world "ab̄" over {a,b}: a true, b false -> bits 10
        assert AB.world_of_str("10") == 2
        assert AB.world_str(2) == "10"
        assert ZOT.world_of_str("010") == 2

    def test_rejects_bad_atoms(self):
        with pytest.raises(ValueError):
            Signature.of("a B")
        with pytest.raises(ValueError):
            Signature.of("a a")
        with pytest.raises(ValueError):
            Signature(())

    def test_signature_errors_are_revlab_errors(self):
        with pytest.raises(ParseError, match="'B'"):
            Signature.of("a B")
        with pytest.raises(ParseError, match="unique"):
            Signature.of("a a")
        with pytest.raises(TooLargeError):
            Signature(tuple(f"x{i}" for i in range(17)))

    def test_atom_limit(self):
        Signature(tuple(f"x{i}" for i in range(16)))
        with pytest.raises(ValueError):
            Signature(tuple(f"x{i}" for i in range(17)))


class TestParse:
    def test_simple_disjunction(self):
        assert parse("o | t", ZOT) == Or(Atom("o"), Atom("t"))

    def test_conjunction_of_literals(self):
        f = parse("!z & !o & t", ZOT)
        assert f == And(And(Not(Atom("z")), Not(Atom("o"))), Atom("t"))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("a &", AB)
        assert err.value.position == 3

    def test_unknown_atom_named(self):
        with pytest.raises(UnknownAtomError) as err:
            parse("a & q", AB)
        assert err.value.atom == "q"

    def test_arrows_right_associative(self):
        assert parse("a -> b -> a", AB) == parse("a -> (b -> a)", AB)
        assert parse("a <-> b <-> a", AB) == parse("a <-> (b <-> a)", AB)

    def test_precedence(self):
        assert parse("!a & b | a", AB) == parse("((!a) & b) | a", AB)
        assert parse("a | b -> a & b", AB) == parse("(a | b) -> (a & b)", AB)

    def test_round_trip_through_str(self):
        for text in ("a -> (b <-> !a)", "!(a | b) & true", "false | a"):
            f = parse(text, AB)
            assert parse(str(f), AB) == f


class TestModels:
    def test_disjunction(self):
        assert parse_models("o | t", ZOT) == mask(1, 2, 3, 5, 6, 7)

    def test_contradiction(self):
        assert parse_models("false", ZOT) == 0

    def test_single_atom(self):
        assert parse_models("t", ZOT) == mask(1, 3, 5, 7)

    def test_connectives(self):
        assert parse_models("a -> b", AB) == mask(0, 1, 3)
        assert parse_models("a <-> b", AB) == mask(0, 3)


formulas = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Atom("z"), Atom("o"), Atom("t")]),
        st.builds(Not, formulas),
        st.builds(And, formulas, formulas),
        st.builds(Or, formulas, formulas),
    )
)


@given(formulas, formulas)
def test_models_is_homomorphic(f, g):
    assert models(And(f, g), ZOT) == models(f, ZOT) & models(g, ZOT)
    assert models(Or(f, g), ZOT) == models(f, ZOT) | models(g, ZOT)
    assert models(Not(f), ZOT) == ZOT.all_worlds ^ models(f, ZOT)


@given(formulas)
def test_models_agrees_with_per_world_evaluation(f):
    m = models(f, ZOT)
    for w in range(ZOT.n_worlds):
        assert bool(m >> w & 1) == eval_world(f, ZOT, w)


def minterm_text(ws, sig):
    """The disjunction of the minterms of the worlds in `ws`, or `false`."""
    terms = (
        " & ".join(name if world >> sig.atom_bit(name) & 1 else f"!{name}" for name in sig.atoms)
        for world in iter_worlds(ws)
    )
    return " | ".join(terms) or "false"


class TestFormulaOfWorlds:
    @pytest.mark.parametrize("sig", [Signature.of("a"), AB, ZOT])
    def test_right_inverse_of_models(self, sig):
        # every world set is the model set of the formula that lists its worlds
        for ws in range(1 << sig.n_worlds):
            assert parse_models(minterm_text(ws, sig), sig) == ws
