import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from revlab.errors import ParseError, TooLargeError, UnknownAtomError
from revlab.prop import (
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Top,
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


SEEDED_PARSE_DIGEST = "a264a34535e47ab3"
SEEDED_STR_DIGEST = "582c91ee9cdfb876"


EDITS = ("", "", "a", "t", "!", "&", "-", "<", ">", "(", ")", "#", " ", "\t", "\u00a0", "é")


def seeded_texts(rng, n):
    """Formula texts with random bracketing and spacing, half of them with one character changed."""

    def text(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(("a", "b", "a", "b", "true", "false", "a", "b", "q"))
        if rng.random() < 0.2:
            return "!" + text(depth - 1)
        sides = [f"({s})" if rng.random() < 0.4 else s for s in (text(depth - 1), text(depth - 1))]
        return rng.choice(("", " ")).join((sides[0], rng.choice(("&", "|", "->", "<->")), sides[1]))

    for _ in range(n):
        t = text(4)
        if rng.random() < 0.5:
            i = rng.randrange(len(t) + 1)
            t = t[:i] + rng.choice(EDITS) + t[i + 1:]
        yield t


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

    def test_seeded_texts_parse_to_pinned_results(self):
        # The tree's repr, or the error's type, message and offset, for each text.
        h = hashlib.sha256()
        for text in seeded_texts(random.Random(17), 5000):
            try:
                h.update(repr(parse(text, AB)).encode())
            except ParseError as err:
                h.update(repr((type(err).__name__, str(err), err.position)).encode())
        assert h.hexdigest()[:16] == SEEDED_PARSE_DIGEST


a, b = Atom("a"), Atom("b")


class TestStr:
    @pytest.mark.parametrize(
        "f, text",
        [
            (And(And(a, b), a), "a & b & a"),
            (And(a, And(b, a)), "a & (b & a)"),
            (Or(Or(a, b), a), "a | b | a"),
            (Or(a, Or(b, a)), "a | (b | a)"),
            (Implies(Implies(a, b), a), "(a -> b) -> a"),
            (Implies(a, Implies(b, a)), "a -> b -> a"),
            (Iff(Iff(a, b), a), "(a <-> b) <-> a"),
            (Iff(a, Iff(b, a)), "a <-> b <-> a"),
            (And(Or(a, b), Not(a)), "(a | b) & !a"),
            (Or(And(a, b), And(b, a)), "a & b | b & a"),
            (Implies(Or(a, b), And(a, b)), "a | b -> a & b"),
            (Or(Implies(a, b), a), "(a -> b) | a"),
            (Iff(Implies(a, b), Implies(b, a)), "a -> b <-> b -> a"),
            (Implies(Iff(a, b), Bottom()), "(a <-> b) -> false"),
            (And(Top(), Iff(a, Bottom())), "true & (a <-> false)"),
            (Not(Not(a)), "!!a"),
            (Not(Top()), "!true"),
            (Not(And(a, b)), "!(a & b)"),
            (Not(Or(a, b)), "!(a | b)"),
            (Not(Implies(a, b)), "!(a -> b)"),
            (Not(Iff(a, Not(b))), "!(a <-> !b)"),
        ],
    )
    def test_brackets_only_where_needed(self, f, text):
        assert str(f) == text

    def test_seeded_trees_print_to_pinned_strings(self):
        rng = random.Random(17)

        def tree(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice((a, b, Top(), Bottom()))
            kind = rng.choice((Not, And, Or, Implies, Iff))
            return Not(tree(depth - 1)) if kind is Not else kind(tree(depth - 1), tree(depth - 1))

        h = hashlib.sha256()
        for _ in range(2000):
            f = tree(5)
            h.update(f"{f}\t{models(f, AB)}\n".encode())
        assert h.hexdigest()[:16] == SEEDED_STR_DIGEST


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


formulas = st.recursive(
    st.sampled_from([Atom("z"), Atom("o"), Atom("t"), Top(), Bottom()]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        *(st.builds(kind, sub, sub) for kind in (And, Or, Implies, Iff)),
    ),
    max_leaves=24,
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


@given(formulas)
def test_str_parses_back_to_the_same_tree(f):
    assert parse(str(f), ZOT) == f


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
