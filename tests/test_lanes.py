"""Lane operations on packed belief rows against their list and loop oracles.

The oracles are in `lane_oracle.py`.  Each comparison runs on every belief
row a 2-atom faithful suite reads (every state and its posteriors under all
16 inputs and all nine update policies), on a seeded 3-atom sample, and on
a few seeded 4-atom states, whose rows have 16-bit lanes.  The postulate
rows are also compared under two corrupted operators, and every postulate
whose β ranges over classes, or whose rows carry a β, must have an
oracle.  The canonical reconstruction is compared with its pairwise-dict
form on whole 2-atom universes, on every single-entry corruption of a few
rows, on a seeded 3-atom sample, on every 3-atom orbit representative and
on seeded single-entry corruptions of a few 3-atom rows; a count of its
pairwise walks shows that no uncorrupted row needs one.
"""

import random

import pytest
from lane_oracle import (
    BETA_PIDS,
    DL_KEEP,
    EmptiedAtAllWorlds,
    canonical_pairs,
    classify_table,
    corrupted_table,
    iter_beta_rows,
    latent_worlds,
    scope_classes,
    subset_or,
    superset_and,
    unions,
)

from revlab import classify, kernels, operators, postulates
from revlab.errors import NonWeakOrderError, TooLargeError
from revlab.operators import canonical_assignment
from revlab.operators import RevisionOperator, UpdatePolicy, all_policies
from revlab.prop import Signature
from revlab.states import StateUniverse, enumerate_states, sample_states
from revlab.transitions import TransitionTable

AB = Signature.of("a b")
ABC = Signature.of("a b c")
ABCD = Signature.of("a b c d")


def _tables(sig, states, policies, co, alphas_of):
    """A table per policy with every state's posteriors under its inputs filled in."""
    universe = StateUniverse(sig, "faithful", False)  # held while the tables are read, for IL4's immanent classes
    for policy in policies:
        tab = TransitionTable(RevisionOperator("dl", policy), universe, consistent_only=co)
        work = [(tab.id_of(st), alphas_of(st)) for st in states]
        for sid, alphas in work:
            for a in alphas:
                tab.post(sid, a)
        yield tab, work


def _assert_rows_match(tab):
    """Transforms, scope classes and classification of every row in the table."""
    ln = tab.lanes
    n_worlds = tab.sig.n_worlds
    for sid, st in enumerate(tab.states):
        row = tab.row(sid)
        table = ln.entries(row)
        assert ln.entries(ln.lattice_and(row, supersets=True)) == tuple(superset_and(table))
        cover = ln.full ^ ln.lattice_and(ln.full ^ row, supersets=False)
        assert ln.entries(cover) == tuple(subset_or(table))
        assert tab.scope_classes(sid) == scope_classes(table)
        cls = classify.classify_state(tab, st, tab.sig)
        got = (cls.s1, cls.s2, cls.latent, cls.reasonable, cls.scope_syntactic)
        assert got == classify_table(table, st.bel, n_worlds), st
        assert tab.reasonable(sid) == cls.reasonable, st


def _assert_beta_rows_match(tab, work, pids=BETA_PIDS):
    for pid in pids:
        for sid, alphas in work:
            got = list(postulates._postulate_rows(tab, pid, sid, alphas))
            assert got == list(iter_beta_rows(tab, pid, sid, alphas)), (pid, tab.states[sid], alphas)


@pytest.mark.parametrize("co", [False, True])
def test_every_2atom_row_under_every_policy(co):
    faithful = enumerate_states(AB, "faithful")
    for tab, work in _tables(AB, faithful.states, all_policies(), co, lambda st: range(16)):
        _assert_rows_match(tab)
        _assert_beta_rows_match(tab, [(sid, tab.classes()) for sid, _ in work])


@pytest.mark.parametrize("co", [False, True])
def test_seeded_3atom_sample(co):
    rng = random.Random(20240811)
    states = sample_states(ABC, "faithful", 40, rng)
    inputs = {st: [rng.randrange(256) for _ in range(6)] for st in states}
    policies = [UpdatePolicy("keep", "keep"), UpdatePolicy("keep", "doc"), UpdatePolicy("lex", "result_only")]
    for tab, work in _tables(ABC, states, policies, co, inputs.__getitem__):
        _assert_rows_match(tab)
        _assert_beta_rows_match(tab, work)


def test_seeded_4atom_states_with_16_bit_lanes():
    rng = random.Random(4)
    states = sample_states(ABCD, "faithful", 2, rng)
    inputs = {st: [rng.randrange(1 << 16) for _ in range(2)] for st in states}
    (tab, work), = _tables(ABCD, states, [UpdatePolicy("keep", "doc")], False, inputs.__getitem__)
    assert tab.lanes.width == 16
    _assert_rows_match(tab)
    _assert_beta_rows_match(tab, work, ("DP1", "DP2", "DP3", "DP4", "CLDP2", "CLP", "CM1"))


@pytest.mark.parametrize("co", [False, True])
def test_postulate_rows_under_corrupted_operators(co):
    # Between them the two operators break each pair postulate somewhere.
    faithful = enumerate_states(AB, "faithful")
    failing = set()
    for op in (EmptiedAtAllWorlds(AB), corrupted_table(DL_KEEP, faithful, 40, 3)):
        tab = TransitionTable(op, faithful, consistent_only=co)
        work = [(tab.id_of(st), tab.classes()) for st in faithful.states]
        _assert_beta_rows_match(tab, work)
        failing.update(
            pid for pid in postulates._PAIRED for sid, alphas in work if next(postulates._postulate_rows(tab, pid, sid, alphas), None)
        )
    assert failing == set(postulates._PAIRED)


def test_every_postulate_with_a_beta_over_classes_has_an_oracle():
    assert {*postulates._ROW_TESTS, *postulates._SCOPE_MOVES, *postulates._PAIRED} <= set(BETA_PIDS)
    assert {pid for pid, (order, *_) in postulates._ROW_SHAPES.items() if order is not None} <= set(BETA_PIDS)


def test_incomparable_pairs():
    # Of the 2^N x 2^N ordered pairs of classes over N worlds, 2 * 3^N - 2^N are comparable.
    for n_worlds in (4, 8):
        pairs = classify.incomparable(1 << n_worlds)
        assert sum(map(len, pairs)) == 4**n_worlds - 2 * 3**n_worlds + 2**n_worlds
        assert all(list(bs) == sorted(set(bs)) for bs in pairs)
        assert all(a & ~b and b & ~a for a, bs in enumerate(pairs) for b in bs)
    cached = classify.incomparable.cache_info().currsize
    with pytest.raises(TooLargeError):
        classify.incomparable(1 << 16)
    assert classify.incomparable.cache_info().currsize == cached


@pytest.mark.parametrize("n_classes", [16, 256, 1 << 16])
def test_compaction_round_trips(n_classes):
    ln = kernels.lanes(n_classes)
    rng = random.Random(n_classes)
    top = 1 << ln.width - 1
    for _ in range(5):
        bits = rng.getrandbits(n_classes)
        flags = ln.pack(top if (bits >> c) & 1 else 0 for c in range(n_classes))
        assert ln.bits(flags) == bits and ln.fill(flags) & ln.high == flags
        row = rng.getrandbits(n_classes * ln.width) & ln.fill(flags)  # lanes outside `bits` zero
        table = ln.entries(row)
        assert ln.bits(ln.nz(row)) == sum(1 << c for c, x in enumerate(table) if x)
        assert ln.pack(table) == row


def test_unions_match_the_list_transform():
    # Arbitrary member sets, rarely down-closed, at 2 and 3 atoms.
    rng = random.Random(9)
    for sig in (AB, ABC):
        n_classes = 1 << sig.n_worlds
        for _ in range(300):
            members = rng.getrandbits(n_classes) & rng.getrandbits(n_classes)
            assert classify._unions(members, sig) == unions(members, n_classes)


def _assert_latent_worlds_match(row, bel, sig):
    """`classify.latent_worlds` against the minterms of `classify_row`'s latent classes and the list form."""
    ln = kernels.lanes(1 << sig.n_worlds)
    got = classify.latent_worlds(row, bel, ln)
    assert got == classify.minterm_worlds(classify.classify_row(row, bel, sig).latent, sig.n_worlds), (row, bel)
    assert got == latent_worlds(ln.entries(row), bel, sig.n_worlds), (row, bel)
    return got


@pytest.mark.parametrize(
    "family, kind, il_scope",
    [("dl", "faithful", None), ("cl", "clf", None), ("agm", "fa", None), ("il", "il", 0b0110), ("il", "il", 0b1011)],
)
def test_latent_worlds_of_every_2atom_state_under_every_policy(family, kind, il_scope):
    uni = enumerate_states(AB, kind, il_scope=il_scope)
    for policy in all_policies():
        tab = TransitionTable(RevisionOperator(family, policy, il_scope), uni)
        for st in uni.states:
            sid = tab.id_of(st)
            _assert_latent_worlds_match(tab.row(sid), st.bel, AB)
            want = classify_table(tab.lanes.entries(tab.row(sid)), st.bel, AB.n_worlds)[3]
            assert tab.reasonable(sid) == classify.classify_state(tab.op, st, AB).reasonable == want, st


@pytest.mark.parametrize("sig, n_rows", [(AB, 3000), (ABC, 400)], ids=["2atom", "3atom"])
def test_latent_worlds_of_seeded_random_rows(sig, n_rows):
    # Rows that no weak order gives, as a lookup table's may be: half draw every
    # lane at random, so the weakest row is mostly empty, and half draw their
    # lanes from three masks, so it is not.  Dropping any one minterm test (the
    # beliefs or the weakest row of S1, or S2) fails both sizes.  Every world is
    # latent in some row and not in another.
    rng = random.Random(26)
    n_classes = 1 << sig.n_worlds
    ln = kernels.lanes(n_classes)
    latent = unlatent = 0
    for i in range(n_rows):
        pool = [rng.randrange(n_classes) for _ in range(3)] if i % 2 else range(n_classes)
        row = ln.pack(rng.choice(pool) for _ in range(n_classes))
        got = _assert_latent_worlds_match(row, rng.randrange(n_classes), sig)
        latent, unlatent = latent | got, unlatent | ~got & n_classes - 1
    assert latent == unlatent == n_classes - 1


def _rebuilt(fn, *args):
    """(order, scope) or the NonWeakOrderError's (message, witness)."""
    try:
        return fn(*args)
    except NonWeakOrderError as err:
        return str(err), err.witness


def _assert_reconstructions_match(op, tab, states, sig):
    """The lane reconstruction from `op` against the pairwise one from `tab`, for both families."""
    outcomes = []
    for st in states:
        for family in ("dl", "cl"):
            got = _rebuilt(canonical_assignment, op, st, sig, family)
            assert got == _rebuilt(canonical_pairs, tab, st, family), (st, family)
            outcomes.append(got)
    return outcomes


@pytest.mark.parametrize(
    "family, kind, il_scope", [("dl", "faithful", None), ("cl", "clf", None), ("agm", "fa", None), ("il", "il", 0b0110)]
)
def test_reconstruction_on_every_2atom_state_under_every_policy(family, kind, il_scope):
    uni = enumerate_states(AB, kind, il_scope=il_scope)
    for policy in all_policies():
        op = RevisionOperator(family, policy, il_scope)
        _assert_reconstructions_match(op, TransitionTable(op, uni), uni.states, AB)


def test_reconstruction_on_every_single_entry_corruption():
    # Each corrupted row is read through the table by both constructions;
    # between them, the corruptions reach every error the construction raises.
    rng = random.Random(20240812)
    states = rng.sample(enumerate_states(AB, "faithful").states, 12)
    tab = TransitionTable(RevisionOperator("dl"), enumerate_states(AB))
    width = tab.lanes.width
    errors = set()
    for st in states:
        sid = tab.id_of(st)
        row = tab.row(sid)
        for a in range(16):
            old = tab.lanes.entry(row, a)
            for new in range(16):
                if new != old:
                    tab._rows[sid] = row ^ (old ^ new) << a * width
                    outcomes = _assert_reconstructions_match(tab, tab, [st], AB)
                    errors.update(got[0] for got in outcomes if isinstance(got[0], str))
        tab._rows[sid] = row
    assert errors == {
        "reconstructed scope is empty",
        "pairwise relation is not total",
        "pairwise relation has no minimal element",
        "pairwise relation is not transitive",
    }


def test_reconstruction_on_a_seeded_3atom_sample():
    states = sample_states(ABC, "faithful", 300, random.Random(20240813))
    op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
    _assert_reconstructions_match(op, TransitionTable(op, enumerate_states(ABC)), states, ABC)


# The round trips' universes at 3 atoms; each family's operator reads its rows.
KINDS_3ATOM = [("dl", "faithful", None), ("cl", "clf", None), ("agm", "fa", None), ("il", "il", 0x0F)]


def _representatives(sig, kind, il_scope):
    uni = enumerate_states(sig, kind, il_scope=il_scope)
    return uni.states if sig.n_atoms < 3 else [st for st, _ in uni.orbits()]


@pytest.mark.parametrize("family, kind, il_scope", KINDS_3ATOM)
def test_reconstruction_on_every_3atom_representative(family, kind, il_scope):
    op = RevisionOperator(family, il_scope=il_scope)
    _assert_reconstructions_match(op, TransitionTable(op, enumerate_states(ABC)), _representatives(ABC, kind, il_scope), ABC)


def _counting_walks(monkeypatch):
    calls = []
    walk = operators._pairwise_walk
    monkeypatch.setattr(operators, "_pairwise_walk", lambda *args: calls.append(args) or walk(*args))
    return calls


def test_reconstruction_on_seeded_3atom_corruptions(monkeypatch):
    # Single entries of a few 3-atom rows, each replaced by a seeded other
    # mask.  Most hit a class of three or more worlds: the peeled order fails
    # its check there and the walk, which reads only pairs, rebuilds it.
    walks = _counting_walks(monkeypatch)
    rng = random.Random(20261020)
    tab = TransitionTable(RevisionOperator("dl"), enumerate_states(ABC))
    ln = tab.lanes
    errors, walked_orders, trials = set(), 0, 0
    for st in rng.sample(_representatives(ABC, "faithful", None), 3):
        sid = tab.id_of(st)
        row = tab.row(sid)
        for _ in range(400):
            a = rng.randrange(256)
            old = ln.entry(row, a)
            new = (old + rng.randrange(1, 256)) % 256
            tab._rows[sid] = row ^ (old ^ new) << a * ln.width
            for family in ("dl", "cl"):
                before = len(walks)
                got = _rebuilt(canonical_assignment, tab, st, ABC, family)
                assert got == _rebuilt(canonical_pairs, tab, st, family), (st, a, new, family)
                if isinstance(got[0], str):
                    errors.add(got[0])
                elif len(walks) > before:
                    walked_orders += 1
                trials += 1
        tab._rows[sid] = row
    assert 0 < walked_orders and len(walks) < trials
    assert errors == {
        "pairwise relation is not total",
        "pairwise relation has no minimal element",
        "pairwise relation is not transitive",
    }


def test_only_a_row_the_peel_does_not_explain_is_walked(monkeypatch):
    # Every state of the 2-atom universes and every 3-atom representative is
    # rebuilt, by its round trip's construction, from the peel alone.
    walks = _counting_walks(monkeypatch)
    kinds = {AB: KINDS_3ATOM[:3] + [("il", "il", 0b0110)], ABC: KINDS_3ATOM}
    for sig, cases in kinds.items():
        for family, kind, il_scope in cases:
            op = RevisionOperator(family, il_scope=il_scope)
            construction = "cl" if family == "cl" else "dl"
            for st in _representatives(sig, kind, il_scope):
                canonical_assignment(op, st, sig, construction)
    assert walks == []
