import random
from collections import Counter
from itertools import permutations

import pytest
from condition_oracle import is_unbiased

from revlab import states
from revlab.errors import InvariantError, ParseError, TooLargeError
from revlab.fixtures import KARL_STATE_TEXT
from revlab.operators import RevisionOperator, UpdatePolicy
from revlab.orders import RankedOrder, enumerate_orders
from revlab.prop import Signature
from revlab.states import (
    EpistemicState,
    check_clf,
    check_fa,
    check_faithful_limited,
    dump_state,
    StateUniverse,
    enumerate_states,
    orbit_representatives,
    parse_state,
    sample_states,
    stabilizer_inputs,
)
from revlab.verify import POSTULATE_IDS, THEOREM_IDS, check_postulate, verify_equivalence

AB = Signature.of("a b")


def mask(*worlds):
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


def karl_state():
    return parse_state(KARL_STATE_TEXT)


class TestChecks:
    def test_karl_is_faithful(self):
        _, st = karl_state()
        assert check_faithful_limited(st)

    def test_vacuously_faithful_when_beliefs_miss_scope(self):
        st = EpistemicState(mask(0), mask(1, 2), RankedOrder((mask(1), mask(2))))
        assert check_faithful_limited(st)

    def test_faithfulness_violation(self):
        st = EpistemicState(mask(0, 1), mask(0, 1), RankedOrder((mask(0), mask(1))))
        assert not check_faithful_limited(st)

    def test_clf(self):
        good = EpistemicState(mask(0), mask(0, 1), RankedOrder((mask(0), mask(1))))
        assert check_clf(good)
        wide = EpistemicState(mask(0, 1), mask(0, 1, 2), RankedOrder((mask(0, 1), mask(2))))
        assert check_clf(wide)
        _, karl = karl_state()
        assert not check_clf(karl)  # one belief world lies outside the scope

    def test_fa(self):
        st = EpistemicState(mask(1), mask(0, 1, 2, 3), RankedOrder((mask(1), mask(0, 2, 3))))
        assert check_fa(st, AB)
        _, karl = karl_state()
        assert not check_fa(karl, Signature.of("z o t"))
        split = EpistemicState(
            mask(1, 2), mask(0, 1, 2, 3), RankedOrder((mask(1), mask(2), mask(0, 3)))
        )
        assert not check_fa(split, AB)

    def test_nesting_fa_clf_faithful(self):
        for st in enumerate_states(AB, "fa").states:
            assert check_clf(st)
        for st in enumerate_states(AB, "clf").states:
            assert check_faithful_limited(st)


class TestEnumerate:
    def brute_force_count(self, sig, kind, gc):
        count = 0
        full = sig.all_worlds
        for scope in range(1, full + 1):
            for order in enumerate_orders(scope):
                for bel in range(full + 1):
                    st = EpistemicState(bel, scope, order)
                    if gc and bel == 0:
                        continue
                    ok = {
                        "faithful": check_faithful_limited(st),
                        "clf": check_clf(st),
                        "fa": check_fa(st, sig),
                    }[kind]
                    count += ok
        return count

    @pytest.mark.parametrize("kind", ["faithful", "clf", "fa"])
    @pytest.mark.parametrize("gc", [False, True])
    def test_counts_match_generate_and_filter_oracle(self, kind, gc):
        sig = Signature.of("a")
        got = len(enumerate_states(sig, kind, global_consistency=gc).states)
        assert got == self.brute_force_count(sig, kind, gc)

    def test_n2_faithful_counts(self):
        assert len(enumerate_states(AB, "faithful").states) == 566
        assert len(enumerate_states(AB, "faithful", global_consistency=True).states) == 417

    def test_unbiased_witness(self):
        uni = enumerate_states(AB, "faithful")
        assert any(st.bel == AB.all_worlds for st in uni.states)
        assert is_unbiased(uni)

    @pytest.mark.parametrize("gc", [False, True])
    @pytest.mark.parametrize("atoms", ["a", "a b"])
    def test_every_built_universe_is_unbiased(self, atoms, gc):
        # K nonempty is held by: faithful and il, a first level K∩S with K's
        # other worlds outside S (or no level believed when K misses S); clf,
        # scope K in one level; fa, first level K.
        sig = Signature.of(atoms)
        universes = [enumerate_states(sig, kind, gc) for kind in ("faithful", "clf", "fa")]
        universes += [enumerate_states(sig, "il", gc, scope) for scope in range(1, sig.all_worlds + 1)]
        assert all(is_unbiased(uni) for uni in universes)

    @pytest.mark.parametrize("kind", ["faithful", "clf", "fa"])
    @pytest.mark.parametrize("gc", [False, True])
    def test_3atom_representatives_believe_every_size(self, kind, gc):
        # The universe is closed under renaming the worlds, so it holds every
        # nonempty belief set iff its representatives hold one of each size.
        uni = enumerate_states(Signature.of("a b c"), kind, gc)
        assert {st.bel.bit_count() for st, _ in uni.orbits()} >= set(range(1, 9))

    def test_global_consistency_flag(self):
        uni = enumerate_states(AB, "faithful", global_consistency=True)
        assert all(st.bel for st in uni.states)

    def test_every_member_passes_its_check(self):
        for st in enumerate_states(AB, "faithful").states:
            assert check_faithful_limited(st)
        for st in enumerate_states(AB, "clf").states:
            assert check_clf(st)
        for st in enumerate_states(AB, "fa").states:
            assert check_fa(st, AB)

    def test_il_universe_has_fixed_scope(self):
        uni = enumerate_states(AB, "il", il_scope=mask(1, 2))
        assert uni.states and all(st.scope == mask(1, 2) for st in uni.states)

    @pytest.mark.parametrize("kind", ["faithful", "clf", "fa"])
    def test_only_an_il_universe_takes_an_il_scope(self, kind):
        # The scope fixes the renamings a universe is closed under, so a stray one would misstate them.
        with pytest.raises(InvariantError, match=f"not a {kind} one"):
            enumerate_states(AB, kind, True, il_scope=5)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            enumerate_states(Signature.of("a b c d"))

    def test_states_are_built_on_the_first_read_and_keep_the_value(self, generated):
        # Up to 2 atoms a universe builds its states once, on the first read of `states`.  They are a
        # cache: the universe equals and hashes as before, and as a twin that never read them.
        uni, twin = enumerate_states(AB, "faithful"), enumerate_states(AB, "faithful")
        before = hash(uni)
        assert generated == [] and uni == twin
        assert len(uni.states) == 566 and uni.states is uni.states
        assert generated == [(AB, "faithful", False, None)]
        assert uni == twin and hash(uni) == before == hash(twin)
        # A universe given its states by hand compares by them: one short of the kind's is another
        # universe, and has no orbits.
        short = StateUniverse(AB, "faithful", False, None, uni.states[:-1])
        assert short != uni and short.states == uni.states[:-1] and short.orbits() is None
        assert len(generated) == 1
        with pytest.raises(TooLargeError):
            enumerate_states(Signature.of("a b c")).states

    def test_lazy_universe_at_three_atoms(self):
        # A 3-atom universe holds only its orbit representatives, built for its key when first asked for.
        orbit_representatives.cache_clear()
        uni = enumerate_states(Signature.of("a b c"))
        assert orbit_representatives.cache_info().currsize == 0
        with pytest.raises(TooLargeError):
            uni.states
        reps = uni.orbits()
        assert orbit_representatives.cache_info().misses == 1
        assert len(reps) == 1_004 and all(check_faithful_limited(st) for st, _ in reps)

    @pytest.mark.parametrize(
        "il_scope, gc, count, total",
        [(0x0F, True, 72, 2_325), (0x3F, True, 160, 32_781), (0xFF, True, 128, 545_835), (0xFF, False, 256, 1_091_670)],
        ids=str,
    )
    def test_lazy_il_universe_at_three_atoms(self, il_scope, gc, count, total):
        # An il universe is held no longer than any other: at 3 atoms only its representatives, on demand.
        orbit_representatives.cache_clear()
        uni = enumerate_states(Signature.of("a b c"), "il", gc, il_scope)
        assert orbit_representatives.cache_info().currsize == 0 and uni._states is None
        reps = uni.orbits()
        assert orbit_representatives.cache_info().misses == 1
        assert (len(reps), sum(size for _, size in reps)) == (count, total)
        assert all(st.scope == il_scope and check_faithful_limited(st) for st, _ in reps)


class TestSampling:
    @pytest.mark.parametrize("kind", ["faithful", "clf", "fa"])
    def test_samples_are_valid(self, kind):
        sig = Signature.of("a b c")
        rng = random.Random(11)
        for st in sample_states(sig, kind, 50, rng):
            assert {
                "faithful": check_faithful_limited(st),
                "clf": check_clf(st),
                "fa": check_fa(st, sig),
            }[kind]

    def test_seeded_and_deterministic(self):
        sig = Signature.of("a b c")
        a = sample_states(sig, "faithful", 20, random.Random(3))
        b = sample_states(sig, "faithful", 20, random.Random(3))
        assert a == b

    @pytest.mark.parametrize(
        "kind, il_scope, error, message",
        [
            ("bogus", None, ValueError, "unknown universe kind 'bogus'"),
            ("il", None, InvariantError, "il universe needs a nonempty il_scope"),
            ("il", 0x200, InvariantError, "il universe needs a nonempty il_scope within the signature"),
        ],
        ids=["unknown-kind", "il-without-scope", "il-scope-outside"],
    )
    def test_bad_kind_or_scope_is_refused(self, kind, il_scope, error, message):
        # The same check as enumerate_states, before any state is drawn.
        with pytest.raises(error, match=message):
            sample_states(Signature.of("a b c"), kind, 3, random.Random(0), il_scope=il_scope)


def _image(ws, perm):
    """The world set `ws` with world w renamed perm[w]."""
    return sum(1 << perm[w] for w in range(len(perm)) if ws >> w & 1)


def _renamed(st, perm):
    """`st` with world w renamed perm[w]."""
    return EpistemicState(
        _image(st.bel, perm), _image(st.scope, perm), RankedOrder(tuple(_image(lv, perm) for lv in st.order.levels))
    )


def _key(st):
    return st.bel, st.scope, st.order.levels


def _canonical(st, perms):
    """The least renaming of `st`, by (bel, scope, levels): one key per orbit."""
    return min(_key(_renamed(st, p)) for p in perms)


def _pair_keys(st, perms):
    """Per input α, the least renaming of (st, α): one key per orbit of (state, input) pairs."""
    renamed = [(_key(_renamed(st, p)), p) for p in perms]
    return [min((key, _image(a, p)) for key, p in renamed) for a in range(1 << len(perms[0]))]


# The universes of the orbit oracle: every kind, il under scopes of 1 to 4 worlds.
ORBIT_CASES = [
    ("faithful", True, None),
    ("faithful", False, None),
    ("clf", True, None),
    ("fa", False, None),
    ("il", False, 0b0001),
    ("il", True, 0b0110),
    ("il", True, 0b1011),
    ("il", False, 0b1111),
]
ORBIT_IDS = [f"{kind}-{gc}" + (f"-{scope:#06b}" if scope else "") for kind, gc, scope in ORBIT_CASES]


def _clear_orbit_caches():
    orbit_representatives.cache_clear()
    states._orbit_inputs.cache_clear()


class TestOrbitRepresentatives:
    # The oracle: canonical forms under the renamings of the 2-atom worlds
    # that keep the universe's fixed scope, all 24 of them but for il.
    PERMS = list(permutations(range(4)))

    def perms(self, il_scope):
        return [p for p in self.PERMS if il_scope is None or _image(il_scope, p) == il_scope]

    @pytest.mark.parametrize("kind, gc, il_scope", ORBIT_CASES, ids=ORBIT_IDS)
    def test_one_state_per_orbit_at_2_atoms(self, kind, gc, il_scope):
        perms = self.perms(il_scope)
        universe = enumerate_states(AB, kind, gc, il_scope)
        orbit_sizes = Counter(_canonical(st, perms) for st in universe.states)
        reps = orbit_representatives(AB, kind, gc, il_scope)
        members = set(universe.states)
        assert all(st in members for st, _ in reps)
        keys = [_canonical(st, perms) for st, _ in reps]
        assert len(set(keys)) == len(keys)  # no two share an orbit
        assert set(keys) == set(orbit_sizes)  # every state lies in the orbit of one of them
        assert {key: size for key, (_, size) in zip(keys, reps)} == orbit_sizes
        assert universe.orbits() == reps

    @pytest.mark.parametrize("kind, gc, il_scope", ORBIT_CASES, ids=ORBIT_IDS)
    def test_one_input_per_stabilizer_orbit_at_2_atoms(self, kind, gc, il_scope):
        perms = self.perms(il_scope)
        universe = enumerate_states(AB, kind, gc, il_scope)
        pair_orbits = Counter(key for st in universe.states for key in _pair_keys(st, perms))
        chosen = []
        for (st, size), inputs in zip(universe.orbits(), universe.orbit_inputs()):
            assert list(inputs) == sorted(set(inputs)) and inputs[0] == 0
            keys = _pair_keys(st, perms)
            chosen += [keys[a] for a in inputs]
            # A pair's orbit holds the orbit of its state times the orbit of its input under
            # the renamings that fix the state, so those input orbits fill all 16 inputs.
            assert sum(pair_orbits[keys[a]] for a in inputs) == size * 16
        assert len(set(chosen)) == len(chosen)  # no two inputs share an orbit
        assert set(chosen) == set(pair_orbits)  # every (state, input) pair lies in one of theirs
        assert universe.orbit_inputs() is universe.orbit_inputs()

    @pytest.mark.parametrize(
        "kind, gc, count, total",
        [
            ("faithful", True, 749, 3_274_497),
            ("faithful", False, 1_004, 4_366_166),
            ("clf", True, 255, 1_091_669),
            ("fa", False, 128, 545_835),
        ],
        ids=str,
    )
    def test_3atom_counts(self, kind, gc, count, total):
        # The totals are the sizes of the lazily enumerated universes.
        reps = orbit_representatives(Signature.of("a b c"), kind, gc, None)
        assert (len(reps), sum(size for _, size in reps)) == (count, total)

    def test_representatives_are_built_in_order(self):
        # (k, level sizes, level 0 believed, j): a lazy universe's theorem
        # counterexamples come in this order.
        reps = [st for st, _ in orbit_representatives(AB, "faithful", True, None)]
        assert reps[:3] == [
            EpistemicState(mask(1), mask(0), RankedOrder((mask(0),))),
            EpistemicState(mask(1, 2), mask(0), RankedOrder((mask(0),))),
            EpistemicState(mask(1, 2, 3), mask(0), RankedOrder((mask(0),))),
        ]

    def test_orbits_are_built_once_per_key(self):
        # The key is (sig, kind, global_consistency, il_scope): two universes of one key share one
        # representatives tuple and one inputs tuple, built once.
        _clear_orbit_caches()
        universe, twin = enumerate_states(AB, "faithful", True), enumerate_states(AB, "faithful", True)
        assert universe.orbits() is twin.orbits() and universe.orbit_inputs() is twin.orbit_inputs()
        il = enumerate_states(AB, "il", il_scope=mask(1, 2))
        assert il.orbits() is enumerate_states(AB, "il", il_scope=mask(1, 2)).orbits() is not None
        assert orbit_representatives.cache_info().misses == 2 and states._orbit_inputs.cache_info().misses == 1
        # A universe of another key shares neither.
        other = enumerate_states(AB, "faithful", False)
        assert other.orbits() is not universe.orbits() and other.orbit_inputs() is not universe.orbit_inputs()
        assert orbit_representatives.cache_info().misses == 3

    def test_a_universe_and_a_direct_call_share_one_entry(self):
        # Every call passes the whole key, so the cache holds one entry per key, however it is reached.
        _clear_orbit_caches()
        reps = enumerate_states(AB, "fa").orbits()
        assert orbit_representatives(AB, "fa", False, None) is reps
        assert orbit_representatives.cache_info()[:2] == (1, 1)  # hits, misses
        with pytest.raises(TypeError):
            orbit_representatives(AB, "fa")

    @pytest.mark.parametrize(
        "atoms, kind, gc, il_scope",
        [
            (atoms, *case)
            for atoms, scopes in (("a b", (0b0110, 0b1011)), ("a b c", (0x0F, 0b10110100)))
            for case in [
                ("faithful", True, None),
                ("faithful", False, None),
                ("clf", True, None),
                ("fa", False, None),
                ("il", True, scopes[0]),
                ("il", False, scopes[1]),
            ]
        ],
        ids=str,
    )
    def test_cached_orbits_equal_a_fresh_build(self, atoms, kind, gc, il_scope):
        _clear_orbit_caches()
        sig = Signature.of(atoms)
        uni = enumerate_states(sig, kind, gc, il_scope)
        fresh = orbit_representatives.__wrapped__(sig, kind, gc, il_scope)
        assert uni.orbits() == fresh and isinstance(uni.orbits(), tuple)
        assert uni.orbit_inputs() == tuple(stabilizer_inputs(st, sig.n_worlds) for st, _ in fresh)

    def test_enumerate_states_builds_no_orbits(self):
        sizes = orbit_representatives.cache_info().currsize, states._orbit_inputs.cache_info().currsize
        for sig in (AB, Signature.of("a b c")):
            for kind, gc, il_scope in ORBIT_CASES:
                enumerate_states(sig, kind, gc, il_scope)
        assert (orbit_representatives.cache_info().currsize, states._orbit_inputs.cache_info().currsize) == sizes

    def test_universes_without_orbits(self):
        # Every kind has its representatives, il only under a scope of its own.
        with pytest.raises(InvariantError, match="il universe needs a nonempty il_scope"):
            orbit_representatives(AB, "il", False, None)
        # A hand-built universe short of its kind's states is not closed under renaming, even where its
        # key's representatives and inputs are already built.
        whole = enumerate_states(AB, "clf", True)
        assert whole.orbits() and whole.orbit_inputs()
        some = StateUniverse(AB, "clf", True, None, whole.states[:10])
        assert some.orbits() is None and some.orbit_inputs() == ()
        # One given all of them by hand shares the key's.
        given = StateUniverse(AB, "clf", True, None, whole.states)
        assert given.orbits() is whole.orbits() and given.orbit_inputs() is whole.orbit_inputs()


def canonical(st, fixed_scope, n_worlds=8):
    """The renaming, as a list of images, that maps `st` onto its orbit's representative under the
    renamings that keep `fixed_scope`.

    It lists the worlds of each level, then the believed worlds outside the scope, then the rest,
    each ascending, and sends them in turn to the worlds of `fixed_scope` and then to the others,
    each ascending, as `orbit_representatives` lays its representatives out.  An il state's scope
    is `fixed_scope`, so its levels go to those worlds; any other kind keeps all worlds.
    """
    outside = ((1 << n_worlds) - 1) & ~st.scope
    blocks = (*st.order.levels, st.bel & outside, outside & ~st.bel)
    listed = [w for block in blocks for w in range(n_worlds) if block >> w & 1]
    slots = sorted(range(n_worlds), key=lambda w: not fixed_scope >> w & 1)
    perm = [0] * n_worlds
    for w, slot in zip(listed, slots):
        perm[w] = slot
    return perm


class TestOrbitRuleAt3Atoms:
    # The seeded oracle for the orbit rule at 3 atoms, where the 40,320 renamings are too many to
    # canonicalise by: `canonical` maps each sampled state onto its representative directly.
    ABC = Signature.of("a b c")
    SEED = 20240809

    @pytest.mark.parametrize(
        "kind, gc, il_scope",
        [
            ("faithful", True, None),
            ("faithful", False, None),
            ("clf", True, None),
            ("fa", False, None),
            ("il", True, 0x0F),
            ("il", False, 0b10110100),
        ],
        ids=str,
    )
    def test_every_sampled_state_maps_onto_a_representative(self, kind, gc, il_scope):
        uni = enumerate_states(self.ABC, kind, gc, il_scope)
        reps = {st for st, _ in uni.orbits()}
        sample = sample_states(self.ABC, kind, 1_000, random.Random(self.SEED), gc, il_scope)
        missed = [st for st in sample if _renamed(st, canonical(st, uni.fixed_scope)) not in reps]
        assert missed == []

    def _pairs_and_images(self, kind="faithful", il_scope=None):
        """1,000 seeded globally consistent (state, α) pairs of the kind and their images on the representatives."""
        rng = random.Random(self.SEED)
        sample = sample_states(self.ABC, kind, 1_000, rng, True, il_scope)
        pairs = [(st, rng.randrange(256)) for st in sample]
        perms = [canonical(st, il_scope or self.ABC.all_worlds) for st, _ in pairs]
        return pairs, [(_renamed(st, p), _image(a, p)) for (st, a), p in zip(pairs, perms)]

    def test_theorem_verdicts_agree_at_each_state_and_its_image(self):
        # Postulates and conditions use worlds only through set operations, so a renaming keeps
        # the verdict at every (state, α): the failing pairs of a sample map onto those of its images.
        pairs, images = self._pairs_and_images()
        uni = enumerate_states(self.ABC, "faithful", True)
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        failing = set()
        for theorem in THEOREM_IDS:
            verdicts = []
            for instances in (pairs, images):
                v = verify_equivalence(op, uni, theorem, instance_list=instances, max_counterexamples=10**6)
                failed = {(ce.state, ce.alpha) for ce in v.counterexamples}
                verdicts.append([pair in failed for pair in instances])
            assert verdicts[0] == verdicts[1], theorem
            if any(verdicts[0]):
                failing.add(theorem)
        assert failing == {"P9", "P10", "P14a", "P14b"}  # the sample reaches every red theorem

    def test_postulate_verdicts_agree_at_each_state_and_its_image(self):
        # The postulate side of the test above, for every id whose universe is not il.
        pairs, images = self._pairs_and_images()
        uni = enumerate_states(self.ABC, "faithful", True)
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        failing = set()
        for pid in (pid for pid in POSTULATE_IDS if not pid.startswith("IL")):
            verdicts = []
            for instances in (pairs, images):
                v = check_postulate(op, uni, pid, instance_list=instances, max_counterexamples=10**6)
                failed = {(ce.state, ce.alpha) for ce in v.counterexamples}
                verdicts.append([pair in failed for pair in instances])
            assert verdicts[0] == verdicts[1], pid
            if any(verdicts[0]):
                failing.add(pid)
        assert failing == {
            "CL2", "DP1", "DP2", "DP4", "CLDP1", "CLDP2", "CM1", "CM2", "FC", "FR", "SC", "SR", "COM", "DLDP2"
        }

    # The other kinds, each under its family's operator: (il_scope, operator).
    KEEP_DOC = UpdatePolicy("keep", "doc")
    OTHER_KINDS = {
        "clf": (None, RevisionOperator("cl", KEEP_DOC)),
        "fa": (None, RevisionOperator("agm", KEEP_DOC)),
        "il": (0x0F, RevisionOperator("il", KEEP_DOC, il_scope=0x0F)),
    }

    def _failing_ids(self, kind, ids, check):
        """The ids that fail at some pair of the kind's sample, each asserted to give every pair
        the verdict of its image, as in the faithful tests above."""
        il_scope, op = self.OTHER_KINDS[kind]
        pairs, images = self._pairs_and_images(kind, il_scope)
        uni = enumerate_states(self.ABC, kind, True, il_scope)
        failing = set()
        for check_id in ids:
            verdicts = []
            for instances in (pairs, images):
                v = check(op, uni, check_id, instance_list=instances, max_counterexamples=10**6)
                failed = {(ce.state, ce.alpha) for ce in v.counterexamples}
                verdicts.append([pair in failed for pair in instances])
            assert verdicts[0] == verdicts[1], check_id
            if any(verdicts[0]):
                failing.add(check_id)
        return failing

    @pytest.mark.parametrize(
        "kind, failing",
        [
            ("clf", {"P9", "P14b"}),
            ("fa", {"P12", "P13b", "P-CM1", "P-CM2", "P-COM", "P-DOC", "P-SCSR"}),
            ("il", {"P9", "P10", "P12", "P14a", "P14b"}),
        ],
        ids=["clf", "fa", "il"],
    )
    def test_theorem_verdicts_agree_on_the_other_kinds(self, kind, failing):
        assert self._failing_ids(kind, THEOREM_IDS, verify_equivalence) == failing

    @pytest.mark.parametrize(
        "kind, failing",
        [
            ("clf", {"DP1", "DP2", "CLDP2", "CM2", "FC", "SC", "COM", "DLDP2"}),
            ("fa", {"CL3", "CLP", "DL2", "DL5", "DOC"}),
            ("il", {"CL2", "CLP", "DP1", "DP2", "CLDP1", "CLDP2", "CM1", "CM2", "SC", "DOC", "COM"}),
        ],
        ids=["clf", "fa", "il"],
    )
    def test_postulate_verdicts_agree_on_the_other_kinds(self, kind, failing):
        # IL1–IL7 quantify over the il universe, so only the il sample runs them.
        ids = [pid for pid in POSTULATE_IDS if kind == "il" or not pid.startswith("IL")]
        assert self._failing_ids(kind, ids, check_postulate) == failing

    def test_sampled_p10_failures_map_onto_counterexamples_of_the_representatives(self):
        pairs, images = self._pairs_and_images()
        uni = enumerate_states(self.ABC, "faithful", True)
        op = RevisionOperator("dl", UpdatePolicy("keep", "doc"))
        sampled = verify_equivalence(op, uni, "P10", instance_list=pairs, max_counterexamples=10**6)
        image_of = dict(zip(pairs, images))
        failed = [image_of[ce.state, ce.alpha] for ce in sampled.counterexamples]
        full = verify_equivalence(op, uni, "P10", max_counterexamples=10**6)
        assert len(full.counterexamples) == 7_168 and failed
        assert set(failed) <= {(ce.state, ce.alpha) for ce in full.counterexamples}


class TestStateFiles:
    def test_karl_file(self):
        sig, st = karl_state()
        assert sig.atoms == ("z", "o", "t")
        assert st.bel == mask(1, 2, 3)
        assert st.scope == mask(1, 2, 4)
        assert st.order.levels == (mask(1, 2), mask(4))

    def test_round_trip_all_n2_states(self):
        for st in enumerate_states(AB, "faithful").states:
            sig2, st2 = parse_state(dump_state(AB, st))
            assert (sig2, st2) == (AB, st)

    def test_empty_scope_rejected(self):
        with pytest.raises((InvariantError, ParseError)):
            parse_state("sig: a b\nbel: 01\nscope:\norder: [01]\n")

    def test_parse_errors_carry_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_state("sig: a b\nnonsense\n")
        with pytest.raises(ParseError, match="order"):
            parse_state("sig: a b\nbel: 01\nscope: 01\n")

    def test_mismatched_order_domain_rejected(self):
        with pytest.raises(ParseError, match="^line 4: order domain must equal the scope$"):
            parse_state("sig: a b\nbel: 01\nscope: 01 10\norder: [01]\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sig: a b\nbel: 01\nscope:\norder: [01]\n", "line 3: scope must be nonempty"),
            ("sig: a b\n# note\nbel: 0x\nscope: 01\norder: [01]\n", "line 3: world '0x'"),
            ("sig: a b\nbel: 01\nscope: 01\norder: 01\n", "line 4: order text must be bracketed"),
            ("sig: a a\nbel: 01\nscope: 01\norder: [01]\n", "line 1: atom names must be unique"),
            ("sig: a b\nbel: 01\ncolour: red\nscope: 01\norder: [01]\n", "line 3: unknown key 'colour'"),
            ("sig: a b\nbel: 01\nbel: 01\nscope: 01\norder: [01]\n", "line 3: duplicate key 'bel'"),
        ],
        ids=["empty-scope", "bad-world", "unbracketed-order", "duplicate-atom", "unknown-key", "duplicate-key"],
    )
    def test_field_errors_name_their_line(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}"):
            parse_state(text)
