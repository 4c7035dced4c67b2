"""Epistemic states, assignment validity checks, and finite state universes.

A state carries its own assignment: the triple (belief models, scope,
ranked order over the scope).  The three nested validity notions:

* faithful limited: if beliefs meet the scope they are exactly its minimum,
* CLF: beliefs lie inside the scope and equal its minimum,
* FA: scope is all of Ω and beliefs are exactly level 0.

Universes are the quantification domains of the postulates ("for all Ψ").
Every universe is closed under the renamings of the worlds that keep its
fixed scope: `il_scope` for the il kind, all worlds for the others.  Up to
2 atoms it builds its states on the first read of `states`, so a check
decided on the representatives builds none.  At 3 atoms the faithful
universe has ~4.4M members, so a universe of any kind holds only one state
per orbit under those renamings (`orbit_representatives`); there the
verifier samples, or decides a check on the representatives.  The renamings
that fix a representative map its inputs onto each other in turn, and
`orbit_inputs()` gives one input per such orbit (`stabilizer_inputs`).  Both
are built once per process for each key (signature, kind, global
consistency, fixed scope), and every universe of that key shares them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Iterator

from .errors import InvariantError, ParseError, TooLargeError
from .orders import RankedOrder, enumerate_orders, min_set
from .prop import Signature, iter_worlds

MAX_ATOMS_MATERIALISED = 2
MAX_ATOMS = 3

UNIVERSE_KINDS = ("faithful", "clf", "fa", "il")


@dataclass(frozen=True)
class EpistemicState:
    bel: int
    scope: int
    order: RankedOrder
    # Taken once: a suite looks states up by value tens of thousands of times.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scope == 0:
            raise InvariantError("scope must be nonempty")
        if self.order.domain != self.scope:
            raise InvariantError("order domain must equal the scope")
        object.__setattr__(self, "_hash", hash((self.bel, self.scope, self.order)))

    def __hash__(self) -> int:
        return self._hash


def check_faithful_limited(st: EpistemicState) -> bool:
    """Def of faithfulness for limited assignments: bel∩scope, when nonempty, is the minimum."""
    inter = st.bel & st.scope
    return inter == 0 or min_set(st.scope, st.order) == inter


def check_clf(st: EpistemicState) -> bool:
    """CLF validity: bel ⊆ scope and bel is exactly the scope minimum."""
    return st.bel & ~st.scope == 0 and min_set(st.scope, st.order) == st.bel


def check_fa(st: EpistemicState, sig: Signature) -> bool:
    """Total faithful assignment: scope = Ω and level 0 is exactly bel."""
    if st.scope != sig.all_worlds:
        return False
    return st.order.levels[0] == st.bel


@dataclass(frozen=True)
class StateUniverse:
    sig: Signature
    kind: str
    global_consistency: bool
    il_scope: int | None = None
    _states: tuple[EpistemicState, ...] | None = None  # given by hand, or None for all of the kind's
    # All of the kind's states where none are given, built on the first `states` read; not compared.
    _built: tuple[EpistemicState, ...] | None = field(default=None, init=False, repr=False, compare=False)
    # The last transition table a verifier suite built on this universe (see
    # transitions.suite_table), kept for the next suite call with the same
    # operator over the same states.  Not part of the universe's value.
    _transitions: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def states(self) -> tuple[EpistemicState, ...]:
        if self._states is not None:
            return self._states
        if self._built is None:
            if self.sig.n_atoms > MAX_ATOMS_MATERIALISED:
                raise TooLargeError(f"a {self.sig.n_atoms}-atom universe holds only its orbit representatives")
            built = tuple(_generate_states(self.sig, self.kind, self.global_consistency, self.il_scope))
            object.__setattr__(self, "_built", built)
        return self._built

    @property
    def fixed_scope(self) -> int:
        """The scope whose keeping renamings map the universe onto itself: `il_scope`, or all worlds."""
        return self.il_scope or self.sig.all_worlds

    def orbits(self) -> tuple[tuple[EpistemicState, int], ...] | None:
        """`orbit_representatives` of the universe; None for one built by hand short of its kind's states."""
        orbits = orbit_representatives(self.sig, self.kind, self.global_consistency, self.il_scope)
        whole = self._states is None or len(self._states) == sum(size for _, size in orbits)
        return orbits if whole else None

    def orbit_inputs(self) -> tuple[tuple[int, ...], ...]:
        """`stabilizer_inputs` of each representative of `orbits()`, in their order."""
        return _orbit_inputs(self.sig, self.kind, self.global_consistency, self.il_scope) if self.orbits() else ()


def _generate_states(
    sig: Signature, kind: str, global_consistency: bool, il_scope: int | None
) -> Iterator[EpistemicState]:
    full = sig.all_worlds
    scopes: Iterable[int] = [il_scope or full] if kind in ("il", "fa") else range(1, full + 1)
    for scope in scopes:
        outside = [bel for bel in range(full + 1) if not bel & scope]  # believed worlds outside the scope
        for order in enumerate_orders(scope):
            if kind in ("clf", "fa"):
                beliefs = [order.levels[0]]
            else:
                beliefs = [inner | rest for inner in (0, order.levels[0]) for rest in outside]
            for bel in beliefs:
                if bel or not global_consistency:
                    yield EpistemicState(bel, scope, order)


def enumerate_states(
    sig: Signature,
    kind: str = "faithful",
    global_consistency: bool = False,
    il_scope: int | None = None,
) -> StateUniverse:
    """The universe of the given validity kind over the signature.

    `kind`: faithful (every faithful limited assignment), clf, fa, or il
    (faithful with one fixed scope, passed as `il_scope`).  It builds no
    state here: up to 2 atoms its states on the first read of `states`, and
    at any size the orbit representatives on the first `orbits()` call for its key.
    """
    _check_kind(sig, kind, il_scope)
    if sig.n_atoms > MAX_ATOMS:
        raise TooLargeError(f"state enumeration supports at most {MAX_ATOMS} atoms")
    return StateUniverse(sig, kind, global_consistency, il_scope)


def _check_kind(sig: Signature, kind: str, il_scope: int | None) -> None:
    """Refuses an unknown kind, an il kind without a nonempty `il_scope` within the signature,
    and an `il_scope` for any other kind."""
    if kind not in UNIVERSE_KINDS:
        raise ValueError(f"unknown universe kind {kind!r}; want one of {UNIVERSE_KINDS}")
    if kind == "il":
        if not il_scope or il_scope & ~sig.all_worlds:
            raise InvariantError("il universe needs a nonempty il_scope within the signature")
    elif il_scope is not None:
        raise InvariantError(f"only an il universe has an il_scope, not a {kind} one")


def _compositions(k: int) -> Iterator[tuple[int, ...]]:
    """The compositions of k: tuples of positive sizes summing to k, by first size, then the rest."""
    if k == 0:
        yield ()
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def orbit_representatives(
    sig: Signature, kind: str, global_consistency: bool, il_scope: int | None
) -> tuple[tuple[EpistemicState, int], ...]:
    """One state per orbit of the universe under the renamings of the worlds that keep its fixed
    scope S (`il_scope` for il, all worlds otherwise), with the orbit's size.

    A renaming keeps a state's kind, and three things fix its orbit: its
    level sizes, which form a composition of the scope size k (il: k = |S|,
    fa: every world); whether the beliefs contain level 0; and the number j
    of believed worlds outside the scope (clf and fa: level 0 believed,
    j = 0).  With S's worlds listed first and the others after them, the
    representative puts the first k worlds into the levels in order and the
    next j into the beliefs.  The renamings that fix it permute each level,
    the believed worlds outside the scope and the other n-k-j worlds among
    themselves, so its orbit holds |S|!·(n-|S|)! / (prod of the level sizes'
    factorials · j! · (n-k-j)!) of the n worlds' states.  Built directly, in
    the order (k, level sizes, level 0 believed, j), once per key.
    """
    _check_kind(sig, kind, il_scope)
    n, fixed = sig.n_worlds, il_scope or sig.all_worlds
    worlds = [*iter_worlds(fixed), *iter_worlds(sig.all_worlds & ~fixed)]  # S's worlds first
    first = [sum(1 << w for w in worlds[:i]) for i in range(n + 1)]  # first[i]: the first i of them
    renamings = factorial(fixed.bit_count()) * factorial(n - fixed.bit_count())  # those keeping S
    out = []
    for k in [fixed.bit_count()] if kind in ("il", "fa") else range(1, n + 1):
        for sizes in _compositions(k):
            levels, low = [], 0
            for size in sizes:
                levels.append(first[low + size] ^ first[low])
                low += size
            order = RankedOrder(tuple(levels))
            arranged = renamings // prod(map(factorial, sizes))
            for inner in (0, levels[0]) if kind in ("faithful", "il") else (levels[0],):
                for j in range(n - k + 1) if kind in ("faithful", "il") else (0,):
                    if global_consistency and not inner and not j:
                        continue
                    bel = inner | first[k + j] ^ first[k]
                    size = arranged // (factorial(j) * factorial(n - k - j))
                    out.append((EpistemicState(bel, first[k], order), size))
    return tuple(out)


@lru_cache(maxsize=None)
def _orbit_inputs(
    sig: Signature, kind: str, global_consistency: bool, il_scope: int | None
) -> tuple[tuple[int, ...], ...]:
    """`stabilizer_inputs` of each of the key's `orbit_representatives`, in their order; once per key."""
    n = sig.n_worlds
    reps = orbit_representatives(sig, kind, global_consistency, il_scope)
    return tuple(stabilizer_inputs(st, n) for st, _ in reps)


def stabilizer_inputs(st: EpistemicState, n_worlds: int) -> tuple[int, ...]:
    """One input per orbit of the renamings that fix the faithful state `st`, ascending.

    Those renamings permute the worlds within each block of `st`: each
    level, the believed worlds outside the scope, and the other worlds
    outside it.  So an input's orbit is fixed by how many of its worlds lie
    in each block, and the input made of the lowest c worlds of each block,
    for every count c, stands for it.  The empty input comes first, an
    orbit of its own.
    """
    outside = ((1 << n_worlds) - 1) & ~st.scope
    inputs = [0]
    for block in (*st.order.levels, st.bel & outside, outside & ~st.bel):
        lowest = [0]
        for w in iter_worlds(block):
            lowest.append(lowest[-1] | 1 << w)
        inputs = [a | low for a in inputs for low in lowest]
    return tuple(sorted(inputs))


def sample_states(
    sig: Signature,
    kind: str,
    count: int,
    rng: random.Random,
    global_consistency: bool = False,
    il_scope: int | None = None,
) -> list[EpistemicState]:
    """Random states of the given kind; the seeded complement of enumerate_states."""
    _check_kind(sig, kind, il_scope)
    full = sig.all_worlds
    out = []
    for _ in range(count):
        scope = (il_scope or full) if kind in ("il", "fa") else rng.randrange(1, full + 1)
        worlds = list(iter_worlds(scope))
        rng.shuffle(worlds)
        levels: list[int] = []
        for w in worlds:
            if levels and rng.random() < 0.5:
                levels[rng.randrange(len(levels))] |= 1 << w
            else:
                levels.insert(rng.randrange(len(levels) + 1), 1 << w)
        order = RankedOrder(tuple(levels))
        if kind in ("clf", "fa"):
            bel = order.levels[0]
        else:
            inner = order.levels[0] if rng.random() < 0.5 else 0
            bel = inner | (rng.randrange(full + 1) & ~scope)
            if global_consistency and bel == 0:
                bel = order.levels[0]
        out.append(EpistemicState(bel, scope, order))
    return out


# ---------------------------------------------------------------------------
# State text: state files, and the part texts that a lookup-table line reuses

STATE_PARTS = ("bel", "scope", "order")


def key_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each `key: value` line of a state or operator file, both
    stripped; blank lines and `#` comments are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        yield lineno, key.strip(), value.strip()


def parsed(parse, text: str, place: str):
    """`parse(text)`, its InvariantError or ParseError named by `place` (`line N`, ...)."""
    try:
        return parse(text)
    except (InvariantError, ParseError) as err:
        raise ParseError(f"{place}: {err}") from None


def state_texts(sig: Signature, st: EpistemicState) -> tuple[str, str, str]:
    """The texts of a state's `STATE_PARTS`, in that order."""
    return sig.worldset_str(st.bel), sig.worldset_str(st.scope), st.order.to_text(sig)


def state_of_texts(sig: Signature, parts: dict[str, tuple[str, str]]) -> EpistemicState:
    """The state of its `STATE_PARTS`, each given as (text, the place that names its errors)."""
    bel = parsed(sig.worldset_of_strs, *parts["bel"])
    scope = parsed(sig.worldset_of_strs, *parts["scope"])
    order = parsed(lambda text: RankedOrder.from_text(text, sig), *parts["order"])
    # An empty scope is named by its own place, an order over other worlds by the order's.
    return parsed(lambda _: EpistemicState(bel, scope, order), *parts["order" if scope else "scope"])


def dump_state(sig: Signature, st: EpistemicState) -> str:
    bel, scope, order = state_texts(sig, st)
    return f"sig: {' '.join(sig.atoms)}\nbel: {bel}\nscope: {scope}\norder: {order}\n"


def parse_state(text: str) -> tuple[Signature, EpistemicState]:
    """Parses a state file; raises ParseError with the offending line number."""
    fields: dict[str, tuple[str, str]] = {}
    for lineno, key, value in key_lines(text):
        if key not in ("sig", *STATE_PARTS):
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = (value, f"line {lineno}")
    for key in ("sig", *STATE_PARTS):
        if key not in fields:
            raise ParseError(f"missing {key!r} line")
    sig = parsed(Signature.of, *fields["sig"])
    return sig, state_of_texts(sig, fields)
