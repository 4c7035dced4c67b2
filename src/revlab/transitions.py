"""Transition tables: one operator's behaviour on a universe, by state id.

A verifier suite quantifies over (state, input) transitions and reads, for
each state, its posteriors, its belief table and the class sets built on
it.  A `TransitionTable` computes each of these once per state id, and
every suite call leaves its table on the universe, so the next call with
the same operator over the same states (the whole universe, or the same
sample) reads what earlier calls filled, and the lists of states a check
walks, each built once.
"""

from __future__ import annotations

import weakref

from . import classify, kernels
from .errors import PreconditionError, TooLargeError
from .states import EpistemicState, StateUniverse


class TransitionTable:
    """Posteriors, belief rows and class sets of one operator, by state id.

    States get dense integer ids in the order they first appear: a suite
    interns its states before any posterior, so an exhaustive run numbers
    the universe in universe order, and a posterior gets the next id the
    first time it is seen.  A check decided on orbit representatives
    interns those and their posteriors first (`orbit_work`), so the
    universe's other states come after them.  A table is built over its
    universe, with its sample if it is a sampled check's, and fills every
    per-id row on first use; the postulate side and the conditions a suite
    runs read the same rows by id.  A state's posterior ids are kept
    together, by class, so a suite fetches them once per state.  The
    operator's `posteriors` builds a state's posteriors, and the table
    only interns them.

    A belief row is packed, one class per lane (`kernels.Lanes`), so the
    class sets built on it are a few lane operations each.  The table also
    answers `bel_row` from its rows, so `classify_state` and
    `canonical_assignment` can take it as their operator without building
    a belief row again.  Of the classifications it stores only the
    reasonable classes, read off the minterm lanes (`classify.latent_worlds`).
    """

    def __init__(self, op, universe: StateUniverse, consistent_only: bool = False, sample: tuple | None = None):
        self.op = op
        self.sig = universe.sig
        # Weak, since a suite leaves the table on its universe.
        self._universe = weakref.ref(universe)
        self.consistent_only = consistent_only
        # The sampled (state, class) pairs the table is built for; None for the whole universe.
        self.sample = sample
        self._orbit_work: list | None = None
        self._work: list | None = None
        self.n_classes = 1 << self.sig.n_worlds
        self.full = self.sig.all_worlds
        self.lanes = kernels.lanes(self.n_classes)
        self.states: list[EpistemicState] = []
        self._ids: dict[EpistemicState, int] = {}
        # Posterior ids per state id, by class: a dict, since a sampled suite
        # asks for one class of each state.
        self._posts: list[dict[int, int]] = []
        self._rows: list[int | None] = []
        self._scopes: list[int | None] = []
        self._success: list[int | None] = []
        self._reasonable: list[int | None] = []
        self._immanent: int | None = None

    def id_of(self, st: EpistemicState) -> int:
        sid = self._ids.get(st)
        if sid is None:
            sid = len(self.states)
            self._ids[st] = sid
            self.states.append(st)
            for rows in (self._rows, self._scopes, self._success, self._reasonable):
                rows.append(None)
            self._posts.append({})
        return sid

    def classes(self) -> range:
        return range(1 if self.consistent_only else 0, self.n_classes)

    def posts(self, sid: int, alphas) -> dict[int, int]:
        """Posterior ids of state `sid` by class, filled for every class of `alphas`."""
        got = self._posts[sid]
        if len(got) < self.n_classes:
            for a in alphas:
                if a not in got:
                    self._build(sid, alphas)
                    break
        return got

    def _build(self, sid: int, alphas) -> None:
        """Interns the posteriors of state `sid` at the inputs of `alphas` it lacks, in `alphas` order.

        One `op.posteriors` call builds them (a revision operator builds one
        state per `kernels.posterior_key`), so ids come as a per-input build
        gives them.
        """
        got = self._posts[sid]
        missing = [a for a in alphas if a not in got]
        for a, post in zip(missing, self.op.posteriors(self.states[sid], missing)):
            got[a] = self.id_of(post)

    def post(self, sid: int, alpha: int) -> int:
        """Id of the posterior of state `sid` revised by `alpha`."""
        return self.posts(sid, (alpha,))[alpha]

    def row(self, sid: int) -> int:
        """Belief row of state `sid`: its posterior belief mask per class, one lane each."""
        t = self._rows[sid]
        if t is None:
            t = self._rows[sid] = classify.bel_row_of(self.op, self.states[sid], self.sig)
        return t

    def bel_row(self, st: EpistemicState, n_classes: int) -> int:
        """The stored row; `n_classes` is always the table's own here."""
        return self.row(self.id_of(st))

    def scope_classes(self, sid: int) -> int:
        """Classes whose revision succeeds: the lanes a with T[a] inside a."""
        bits = self._scopes[sid]
        if bits is None:
            bits = self._scopes[sid] = self.lanes.accepted(self.row(sid))
        return bits

    def reasonable(self, sid: int) -> int:
        """Reasonable classes of state `sid`: the nonempty classes of its latent minterms."""
        bits = self._reasonable[sid]
        if bits is None:
            worlds = classify.latent_worlds(self.row(sid), self.states[sid].bel, self.lanes)
            bits = self._reasonable[sid] = classify.subset_bits(worlds) & ~1
        return bits

    def success_worlds(self, sid: int) -> int:
        """Worlds whose minterm is accepted: revising state `sid` by it succeeds."""
        mask = self._success[sid]
        if mask is None:
            mask = self._success[sid] = classify.minterm_worlds(self.scope_classes(sid), self.sig.n_worlds)
        return mask

    def orbit_work(self) -> list | None:
        """(representative, id, inputs, orbit size) per orbit of `classify.renaming_orbits`, at one input per
        orbit of the renamings that fix it (`orbit_inputs()`), bar the empty one under `consistent_only`; built
        once.  None, asked again on the next call, for a sampled table or where there are no orbits."""
        if self._orbit_work is None and self.sample is None:
            universe, skip = self._universe(), 1 if self.consistent_only else 0
            if (orbits := classify.renaming_orbits(self.op, universe)) is not None:
                inputs = universe.orbit_inputs()
                self._orbit_work = [(st, self.id_of(st), ins[skip:], size) for (st, size), ins in zip(orbits, inputs)]
        return self._orbit_work

    def work(self) -> list:
        """What a check walks, built once and interned first: (state, id, [α], 1) per sampled pair, else (state,
        id, classes, 1) per universe state, else `orbit_work()`'s items at every class.  A sampled input outside
        the classes raises ValueError, and a universe with neither states nor orbits TooLargeError, first."""
        if self._work is None and self.sample is not None:
            classes = self.classes()
            if outside := [a for _, a in self.sample if a not in classes]:
                raise ValueError(f"sampled inputs {outside} lie outside the classes {classes[0]}..{classes[-1]}")
            self._work = [(st, self.id_of(st), [a], 1) for st, a in self.sample]
        elif self._work is None:
            try:
                self._work = [(st, self.id_of(st), self.classes(), 1) for st in self._universe().states]
            except TooLargeError:
                if (reps := self.orbit_work()) is None:
                    raise
                self._work = [(st, sid, self.classes(), size) for st, sid, _, size in reps]
        return self._work

    def immanent(self) -> int:
        if self._immanent is None:
            if (universe := self._universe()) is None:
                raise PreconditionError("immanence needs a state universe")
            self._immanent = classify.immanent_classes(self.op, universe)
        return self._immanent


def suite_table(op, universe: StateUniverse, consistent_only: bool, instance_list=None) -> TransitionTable:
    """The table a suite call reads.

    The universe keeps the last table built on it.  A call reuses that table
    when the operator (by ==), `consistent_only` and the sample (the
    `instance_list` of a sampled call, None for an exhaustive one) all
    match, and otherwise leaves a new one there, so at most one sample's
    states stay alive.
    """
    sample = None if instance_list is None else tuple(instance_list)
    table = universe._transitions
    if (
        table is None
        or table.consistent_only != consistent_only
        or table.sample != sample
        or not (table.op is op or table.op == op)
    ):
        table = TransitionTable(op, universe, consistent_only, sample)
        object.__setattr__(universe, "_transitions", table)
    return table
