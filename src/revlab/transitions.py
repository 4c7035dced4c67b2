"""Transition tables: one operator's behaviour on a universe, by state id.

A verifier suite quantifies over (state, input) transitions and reads, for
each state, its posteriors, its belief table and the classifications built
on it.  A `TransitionTable` computes each of these once per state id, and
an exhaustive suite leaves its table on the universe, so the next suite
call with the same operator reads what earlier calls filled.
"""

from __future__ import annotations

import weakref

from . import classify
from .errors import PreconditionError
from .prop import Signature
from .states import EpistemicState, StateUniverse


class TransitionTable:
    """Posteriors, belief tables and classifications of one operator, by state id.

    States get dense integer ids in the order they first appear: a suite
    interns its states before any posterior, so an exhaustive run numbers
    the universe in universe order, and a posterior gets the next id the
    first time it is seen.  Every per-id row is filled on first use.  The
    postulate side reads by id; the conditions are handed the table in
    place of the bare operator and read the same rows.

    The table also answers `revise_beliefs` and `bel_table` from its rows,
    so `classify_state` and `canonical_assignment` can take it as their
    operator without building a belief table again.
    """

    def __init__(
        self,
        op,
        sig: Signature,
        universe: StateUniverse | None = None,
        consistent_only: bool = False,
    ):
        self.op = op
        self.sig = sig
        # Weak, since an exhaustive suite leaves the table on its universe.
        self._universe = weakref.ref(universe) if universe is not None else None
        self.consistent_only = consistent_only
        self.n_classes = 1 << sig.n_worlds
        self.states: list[EpistemicState] = []
        self._ids: dict[EpistemicState, int] = {}
        # Posterior id per (id, class), keyed by id * n_classes + class: a
        # sampled suite asks for one class of each state.
        self._posts: dict[int, int] = {}
        self._tables: list[tuple[int, ...] | None] = []
        self._scopes: list[int | None] = []
        self._success: list[int | None] = []
        self._cls: list[classify.StateClassification | None] = []
        self._immanent: int | None = None

    def id_of(self, st: EpistemicState) -> int:
        sid = self._ids.get(st)
        if sid is None:
            sid = len(self.states)
            self._ids[st] = sid
            self.states.append(st)
            for rows in (self._tables, self._scopes, self._success, self._cls):
                rows.append(None)
        return sid

    def classes(self) -> range:
        return range(1 if self.consistent_only else 0, self.n_classes)

    def subsets(self, mask: int):
        for s in classify.iter_subsets(mask):
            if s or not self.consistent_only:
                yield s

    def post(self, sid: int, alpha: int) -> int:
        """Id of the posterior of state `sid` revised by `alpha`."""
        key = sid * self.n_classes + alpha
        p = self._posts.get(key)
        if p is None:
            p = self._posts[key] = self.id_of(self.op.apply(self.states[sid], alpha))
        return p

    def bel(self, sid: int) -> tuple[int, ...]:
        """Belief table of state `sid`: posterior belief mask per class."""
        t = self._tables[sid]
        if t is None:
            t = self._tables[sid] = classify.bel_table_of(self.op, self.states[sid], self.sig)
        return t

    def bel_table(self, st: EpistemicState, n_classes: int) -> tuple[int, ...]:
        """The stored row; `n_classes` is always the table's own here."""
        return self.bel(self.id_of(st))

    def revise_beliefs(self, st: EpistemicState, alpha: int) -> int:
        return self.bel(self.id_of(st))[alpha]

    def classification(self, sid: int) -> classify.StateClassification:
        c = self._cls[sid]
        if c is None:
            c = self._cls[sid] = classify.classify_state(self, self.states[sid], self.sig)
        return c

    def scope_classes(self, sid: int) -> int:
        bits = self._scopes[sid]
        if bits is None:
            t = self.bel(sid)
            bits = 0
            for a in range(self.n_classes):
                if t[a] & ~a == 0:
                    bits |= 1 << a
            self._scopes[sid] = bits
        return bits

    def reasonable(self, sid: int) -> int:
        return self.classification(sid).reasonable

    def success_worlds(self, sid: int) -> int:
        """Worlds whose minterm is accepted when revised by."""
        mask = self._success[sid]
        if mask is None:
            t = self.bel(sid)
            mask = 0
            for w in range(self.sig.n_worlds):
                if t[1 << w] & ~(1 << w) == 0:
                    mask |= 1 << w
            self._success[sid] = mask
        return mask

    def immanent(self) -> int:
        if self._immanent is None:
            universe = self._universe() if self._universe is not None else None
            if universe is None:
                raise PreconditionError("immanence needs a state universe")
            self._immanent = classify.immanent_classes(self.op, universe)
        return self._immanent


def suite_table(op, universe: StateUniverse, consistent_only: bool, sampled: bool) -> TransitionTable:
    """The table a suite call reads.

    An exhaustive call reuses the last table built on the universe when the
    operator (by ==) and `consistent_only` match, and otherwise leaves a new
    one there.  A sampled call gets a table of its own, so a run over many
    samples does not keep every sample's states alive.
    """
    if sampled:
        return TransitionTable(op, universe.sig, universe, consistent_only)
    table = universe._transitions
    if table is None or table.consistent_only != consistent_only or not (table.op is op or table.op == op):
        table = TransitionTable(op, universe.sig, universe, consistent_only)
        object.__setattr__(universe, "_transitions", table)
    return table
