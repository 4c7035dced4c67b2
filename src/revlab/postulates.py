"""Postulates, each as the inputs at which it fails at one state of a transition table.

`_iter_postulate` yields, for one state, an (α, failing β) item per input at
which the postulate fails: the failing β as a class bitset, or, where the
postulate has no β, True (for COM, α's own class bit), which no row reads.
Every postulate is a row of one of three tables, and each table has one
branch: `_ROW_TESTS` (two-step tests on the prior and posterior belief
rows), `_SCOPE_MOVES` (classes that entered or left the scope) or
`_ONE_STEP` (the state's belief row alone).  A class set is a bitset over
classes, read from the table for the state id; the two two-step tables test
all β at once on the packed rows.

`_postulate_rows` expands the items into (α, β, clause, observed, required)
rows by `_ROW_SHAPES`, β in the order a loop over classes would take, and
lazily: `verify.check_postulate` builds rows up to its cap, and the theorem
suites, which read only each item's α, build none.
"""

from __future__ import annotations

from functools import partial

from . import classify
from .prop import iter_worlds
from .transitions import TransitionTable

FAMILY_POSTULATES = {
    "DL": tuple(f"DL{i}" for i in range(1, 8)),
    "CL": tuple(f"CL{i}" for i in range(1, 7)),
    "IL": tuple(f"IL{i}" for i in range(1, 8)),
    "AGM": tuple(f"CL{i}" for i in range(1, 7)) + tuple(f"IL{i}" for i in range(1, 8)),
    "DP": tuple(f"DP{i}" for i in range(1, 5)),
}

POSTULATE_IDS = tuple(dict.fromkeys(pid for ids in FAMILY_POSTULATES.values() for pid in ids)) + (
    "CLDP1", "CLDP2", "CLP", "CLCD", "CM1", "CM2", "FC", "FR", "SC", "SR", "DOC", "COM", "DLDP1", "DLDP2",
)

_PAIRED = ("DL7", "CL6", "CL5", "IL7")  # two free inputs: each input's β ranges over every class


def _all_classes(*_) -> int:
    """The class set that restricts nothing."""
    return -1


def _changed_inside(ln, T, P, a, full):
    return ln.nz(T ^ P) & ln.within(a)


def _changed_outside(ln, T, P, a, full):
    return ln.nz(T ^ P) & ln.within(full & ~a)


_SCOPE, _REASONABLE = TransitionTable.scope_classes, TransitionTable.reasonable

# pid: (classes of α checked, classes of β kept, the failing lanes β, flagged,
#       from the lanes, the prior and posterior rows T and P, α and all worlds)
_ROW_TESTS = {
    "DP1": (_all_classes, _all_classes, _changed_inside),
    "DP2": (_all_classes, _all_classes, _changed_outside),
    "CLDP1": (_all_classes, _SCOPE, _changed_inside),
    "CLDP2": (_SCOPE, _SCOPE, _changed_outside),
    "DLDP1": (_REASONABLE, _REASONABLE, _changed_inside),
    "DLDP2": (_REASONABLE, _REASONABLE, _changed_outside),
    "DP3": (
        _all_classes, _all_classes,
        lambda ln, T, P, a, full: ln.nz(P & (full & ~a) * ln.ones) & ~ln.nz(T & (full & ~a) * ln.ones),
    ),
    "DP4": (_all_classes, _all_classes, lambda ln, T, P, a, full: ln.nz(T & a * ln.ones) & ~ln.nz(P & a * ln.ones)),
    "CLP": (_SCOPE, _SCOPE, lambda ln, T, P, a, full: ln.nz(T & a * ln.ones) & ln.nz(P & (full & ~a) * ln.ones)),
}

# pid: (the classes β ranges over given α and all worlds, the α checked: accepted
#       (1), refused (0) or all (None), classes that moved given the prior and
#       posterior scope classes)
_SCOPE_MOVES = {
    "CLCD": (lambda a, full: classify.subset_bits(full & ~a), 1, lambda sc, scp: scp & ~sc),
    "CM1": (lambda a, full: classify.subset_bits(a), None, lambda sc, scp: sc & ~scp),
    "CM2": (lambda a, full: classify.subset_bits(full & ~a), 1, lambda sc, scp: sc & ~scp),
    "DOC": (lambda a, full: classify.subset_bits(full & ~a), 1, lambda sc, scp: scp),
    "FC": (_all_classes, 0, lambda sc, scp: sc & ~scp),
    "FR": (_all_classes, 0, lambda sc, scp: scp & ~sc),
    "SC": (_all_classes, 1, lambda sc, scp: sc & ~scp),
    "SR": (_all_classes, 1, lambda sc, scp: scp & ~sc),
    "COM": (lambda a, full: 1 << a, 0, lambda sc, scp: ~scp),
}


def _immanent(tab: TransitionTable, sid: int) -> int:
    return tab.immanent()


def _witness(t, a, bel, cls):
    """As a class bitset, the first class inside α in `cls`, in iter_subsets order, where T[α] is not in `cls`."""
    witness = classify.subset_bits(a) & cls
    return witness and not (cls >> t[a]) & 1 and 1 << witness.bit_length() - 1


def _trichotomy(t, a, bel, pairs):
    # Where β contains α or lies inside it, α ∨ β is one of them and the
    # trichotomy holds, so only the incomparable β are read.
    ta, bad = t[a], 0
    for b in pairs[a]:
        u = t[a | b]
        if not (u == ta or u == t[b] or u == ta | t[b]):
            bad |= 1 << b
    return bad


# pid: (the class set read, from the table and state id; the failing β at α, given
#       the state's belief row T unpacked, α, its beliefs and that class set: falsy
#       where the postulate holds, else a class bitset, or True where it has no β;
#       None where it never fails)
_ONE_STEP = {}
for _pids, _classes, _fails in (
    (("DL1", "CL1", "IL1"), _all_classes, lambda t, a, bel, cls: t[a] != bel and t[a] & ~a != 0),
    (("DL2",), _REASONABLE, lambda t, a, bel, cls: t[a] != bel and not (cls >> t[a]) & 1),
    (("IL2",), _immanent, lambda t, a, bel, cls: t[a] != bel and not (cls >> t[a]) & 1),
    (("DL3",), _REASONABLE, lambda t, a, bel, cls: bel & a and (cls >> a) & 1 and t[a] != bel & a),
    (("DL4",), _REASONABLE, _witness),
    (("IL4",), _immanent, _witness),
    (("DL5", "IL5"), _all_classes, lambda t, a, bel, cls: bel and not t[a]),
    (("CL2",), _all_classes, lambda t, a, bel, cls: bel & a and t[a] != bel & a),
    (("CL3",), _all_classes, lambda t, a, bel, cls: not t[a]),
    (("IL3",), _immanent, lambda t, a, bel, cls: bel & a and (cls >> a) & 1 and t[a] & a != bel & a),
    (("DL7", "CL6", "IL7"), lambda tab, sid: classify.incomparable(tab.n_classes), _trichotomy),
    # Every class above an accepted input is accepted; len(t) - 1 is all worlds.
    (("CL5",), _SCOPE, lambda t, a, bel, sc: (sc >> a) & 1 and (classify.subset_bits(len(t) - 1 & ~a) << a) & ~sc),
    # Classes are canonical model sets, so syntax independence holds by
    # representation; counted for the record.
    (("DL6", "CL4", "IL6"), _all_classes, None),
):
    _ONE_STEP.update(dict.fromkeys(_pids, (_classes, _fails)))


def _descending(bits: int):
    """The classes of a bitset, highest first: `classify.iter_subsets` order."""
    while bits:
        top = bits.bit_length() - 1
        yield top
        bits ^= 1 << top


def _lowest(bits: int) -> tuple[int]:
    return ((bits & -bits).bit_length() - 1,)


# pid: (order of an item's failing β, None for one row without β; clause;
#       (observed, required) of a row from the prior and posterior entry
#       readers t and p, the prior beliefs, α and β)
_ROW_SHAPES = {}
for _pids, _order, _clause, _values in (
    (
        ("DP1", "DP2", "CLDP1", "CLDP2", "DLDP1", "DLDP2"), _descending, "two-step belief mismatch",
        lambda t, p, bel, a, b: (p(b), t(b)),
    ),
    (("DP3",), iter_worlds, "posterior lost the input", lambda t, p, bel, a, b: (p(b), f"subset of {a}")),
    (("DP4",), iter_worlds, "posterior denies the input", lambda t, p, bel, a, b: (p(b), f"meets {a}")),
    (("CLP",), iter_worlds, "input not retained", lambda t, p, bel, a, b: (p(b), f"subset of {a}")),
    (("CLCD",), _descending, "contrary entered the scope", lambda *_: ("in scope", "out of scope")),
    (("CM1",), _descending, "stronger input left the scope", lambda *_: ("out", "in scope")),
    (("CM2",), _descending, "contrary input left the scope", lambda *_: ("out", "in scope")),
    (("DOC",), _descending, "contrary accepted after success", lambda *_: ("in scope", "out of scope")),
    (("FC", "SC"), _lowest, "scope shrank", lambda *_: ("changed", "monotone")),
    (("FR", "SR"), _lowest, "scope grew", lambda *_: ("changed", "monotone")),
    (("COM",), None, "refused input still refused", lambda *_: ("out", "in scope")),
    (("DL1", "CL1", "IL1"), None, "no success and belief change", lambda t, p, bel, a, b: (t(a), bel)),
    (("DL2",), None, "changed to a non-reasonable set", lambda t, p, bel, a, b: (t(a), "reasonable or prior")),
    (("IL2",), None, "changed to a non-immanent set", lambda t, p, bel, a, b: (t(a), "immanent or prior")),
    (("DL3",), None, "vacuity for reasonable input", lambda t, p, bel, a, b: (t(a), bel & a)),
    (("DL4",), iter_worlds, "result not reasonable", lambda t, p, bel, a, b: (t(a), "reasonable")),
    (("IL4",), iter_worlds, "result not immanent", lambda t, p, bel, a, b: (t(a), "immanent")),
    (("DL5", "IL5"), None, "inconsistent result from consistent beliefs", lambda *_: (0, "nonempty")),
    (
        ("DL7", "CL6", "IL7"), iter_worlds, "trichotomy of disjunctions",
        lambda t, p, bel, a, b: (t(a | b), (t(a), t(b), t(a) | t(b))),
    ),
    (("CL2",), None, "vacuity", lambda t, p, bel, a, b: (t(a), bel & a)),
    (("CL3",), None, "inconsistent result", lambda *_: (0, "nonempty")),
    (("CL5",), iter_worlds, "success not closed under weakening", lambda t, p, bel, a, b: (t(b), f"subset of {b}")),
    (("IL3",), None, "expansion mismatch for immanent input", lambda t, p, bel, a, b: (t(a) & a, bel & a)),
):
    _ROW_SHAPES.update(dict.fromkeys(_pids, (_order, _clause, _values)))


def _iter_postulate(tab: TransitionTable, pid: str, sid: int, alphas):
    ln = tab.lanes
    T = tab.row(sid)
    full = tab.full
    skip = 1 if tab.consistent_only else 0  # the contradiction's class bit, when β may not be it

    # β loops as lane operations on the packed rows T (prior) and P
    # (posterior): a failing β is a flagged lane, and the flags are compacted
    # into a class bitset only when some lane fails.
    if pid in _ROW_TESTS:
        checked, kept, flags = _ROW_TESTS[pid]
        checked, kept = checked(tab, sid), kept(tab, sid) & ~skip
        posts = tab.posts(sid, alphas)
        for a in alphas:
            if (checked >> a) & 1:
                bad = flags(ln, T, tab.row(posts[a]), a, full)
                if bad and (betas := ln.bits(bad) & kept):
                    yield a, betas
    elif pid in _SCOPE_MOVES:
        within, gate, moved = _SCOPE_MOVES[pid]
        sc = tab.scope_classes(sid)
        posts = tab.posts(sid, alphas)
        for a in alphas:
            if gate is None or (sc >> a) & 1 == gate:
                gone = moved(sc, tab.scope_classes(posts[a])) & ~skip
                if gone and (betas := gone & within(a, full)):
                    yield a, betas
    elif pid in _ONE_STEP:
        classes, fails = _ONE_STEP[pid]
        if fails is None:
            return
        cls = classes(tab, sid)
        bel = tab.states[sid].bel
        t = ln.entries(T)
        for a in alphas:
            if bad := fails(t, a, bel, cls):
                yield a, bad
    else:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")


def _postulate_rows(tab: TransitionTable, pid: str, sid: int, alphas):
    """The (α, β, clause, observed, required) rows of the postulate's failures at state
    `sid`, lazily: a row is built only when it is read, and what the rows share only
    at the state's first failing item."""
    ln, t = tab.lanes, None
    for a, betas in _iter_postulate(tab, pid, sid, alphas):
        if t is None:
            order, clause, values = _ROW_SHAPES[pid]
            clause, bel, t = f"{pid}: {clause}", tab.states[sid].bel, partial(ln.entry, tab.row(sid))

        def p(c, a=a):
            return ln.entry(tab.row(tab.post(sid, a)), c)

        for b in order(betas) if order else (None,):
            yield (a, b, clause, *values(t, p, bel, a, b))
