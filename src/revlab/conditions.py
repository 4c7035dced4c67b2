"""Semantic conditions on a single transition (state, posterior, alpha).

Every condition is a function of (st, post, a, na, sc, dom, co): the prior,
the posterior, the input and its complement, the prior's scope classes and
success worlds, and consistent_only.  `sc` and `dom` are revision results:
the suites read them from the table and hand them to every condition; only
`check_condition` without an operator passes None, and then evaluates only
the ids outside `_READS_REVISIONS`.  Orders are read through masks: an order's
domain is its state's scope, and a world off the domain is related to
nothing.  `check_condition` evaluates one condition by id; the theorem suites
in `verify` read the `CONDITIONS` table directly.
"""

from __future__ import annotations

from . import classify, kernels
from .errors import PreconditionError
from .prop import Signature
from .states import EpistemicState, check_clf, check_faithful_limited


def _agree(st: EpistemicState, post: EpistemicState, ws: int) -> bool:
    """Both orders relate the worlds of `ws` alike: their level lists cut to `ws` are equal."""
    return [lv & ws for lv in st.order.levels if lv & ws] == [lv & ws for lv in post.order.levels if lv & ws]


def _below(y: EpistemicState, strict: bool, ws: int) -> int:
    """The worlds with every world of ws at or (strictly) above them in y's order: the levels
    up to the first that meets ws (without it, when strict); none when ws leaves y's scope."""
    if ws & ~y.scope:
        return 0
    low = 0
    for lv in y.order.levels:
        if lv & ws:
            return low if strict else low | lv
        low |= lv
    return low


def _kept(x: EpistemicState, sx: bool, y: EpistemicState, sy: bool, ws1: int, ws2: int) -> bool:
    """For w1 in ws1 and w2 in ws2, w1 below w2 in x implies w1 below w2 in y (strictly where sx, sy):
    one walk of x's levels, each level's ws1 worlds below the ws2 worlds of their up-cone in y."""
    rest = x.scope
    for lv in x.order.levels:
        if lv & ws1:
            cone = (rest & ~lv if sx else rest) & ws2
            if cone and lv & ws1 & ~_below(y, sy, cone):
                return False
        rest &= ~lv
    return True


def _none_above(x: EpistemicState, strict: bool, ws1: int, ws2: int) -> bool:
    """No world of ws2 lies (strictly) above a world of ws1 in x: the up-cone of the lowest
    level that meets ws1 (without that level, when strict) misses ws2."""
    met = False
    for lv in x.order.levels:
        if met and lv & ws2:
            return False
        if lv & ws1:
            if not strict and lv & ws2:
                return False
            met = True
    return True


def _scope_kept(st: EpistemicState, post: EpistemicState, side: int) -> bool:
    """P9.ii / P10.ii: the side's scope worlds stay in the scope; a lone one may be believed instead."""
    sa = st.scope & side
    if sa.bit_count() >= 2:
        return sa & ~post.scope == 0
    return sa & ~post.bel & ~post.scope == 0


def _scope_bounded(st: EpistemicState, post: EpistemicState, side: int) -> bool:
    """P9.iii / P10.iii: the side's worlds of the new scope were in the old one, or believed
    when there is at most one belief world."""
    pa = post.scope & side
    if st.bel.bit_count() >= 2:
        return pa & ~st.scope == 0
    return pa & ~st.bel & ~st.scope == 0


def _p12iv(st: EpistemicState, post: EpistemicState, a: int, na: int) -> bool:
    """An a-world of the scope that leaves it has no na-world of the new scope outside the
    old one, or at or above it; P11.iv is this with the roles of prior and posterior swapped."""
    gone, new = a & st.scope & ~post.scope, na & post.scope
    return not (gone and new & ~st.scope) and _none_above(st, False, gone, new)


def _in_each_singleton(bel: int, ws: int) -> bool:
    """`bel` lies inside {w} for every world w of `ws`: the minimal witnesses of SI1 and SD1."""
    return not ws or not bel or (bel == ws and ws.bit_count() == 1)


def _in_each_superset(bel2: int, bel: int, scope2: int, full: int, co: bool) -> bool:
    """`bel2` lies inside every class that contains `bel` and misses `scope2` (SI2, SD2).

    The least such class is `bel` itself, or a single world when the
    contradiction is excluded and `bel` is empty.
    """
    if bel & scope2:
        return True
    if bel or not co:
        return bel2 & ~bel == 0
    return _in_each_singleton(bel2, full & ~scope2)


def _on_success(cond):
    """`cond` with the input and its complement cut to the success worlds (the P16 clauses)."""

    def restricted(st, post, a, na, sc, dom, co):
        return cond(st, post, a & dom, na & dom, sc, dom, co)

    return restricted


def _p11i(st, post, a, na, strict) -> bool:
    both = st.scope & post.scope
    return _kept(st, strict, post, True, a & both, na & both)


# The class conditions as subset bitsets: `subset_bits(m)` is the classes inside m,
# so the classes inside m that meet a world set s are `subset_bits(m) & ~subset_bits(m & ~s)`;
# `~int(co)` drops the empty class when β may not be the contradiction.


def _lacking(m: int, bel: int) -> int:
    """The classes inside m that do not contain `bel`."""
    inside = classify.subset_bits(m)
    return inside if bel & ~m else inside & ~(classify.subset_bits(m & ~bel) << bel)


def _c_clcd(st, post, a, na, sc, dom, co) -> bool:
    # β ⊆ na meeting the new scope is accepted; the empty class meets nothing.
    sub = classify.subset_bits
    return not (sc >> a) & 1 or sub(na) & ~sub(na & ~post.scope) & ~sc == 0


def _c_cm1(st, post, a, na, sc, dom, co) -> bool:
    # β ⊆ a, accepted or meeting the scope, missing the new scope: contains post.bel.
    return _lacking(a & ~post.scope, post.bel) & (sc | ~classify.subset_bits(a & ~st.scope)) & ~int(co) == 0


def _c_cm2(st, post, a, na, sc, dom, co) -> bool:
    # β ⊆ na accepted, missing the new scope: contains post.bel.
    return not (sc >> a) & 1 or _lacking(na & ~post.scope, post.bel) & sc & ~int(co) == 0


def _si1(st, post, *_) -> bool:
    return _in_each_singleton(post.bel, st.scope & ~post.scope)


def _si2(st, post, a, na, sc, dom, co) -> bool:
    return _in_each_superset(post.bel, st.bel, post.scope, a | na, co)


def _sd1(st, post, *_) -> bool:
    return _in_each_singleton(st.bel, post.scope & ~st.scope)


def _sd2(st, post, a, na, sc, dom, co) -> bool:
    return _in_each_superset(st.bel, post.bel, st.scope, a | na, co)


def _scope_pair(on_success: bool, first, second):
    """C-FC, C-FR (on_success False) and C-SC, C-SR: the conditions `first` and `second`
    hold whenever revision by the input succeeds exactly when `on_success` says."""

    def cond(st, post, a, na, sc, dom, co):
        return (sc >> a) & 1 != on_success or (
            first(st, post, a, na, sc, dom, co) and second(st, post, a, na, sc, dom, co)
        )

    return cond


CONDITIONS = {
    "FA1": lambda st, *_: sum(1 for lv in st.order.levels if lv & st.bel) < 2,
    "FA2": lambda st, *_: _none_above(st, False, st.scope & ~st.bel, st.bel),
    "CLF": lambda st, *_: check_clf(st),
    "LIM-FAITHFUL": lambda st, *_: check_faithful_limited(st),
    "CR8": lambda st, post, a, na, *_: _agree(st, post, a),
    "CR9": lambda st, post, a, na, *_: _agree(st, post, na),
    "CR10": lambda st, post, a, na, *_: _kept(st, True, post, True, a, na),
    "CR11": lambda st, post, a, na, *_: _kept(st, False, post, False, a, na),
    "P9.i": lambda st, post, a, na, *_: _agree(st, post, a & st.scope & post.scope),
    "P9.ii": lambda st, post, a, na, *_: _scope_kept(st, post, a),
    "P9.iii": lambda st, post, a, na, *_: _scope_bounded(st, post, a),
    "P10.i": lambda st, post, a, na, *_: _agree(st, post, na & st.scope & post.scope),
    "P10.ii": lambda st, post, a, na, *_: _scope_kept(st, post, na),
    "P10.iii": lambda st, post, a, na, *_: _scope_bounded(st, post, na),
    "P11.i": lambda st, post, a, na, *_: _p11i(st, post, a, na, True),
    "P11.ii": lambda st, post, a, na, *_: _none_above(st, True, a & ~post.scope, na & post.scope),
    "P11.iii": lambda st, post, a, na, *_: st.bel & na != 0 or na & post.scope & ~st.scope == 0,
    "P11.iv": lambda st, post, a, na, *_: _p12iv(post, st, na, a),
    "P12.i": lambda st, post, a, na, *_: _kept(
        post, True, st, True, a & st.scope & post.scope, na & st.scope & post.scope
    ),
    "P12.ii": lambda st, post, a, na, *_: _none_above(post, True, na & ~st.scope, a & st.scope),
    "P12.iii": lambda st, post, a, na, *_: st.bel & a == 0 or na & post.scope & ~st.scope == 0,
    "P12.iv": lambda st, post, a, na, *_: _p12iv(st, post, a, na),
    "SI1": _si1,
    "SI2": _si2,
    "SD1": _sd1,
    "SD2": _sd2,
    "P14.a": lambda st, post, a, na, sc, dom, co: (
        _agree(st, post, a & st.scope & post.scope & dom)
        and _scope_kept(st, post, a)
        and _scope_bounded(st, post, a)
    ),
    "P14.b": lambda st, post, a, na, sc, dom, co: (
        _agree(st, post, na & st.scope & post.scope & dom)
        and _scope_kept(st, post, na)
        and _scope_bounded(st, post, na)
    ),
    "P15.a": lambda st, post, a, na, *_: (
        a & ~st.scope != 0 or a.bit_count() < 2 or _agree(st, post, a)
    ),
    "P15.b": lambda st, post, a, na, *_: a == 0 or a & ~st.scope != 0 or _agree(st, post, na & st.scope),
    "P16.i": _on_success(lambda st, post, a, na, *_: _p11i(st, post, a, na, False)),
    "P16.ii": _on_success(lambda st, post, a, na, *_: _none_above(st, False, a & ~post.scope, na & post.scope)),
    "P16.iii": lambda st, post, a, na, sc, dom, co: na & dom & post.scope & ~st.scope == 0 or st.bel & a == 0,
    "P16.iv": _on_success(lambda st, post, a, na, *_: _p12iv(st, post, a, na)),
    "C-CLCD": _c_clcd,
    "C-CM1": _c_cm1,
    "C-CM2": _c_cm2,
    "C-FC": _scope_pair(False, _si1, _si2),
    "C-FR": _scope_pair(False, _sd1, _sd2),
    "C-SC": _scope_pair(True, _si1, _si2),
    "C-SR": _scope_pair(True, _sd1, _sd2),
    "C-DOC": lambda st, post, a, na, *_: post.scope & na == 0 or (a & st.scope == 0 and st.bel & na != 0),
    "C-COM": lambda st, post, a, na, *_: a & st.scope != 0 or st.bel & na == 0 or a & post.scope != 0,
}

CONDITION_IDS = tuple(CONDITIONS)

# The conditions that read revision results: the prior's scope classes (the C- ids)
# or its success worlds (P14 and P16).
_READS_REVISIONS = {"C-CLCD", "C-CM1", "C-CM2", "C-FC", "C-FR", "C-SC", "C-SR"}
_READS_REVISIONS |= {"P14.a", "P14.b", "P16.i", "P16.ii", "P16.iii", "P16.iv"}


def check_condition(
    st: EpistemicState,
    post: EpistemicState,
    alpha: int,
    cid: str,
    sig: Signature,
    op=None,
    consistent_only: bool = False,
) -> bool:
    """One named condition clause on the transition, from the `CONDITIONS` table.

    The prior's scope classes and success worlds are read off its belief
    row (`classify.bel_row_of`): one row of the operator, or the stored row
    of a `TransitionTable` passed as `op`.  Without `op` both are None, and
    the conditions that read revision results raise.
    """
    cond = CONDITIONS.get(cid)
    if cond is None:
        raise ValueError(f"unknown condition id {cid!r}; valid ids: {', '.join(CONDITION_IDS)}")
    sc = dom = None
    if op is not None:
        sc = kernels.lanes(1 << sig.n_worlds).accepted(classify.bel_row_of(op, st, sig))
        dom = classify.minterm_worlds(sc, sig.n_worlds)
    elif cid in _READS_REVISIONS:
        raise PreconditionError("this condition reads revision results, so it needs the operator")
    return cond(st, post, alpha, ((1 << sig.n_worlds) - 1) & ~alpha, sc, dom, consistent_only)
