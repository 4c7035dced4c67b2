"""Literal oracles for the semantic conditions of `revlab.verify` and the scope.

`verify.check_condition` evaluates each condition as mask algebra over
restricted level lists, up-cones and minimal witnesses.  This module keeps
the conditions as stated: world-pair loops over `leq_in` and
`strictly_less_in`, which read each world's level off `level_of`, and a loop over all 2^n classes for the scoped
independence conditions.  `tests/test_verify.py` compares the two.
`semantic_scope` is the scope as the paper defines it, which the
acceptance suite compares with the classes revision accepts.
`is_unbiased` is the paper's premise of its inherence results; every
universe `enumerate_states` builds has it, which `tests/test_states.py`
checks.
"""

from __future__ import annotations

from revlab import classify
from revlab.errors import PreconditionError
from revlab.states import check_clf, check_faithful_limited, enumerate_states
from revlab.transitions import TransitionTable


def level_of(order, world):
    """Index of the level holding `world`, most plausible first."""
    for i, lv in enumerate(order.levels):
        if lv >> world & 1:
            return i
    raise ValueError(f"world {world} not in order domain")


def leq_in(order, w1, w2):
    """w1 at most as implausible as w2; false when either world is outside the domain.

    The convention of the iteration conditions, where a posterior's domain
    may have dropped a world.
    """
    dom = order.domain
    if not ((dom >> w1) & 1 and (dom >> w2) & 1):
        return False
    return level_of(order, w1) <= level_of(order, w2)


def strictly_less_in(order, w1, w2):
    dom = order.domain
    if not ((dom >> w1) & 1 and (dom >> w2) & 1):
        return False
    return level_of(order, w1) < level_of(order, w2)


def semantic_scope(st, sig):
    """Believed classes plus classes meeting the state's scope set."""
    return {a for a in range(1 << sig.n_worlds) if st.bel & ~a == 0 or a & st.scope}


def is_unbiased(universe):
    """Every consistent belief set occurs in some member state."""
    return {st.bel for st in universe.states} >= set(range(1, universe.sig.all_worlds + 1))


def _worlds(mask, n):
    return [w for w in range(n) if mask >> w & 1]


def _order_agree(st, post, worlds):
    return all(
        leq_in(st.order, w1, w2) == leq_in(post.order, w1, w2)
        for w1 in worlds
        for w2 in worlds
    )


def _table_of(op, sig):
    return op if isinstance(op, TransitionTable) else TransitionTable(op, enumerate_states(sig))


def oracle_condition(st, post, alpha, cid, sig, op=None, consistent_only=False):
    """Literal evaluation of one named condition clause on the transition."""
    n = sig.n_worlds
    full = sig.all_worlds
    not_a = full & ~alpha
    s, sp = st.scope, post.scope

    if cid == "FA1":
        ws = _worlds(st.bel & st.order.domain, n)
        return all(level_of(st.order, w1) == level_of(st.order, w2) for w1 in ws for w2 in ws)
    if cid == "FA2":
        ins = _worlds(st.bel & st.order.domain, n)
        outs = _worlds(st.order.domain & ~st.bel, n)
        return all(level_of(st.order, w1) < level_of(st.order, w2) for w1 in ins for w2 in outs)
    if cid == "CLF":
        return check_clf(st)
    if cid == "LIM-FAITHFUL":
        return check_faithful_limited(st)

    if cid in ("CR8", "CR9"):
        side = alpha if cid == "CR8" else not_a
        return _order_agree(st, post, _worlds(side, n))
    if cid in ("CR10", "CR11"):
        rel = strictly_less_in if cid == "CR10" else leq_in
        return all(
            not rel(st.order, w1, w2) or rel(post.order, w1, w2)
            for w1 in _worlds(alpha, n)
            for w2 in _worlds(not_a, n)
        )

    if cid in ("P9.i", "P10.i"):
        side = alpha if cid == "P9.i" else not_a
        return _order_agree(st, post, _worlds(side & s & sp, n))
    if cid in ("P9.ii", "P10.ii"):
        side = alpha if cid == "P9.ii" else not_a
        sa = s & side
        if sa.bit_count() >= 2:
            return sa & ~sp == 0
        return sa & ~post.bel & ~sp == 0
    if cid in ("P9.iii", "P10.iii"):
        side = alpha if cid == "P9.iii" else not_a
        pa = sp & side
        if st.bel.bit_count() >= 2:
            return pa & ~s == 0
        return pa & ~st.bel & ~s == 0

    if cid in ("P11.i", "P11.ii", "P11.iii", "P11.iv"):
        if cid == "P11.i":
            both = s & sp
            return all(
                not strictly_less_in(st.order, w1, w2) or strictly_less_in(post.order, w1, w2)
                for w1 in _worlds(alpha & both, n)
                for w2 in _worlds(not_a & both, n)
            )
        if cid == "P11.ii":
            return all(
                not strictly_less_in(st.order, w1, w2) or not sp >> w2 & 1 or sp >> w1 & 1
                for w1 in _worlds(alpha, n)
                for w2 in _worlds(not_a, n)
            )
        if cid == "P11.iii":
            if st.bel & ~alpha:
                return True
            return sp & not_a & ~s == 0
        return all(
            not ((not sp >> w1 & 1) or leq_in(post.order, w2, w1)) or s >> w2 & 1
            for w1 in _worlds(alpha & s, n)
            for w2 in _worlds(not_a & sp, n)
        )

    if cid in ("P12.i", "P12.ii", "P12.iii", "P12.iv"):
        if cid == "P12.i":
            both = s & sp
            return all(
                not strictly_less_in(post.order, w1, w2) or strictly_less_in(st.order, w1, w2)
                for w1 in _worlds(alpha & both, n)
                for w2 in _worlds(not_a & both, n)
            )
        if cid == "P12.ii":
            return all(
                not strictly_less_in(post.order, w2, w1) or not s >> w1 & 1 or s >> w2 & 1
                for w1 in _worlds(alpha, n)
                for w2 in _worlds(not_a, n)
            )
        if cid == "P12.iii":
            if not st.bel & alpha:
                return True
            return sp & not_a & ~s == 0
        return all(
            not ((not s >> w2 & 1) or leq_in(st.order, w1, w2)) or sp >> w1 & 1
            for w1 in _worlds(alpha & s, n)
            for w2 in _worlds(not_a & sp, n)
        )

    if cid in ("SI1", "SI2", "SD1", "SD2"):
        for b in range(1 if consistent_only else 0, 1 << n):
            if cid == "SI1" and b & s and not (b & sp or post.bel & ~b == 0):
                return False
            if cid == "SI2" and st.bel & ~b == 0 and post.bel & ~b and not b & sp:
                return False
            if cid == "SD1" and b & sp and not (b & s or st.bel & ~b == 0):
                return False
            if cid == "SD2" and post.bel & ~b == 0 and st.bel & ~b and not b & s:
                return False
        return True

    if cid in ("P14.a", "P14.b"):
        if op is None:
            raise PreconditionError(f"{cid} needs the operator (success-world quantifier)")
        tab = _table_of(op, sig)
        dom = tab.success_worlds(tab.id_of(st))
        side = alpha if cid == "P14.a" else not_a
        sub_ii = "P9.ii" if cid == "P14.a" else "P10.ii"
        sub_iii = "P9.iii" if cid == "P14.a" else "P10.iii"
        return (
            _order_agree(st, post, _worlds(side & s & sp & dom, n))
            and oracle_condition(st, post, alpha, sub_ii, sig)
            and oracle_condition(st, post, alpha, sub_iii, sig)
        )

    if cid in ("P15.a", "P15.b"):
        if alpha == 0 or alpha & ~s:
            return True
        if cid == "P15.a":
            ws = _worlds(alpha, n)
            return all(
                leq_in(st.order, w1, w2) == leq_in(post.order, w1, w2)
                for w1 in ws
                for w2 in ws
                if w1 != w2
            )
        return _order_agree(st, post, _worlds(s & not_a, n))

    if cid in ("P16.i", "P16.ii", "P16.iii", "P16.iv"):
        if op is None:
            raise PreconditionError(f"{cid} needs the operator (success-world quantifier)")
        tab = _table_of(op, sig)
        dom = tab.success_worlds(tab.id_of(st))
        ws_a = _worlds(alpha & dom, n)
        ws_na = _worlds(not_a & dom, n)
        if cid == "P16.i":
            both = s & sp
            return all(
                not leq_in(st.order, w1, w2) or strictly_less_in(post.order, w1, w2)
                for w1 in ws_a
                for w2 in ws_na
                if both >> w1 & 1 and both >> w2 & 1
            )
        if cid == "P16.ii":
            return all(
                not leq_in(st.order, w1, w2) or not sp >> w2 & 1 or sp >> w1 & 1
                for w1 in ws_a
                for w2 in ws_na
            )
        if cid == "P16.iii":
            if not st.bel & alpha:
                return True
            return all(not sp >> w & 1 or s >> w & 1 for w in ws_na)
        return all(
            not ((not s >> w2 & 1) or leq_in(st.order, w1, w2)) or sp >> w1 & 1
            for w1 in ws_a
            for w2 in ws_na
            if s >> w1 & 1 and sp >> w2 & 1
        )

    if cid in ("C-CLCD", "C-CM1", "C-CM2", "C-FC", "C-FR", "C-SC", "C-SR"):
        if op is None:
            raise PreconditionError(f"{cid} needs the operator (revision-success premises)")
        tab = _table_of(op, sig)
        t = tab.lanes.entries(tab.row(tab.id_of(st)))
        lo = 1 if consistent_only else 0
        success_a = t[alpha] & ~alpha == 0
        if cid == "C-CLCD":
            if not success_a:
                return True
            return all(
                t[b] & ~b == 0 or not b & sp
                for b in classify.iter_subsets(not_a)
                if b >= lo
            )
        if cid == "C-CM1":
            return all(
                not (t[b] & ~b == 0 or b & s) or post.bel & ~b == 0 or b & sp
                for b in classify.iter_subsets(alpha)
                if b >= lo
            )
        if cid == "C-CM2":
            if not success_a:
                return True
            return all(
                t[b] & ~b or post.bel & ~b == 0 or b & sp
                for b in classify.iter_subsets(not_a)
                if b >= lo
            )
        if cid in ("C-FC", "C-FR"):
            if success_a:
                return True
            pair = ("SI1", "SI2") if cid == "C-FC" else ("SD1", "SD2")
        else:
            if not success_a:
                return True
            pair = ("SI1", "SI2") if cid == "C-SC" else ("SD1", "SD2")
        return oracle_condition(
            st, post, alpha, pair[0], sig, consistent_only=consistent_only
        ) and oracle_condition(st, post, alpha, pair[1], sig, consistent_only=consistent_only)

    if cid == "C-DOC":
        ok = True
        if alpha & s:
            ok = ok and sp & not_a == 0
        if st.bel & ~alpha == 0:
            ok = ok and sp & not_a == 0
        return ok
    if cid == "C-COM":
        if alpha & s == 0 and st.bel & ~alpha:
            return alpha & sp != 0
        return True

    raise ValueError(f"unknown condition id {cid!r}")
