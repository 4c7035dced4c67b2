"""Parametric postulate checker and equivalence oracles.

Three layers:

* check_postulate — quantifies one named postulate over a universe of
  states and the formula classes, returning a Verdict with concrete
  counterexamples;
* check_condition — literal evaluation of one named semantic condition on
  a (state, posterior, input) transition;
* verify_equivalence / representation_roundtrip — per-instance
  bidirectional checks of the characterisation theorems, and the
  construct/reconstruct round trips behind the representation results.

Reading notes (also emitted in report headers):

* equivalence suites run on globally-consistent universes; the belief-set
  variables in postulates range over all classes including the
  contradiction unless consistent_only is set;
* the order-comparison conditions treat out-of-domain worlds as related to
  nothing (a dropped world falsifies both w1 ⪯ w2 and w2 ⪯ w1);
* the two DLDP conditions quantify over inputs whose models lie inside the
  prior scope, comparing distinct pairs (resp. all pairs) of worlds there;
* the CLDP and the scoped-independence conditions quantify world variables
  over the worlds whose minterm revision succeeds, as stated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import classify
from .errors import NonWeakOrderError, PreconditionError
from .kernels import revise_mask
from .operators import canonical_assignment
from .orders import leq_in, strictly_less_in
from .prop import Signature, popcount
from .states import EpistemicState, StateUniverse, check_clf, check_faithful_limited
from .transitions import TransitionTable, suite_table

POSTULATE_IDS = (
    [f"DL{i}" for i in range(1, 8)]
    + [f"CL{i}" for i in range(1, 7)]
    + [f"IL{i}" for i in range(1, 8)]
    + [f"DP{i}" for i in range(1, 5)]
    + ["CLDP1", "CLDP2", "CLP", "CLCD", "CM1", "CM2", "FC", "FR", "SC", "SR", "DOC", "COM", "DLDP1", "DLDP2"]
)

CONDITION_IDS = (
    ["FA1", "FA2", "CLF", "LIM-FAITHFUL"]
    + [f"CR{i}" for i in range(8, 12)]
    + [f"P9.{s}" for s in ("i", "ii", "iii")]
    + [f"P10.{s}" for s in ("i", "ii", "iii")]
    + [f"P11.{s}" for s in ("i", "ii", "iii", "iv")]
    + [f"P12.{s}" for s in ("i", "ii", "iii", "iv")]
    + ["SI1", "SI2", "SD1", "SD2", "P14.a", "P14.b", "P15.a", "P15.b"]
    + [f"P16.{s}" for s in ("i", "ii", "iii", "iv")]
    + ["C-CLCD", "C-CM1", "C-CM2", "C-FC", "C-FR", "C-SC", "C-SR", "C-DOC", "C-COM"]
)

THEOREM_IDS = (
    "P9", "P10", "P11", "P12", "P13a", "P13b", "P14a", "P14b",
    "P15a", "P15b", "P16", "P-CLCD", "P-CM1", "P-CM2", "P-FCFR",
    "P-SCSR", "P-DOC", "P-COM",
)

ROUNDTRIP_FAMILIES = ("DL", "IL", "CL", "AGM", "DP")


@dataclass(frozen=True)
class Counterexample:
    state: EpistemicState
    alpha: int | None
    beta: int | None
    clause: str
    observed: object
    required: object


@dataclass
class Verdict:
    check_id: str
    holds: bool
    instances: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    seed: int | None = None
    note: str = ""


MAX_COUNTEREXAMPLES = 5


def _table_of(op, sig: Signature) -> TransitionTable:
    """The calling suite's table, or a throwaway one for a bare operator."""
    return op if isinstance(op, TransitionTable) else TransitionTable(op, sig)


def _worlds(mask: int, n: int) -> list[int]:
    return [w for w in range(n) if mask >> w & 1]


# ---------------------------------------------------------------------------
# Postulates.  Each checker yields Counterexample tuples for one state.


def _iter_postulate(tab: TransitionTable, pid: str, sid: int, alphas, pairs):
    st = tab.states[sid]
    t = tab.bel(sid)
    bel = st.bel
    full = tab.sig.all_worlds

    if pid in ("DL1", "CL1", "IL1"):
        for a in alphas:
            if not (t[a] == bel or t[a] & ~a == 0):
                yield Counterexample(st, a, None, f"{pid}: no success and belief change", t[a], bel)
    elif pid == "DL2":
        rs = tab.reasonable(sid)
        for a in alphas:
            if not (t[a] == bel or (rs >> t[a]) & 1):
                yield Counterexample(st, a, None, "DL2: changed to a non-reasonable set", t[a], "reasonable or prior")
    elif pid == "DL3":
        rs = tab.reasonable(sid)
        for a in alphas:
            if bel & a and (rs >> a) & 1 and t[a] != bel & a:
                yield Counterexample(st, a, None, "DL3: vacuity for reasonable input", t[a], bel & a)
    elif pid == "DL4":
        rs = tab.reasonable(sid)
        if pairs is None:
            for b in alphas:
                witness = next((a for a in classify.iter_subsets(b) if (rs >> a) & 1), None)
                if witness is not None and not (rs >> t[b]) & 1:
                    yield Counterexample(st, b, witness, "DL4: result not reasonable", t[b], "reasonable")
        else:
            for a, b in pairs:
                if a & ~b == 0 and (rs >> a) & 1 and not (rs >> t[b]) & 1:
                    yield Counterexample(st, b, a, "DL4: result not reasonable", t[b], "reasonable")
    elif pid in ("DL5", "IL5"):
        for a in alphas:
            if bel and not t[a]:
                yield Counterexample(st, a, None, f"{pid}: inconsistent result from consistent beliefs", 0, "nonempty")
    elif pid in ("DL6", "CL4", "IL6"):
        # Classes are canonical model sets, so syntax independence holds by
        # representation; counted for the record.
        return
    elif pid in ("DL7", "CL6", "IL7"):
        ab = pairs if pairs is not None else [(a, b) for a in alphas for b in alphas]
        for a, b in ab:
            u = t[a | b]
            if not (u == t[a] or u == t[b] or u == t[a] | t[b]):
                yield Counterexample(st, a, b, f"{pid}: trichotomy of disjunctions", u, (t[a], t[b], t[a] | t[b]))
    elif pid == "CL2":
        for a in alphas:
            if bel & a and t[a] != bel & a:
                yield Counterexample(st, a, None, "CL2: vacuity", t[a], bel & a)
    elif pid == "CL3":
        for a in alphas:
            if not t[a]:
                yield Counterexample(st, a, None, "CL3: inconsistent result", 0, "nonempty")
    elif pid == "CL5":
        ab = pairs if pairs is not None else [(a, b) for a in alphas for b in alphas]
        for a, b in ab:
            if t[a] & ~a == 0 and a & ~b == 0 and t[b] & ~b:
                yield Counterexample(st, a, b, "CL5: success not closed under weakening", t[b], f"subset of {b}")
    elif pid == "IL2":
        imm = tab.immanent()
        for a in alphas:
            if not (t[a] == bel or (imm >> t[a]) & 1):
                yield Counterexample(st, a, None, "IL2: changed to a non-immanent set", t[a], "immanent or prior")
    elif pid == "IL3":
        imm = tab.immanent()
        for a in alphas:
            if bel & a and (imm >> a) & 1 and t[a] & a != bel & a:
                yield Counterexample(st, a, None, "IL3: expansion mismatch for immanent input", t[a] & a, bel & a)
    elif pid == "IL4":
        imm = tab.immanent()
        if pairs is None:
            for b in alphas:
                witness = next((a for a in classify.iter_subsets(b) if (imm >> a) & 1), None)
                if witness is not None and not (imm >> t[b]) & 1:
                    yield Counterexample(st, b, witness, "IL4: result not immanent", t[b], "immanent")
        else:
            for a, b in pairs:
                if a & ~b == 0 and (imm >> a) & 1 and not (imm >> t[b]) & 1:
                    yield Counterexample(st, b, a, "IL4: result not immanent", t[b], "immanent")
    elif pid in ("DP1", "DP2"):
        for a in alphas:
            tp = tab.bel(tab.post(sid, a))
            side = a if pid == "DP1" else full & ~a
            for b in tab.subsets(side):
                if tp[b] != t[b]:
                    yield Counterexample(st, a, b, f"{pid}: two-step belief mismatch", tp[b], t[b])
    elif pid == "DP3":
        for a in alphas:
            tp = tab.bel(tab.post(sid, a))
            for b in tab.classes():
                if t[b] & ~a == 0 and tp[b] & ~a:
                    yield Counterexample(st, a, b, "DP3: posterior lost the input", tp[b], f"subset of {a}")
    elif pid == "DP4":
        for a in alphas:
            tp = tab.bel(tab.post(sid, a))
            for b in tab.classes():
                if t[b] & a and not tp[b] & a:
                    yield Counterexample(st, a, b, "DP4: posterior denies the input", tp[b], f"meets {a}")
    elif pid in ("CLDP1", "CLDP2"):
        sc = tab.scope_classes(sid)
        for a in alphas:
            if pid == "CLDP2" and not (sc >> a) & 1:
                continue
            tp = tab.bel(tab.post(sid, a))
            side = a if pid == "CLDP1" else full & ~a
            for b in tab.subsets(side):
                if (sc >> b) & 1 and tp[b] != t[b]:
                    yield Counterexample(st, a, b, f"{pid}: two-step belief mismatch", tp[b], t[b])
    elif pid in ("DLDP1", "DLDP2"):
        rs = tab.reasonable(sid)
        for a in alphas:
            if not (rs >> a) & 1:
                continue
            tp = tab.bel(tab.post(sid, a))
            side = a if pid == "DLDP1" else full & ~a
            for b in tab.subsets(side):
                if (rs >> b) & 1 and tp[b] != t[b]:
                    yield Counterexample(st, a, b, f"{pid}: two-step belief mismatch", tp[b], t[b])
    elif pid == "CLP":
        sc = tab.scope_classes(sid)
        for a in alphas:
            if not (sc >> a) & 1:
                continue
            tp = tab.bel(tab.post(sid, a))
            for b in tab.classes():
                if (sc >> b) & 1 and t[b] & a and tp[b] & ~a:
                    yield Counterexample(st, a, b, "CLP: input not retained", tp[b], f"subset of {a}")
    elif pid == "CLCD":
        sc = tab.scope_classes(sid)
        for a in alphas:
            if not (sc >> a) & 1:
                continue
            scp = tab.scope_classes(tab.post(sid, a))
            for b in tab.subsets(full & ~a):
                if not (sc >> b) & 1 and (scp >> b) & 1:
                    yield Counterexample(st, a, b, "CLCD: contrary entered the scope", "in scope", "out of scope")
    elif pid == "CM1":
        sc = tab.scope_classes(sid)
        for a in alphas:
            scp = tab.scope_classes(tab.post(sid, a))
            for b in tab.subsets(a):
                if (sc >> b) & 1 and not (scp >> b) & 1:
                    yield Counterexample(st, a, b, "CM1: stronger input left the scope", "out", "in scope")
    elif pid == "CM2":
        sc = tab.scope_classes(sid)
        for a in alphas:
            if not (sc >> a) & 1:
                continue
            scp = tab.scope_classes(tab.post(sid, a))
            for b in tab.subsets(full & ~a):
                if (sc >> b) & 1 and not (scp >> b) & 1:
                    yield Counterexample(st, a, b, "CM2: contrary input left the scope", "out", "in scope")
    elif pid in ("FC", "FR", "SC", "SR"):
        sc = tab.scope_classes(sid)
        want_success = pid in ("SC", "SR")
        for a in alphas:
            if bool((sc >> a) & 1) != want_success:
                continue
            scp = tab.scope_classes(tab.post(sid, a))
            grew, shrank = scp & ~sc, sc & ~scp
            if tab.consistent_only:
                grew &= ~1
                shrank &= ~1
            bad = shrank if pid in ("FC", "SC") else grew
            if bad:
                which = "shrank" if pid in ("FC", "SC") else "grew"
                yield Counterexample(
                    st, a, (bad & -bad).bit_length() - 1, f"{pid}: scope {which}", "changed", "monotone"
                )
    elif pid == "DOC":
        sc = tab.scope_classes(sid)
        for a in alphas:
            if not (sc >> a) & 1:
                continue
            scp = tab.scope_classes(tab.post(sid, a))
            for b in tab.subsets(full & ~a):
                if (scp >> b) & 1:
                    yield Counterexample(st, a, b, "DOC: contrary accepted after success", "in scope", "out of scope")
    elif pid == "COM":
        sc = tab.scope_classes(sid)
        for a in alphas:
            if not (sc >> a) & 1:
                scp = tab.scope_classes(tab.post(sid, a))
                if not (scp >> a) & 1:
                    yield Counterexample(st, a, None, "COM: refused input still refused", "out", "in scope")
    else:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")


def check_postulate(
    op,
    universe: StateUniverse,
    pid: str,
    *,
    states=None,
    alphas=None,
    pairs=None,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Quantifies one postulate over universe x classes; see Verdict.

    `instance_list` replaces the cross product with explicit (state, alpha)
    pairs, which is how sampled runs at 3 atoms stay at a fixed budget.
    """
    if pid not in POSTULATE_IDS:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")
    tab = suite_table(op, universe, consistent_only, instance_list is not None)
    if alphas is None:
        alphas = tab.classes()
    if instance_list is not None:
        work = [(tab.id_of(st), [a]) for st, a in instance_list]
    else:
        if states is None:
            states = universe.iter_states()
        work = [(tab.id_of(st), alphas) for st in states]
    ces: list[Counterexample] = []
    instances = 0
    pair_pids = {"DL4", "DL7", "CL5", "CL6", "IL4", "IL7"}
    for sid, st_alphas in work:
        if pid in pair_pids and pairs is not None:
            instances += len(pairs)
        elif pid in pair_pids:
            instances += len(st_alphas) ** 2 if pid in ("DL7", "CL6", "CL5", "IL7") else len(st_alphas)
        else:
            instances += len(st_alphas)
        for ce in _iter_postulate(tab, pid, sid, st_alphas, pairs):
            if len(ces) < max_counterexamples:
                ces.append(ce)
            else:
                return Verdict(pid, False, instances, ces, note="counterexample cap hit")
    return Verdict(pid, not ces, instances, ces)


# ---------------------------------------------------------------------------
# Semantic conditions on a single transition (state, posterior, alpha)


def _order_agree(st, post, worlds) -> bool:
    return all(
        leq_in(st.order, w1, w2) == leq_in(post.order, w1, w2)
        for w1 in worlds
        for w2 in worlds
    )


def check_condition(
    st: EpistemicState,
    post: EpistemicState,
    alpha: int,
    cid: str,
    sig: Signature,
    op=None,
    consistent_only: bool = False,
) -> bool:
    """Literal evaluation of one named condition clause on the transition.

    `op` is needed only by the conditions that read revision results.  It is
    the operator, or the `TransitionTable` of the calling suite, whose belief
    tables are then shared with the postulate side.
    """
    n = sig.n_worlds
    full = sig.all_worlds
    not_a = full & ~alpha
    s, sp = st.scope, post.scope

    if cid == "FA1":
        ws = _worlds(st.bel & st.order.domain, n)
        return all(st.order.level_of(w1) == st.order.level_of(w2) for w1 in ws for w2 in ws)
    if cid == "FA2":
        ins = _worlds(st.bel & st.order.domain, n)
        outs = _worlds(st.order.domain & ~st.bel, n)
        return all(st.order.level_of(w1) < st.order.level_of(w2) for w1 in ins for w2 in outs)
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
        if popcount(sa) >= 2:
            return sa & ~sp == 0
        return sa & ~post.bel & ~sp == 0
    if cid in ("P9.iii", "P10.iii"):
        side = alpha if cid == "P9.iii" else not_a
        pa = sp & side
        if popcount(st.bel) >= 2:
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
            and check_condition(st, post, alpha, sub_ii, sig)
            and check_condition(st, post, alpha, sub_iii, sig)
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
        t = tab.bel(tab.id_of(st))
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
        return check_condition(
            st, post, alpha, pair[0], sig, consistent_only=consistent_only
        ) and check_condition(st, post, alpha, pair[1], sig, consistent_only=consistent_only)

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

    raise ValueError(f"unknown condition id {cid!r}; valid ids: {', '.join(CONDITION_IDS)}")


# ---------------------------------------------------------------------------
# Equivalence suites: postulate side vs condition side, per (state, alpha)

_THEOREM_CONDITIONS = {
    "P9": ("DP1", ("P9.i", "P9.ii", "P9.iii")),
    "P10": ("DP2", ("P10.i", "P10.ii", "P10.iii")),
    "P11": ("DP3", ("P11.i", "P11.ii", "P11.iii", "P11.iv")),
    "P12": ("DP4", ("P12.i", "P12.ii", "P12.iii", "P12.iv")),
    "P14a": ("CLDP1", ("P14.a",)),
    "P14b": ("CLDP2", ("P14.b",)),
    "P15a": ("DLDP1", ("P15.a",)),
    "P15b": ("DLDP2", ("P15.b",)),
    "P16": ("CLP", ("P16.i", "P16.ii", "P16.iii", "P16.iv")),
    "P-CLCD": ("CLCD", ("C-CLCD",)),
    "P-CM1": ("CM1", ("C-CM1",)),
    "P-CM2": ("CM2", ("C-CM2",)),
    "P-DOC": ("DOC", ("C-DOC",)),
    "P-COM": ("COM", ("C-COM",)),
}


def _postulate_instance(tab: TransitionTable, pid: str, sid: int, alpha: int) -> bool:
    """Truth of the postulate at one (state id, alpha), inner variables quantified."""
    return not any(True for _ in _iter_postulate(tab, pid, sid, [alpha], None))


def verify_equivalence(
    op,
    universe: StateUniverse,
    theorem: str,
    *,
    states=None,
    alphas=None,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Bidirectional per-(state, alpha) check of one characterisation theorem."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}; valid ids: {', '.join(THEOREM_IDS)}")
    sig = universe.sig
    tab = suite_table(op, universe, consistent_only, instance_list is not None)
    if alphas is None:
        alphas = tab.classes()
    if instance_list is not None:
        work = [(st, tab.id_of(st), a) for st, a in instance_list]
    else:
        if states is None:
            states = universe.iter_states()
        ids = [(st, tab.id_of(st)) for st in states]
        work = [(st, sid, a) for st, sid in ids for a in alphas]

    ces: list[Counterexample] = []
    instances = 0
    for st, sid, a in work:
        instances += 1
        post_id = tab.post(sid, a)
        post = tab.states[post_id]
        if theorem in ("P13a", "P13b"):
            sc, scp = tab.scope_classes(sid), tab.scope_classes(post_id)
            if consistent_only:
                sc &= ~1
                scp &= ~1
            if theorem == "P13a":
                lhs = sc & ~scp == 0
                rhs = check_condition(
                    st, post, a, "SI1", sig, consistent_only=consistent_only
                ) and check_condition(st, post, a, "SI2", sig, consistent_only=consistent_only)
            else:
                lhs = scp & ~sc == 0
                rhs = check_condition(
                    st, post, a, "SD1", sig, consistent_only=consistent_only
                ) and check_condition(st, post, a, "SD2", sig, consistent_only=consistent_only)
        elif theorem in ("P-FCFR", "P-SCSR"):
            one, two = ("FC", "FR") if theorem == "P-FCFR" else ("SC", "SR")
            lhs = (_postulate_instance(tab, one, sid, a), _postulate_instance(tab, two, sid, a))
            rhs = (
                check_condition(st, post, a, f"C-{one}", sig, tab, consistent_only),
                check_condition(st, post, a, f"C-{two}", sig, tab, consistent_only),
            )
        else:
            pid, cids = _THEOREM_CONDITIONS[theorem]
            lhs = _postulate_instance(tab, pid, sid, a)
            rhs = all(
                check_condition(st, post, a, cid, sig, tab, consistent_only) for cid in cids
            )
        if lhs != rhs:
            if len(ces) < max_counterexamples:
                side = "postulate holds, condition fails" if lhs else "condition holds, postulate fails"
                ces.append(Counterexample(st, a, None, f"{theorem}: {side}", lhs, rhs))
            else:
                return Verdict(theorem, False, instances, ces, note="counterexample cap hit")
    return Verdict(theorem, not ces, instances, ces)


# ---------------------------------------------------------------------------
# Representation round trips


_FAMILY_POSTULATES = {
    "DL": [f"DL{i}" for i in range(1, 8)],
    "CL": [f"CL{i}" for i in range(1, 7)],
    "IL": [f"IL{i}" for i in range(1, 8)],
    "AGM": [f"CL{i}" for i in range(1, 7)] + [f"IL{i}" for i in range(1, 8)],
    "DP": [f"DP{i}" for i in range(1, 5)],
}


def representation_roundtrip(
    op,
    universe: StateUniverse,
    family: str,
    *,
    states=None,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Both directions of a representation theorem on a finite universe.

    Backward: the assignment-induced operator satisfies the family's
    postulates.  Forward: the canonical reconstruction from the operator's
    behaviour reproduces every revision result (plus, per family: the IL
    scope is constant, the CL reconstruction is CLF-valid, the AGM scope is
    total, and DP postulates match the CR conditions per instance).
    """
    if family not in ROUNDTRIP_FAMILIES:
        raise ValueError(f"unknown family {family!r}; valid: {ROUNDTRIP_FAMILIES}")
    sig = universe.sig
    if states is None:
        states = list(universe.iter_states())
    n_classes = 1 << sig.n_worlds
    ces: list[Counterexample] = []
    instances = 0

    def add(ce):
        if len(ces) < max_counterexamples:
            ces.append(ce)

    # The two families built on plain minimisation are checked on the
    # consistent fragment, where minimisation and the keep-beliefs fallback
    # agree; the contradiction input separates them by construction.
    consistent_only = family in ("DP", "AGM")
    for pid in _FAMILY_POSTULATES[family]:
        v = check_postulate(
            op,
            universe,
            pid,
            states=states,
            consistent_only=consistent_only,
            max_counterexamples=max_counterexamples,
        )
        instances += v.instances
        for ce in v.counterexamples:
            add(ce)

    tab = suite_table(op, universe, consistent_only, sampled=False)
    if family == "DP":
        for st in states:
            sid = tab.id_of(st)
            for a in tab.classes():
                instances += 1
                post = tab.states[tab.post(sid, a)]
                for pid, cid in (("DP1", "CR8"), ("DP2", "CR9"), ("DP3", "CR10"), ("DP4", "CR11")):
                    lhs = _postulate_instance(tab, pid, sid, a)
                    rhs = check_condition(st, post, a, cid, sig)
                    if lhs != rhs:
                        add(Counterexample(st, a, None, f"{pid} vs {cid} mismatch", lhs, rhs))
    else:
        canon_family = "cl" if family == "CL" else "dl"
        il_scopes = set()
        for st in states:
            instances += 1
            try:
                order, scope = canonical_assignment(tab, st, sig, family=canon_family)
            except NonWeakOrderError as err:
                add(Counterexample(st, None, None, f"canonical reconstruction failed: {err}", "error", "weak order"))
                continue
            il_scopes.add(scope)
            recon = EpistemicState(st.bel, scope, order)
            if not check_faithful_limited(recon):
                add(Counterexample(st, None, None, "reconstruction not faithful", recon, "faithful"))
            if family == "CL" and not check_clf(recon):
                add(Counterexample(st, None, None, "reconstruction not CLF-valid", recon, "CLF"))
            if family == "AGM" and scope != sig.all_worlds:
                add(Counterexample(st, None, None, "AGM scope not total", scope, sig.all_worlds))
            want = tab.bel(tab.id_of(st))
            for a in range(1 if consistent_only else 0, n_classes):
                got = revise_mask(order.levels, scope, st.bel, a)
                if got != want[a]:
                    add(Counterexample(st, a, None, "reconstructed operator disagrees", got, want[a]))
                    break
        if family == "IL" and len(il_scopes) > 1:
            add(Counterexample(states[0], None, None, "reconstructed scope not constant", sorted(il_scopes), "one scope"))

    return Verdict(f"roundtrip-{family}", not ces, instances, ces)


def mutation_detection(
    op,
    universe: StateUniverse,
    *,
    trials: int = 200,
    seed: int = 0,
) -> Verdict:
    """Rate at which single-entry table corruptions are caught by the round trip."""
    sig = universe.sig
    from .operators import tabulate

    rng = random.Random(seed)
    # One table serves every trial: each overwrites one entry and puts it back.
    mutant = tabulate(op, universe)
    states = mutant.states
    n_classes = 1 << sig.n_worlds
    detected = 0
    misses = []
    for _ in range(trials):
        st = states[rng.randrange(len(states))]
        a = rng.randrange(n_classes)
        orig = mutant.mapping[(st, a)]
        while True:
            new_bel = rng.randrange(n_classes)
            if new_bel != orig.bel:
                break
        mutant.mapping[(st, a)] = EpistemicState(new_bel, orig.scope, orig.order)
        try:
            order, scope = canonical_assignment(mutant, st, sig)
            hit = not check_faithful_limited(EpistemicState(st.bel, scope, order)) or any(
                revise_mask(order.levels, scope, st.bel, c) != mutant.revise_beliefs(st, c)
                for c in range(n_classes)
            )
        except NonWeakOrderError:
            hit = True
        finally:
            mutant.mapping[(st, a)] = orig
        if hit:
            detected += 1
        elif len(misses) < MAX_COUNTEREXAMPLES:
            misses.append(Counterexample(st, a, new_bel, "mutation not detected", "accepted", "detected"))
    verdict = Verdict("mutation-detection", detected >= trials * 0.95, trials, misses, seed=seed)
    verdict.note = f"detected {detected}/{trials}"
    return verdict
