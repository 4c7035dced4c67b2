"""Parametric postulate checker and equivalence oracles.

Three layers, each in its own module:

* postulates — one named postulate at one state, as the inputs at which it
  fails; check_postulate here quantifies it over a universe of states and
  the formula classes, returning a Verdict with concrete counterexamples;
* conditions — one named semantic condition on a (state, posterior, input)
  transition, looked up in the `CONDITIONS` table.  Each entry is mask
  algebra: order agreement compares level lists cut to a world set, the
  cross quantifiers are one walk of an order's levels, the class quantifiers
  are subset bitsets, and the scoped independence conditions test their
  minimal witnesses.  The literal world-pair and class loops are the test
  oracle, in tests/condition_oracle.py;
* verify_equivalence / representation_roundtrip (here) — bidirectional
  checks of the characterisation theorems and the construct/reconstruct
  round trips behind the representation results.  The theorems and the DP
  round trip share one mismatch loop.  Once per state it reads the
  posteriors and the prior's scope classes and success worlds, and turns
  each side into a bitset of failing inputs: the postulate side (P13a ORs
  FC and SC, P13b FR and SR) and the condition side.  A part mismatches
  where the two differ, so no postulate row is built, and truth lists and a
  Counterexample only for a reported mismatch.  The other round trips and
  mutation_detection share one reconstruction check.

Each suite is one stream of its failures, and one runner, `_decide`, reads it
into the Verdict: the runner alone builds Counterexamples, applies the cap and
counts the instances.  An exhaustive check that the renamings of the worlds
keeping the universe's fixed scope cannot change (`classify.renaming_orbits`)
is decided on one state per orbit first, and at each state on one input per
orbit of the renamings that fix it.  It walks the whole universe only when
a representative fails, and builds its states only then; its counterexamples
are the plain run's, and a 3-atom universe's are its representatives'.

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

from . import kernels
from .conditions import CONDITIONS
from .conditions import CONDITION_IDS, check_condition  # noqa: F401 (re-exported; the benchmark traces check_condition here)
from .errors import NonWeakOrderError
from .kernels import revise_mask  # noqa: F401 (unused; the benchmark's tracer wraps it here)
from .operators import canonical_assignment
from .postulates import FAMILY_POSTULATES, POSTULATE_IDS, _iter_postulate, _PAIRED, _postulate_rows
from .states import EpistemicState, StateUniverse, check_clf, check_faithful_limited
from .transitions import TransitionTable, suite_table


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


def _flat(work):
    """(item, α) per input of each work item, the item shared by its inputs' entries."""
    return [(item, a) for item in work for a in item[2]]


def _decide(tab: TransitionTable, check_id, count, failures, cap: int) -> Verdict:
    """The Verdict of a suite's failure stream `failures(work, expand)`: (instances, state, row) per
    failure in report order on (state, id, inputs, size) items, an item standing for `size` states, `expand`
    building postulate rows.  `instances` is the count of a verdict capped there; a check that holds counts
    `count(inputs)` per state.

    Postulates, conditions and reconstructions use worlds only through set
    operations, so where the renamings that map the universe onto itself
    commute with the operator, the verdict at (Ψ, α) is the verdict at the
    renamed pair.  There the stream on `tab.orbit_work()` is read first, with
    `_iter_postulate` as `expand`, which builds no row and no Counterexample;
    if no failure comes, the check holds.  Otherwise the Verdict is the
    stream's on `tab.work()`.  The table builds both lists once.
    """
    if cap < 0:
        raise ValueError(f"max_counterexamples must be at least 0, got {cap}")
    reps = tab.orbit_work()
    if reps is not None and next(failures(reps, _iter_postulate), None) is None:
        return Verdict(check_id, True, sum(size for *_, size in reps) * count(tab.classes()))
    work = tab.work()
    ces: list[Counterexample] = []
    for instances, st, row in failures(work, _postulate_rows):
        if len(ces) == cap:
            return Verdict(check_id, False, instances, ces, note="counterexample cap hit")
        ces.append(Counterexample(st, *row))
    return Verdict(check_id, not ces, sum(size * count(ins) for _, _, ins, size in work), ces)


def check_postulate(
    op,
    universe: StateUniverse,
    pid: str,
    *,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Quantifies one postulate over universe x classes; see Verdict.

    `instance_list` replaces the cross product with explicit (state, alpha)
    pairs, which is how sampled runs at 3 atoms stay at a fixed budget; the
    second input of DL7, CL5, CL6 and IL7 still ranges over every class.
    """
    if pid not in POSTULATE_IDS:
        raise ValueError(f"unknown postulate id {pid!r}; valid ids: {', '.join(POSTULATE_IDS)}")
    tab = suite_table(op, universe, consistent_only, instance_list)

    def count(alphas):  # times the second input's classes for DL7, CL5, CL6 and IL7
        return len(alphas) * (len(tab.classes()) if pid in _PAIRED else 1)

    def failures(work, expand):
        instances = 0
        for st, sid, alphas, size in work:
            instances += size * count(alphas)
            for row in expand(tab, pid, sid, alphas):  # a generator per state here made DL1-DL7 8% slower
                yield instances, st, row

    return _decide(tab, pid, count, failures, max_counterexamples)


# ---------------------------------------------------------------------------
# Equivalence suites: postulate side vs condition side, per (state, alpha)
#
# theorem: (postulate ids, condition ids) per part; a part's postulate side
# fails where any of its postulates fails, and a theorem of two parts compares
# the pairs of truths.  P13a's "no scope class leaves" is FC or SC failing
# (over failed and successful inputs), P13b's "none enters" FR or SR.
_THEOREM_CONDITIONS = {
    "P9": ((("DP1",), ("P9.i", "P9.ii", "P9.iii")),),
    "P10": ((("DP2",), ("P10.i", "P10.ii", "P10.iii")),),
    "P11": ((("DP3",), ("P11.i", "P11.ii", "P11.iii", "P11.iv")),),
    "P12": ((("DP4",), ("P12.i", "P12.ii", "P12.iii", "P12.iv")),),
    "P13a": ((("FC", "SC"), ("SI1", "SI2")),),
    "P13b": ((("FR", "SR"), ("SD1", "SD2")),),
    "P14a": ((("CLDP1",), ("P14.a",)),),
    "P14b": ((("CLDP2",), ("P14.b",)),),
    "P15a": ((("DLDP1",), ("P15.a",)),),
    "P15b": ((("DLDP2",), ("P15.b",)),),
    "P16": ((("CLP",), ("P16.i", "P16.ii", "P16.iii", "P16.iv")),),
    "P-CLCD": ((("CLCD",), ("C-CLCD",)),),
    "P-CM1": ((("CM1",), ("C-CM1",)),),
    "P-CM2": ((("CM2",), ("C-CM2",)),),
    "P-FCFR": ((("FC",), ("C-FC",)), (("FR",), ("C-FR",))),
    "P-SCSR": ((("SC",), ("C-SC",)), (("SR",), ("C-SR",))),
    "P-DOC": ((("DOC",), ("C-DOC",)),),
    "P-COM": ((("COM",), ("C-COM",)),),
}

THEOREM_IDS = tuple(_THEOREM_CONDITIONS)

# The DP round trip's parts: DP1-DP4 against CR8-CR11, one each.
_DP_PARTS = ((("DP1",), ("CR8",)), (("DP2",), ("CR9",)), (("DP3",), ("CR10",)), (("DP4",), ("CR11",)))


def _postulate_instance(tab: TransitionTable, pid: str, sid: int, alphas) -> int:
    """Bitset of the inputs among `alphas` at which the postulate fails at state `sid`,
    inner variables quantified: one pass over the state's inputs, and no row built."""
    failing = 0
    for a, _ in _iter_postulate(tab, pid, sid, alphas):
        failing |= 1 << a
    return failing


def _mismatches(tab: TransitionTable, parts, work):
    """(instances so far, state, α, postulate truths, condition truths) at each
    (item, α) of `work` (`_flat`) where the sides of some part of `parts` differ;
    each side is a bitset of failing inputs, built once per (state, id, inputs, size)
    item, so an instance is one bit test and truth lists exist only for a mismatch.
    Each instance counts the `size` states its item stands for."""
    groups = [[CONDITIONS[cid] for cid in cids] for _, cids in parts]
    full = tab.full
    co = tab.consistent_only
    states = tab.states
    seen, instances = None, 0
    for item, a in work:
        if item is not seen:  # a new state, or a new sampled instance
            seen, fails, unmet, differ = item, [], [], 0
            st, sid, ins, size = item
            posts = tab.posts(sid, ins)
            sc, dom = tab.scope_classes(sid), tab.success_worlds(sid)
            for (pids, _), conds in zip(parts, groups):
                failing = 0
                for pid in pids:
                    failing |= _postulate_instance(tab, pid, sid, ins)
                failed = 0
                for b in ins:
                    post, nb = states[posts[b]], full & ~b
                    for cond in conds:  # all() written out: a generator per input is a tenth of the suite's time
                        if not cond(st, post, b, nb, sc, dom, co):
                            failed |= 1 << b
                            break
                fails.append(failing)
                unmet.append(failed)
                differ |= failing ^ failed
        instances += size
        if (differ >> a) & 1:
            yield instances, st, a, [not (bad >> a) & 1 for bad in fails], [not (bad >> a) & 1 for bad in unmet]


def verify_equivalence(
    op,
    universe: StateUniverse,
    theorem: str,
    *,
    instance_list=None,
    consistent_only: bool = False,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Bidirectional per-(state, alpha) check of one characterisation theorem."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}; valid ids: {', '.join(THEOREM_IDS)}")
    parts = _THEOREM_CONDITIONS[theorem]
    tab = suite_table(op, universe, consistent_only, instance_list)

    def failures(work, _expand):  # the sides read no postulate row
        # Flat, not streamed per state: streamed, the `theorems-2atom` benchmark ran faster (wall_s 0.167-0.174
        # against 0.232-0.237 s, 2 cores, Python 3.11.7) but its peak_rss_mb rose from 26.0-26.2 to 32.2-32.9 MB,
        # past its 10% bound, as re-import garbage waited longer for the collector; collecting before each
        # set-up lets it stream.
        for instances, st, a, lhs, rhs in _mismatches(tab, parts, _flat(work)):
            # Lists of truths compare at their first differing part, which names the side.
            side = "postulate holds, condition fails" if lhs > rhs else "condition holds, postulate fails"
            lhs, rhs = (lhs[0], rhs[0]) if len(parts) == 1 else (tuple(lhs), tuple(rhs))
            yield instances, st, (a, None, f"{theorem}: {side}", lhs, rhs)

    return _decide(tab, theorem, len, failures, max_counterexamples)


# ---------------------------------------------------------------------------
# Representation round trips


def _reconstruction_errors(tab: TransitionTable, st: EpistemicState, family: str, alphas):
    """The forward check at one state: the scope rebuilt from the table's belief rows (None
    without a weak order) and the (α, β, clause, observed, required) rows of the rebuilt
    assignment's failures: unfaithful, not CLF-valid (CL), scope short of all worlds (AGM), or
    the first input of `alphas` revised unlike the state's row.  The rows are lazy: a failure
    past the last row read is neither built nor looked for."""
    try:
        order, scope = canonical_assignment(tab, st, tab.sig, family="cl" if family == "CL" else "dl")
    except NonWeakOrderError as err:
        return None, iter([(None, None, f"canonical reconstruction failed: {err}", "error", "weak order")])

    def failures():
        recon = EpistemicState(st.bel, scope, order)
        if not check_faithful_limited(recon):
            yield None, None, "reconstruction not faithful", recon, "faithful"
        if family == "CL" and not check_clf(recon):
            yield None, None, "reconstruction not CLF-valid", recon, "CLF"
        if family == "AGM" and scope != tab.full:
            yield None, None, "AGM scope not total", scope, tab.full
        ln = tab.lanes
        row = tab.row(tab.id_of(st))
        rebuilt = kernels.bel_row(order.levels, scope, st.bel, ln.n_classes)
        differ = ln.bits(ln.nz(rebuilt ^ row))
        if differ:
            for a in alphas:
                if differ >> a & 1:
                    yield a, None, "reconstructed operator disagrees", ln.entry(rebuilt, a), ln.entry(row, a)
                    return

    return scope, failures()


def _roundtrip_failures(tab: TransitionTable, family: str, fixed: int, work, expand):
    """(state, row) per failure of the round trip over the items of `work` as in `_decide`, lazily
    and in report order: each postulate's rows by `expand` (`_postulate_rows`), then the DP
    parts' mismatches or the forward reconstructions.  With `_iter_postulate` as `expand` a
    backward failure is its (α, failing β) item, so asking whether any failure exists builds
    no postulate row.  The IL scope is constant if the states rebuild one, and it is a union of
    the universe's fixed scope `fixed` and its complement, which the renamings keeping `fixed`
    keep; so on the representatives it is every state's, and on a walked universe the union
    test adds nothing for an operator those renamings commute with."""
    for pid in FAMILY_POSTULATES[family]:
        for st, sid, alphas, _ in work:
            for row in expand(tab, pid, sid, alphas):
                yield st, row
    if family == "DP":
        for _, st, a, lhs, rhs in _mismatches(tab, _DP_PARTS, _flat(work)):  # flat: see verify_equivalence
            for ((pid,), (cid,)), holds, met in zip(_DP_PARTS, lhs, rhs):
                if holds != met:
                    yield st, (a, None, f"{pid} vs {cid} mismatch", holds, met)
        return
    full, il_scopes = tab.full, set()
    for st, _, alphas, _ in work:
        scope, rows = _reconstruction_errors(tab, st, family, alphas)
        if scope is not None:
            il_scopes.add(scope)
        for row in rows:
            yield st, row
    if family == "IL" and (len(il_scopes) > 1 or not il_scopes <= {fixed, full & ~fixed, full}):
        yield work[0][0], (None, None, "reconstructed scope not constant", sorted(il_scopes), "one scope")


def representation_roundtrip(
    op,
    universe: StateUniverse,
    family: str,
    *,
    max_counterexamples: int = MAX_COUNTEREXAMPLES,
) -> Verdict:
    """Both directions of a representation theorem on a finite universe.

    Backward: the assignment-induced operator satisfies the family's
    postulates.  Forward: the canonical reconstruction from the operator's
    behaviour reproduces every revision result (plus, per family: the IL
    scope is constant, the CL reconstruction is CLF-valid, the AGM scope is
    total, and DP postulates match the CR conditions per instance).  The
    orbit representatives decide it where `_decide` says so.
    """
    if family not in FAMILY_POSTULATES:
        raise ValueError(f"unknown family {family!r}; valid: {tuple(FAMILY_POSTULATES)}")
    # The two families built on plain minimisation are checked on the
    # consistent fragment, where minimisation and the keep-beliefs fallback
    # agree; the contradiction input separates them by construction.
    consistent_only = family in ("DP", "AGM")
    tab = suite_table(op, universe, consistent_only)

    def count(alphas):
        # Instances per state, counted whole whatever the cap: each postulate's inputs (times the
        # second input's), then the DP parts' inputs or one reconstruction.
        n = len(alphas)
        return sum(n * n if pid in _PAIRED else n for pid in FAMILY_POSTULATES[family]) + (n if family == "DP" else 1)

    def failures(work, expand):
        instances = sum(size for *_, size in work) * count(tab.classes())
        rows = _roundtrip_failures(tab, family, universe.fixed_scope, work, expand)
        yield from ((instances, st, row) for st, row in rows)

    return _decide(tab, f"roundtrip-{family}", count, failures, max_counterexamples)


def mutation_detection(
    op,
    universe: StateUniverse,
    *,
    trials: int = 200,
    seed: int = 0,
) -> Verdict:
    """Rate at which single-entry belief-table corruptions are caught by the round trip.

    Each trial draws a state and an input, overwrites that entry of the
    state's stored belief row with another belief set, and runs the forward
    reconstruction check on the state.  The table, over `universe`, is not
    left on it, so no suite reads a corrupted row; each trial puts its row back.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    states = universe.states
    rng = random.Random(seed)
    tab = TransitionTable(op, universe)
    n_classes = tab.n_classes
    detected = 0
    misses = []
    for _ in range(trials):
        st = states[rng.randrange(len(states))]
        a = rng.randrange(n_classes)
        sid = tab.id_of(st)
        row = tab.row(sid)
        old = tab.lanes.entry(row, a)
        while True:
            new_bel = rng.randrange(n_classes)
            if new_bel != old:
                break
        tab._rows[sid] = row ^ (old ^ new_bel) << a * tab.lanes.width
        try:
            # Detection needs one failure, so the check stops at the first.
            hit = next(_reconstruction_errors(tab, st, "DL", range(n_classes))[1], None) is not None
        finally:
            tab._rows[sid] = row
        if hit:
            detected += 1
        elif len(misses) < MAX_COUNTEREXAMPLES:
            misses.append(Counterexample(st, a, new_bel, "mutation not detected", "accepted", "detected"))
    return Verdict("mutation-detection", detected >= trials * 0.95, trials, misses, seed, f"detected {detected}/{trials}")
