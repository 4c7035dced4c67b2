"""Built-in worked examples: the karl fixture (three mutually exclusive
hypotheses, a two-step revision run), the fig1 fixture (a fixed-scope
operator table over two atoms), and the exhaustive combinatorial suites
behind the trichotomy and closure-witness facts.

These ship as data so the CLI can replay them (`revlab repro ...`); the
acceptance tests assert the same pinned values.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify
from .operators import RevisionOperator, parse_operator
from .orders import enumerate_orders, trichotomy_check
from .prop import Signature, parse_models
from .states import EpistemicState, parse_state

KARL_STATE_TEXT = """\
sig: z o t
bel: 010 001 011
scope: 100 010 001
order: [010 001 | 100]
"""

KARL_OPERATOR_TEXT = """\
family: dl
order_rule: keep
scope_rule: doc
"""

FIG1_SCOPE = 0b0110  # the two single-atom worlds

FIG1_STATE_1_TEXT = """\
sig: a b
bel: 11 01
scope: 01 10
order: [01 | 10]
"""

FIG1_STATE_2_TEXT = """\
sig: a b
bel: 00
scope: 01 10
order: [01 | 10]
"""

FIG1_OPERATOR_TEXT = f"""\
family: il
il_scope: {FIG1_SCOPE}
order_rule: keep
scope_rule: keep
"""


@dataclass(frozen=True)
class ReproRow:
    label: str
    ok: bool
    observed: str
    required: str


def karl_fixture() -> tuple[Signature, EpistemicState, RevisionOperator]:
    sig, st = parse_state(KARL_STATE_TEXT)
    return sig, st, parse_operator(KARL_OPERATOR_TEXT)


def fig1_fixture() -> tuple[Signature, EpistemicState, EpistemicState, RevisionOperator]:
    sig, st1 = parse_state(FIG1_STATE_1_TEXT)
    _, st2 = parse_state(FIG1_STATE_2_TEXT)
    return sig, st1, st2, parse_operator(FIG1_OPERATOR_TEXT)


def _row(label: str, observed, required) -> ReproRow:
    return ReproRow(label, observed == required, repr(observed), repr(required))


def repro_karl() -> list[ReproRow]:
    """Two revision steps: accept `t`, then deny the now-out-of-scope `o`."""
    sig, st, op = karl_fixture()
    rows = [_row("initial state parses to bel {010,001,011}", st.bel, 0b1110)]
    t_mask = parse_models("t", sig)
    after_t = op.apply(st, t_mask)
    rows.append(_row("revision by t yields bel {001}", after_t.bel, 0b0010))
    rows.append(_row("doc policy shrinks scope to {001}", after_t.scope, 0b0010))
    o_mask = parse_models("o", sig)
    after_o = op.apply(after_t, o_mask)
    rows.append(_row("subsequent revision by o is denied", after_o.bel, 0b0010))
    return rows


def repro_fig1() -> list[ReproRow]:
    """All five state columns of the fixed-scope operator table."""
    sig, st1, st2, op = fig1_fixture()
    a = parse_models("a", sig)
    ab = parse_models("a & b", sig)

    def col(label: str, st: EpistemicState, bel, scope, levels) -> list[ReproRow]:
        return [
            _row(f"{label}: bel", st.bel, bel),
            _row(f"{label}: scope", st.scope, scope),
            _row(f"{label}: order", st.order.levels, levels),
        ]

    rows = col("state 1", st1, 0b1010, 0b0110, (0b0010, 0b0100))
    rows += col("state 1 / a", op.apply(st1, a), 0b0100, 0b0110, (0b0100, 0b0010))
    rows += col("state 1 / a&b", op.apply(st1, ab), 0b1010, 0b0110, (0b0010, 0b0100))
    rows += col("state 2", st2, 0b0001, 0b0110, (0b0010, 0b0100))
    rows += col("state 2 / a&b", op.apply(st2, ab), 0b0001, 0b0110, (0b0010, 0b0100))
    return rows


def repro_lemmas() -> list[ReproRow]:
    """Exhaustive runs of the two auxiliary lemmas.

    Minimisation trichotomy over every weak order on up to 4 worlds and
    every candidate pair, and the equivalence of the two closure properties
    with representability by a witness world set, over all sets of
    consistent classes at 2 atoms.
    """
    sig = Signature.of("a b")
    full = sig.all_worlds

    tri_checked = tri_bad = 0
    for domain in range(1, full + 1):
        for order in enumerate_orders(domain):
            for a in range(full + 1):
                for b in range(full + 1):
                    tri_checked += 1
                    if not trichotomy_check(order, a, b):
                        tri_bad += 1
    rows = [
        _row(f"trichotomy holds for all {tri_checked} (order, A, B) triples", tri_bad, 0)
    ]

    consistent = list(range(1, 1 << sig.n_worlds))
    mism = checked = 0
    for bits in range(1 << len(consistent)):
        classes = {c for i, c in enumerate(consistent) if bits >> i & 1}
        closed = classify.check_ssc(classes, sig) and classify.check_dc(classes, sig)
        witnessed = classify.find_witness_M(classes, sig) is not None
        checked += 1
        if closed != witnessed:
            mism += 1
    rows.append(
        _row(f"closure-vs-witness equivalence over {checked} class sets", mism, 0)
    )
    return rows


REPRO_NAMES = {"karl": repro_karl, "fig1": repro_fig1, "lemmas": repro_lemmas}
