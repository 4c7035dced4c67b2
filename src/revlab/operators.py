"""Revision operator families, update policies, and assignment reconstruction.

The semantic core is minimisation over a limited total preorder with a
fallback belief set when the input misses the order's domain:

* dl   — arbitrary faithful limited assignment (per-state scope), keeping
         the prior beliefs as the fallback, as cl and il do,
* cl   — CLF-valid states (beliefs inside the scope, equal to its minimum),
* il   — one fixed scope shared by all states,
* agm  — scope is all of Ω, states FA-valid, and the fallback is the
         empty belief set: only the contradiction misses a total domain,
         and revising by it empties the beliefs, as plain minimisation does.

States carry their own assignment, so iterated revision needs a rule for
the posterior (order, scope).  That rule is the UpdatePolicy, an explicit
(order_rule x scope_rule) parameter; the verifier tests which policies
satisfy which iteration postulates rather than baking one answer in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import classify, kernels
from .errors import (
    InvariantError,
    NonWeakOrderError,
    ParseError,
    ScopeMismatchError,
    TableMissError,
)
from .orders import RankedOrder
from .prop import Signature, iter_worlds
from .states import STATE_PARTS, EpistemicState, StateUniverse, key_lines, parsed, state_of_texts, state_texts

ORDER_RULES = ("keep", "natural", "lex")
SCOPE_RULES = ("keep", "doc", "result_only")
FAMILIES = ("dl", "cl", "agm", "il")


@dataclass(frozen=True)
class UpdatePolicy:
    """Posterior (order, scope) rule; `doc` shrinks the scope to the accepted part.

    Every posterior has its new belief minimum promoted to a fresh level 0,
    keeping iterated states faithful.  So `natural`, which adds only that
    promotion to `keep`, gives the posteriors of `keep`; it stays a policy.
    """

    order_rule: str = "keep"
    scope_rule: str = "keep"

    def __post_init__(self):
        if self.order_rule not in ORDER_RULES:
            raise ValueError(f"unknown order rule {self.order_rule!r}")
        if self.scope_rule not in SCOPE_RULES:
            raise ValueError(f"unknown scope rule {self.scope_rule!r}")

    def __str__(self):
        return f"{self.order_rule}/{self.scope_rule}"


def all_policies() -> tuple[UpdatePolicy, ...]:
    return tuple(
        UpdatePolicy(o, s) for o, s in product(ORDER_RULES, SCOPE_RULES)
    )


@dataclass(frozen=True)
class RevisionOperator:
    """A revision operator of one family under one update policy.

    Every family runs the one revision core of `kernels`: minimise the input
    over the state's limited order, and fall back when the input misses the
    scope.  dl, cl and il fall back to the prior beliefs; agm, whose scope is
    all of Ω, falls back to no beliefs, so revising by ⊥ empties them.  An il
    operator accepts only states whose scope is its fixed scope, and agm and
    il posteriors keep the prior scope whatever the policy's scope rule.
    """

    family: str
    policy: UpdatePolicy = field(default_factory=UpdatePolicy)
    il_scope: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "il" and not self.il_scope:
            raise InvariantError("il operator needs a fixed nonempty scope")

    @property
    def name(self) -> str:
        extra = f" scope={self.il_scope}" if self.family == "il" else ""
        return f"{self.family}({self.policy}){extra}"

    def _kernel_args(self, st: EpistemicState) -> tuple[tuple[int, ...], int, int]:
        """The kernels' (levels, scope, fallback beliefs) for `st`; agm falls back to none."""
        if self.family == "il" and st.scope != self.il_scope:
            raise ScopeMismatchError(
                f"state scope {st.scope} differs from operator scope {self.il_scope}"
            )
        return st.order.levels, st.scope, 0 if self.family == "agm" else st.bel

    def revise_beliefs(self, st: EpistemicState, alpha: int) -> int:
        levels, scope, bel = self._kernel_args(st)
        return kernels.revise_mask(levels, scope, bel, alpha)

    def bel_row(self, st: EpistemicState, n_classes: int) -> int:
        """Posterior beliefs for every class at once, packed one class per lane."""
        levels, scope, bel = self._kernel_args(st)
        return kernels.bel_row(levels, scope, bel, n_classes)

    def _rules(self) -> tuple[str, str]:
        """The kernels' (order rule, scope rule); families with a fixed scope keep it."""
        return self.policy.order_rule, "keep" if self.family in ("agm", "il") else self.policy.scope_rule

    def posteriors(self, st: EpistemicState, alphas) -> list[EpistemicState]:
        """The posterior at each input: inputs with one `kernels.posterior_key` share one state, built from it."""
        levels, scope, bel = self._kernel_args(st)
        order_rule, scope_rule = self._rules()
        keys = [kernels.posterior_key(levels, scope, bel, a, order_rule, scope_rule) for a in alphas]
        built = {
            key: EpistemicState(key[0], key[1], RankedOrder(kernels.posterior(levels, scope, key)))
            for key in dict.fromkeys(keys)
        }
        return [built[key] for key in keys]

    def apply(self, st: EpistemicState, alpha: int) -> EpistemicState:
        """Full posterior state."""
        return self.posteriors(st, (alpha,))[0]


@dataclass(frozen=True)
class ExtensionalOperator:
    """A revision operator given by a lookup table over universe x classes."""

    sig: Signature
    states: tuple[EpistemicState, ...]
    mapping: dict[tuple[EpistemicState, int], EpistemicState]

    @property
    def name(self) -> str:
        return f"extensional({len(self.states)} states)"

    def revise_beliefs(self, st: EpistemicState, alpha: int) -> int:
        return self.apply(st, alpha).bel

    def apply(self, st: EpistemicState, alpha: int) -> EpistemicState:
        try:
            return self.mapping[(st, alpha)]
        except KeyError:
            raise TableMissError(f"no table entry for state {st} and class {alpha}") from None

    def posteriors(self, st: EpistemicState, alphas) -> list[EpistemicState]:
        """The table's entry at each input."""
        return [self.apply(st, a) for a in alphas]


def tabulate(op, universe: StateUniverse) -> ExtensionalOperator:
    """Freezes an operator's behaviour on a universe into a lookup table.

    Only the universe's states are frozen, so a suite that reaches a
    posterior outside the universe (agm revised by ⊥ on the fa universe
    empties the beliefs) raises TableMissError there.
    """
    states, classes = universe.states, range(1 << universe.sig.n_worlds)
    mapping = {(st, a): post for st in states for a, post in zip(classes, op.posteriors(st, classes))}
    return ExtensionalOperator(universe.sig, states, mapping)


# ---------------------------------------------------------------------------
# Canonical assignment reconstruction (the representation-theorem construction)


def canonical_assignment(
    op, st: EpistemicState, sig: Signature, family: str = "dl"
) -> tuple[RankedOrder, int]:
    """Rebuilds (order, scope) from the operator's revision behaviour alone.

    Both are read off the state's belief row T.  The scope is the set of
    worlds whose minterm formula is latent (for the cl family: accepted),
    and w1 precedes w2 iff w1 survives revision by the two-world
    disjunction.  Raises NonWeakOrderError when that relation is not a
    weak order, which signals a postulate violation.

    The order is first peeled off the row: the next level is `T[rest] &
    rest` for the domain worlds `rest` not yet placed, until none is left
    or a level comes out empty.  One `kernels.bel_row` call then checks the
    peeled order against T on every nonempty class inside the domain.
    Those classes include every class of one or two domain worlds, so
    where they agree the pairwise relation is exactly the peeled order: a
    weak order, whose minimal-element walk would build the same levels and
    raise nothing.  Only a row the check rejects, or a peel that stalls,
    goes through that walk (`_pairwise_walk`).
    """
    row = classify.bel_row_of(op, st, sig)
    n_classes = 1 << sig.n_worlds
    ln = kernels.lanes(n_classes)
    if family == "cl":
        domain = classify.minterm_worlds(ln.accepted(row), sig.n_worlds)
    else:
        domain = classify.latent_worlds(row, st.bel, ln)
    if domain == 0:
        raise NonWeakOrderError("reconstructed scope is empty")

    levels = []
    remaining = domain
    while remaining:
        level = ln.entry(row, remaining) & remaining
        if not level:
            break
        levels.append(level)
        remaining ^= level
    if not remaining:
        order = RankedOrder(tuple(levels))
        peeled = kernels.bel_row(order.levels, domain, 0, n_classes)
        # Lane 0, the empty class, lies inside every domain but holds the fallback, not a minimum.
        if not ln.nz(peeled ^ row) & ln.within(domain) & ~(1 << ln.width - 1):
            return order, domain
    return _pairwise_walk(ln.entries(row), domain)


def _pairwise_walk(t: tuple[int, ...], domain: int) -> tuple[RankedOrder, int]:
    """The pairwise relation of the unpacked belief row `t` on `domain`, checked and ranked.

    `up[w]` holds the domain worlds that w precedes.  Raises
    NonWeakOrderError, with a witness, where the relation is not total, has
    no minimal element or is not transitive.
    """
    worlds = list(iter_worlds(domain))
    up = {w: sum(1 << v for v in worlds if t[1 << w | 1 << v] >> w & 1) for w in worlds}
    for w in worlds:
        gap = domain & ~up[w] & ~sum(1 << v for v in worlds if up[v] >> w & 1)
        if gap:
            raise NonWeakOrderError("pairwise relation is not total", witness=(w, next(iter_worlds(gap))))

    levels = []
    above = {}  # per world, the worlds of its level and the later ones
    remaining = domain
    while remaining:
        minimal = [w for w in iter_worlds(remaining) if remaining & ~up[w] == 0]
        if not minimal:
            raise NonWeakOrderError(
                "pairwise relation has no minimal element", witness=tuple(iter_worlds(remaining))
            )
        for w in minimal:
            above[w] = remaining
        levels.append(sum(1 << w for w in minimal))
        remaining ^= levels[-1]
    order = RankedOrder(tuple(levels))

    for w in worlds:
        bad = up[w] ^ above[w]
        if bad:
            raise NonWeakOrderError("pairwise relation is not transitive", witness=(w, next(iter_worlds(bad))))
    return order, domain


# ---------------------------------------------------------------------------
# Operator spec files


def dump_operator(op: RevisionOperator | ExtensionalOperator) -> str:
    if isinstance(op, ExtensionalOperator):
        return _dump_extensional(op)
    lines = [f"family: {op.family}"]
    if op.family == "il":
        lines.append(f"il_scope: {op.il_scope:#x}")  # hex, which no signature reads as worlds
    lines.append(f"order_rule: {op.policy.order_rule}")
    lines.append(f"scope_rule: {op.policy.scope_rule}")
    return "\n".join(lines) + "\n"


def _dump_extensional(op: ExtensionalOperator) -> str:
    sig = op.sig
    index = {st: i for i, st in enumerate(op.states)}
    entries = sorted(op.mapping.items(), key=lambda kv: (index[kv[0][0]], kv[0][1]))
    for _, post in entries:  # a posterior outside the table's states is numbered after them
        index.setdefault(post, len(index))

    lines = ["family: extensional", f"sig: {' '.join(sig.atoms)}"]
    lines += [f"state {i}: " + "bel {} ; scope {} ; order {}".format(*state_texts(sig, st)) for st, i in index.items()]
    lines += [f"entry: {index[st]} {alpha} {index[post]}" for (st, alpha), post in entries]
    return "\n".join(lines) + "\n"


def _parse_int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} must be an integer, got {text!r}") from None


# Each key of an operator file and the families whose files use it; `state`
# stands for every numbered `state k` line.
_KEY_FAMILIES = {
    "family": FAMILIES + ("extensional",),
    "order_rule": FAMILIES,
    "scope_rule": FAMILIES,
    "il_scope": ("il",),
    "sig": ("extensional",),
    "state": ("extensional",),
    "entry": ("extensional",),
}


def parse_operator(text: str, sig: Signature | None = None) -> RevisionOperator | ExtensionalOperator:
    """Parses an operator spec file; raises ParseError with the offending line number.

    Policy operators are `family:`/`order_rule:`/`scope_rule:` lines
    (plus `il_scope:` for the fixed-scope family: worlds, read with `sig`,
    or a mask).  Extensional operators carry `family:`, a `sig:` line,
    numbered `state k:` lines, and
    `entry: <state> <class-mask> <posterior-state>` triples.  A key that
    the file's family does not use is an error.
    """
    fields: dict[str, str] = {}
    linenos: dict[str, int] = {}
    state_lines: dict[int, tuple[str, int]] = {}
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, key, value in key_lines(text):
        kind = "state" if key.startswith("state ") else key
        if kind not in _KEY_FAMILIES:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        linenos.setdefault(kind, lineno)
        if kind == "state":
            idx = _parse_int(key[len("state "):].strip(), lineno, "state id")
            if idx in state_lines:
                raise ParseError(f"line {lineno}: duplicate state id {idx}")
            state_lines[idx] = (value, lineno)
        elif key == "entry":
            parts = value.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: entry wants 'state class state', got {value!r}")
            sid, alpha, pid = (_parse_int(x, lineno, "entry field") for x in parts)
            if (sid, alpha) in entries:
                raise ParseError(f"line {lineno}: duplicate entry for state {sid}, class {alpha}")
            entries[(sid, alpha)] = (pid, lineno)
        elif key in fields:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        else:
            fields[key] = value
    family = fields.get("family")
    if family not in _KEY_FAMILIES["family"]:
        raise ParseError(f"family must be one of {_KEY_FAMILIES['family']}, got {family!r}")
    for key, lineno in linenos.items():  # in line order
        if family not in _KEY_FAMILIES[key]:
            raise ParseError(f"line {lineno}: key {key!r} does not apply to a {family} operator")
    if family == "extensional":
        return _parse_extensional(fields, linenos, state_lines, entries, sig)
    rules = []
    for key, known in (("order_rule", ORDER_RULES), ("scope_rule", SCOPE_RULES)):
        rule = fields.get(key, "keep")
        if rule not in known:
            raise ParseError(f"line {linenos[key]}: unknown {key} {rule!r}; want one of {known}")
        rules.append(rule)
    il_scope = None
    if family == "il":
        if "il_scope" not in fields:
            raise ParseError("il operator file needs an il_scope line")
        il_scope = _parse_il_scope(fields["il_scope"], linenos["il_scope"], sig)
    return RevisionOperator(family, UpdatePolicy(*rules), il_scope)


def _parse_il_scope(raw: str, lineno: int, sig: Signature | None) -> int:
    """Worlds when every token is a world of `sig`, as state files write them; else a
    mask, in decimal or as `dump_operator` writes it, in hex."""
    if sig is not None and raw and all(len(t) == sig.n_atoms and set(t) <= {"0", "1"} for t in raw.split()):
        return sig.worldset_of_strs(raw)
    try:
        scope = int(raw, 16 if raw.startswith("0x") else 10)
    except ValueError:
        raise ParseError(f"line {lineno}: il_scope must be worlds or an integer mask, got {raw!r}") from None
    if scope <= 0 or (sig is not None and scope >> sig.n_worlds):
        within = f" of {sig.n_worlds} worlds" if sig is not None else ""
        raise ParseError(f"line {lineno}: il_scope must be a nonempty mask{within}, got {raw!r}")
    return scope


def _parse_extensional(fields, linenos, state_lines, entries, given: Signature | None) -> ExtensionalOperator:
    """The table of an extensional file, refused where its `sig:` line is not `given`'s atoms."""
    if "sig" not in fields:
        raise ParseError("extensional operator file needs a sig line")
    place = f"line {linenos['sig']}"
    sig = parsed(Signature.of, fields["sig"], place)
    if given not in (None, sig):
        raise ParseError(f"{place}: sig: {' '.join(sig.atoms)} does not match the signature {' '.join(given.atoms)}")
    states: dict[int, EpistemicState] = {}
    for idx, (body, lineno) in state_lines.items():
        place = f"line {lineno}: state {idx}"
        parts = {}
        for chunk in body.split(";"):
            keyword, _, rest = chunk.strip().partition(" ")
            if keyword in parts:
                raise ParseError(f"{place}: repeated part {keyword!r}")
            parts[keyword] = (rest.strip(), place)
        if set(parts) != set(STATE_PARTS):
            raise ParseError(f"{place}: want 'bel ... ; scope ... ; order [...]'")
        states[idx] = state_of_texts(sig, parts)
    n_classes = 1 << sig.n_worlds
    mapping = {}
    for (sid, alpha), (pid, lineno) in entries.items():
        if sid not in states or pid not in states:
            raise ParseError(f"line {lineno}: entry references unknown state id in ({sid}, {alpha}, {pid})")
        if not 0 <= alpha < n_classes:
            raise ParseError(f"line {lineno}: entry class {alpha} outside [0, {n_classes})")
        mapping[(states[sid], alpha)] = states[pid]
    # The table's states are the ids with entries; other states are posteriors only.
    rows = tuple(states[i] for i in sorted({sid for sid, _ in entries}))
    return ExtensionalOperator(sig, rows, mapping)
