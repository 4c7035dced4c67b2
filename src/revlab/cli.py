"""Command-line interface.

    revlab revise   --state karl.st --operator op.txt "t" "o"
    revlab check    --operator op.txt --sig "a b" all
    revlab classify --state st.txt --operator op.txt
    revlab repro    karl|fig1|lemmas
    revlab enumerate --sig "a b" --universe faithful

Reports are deterministic given their inputs.  `check` and `enumerate`
sample at 3 atoms; they take `--seed` and record it in the report header.
`--format json` emits one machine-readable document.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import verify
from .classify import classification_report
from .errors import RevlabError
from .fixtures import REPRO_NAMES
from .operators import ExtensionalOperator, RevisionOperator, parse_operator
from .prop import Signature, parse_models
from .states import check_clf, check_fa, dump_state, enumerate_states, parse_state, sample_states

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 1000


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="revlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
    return top


def _read(flag: str, path: str) -> str:
    """The text of a --state or --operator file; one that cannot be read is a RevlabError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise RevlabError(f"{flag} {path}: {err.strerror if isinstance(err, OSError) else 'not UTF-8 text'}") from None


def _load_operator(args, sig: Signature | None) -> RevisionOperator:
    if not args.operator:
        return RevisionOperator("dl")
    return parse_operator(_read("--operator", args.operator), sig)


def _universe(args, sig: Signature, op):
    """The universe, plus at 3 atoms the sampled states and the generator that drew them (None, None up
    to 2 atoms, where every state is read).

    The universe is il exactly when the operator has an il_scope, which only an
    operator file gives, so `--universe` offers no il."""
    il_scope = getattr(op, "il_scope", None)
    if il_scope is not None and args.universe is not None:
        raise RevlabError(f"--universe {args.universe} cannot apply: the operator has an il_scope, so its universe is il")
    kind = args.universe or _default_kind(op, sig)
    consistent = args.global_consistency
    if consistent is None:  # read off a lookup table, as its kind is
        consistent = isinstance(op, ExtensionalOperator) and all(st.bel for st in op.states)
    uni = enumerate_states(sig, kind, consistent, il_scope)
    if sig.n_atoms <= 2:
        return uni, None, None
    rng = random.Random(args.seed)
    n_samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    return uni, sample_states(sig, kind, n_samples, rng, consistent, il_scope), rng


# The universe each family's postulates quantify over; il's is fixed by the operator's il_scope.
FAMILY_KINDS = {"agm": "fa", "cl": "clf", "dl": "faithful", "il": "il"}


def _default_kind(op, sig: Signature) -> str:
    """For a lookup table, the narrowest kind all its states satisfy (fa, then clf, else faithful); else its
    family's, or faithful without an operator (`enumerate`)."""
    if isinstance(op, ExtensionalOperator):
        kinds = {"fa": lambda st: check_fa(st, sig), "clf": check_clf}
        return next((kind for kind, ok in kinds.items() if all(map(ok, op.states))), "faithful")
    return "faithful" if op is None else FAMILY_KINDS[op.family]


def _emit(args, header: dict, rows: list[dict], any_fail: bool) -> int:
    if args.format == "json":
        data = [
            {k: v for k, v in row.items() if k not in ("line", "blocks")} for row in rows
        ]
        print(json.dumps({**header, "checks": data}, indent=2, sort_keys=True))
    else:
        for key, value in header.items():
            print(f"# {key}: {value}")
        for row in rows:
            print(row["line"])
            for block in row.get("blocks", ()):
                print(block, end="")
    return 1 if any_fail else 0


def _verdict_row(v: verify.Verdict, op_name: str, n_atoms: int, sig: Signature) -> dict:
    result = "PASS" if v.holds else "FAIL"
    line = f"CHECK {v.check_id} op={op_name} n={n_atoms} instances={v.instances} result={result}"
    blocks = []
    ces = []
    for ce in v.counterexamples:
        state = dump_state(sig, ce.state)
        parts = [state]
        parts.append(f"# clause: {ce.clause}\n")
        if ce.alpha is not None:
            parts.append(f"# alpha: class {ce.alpha}\n")
        if ce.beta is not None:
            parts.append(f"# beta: class {ce.beta}\n")
        parts.append(f"# observed: {ce.observed}  required: {ce.required}\n")
        blocks.append("".join(parts))
        ces.append(
            {
                "state": state,
                "alpha": ce.alpha,
                "beta": ce.beta,
                "clause": ce.clause,
                "observed": repr(ce.observed),
                "required": repr(ce.required),
            }
        )
    return {
        "id": v.check_id,
        "result": result,
        "instances": v.instances,
        "note": v.note,
        "line": line,
        "blocks": blocks,
        "counterexamples": ces,
    }


def cmd_revise(args) -> int:
    sig, st = parse_state(_read("--state", args.state))
    op = _load_operator(args, sig)
    state = dump_state(sig, st)
    rows = [{"line": f"# initial\n{state}", "state": state}]
    for text in args.formulas:
        st = op.apply(st, parse_models(text, sig))
        state = dump_state(sig, st)
        rows.append({"line": f"# after {text}\n{state}", "state": state, "input": text})
    header = {"command": "revise", "operator": op.name}
    return _emit(args, header, rows, any_fail=False)


def _expand_ids(ids: list[str], op) -> list[str]:
    out: list[str] = []
    for raw in ids:
        if raw != "all":
            out.append(raw)
        elif isinstance(op, RevisionOperator):
            out.extend(verify.FAMILY_POSTULATES[op.family.upper()])
        else:
            raise RevlabError("an extensional operator has no family to expand 'all' from; the ids must be named")
    valid = verify.POSTULATE_IDS + verify.THEOREM_IDS
    for check_id in out:
        if check_id not in valid:
            raise RevlabError(f"unknown id {check_id!r}; valid ids: {', '.join(valid)}")
    return out


def _signature(args) -> Signature:
    """The --sig of `check` and `enumerate`, refusing a --samples that cannot apply (up to
    2 atoms, where the universe is enumerated) or could hold no instance."""
    if not args.sig:
        raise RevlabError(f"{args.command} needs --sig")
    sig = Signature.of(args.sig)
    if args.samples is not None:
        if args.samples < 1:
            raise RevlabError(f"--samples must be at least 1, got {args.samples}")
        if sig.n_atoms <= 2:
            raise RevlabError(f"--samples needs a sampled universe; at {sig.n_atoms} atoms it is enumerated")
    return sig


def cmd_check(args) -> int:
    sig = _signature(args)
    if args.max_counterexamples < 0:
        raise RevlabError(f"--max-counterexamples must be at least 0, got {args.max_counterexamples}")
    op = _load_operator(args, sig)
    ids = _expand_ids(args.ids, op)  # refused before the universe or a sample is built
    uni, sample, rng = _universe(args, sig, op)
    lo = 1 if args.consistent_only else 0  # one input per sampled state, drawn after the states
    instance_list = None if sample is None else [(st, rng.randrange(lo, 1 << sig.n_worlds)) for st in sample]
    rows = []
    any_fail = False
    for check_id in ids:
        check = verify.verify_equivalence if check_id in verify.THEOREM_IDS else verify.check_postulate
        v = check(
            op,
            uni,
            check_id,
            instance_list=instance_list,
            consistent_only=args.consistent_only,
            max_counterexamples=args.max_counterexamples,
        )
        any_fail = any_fail or not v.holds
        rows.append(_verdict_row(v, op.name, sig.n_atoms, sig))
    header = {
        "command": "check",
        "operator": op.name,
        "universe": f"{uni.kind} (global_consistency={uni.global_consistency}, "
        f"sampled={instance_list is not None})",
        "seed": args.seed,
        "consistent_only": args.consistent_only,
        "reading": "order conditions treat out-of-domain worlds as unrelated; "
        "scoped-independence world variables range over accepted minterms",
    }
    return _emit(args, header, rows, any_fail)


def cmd_classify(args) -> int:
    sig, st = parse_state(_read("--state", args.state))
    op = _load_operator(args, sig)
    universe = None
    if sig.n_atoms <= 2:
        universe = _universe(args, sig, op)[0]
    else:
        for flag, is_set in (
            ("--universe", args.universe not in (None, "faithful")),
            ("--global-consistency", args.global_consistency),
        ):
            if is_set:
                raise RevlabError(f"{flag} needs a state of at most 2 atoms; no universe is built at {sig.n_atoms}")
    rows = []
    for row in classification_report(op, st, universe, sig):
        flags = " ".join(f"{name}={'y' if value else 'n'}" for name, value in row.items() if name != "class")
        rows.append({"line": f"class {row['class']}: {flags}", **row})
    header = {"command": "classify", "operator": op.name}
    return _emit(args, header, rows, any_fail=False)


def cmd_repro(args) -> int:
    rows = []
    any_fail = False
    for row in REPRO_NAMES[args.name]():
        status = "PASS" if row.ok else "FAIL"
        line = f"REPRO {args.name}: {row.label}: {status}"
        if not row.ok:
            any_fail = True
            line += f" (observed {row.observed}, required {row.required})"
        rows.append({"line": line, "label": row.label, "result": status})
    header = {"command": "repro", "name": args.name}
    return _emit(args, header, rows, any_fail)


def cmd_enumerate(args) -> int:
    sig = _signature(args)
    uni, sample, _ = _universe(args, sig, None)
    sampled = sample is not None
    states = sample if sampled else uni.states
    line = f"# states: {len(states)}{' (sampled)' if sampled else ''}"
    rows = [{"line": line, "states": len(states), "sampled": sampled}]
    if not args.count_only:
        rows += [{"line": state, "state": state} for state in (dump_state(sig, st) for st in states)]
    header = {
        "command": "enumerate",
        "universe": uni.kind,
        "global_consistency": uni.global_consistency,
        "seed": args.seed,
    }
    return _emit(args, header, rows, any_fail=False)


# Each option's argparse settings, declared once for every command that takes it.
OPTIONS = {
    "--state": dict(required=True, help="state file (sig/bel/scope/order lines)"),
    "--operator": dict(help="operator spec file"),
    "--sig": dict(help="signature atoms, e.g. 'a b'"),
    "--samples": dict(type=int, help=f"instances sampled at 3 atoms (default {DEFAULT_SAMPLES})"),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--universe": dict(
        choices=("faithful", "clf", "fa"),
        help="state universe kind (default: faithful; with an --operator file, il for an operator with an "
        "il_scope, fa for agm, clf for cl, the narrowest kind of a lookup table's states)",
    ),
    "--global-consistency": dict(
        action="store_true",
        default=None,  # not given: see _universe
        help="exclude states with inconsistent beliefs (default: off; on for an --operator lookup table "
        "whose states all believe something)",
    ),
    "--format": dict(default="text", choices=("text", "json")),
    "--consistent-only": dict(action="store_true", help="exclude the contradiction from formula quantifiers"),
    "--max-counterexamples": dict(
        type=int, default=verify.MAX_COUNTEREXAMPLES, help="counterexamples reported per failing check"
    ),
    "--count-only": dict(action="store_true"),
    "formulas": dict(nargs="*", help="input formulas, applied in order"),
    "ids": dict(nargs="+", help="postulate or theorem ids, or 'all'"),
    "name": dict(choices=sorted(REPRO_NAMES)),
}

# Each command: its help, its options in the order `--help` lists them, and its handler.
COMMANDS = {
    "revise": (
        "run a revision sequence, printing each posterior state",
        ("--state", "--operator", "--format", "formulas"),
        cmd_revise,
    ),
    "check": (
        "check postulates / characterisation theorems",
        ("--operator", "--sig", "--samples", "--seed", "--universe", "--global-consistency", "--format", "--consistent-only",
         "--max-counterexamples", "ids"),
        cmd_check,
    ),
    "classify": (
        "per-class scope/latency/reasonableness report",
        ("--state", "--operator", "--universe", "--global-consistency", "--format"),
        cmd_classify,
    ),
    "repro": ("replay a built-in worked example", ("name", "--format"), cmd_repro),
    "enumerate": (
        "enumerate a state universe",
        ("--sig", "--samples", "--seed", "--universe", "--global-consistency", "--format", "--count-only"),
        cmd_enumerate,
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    *_, handler = COMMANDS[args.command]
    try:
        return handler(args)
    except RevlabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
