"""Trace wrappers around revlab's module entry points, for the traced run only.

The wrappers replace attributes on revlab's modules and classes and put the
original objects back afterwards; revlab's source is not touched.  An entry
point that no longer exists is reported as missing, and its layer reads 0.

Two passes use them:

* The timed pass opens a span around every wrapped call.  A span holds its
  layer name, start and end time and its parent, the innermost span open
  when it started.  When a span ends, its duration is charged to its
  parent's children, and its self time (duration minus the time its
  children cover) and call are added to its layer.  Spans are folded into
  these totals as they end rather than kept, because a 2-atom sweep opens
  millions of them.
* The counting pass takes no times.  It counts `EpistemicState.__hash__`
  calls and `Signature.n_worlds` / `all_worlds` reads, which are too
  frequent and too cheap to wrap in a timed pass, and the distinct
  (operator, state, input) keys behind `apply` and `classify_state`.
"""

from __future__ import annotations

import importlib
import itertools
import time
import weakref
from contextlib import contextmanager

# (layer, module, attribute path) of every timed entry point.  `verify`
# imports `revise_mask` and `canonical_assignment` by name, and `cli`
# imports `enumerate_states` by name, so those copies are wrapped as well.
ENTRY_POINTS = [
    ("kernels.posterior", "revlab.kernels", "posterior"),
    ("kernels.bel_table", "revlab.kernels", "bel_table"),
    ("kernels.revise_mask", "revlab.kernels", "revise_mask"),
    ("kernels.revise_mask", "revlab.verify", "revise_mask"),
    ("operators.apply", "revlab.operators", "RevisionOperator.apply"),
    ("operators.extensional_apply", "revlab.operators", "ExtensionalOperator.apply"),
    ("operators.tabulate", "revlab.operators", "tabulate"),
    ("operators.canonical_assignment", "revlab.operators", "canonical_assignment"),
    ("operators.canonical_assignment", "revlab.verify", "canonical_assignment"),
    ("classify.classify_state", "revlab.classify", "classify_state"),
    ("classify.immanent_classes", "revlab.classify", "immanent_classes"),
    ("verify.postulate", "revlab.verify", "_postulate_instance"),
    ("verify.condition", "revlab.verify", "check_condition"),
    ("verify.suite", "revlab.verify", "verify_equivalence"),
    ("verify.suite", "revlab.verify", "check_postulate"),
    ("verify.suite", "revlab.verify", "representation_roundtrip"),
    ("verify.suite", "revlab.verify", "mutation_detection"),
    ("states.enumerate_states", "revlab.states", "enumerate_states"),
    ("states.enumerate_states", "revlab.cli", "enumerate_states"),
    ("cli.main", "revlab.cli", "main"),
]

# Counted in the counting pass: (layer, module, attribute path).
HASH_ENTRY = ("states.hash", "revlab.states", "EpistemicState.__hash__")
PROP_ENTRIES = [
    ("prop.signature_props", "revlab.prop", "Signature.n_worlds"),
    ("prop.signature_props", "revlab.prop", "Signature.all_worlds"),
]
COUNTED_LAYERS = (HASH_ENTRY[0], PROP_ENTRIES[0][0])
DISTINCT_LAYERS = ("operators.apply", "classify.classify_state")


def _resolve(module: str, path: str):
    """(owner, name, original) for an attribute path, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Class attributes are read from __dict__, so a method or property is
    # kept as the object the class holds, not a bound method or a value.
    original = vars(owner).get(name)
    return None if original is None else (owner, name, original)


class Patches:
    """Replaced attributes and their originals; `restore` puts them back."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module: str, path: str, make):
        found = _resolve(module, path)
        if found is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, name, original = found
        setattr(owner, name, make(original))
        self.replaced.append((owner, name, original))

    def restore(self) -> None:
        while self.replaced:
            owner, name, original = self.replaced.pop()
            setattr(owner, name, original)


@contextmanager
def patched(install):
    """Runs `install(patches)` and restores every replaced attribute on exit."""
    patches = Patches()
    try:
        install(patches)
        yield patches
    finally:
        patches.restore()


class SpanTracer:
    """Timed pass: calls and self time per layer, from nested spans."""

    def __init__(self):
        self.totals: dict[str, list[int]] = {}  # layer -> [calls, self ns]
        # Child time of each open span, innermost last.  The bottom entry
        # collects the time of spans opened outside any wrapped call.
        self._children: list[int] = [0]

    def install(self, patches: Patches) -> None:
        for layer, module, path in ENTRY_POINTS:
            patches.wrap(module, path, lambda fn, layer=layer: self._timed(layer, fn))

    def _timed(self, layer: str, fn):
        totals = self.totals.setdefault(layer, [0, 0])
        children = self._children
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - children.pop()
                children[-1] += duration
                totals[0] += 1
                totals[1] += own

        return traced

    def calls(self, layer: str) -> int:
        return self.totals.get(layer, [0, 0])[0]

    def self_s(self, layer: str) -> float:
        return self.totals.get(layer, [0, 0])[1] / 1e9


class CountingPass:
    """Counting pass: hashes, property reads and distinct keys, untimed."""

    def __init__(self):
        self._counts: dict[str, list[int]] = {}
        self.keys: dict[str, set] = {layer: set() for layer in DISTINCT_LAYERS}
        self.key_calls: dict[str, int] = dict.fromkeys(DISTINCT_LAYERS, 0)
        self._tokens: dict[int, int] = {}
        self._next_token = itertools.count()
        self._value_keyed: type | None = None

    def install(self, patches: Patches) -> None:
        operators = importlib.import_module("revlab.operators")
        self._value_keyed = getattr(operators, "RevisionOperator", None)
        layer, module, path = HASH_ENTRY
        patches.wrap(module, path, lambda fn: self._counted(layer, fn))
        for layer, module, path in PROP_ENTRIES:
            patches.wrap(module, path, lambda prop, layer=layer: property(self._counted(layer, prop.fget)))
        patches.wrap(
            "revlab.operators",
            "RevisionOperator.apply",
            lambda fn: self._keyed("operators.apply", fn, lambda op, st, alpha: (self._op_key(op), *_state_key(st), alpha)),
        )
        patches.wrap(
            "revlab.classify",
            "classify_state",
            lambda fn: self._keyed("classify.classify_state", fn, lambda op, st, sig: (self._op_key(op), *_state_key(st))),
        )

    def _counted(self, layer: str, fn):
        """Counts calls of a one-argument function (a hash or a getter)."""
        box = self._counts.setdefault(layer, [0])

        def counted(obj):
            box[0] += 1
            return fn(obj)

        return counted

    def _keyed(self, layer: str, fn, key):
        seen = self.keys[layer]
        calls = self.key_calls

        def keyed(*args, **kwargs):
            calls[layer] += 1
            seen.add(key(*args, **kwargs))
            return fn(*args, **kwargs)

        return keyed

    def _op_key(self, op):
        # Policy operators compare by value.  Table operators hold a dict and
        # cannot be hashed, so each object gets a token for its lifetime.
        if type(op) is self._value_keyed:
            return op
        token = self._tokens.get(id(op))
        if token is None:
            token = self._tokens[id(op)] = next(self._next_token)
            weakref.finalize(op, self._tokens.pop, id(op), None)
        return ("object", token)

    def count(self, layer: str) -> int:
        return self._counts.get(layer, [0])[0]

    def distinct_ratio(self, layer: str) -> float:
        calls = self.key_calls[layer]
        return len(self.keys[layer]) / calls if calls else 0.0


def _state_key(st) -> tuple:
    # Plain fields, so keying does not call the EpistemicState hash it counts.
    return st.bel, st.scope, st.order.levels
