"""The library exports no function that only the tests call.

A function of `src/revlab/` at module level, private or public, and a
public method of a module-level class must be referred to somewhere in the
package outside its own body: by name, as an attribute, or as a string such
as `getattr(op, "bel_row", None)`.  So a private helper left behind when
its work moved elsewhere is caught too.  Recursion does not count, and neither do
the `__init__` re-exports.  A helper that only tests call belongs in
`tests/` (as the oracles in `condition_oracle.py` do) or nowhere.
`ENTRY_POINTS` holds the functions kept for callers outside the package.
A library module also reads every name it imports at module level (the
project runs no linter to say so), and cites no ROADMAP item by number.
Only `states.py` reads a universe's `_states`.  `CACHED` lists every
function the library memoises for the life of the process (`lru_cache` or
`cache`), each with why it may hold its results that long.  `cli.py`
declares each option and each command once.  Only `suite_table` and
`mutation_detection` build a transition table, and `conditions.py` imports
nothing from `transitions`.
"""

import ast
import re
from pathlib import Path

import revlab

SRC = Path(revlab.__file__).parent

ENTRY_POINTS = {
    "prop.eval_world": "per-world evaluation, the independent oracle for models()",
    "kernels.bel_table": "a belief row unpacked into a tuple; the benchmark traces it",
    "operators.all_policies": "the nine update policies that the suites and the benchmark run",
    "operators.tabulate": "freezes an operator into a lookup table; the benchmark traces it",
    "operators.dump_operator": "writes an operator spec file, the inverse of parse_operator",
    "operators.ExtensionalOperator.check_total": "checks that a lookup table covers every state and class",
    "conditions.check_condition": "one named condition on one transition; the benchmark traces it through verify",
    "verify.representation_roundtrip": "the representation round trips of criteria 3 and 4",
    "verify.mutation_detection": "the belief-table corruption trials of criterion 4",
}

CACHED = {
    "kernels.lanes": "the lane constants of one class count, which every belief row of a suite reads",
    "classify.incomparable": "per class, the classes incomparable with it; a fixed table per class count",
    "states.orbit_representatives": "one state per renaming orbit, a function of the universe's key alone",
    "states._orbit_inputs": "the representatives' stabilizer inputs, a function of the universe's key alone",
}


def _functions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _references(tree):
    """(name, line) for every name, attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def uncalled_functions():
    """`module.qualname` of each module-level function and public method with no reference
    outside its own body."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name, line in _references(tree):
                refs.setdefault(name, []).append((module, line))
    uncalled = set()
    for module, tree in trees.items():
        for qualname, node in _functions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("_") and "." in qualname:  # a private method
                continue
            outside = [
                (m, line) for m, line in refs.get(name, ())
                if m != module or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                uncalled.add(f"{module}.{qualname}")
    return uncalled


def test_every_public_function_has_a_caller_in_the_library():
    assert uncalled_functions() == set(ENTRY_POINTS)


def test_no_library_file_cites_a_roadmap_item():
    # ROADMAP items are renumbered when the roadmap is rewritten, so a cited number goes stale.
    # \W+ also matches a citation split across a comment's line break.
    citing = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py")) if re.search(r"ROADMAP\W+item", path.read_text())]
    assert citing == []


def unused_imports():
    """`module: name` of each module-level import in a library module that the module never reads.

    `__init__.py` re-exports by design, and so does an import line marked `# noqa: F401`."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            unused |= {f"{path.stem}: {name}" for name in names if name not in read}
    return unused


def test_no_library_module_imports_a_name_it_does_not_use():
    assert unused_imports() == set()


def test_only_the_states_module_reads_a_universes_own_states():
    # `StateUniverse._states` is set only for a universe given its states by hand; an enumerated
    # one builds them when `states` is first read.  Elsewhere a test of `_states` would take an
    # enumerated universe for one that holds no states.
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "states.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_states"
    ]
    assert readers == []


def cached_functions():
    """`module.qualname` of each library function decorated with functools' `lru_cache` or `cache`,
    called or not, by name or as an attribute."""
    cached = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _functions(ast.parse(path.read_text())):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    cached.add(f"{path.stem}.{qualname}")
    return cached


def test_every_process_lifetime_cache_is_listed():
    # A cache that outlives every universe and table must hold what depends on its arguments alone;
    # a new one needs its reason here.
    assert cached_functions() == set(CACHED)


def test_only_the_transition_table_builds_posteriors_for_the_suites():
    # A suite reads every posterior through `TransitionTable.posts`, which builds one per distinct key;
    # an `.apply(` call elsewhere on the suite side would build posteriors past that grouping.
    callers = [
        f"{name}.py:{node.lineno}"
        for name in ("verify", "postulates", "conditions", "classify", "transitions")
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "apply"
    ]
    assert callers and all(caller.startswith("transitions.py:") for caller in callers)


# The modules that may call each method of state text.  `states.py` owns that text: a state's part
# texts, which a lookup-table line reuses, and the `key: value` lines that state and operator files
# share.  A module outside these that formats or parses them decides the text a second time.
STATE_TEXT_OWNERS = {
    "from_text": {"states", "orders"},
    "to_text": {"states", "orders"},
    "worldset_str": {"states", "orders", "prop"},
    "partition(':')": {"states"},
}


def state_text_calls():
    """`module.py:line method` of each call of a `STATE_TEXT_OWNERS` method outside its owners."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            if name == "partition" and [getattr(arg, "value", None) for arg in node.args] == [":"]:
                name = "partition(':')"
            if path.stem not in STATE_TEXT_OWNERS.get(name, {path.stem}):
                calls.append(f"{path.name}:{node.lineno} {name}")
    return calls


def test_only_the_states_module_decides_state_text():
    assert state_text_calls() == []


def command_line_declarations():
    """How often `cli.py` calls `add_argument` and `add_parser`, and `getattr` on `args`, by call site."""
    counts = {"add_argument": 0, "add_parser": 0, "getattr(args)": 0}
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr in counts:
            counts[node.func.attr] += 1
        elif getattr(node.func, "id", None) == "getattr" and getattr(node.args[0], "id", None) == "args":
            counts["getattr(args)"] += 1
    return counts


def test_the_command_line_declares_each_option_and_command_once():
    # `OPTIONS` gives each option its argparse settings and `COMMANDS` each command its help, options and
    # handler, so `build_parser` adds them in one loop.  A helper that probes `args` with getattr cannot
    # tell which command called it; every command that calls a helper declares what the helper reads.
    assert command_line_declarations() == {"add_argument": 1, "add_parser": 1, "getattr(args)": 0}


def table_builders():
    """`module.function` of each call of `TransitionTable` in the library (`module.py:line` outside a function),
    and `module.py:line` of each import from `transitions` in `conditions.py`."""
    builders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = [(node.lineno, node.end_lineno, f"{path.stem}.{name}") for name, node in _functions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "TransitionTable":
                outside = f"{path.name}:{node.lineno}"
                builders.append(next((name for lo, hi, name in spans if lo <= node.lineno <= hi), outside))
    imports = [
        f"conditions.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "conditions.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "transitions" or any(alias.name == "transitions" for alias in node.names))
    ]
    return sorted(builders), imports


def test_only_the_suites_and_the_mutation_trials_build_transition_tables():
    # A table is one operator's behaviour on a universe, built whole over it: by `suite_table`, which leaves it
    # on the universe, or by `mutation_detection`, whose corrupted rows no suite may read.  `check_condition`
    # reads one belief row, of an operator or of the table a caller passes, and builds no table.
    assert table_builders() == (["transitions.suite_table", "verify.mutation_detection"], [])
