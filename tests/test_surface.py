"""The library exports no function that only the tests call.

A public function of `src/revlab/`, at module level or as a method of a
module-level class, must be referred to somewhere in the package outside
its own body: by name, as an attribute, or as a string such as
`getattr(op, "bel_row", None)`.  Recursion does not count, and neither do
the `__init__` re-exports.  A helper that only tests call belongs in
`tests/` (as the oracles in `condition_oracle.py` do) or nowhere.
`ENTRY_POINTS` holds the functions kept for callers outside the package.
A library module also reads every name it imports at module level (the
project runs no linter to say so), and cites no ROADMAP item by number.
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
    "states.check_fa": "FA validity, beside check_clf and check_faithful_limited; the fa universe is tested against it",
    "conditions.check_condition": "one named condition on one transition; the benchmark traces it through verify",
    "verify.representation_roundtrip": "the representation round trips of criteria 3 and 4",
    "verify.mutation_detection": "the belief-table corruption trials of criterion 4",
}


def _public_functions(tree):
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
    """`module.qualname` of each public function with no reference outside its own body."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name, line in _references(tree):
                refs.setdefault(name, []).append((module, line))
    uncalled = set()
    for module, tree in trees.items():
        for qualname, node in _public_functions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("_"):
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
