"""``src/germkit`` holds what the program runs.

The test walks every module of ``src/germkit`` with ``ast``.  Each top-level
function or class, and each method whose name is not a dunder, must meet
one of three conditions:

- its name is referenced somewhere in ``src/germkit`` outside its own body;
- its name is referenced in ``scripts/``;
- it is the console entry point named in ``pyproject.toml``.

A reference is a bare name (``Dga``) or an attribute (``dga.betti``);
imports do not count, so a name that is only imported somewhere is not
kept alive by it.  References in ``tests/`` do not count either: code that
only the tests reach belongs in ``tests/conftest.py``.

Module-level names get the same rule.  Each name that a top-level
assignment binds (a constant such as ``ONE``, a type alias such as
``Row``) must be referenced in ``src/germkit`` outside its own statement,
or in ``scripts/``.  The package root imports nothing: the program and
the scripts import the module they use, so ``__init__`` has nothing to
re-export.

Data gets the same treatment.  Each entry of a class's ``__slots__`` must
be read as an attribute (``series.slices``, not an assignment to it)
somewhere in ``src/germkit`` or ``scripts/``; a field the program fills and
never reads keeps its data alive for nothing.  The records declare their
fields in ``__slots__`` (``test_every_record_declares_its_slots``), so the
check sees every field.

The check matches names, not bindings, so it is permissive: a method whose
name another definition shares (``bracket``, ``zero``, ``eval``) passes as
soon as either is referenced.  It catches definitions whose name nothing in
the program mentions, not every unreached one.

``ALLOWED`` lists the exceptions, each with the reason it stays.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "germkit"
SCRIPTS = ROOT / "scripts"

ALLOWED: dict[str, str] = {}


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced, as a bare name or an attribute,
    inside ``node``."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, node) of each top-level function and class and
    of each method that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _module_names(tree: ast.Module, module: str):
    """(qualified name, name, statement) of each name that a top-level
    assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    yield f"{module}.{sub.id}", sub.id, node


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each attribute name is read (not assigned) inside ``node``."""
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def _is_slots(item: ast.stmt) -> bool:
    return isinstance(item, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
    )


def _data_fields(tree: ast.Module, module: str):
    """(qualified name, name) of each ``__slots__`` entry of the top-level
    classes."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if _is_slots(item):
                for elt in item.value.elts:
                    yield f"{module}.{node.name}.{elt.value}", elt.value


def _entry_point() -> str:
    """The one ``name = "module:attr"`` line of ``[project.scripts]``, read
    as text: ``tomllib`` needs Python 3.11, the project supports 3.10."""
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    section = lines[lines.index("[project.scripts]") + 1 :]
    entries = []
    for line in section:
        if line.startswith("["):
            break
        if "=" in line:
            entries.append(line.split("=", 1)[1].strip().strip('"'))
    (target,) = entries
    module, attr = target.split(":")
    return f"{module.removeprefix('germkit.')}.{attr}"


def unreached() -> list[str]:
    """Qualified names of the definitions and module-level names that meet
    none of the conditions, and of the data fields that nothing reads."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    scripts = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SCRIPTS.glob("*.py"))
    ]
    in_src = sum((_references(tree) for tree in trees.values()), Counter())
    in_scripts = sum((_references(tree) for tree in scripts), Counter())
    reads = sum(
        (_attribute_reads(tree) for tree in [*trees.values(), *scripts]), Counter()
    )
    entry = _entry_point()
    out = []
    for module, tree in trees.items():
        named = [*_definitions(tree, module), *_module_names(tree, module)]
        for qualified, name, node in named:
            outside = in_src[name] - _references(node)[name]
            if outside or in_scripts[name] or qualified == entry:
                continue
            out.append(qualified)
        out.extend(q for q, name in _data_fields(tree, module) if not reads[name])
    return out


def test_every_definition_is_reached_from_the_program():
    flagged = [name for name in unreached() if name not in ALLOWED]
    assert not flagged, (
        "only tests reach these; move them into tests/conftest.py or delete "
        f"them: {flagged}"
    )


def test_the_package_root_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, f"src/germkit/__init__.py re-exports names: {imports}"


def test_every_record_declares_its_slots():
    # The data check above sees only ``__slots__`` entries, so a class that
    # kept its fields in a ``__dict__`` would escape it.  ``cli.Run`` keeps
    # one for its ``cached_property`` stages; the exceptions and
    # ``scalars.ParsedScalars`` (a dict) have bases of their own.
    without = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
        and all(ast.unparse(base) == "Frozen" for base in node.bases)
        and not any(_is_slots(item) for item in node.body)
    ]
    assert without == ["cli.Run"]


def test_every_allowed_exception_is_still_needed():
    stale = sorted(set(ALLOWED) - set(unreached()))
    assert not stale, f"ALLOWED names that the program now reaches: {stale}"
