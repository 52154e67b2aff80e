"""The package holds what a run uses: every top-level name a module of
``src/snnadv`` defines is read by the package itself, not only by tests.

The scan reads the syntax tree, not the text, so a name mentioned in a
docstring or a comment is not a reader. ``__init__.py`` is the package's face:
it re-exports names, so it neither defines nor reads for this check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "snnadv"

# names no module reads yet, each with the reason it stays
KEPT = {"ann.build_cnn": "ROADMAP item 4 builds the BiT-like CNN family on it"}


def _bound(stmt) -> set:
    """The names one top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _read(stmt, module: str, aliases: dict) -> set:
    """The (module, name) pairs one statement reads: a bare name from its own
    module, ``alias.name`` on a module it imported, ``from .other import name``."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found.update((node.module, alias.name) for alias in node.names)
    return found


def unread_names() -> list:
    """``module.name`` for every top-level name no other statement of the
    package reads."""
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module, tree = path.stem, ast.parse(path.read_text())
        aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for alias in node.names}
        for stmt in tree.body:
            own = {(module, name) for name in _bound(stmt)}
            defined |= own
            read |= _read(stmt, module, aliases) - own
    return sorted(f"{module}.{name}" for module, name in defined - read)


def test_every_src_name_has_a_src_reader():
    unread = unread_names()
    extra = [name for name in unread if name not in KEPT]
    assert not extra, f"read by no module of src/snnadv: {', '.join(extra)}"
    assert set(KEPT) <= set(unread), "a kept name has a reader now; drop it from KEPT"
