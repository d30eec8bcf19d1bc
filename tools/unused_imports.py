"""Report imports that a module never reads, and private module-level
definitions that nothing in the package reads, standard library only.

Usage::

    python tools/unused_imports.py src/abcu

Every ``*.py`` file under the given directories is parsed with ``ast``.

* Imports: a name bound by ``import`` or ``from ... import``
  (``from __future__`` aside) counts as used when the module reads it
  anywhere as a name, or lists it in ``__all__``.  ``__init__.py`` is
  skipped, since its imports are the package's re-exports.
* Private definitions: a module-level function, class or assigned name
  that starts with one underscore (``_helper``, ``_TABLE``; dunders
  aside) counts as used when some file under the same directory reads
  it as a name or an attribute, or imports it, outside its own
  definition, so a function that only calls itself is unused.

Exits 1 and lists each finding, else exits 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each import of ``source`` that is never read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    """The private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if _private(name)]


def _read(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, as names, attributes or imports."""
    read: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unused_private(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(file, line, name)`` for each private module-level definition in
    ``sources`` (file name -> source) that no file reads outside the
    definition itself."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _defined(stmt)
            defined += [(path, stmt.lineno, name) for name in names]
            read |= _read(stmt) - set(names)
    return sorted(entry for entry in defined if entry[2] not in read)


def main(argv: list[str]) -> int:
    found = 0
    for root in argv or ["src/abcu"]:
        paths = sorted(Path(root).rglob("*.py"))
        for path in paths:
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                print(f"{path}:{line}: {name!r} imported but unused")
                found += 1
        sources = {str(path): path.read_text(encoding="utf-8") for path in paths}
        for path, line, name in unused_private(sources):
            print(f"{path}:{line}: {name!r} defined but never read under {root}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
