"""Report imports that a module never reads, standard library only.

Usage::

    python tools/unused_imports.py src/abcu

Every ``*.py`` file under the given directories is parsed with ``ast``,
except ``__init__.py``, whose imports are the package's re-exports.  A
name bound by ``import`` or ``from ... import`` (``from __future__``
aside) counts as used when the module reads it anywhere as a name, or
lists it in ``__all__``.  Exits 1 and lists each unused import, else
exits 0.
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


def main(argv: list[str]) -> int:
    found = 0
    for root in argv or ["src/abcu"]:
        for path in sorted(Path(root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                print(f"{path}:{line}: {name!r} imported but unused")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
