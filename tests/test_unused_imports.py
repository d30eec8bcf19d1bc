"""The unused-import check that CI runs over ``src/abcu``
(``tools/unused_imports.py``): the package is clean, and the check finds
what it should."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location(
    "unused_imports", ROOT / "tools" / "unused_imports.py"
)
unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unused_imports)


def test_src_has_no_unused_imports(capsys):
    assert unused_imports.main([str(ROOT / "src" / "abcu")]) == 0
    assert capsys.readouterr().out == ""


def test_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json.decoder\n"
        "from decimal import Decimal as D, Context\n"
        "from typing import Iterator\n"
        "__all__ = ['D']\n"
        "def f(x: Iterator[int]) -> Context:\n"
        "    return json.decoder\n"
    )
    assert unused_imports.unused_imports(source) == [(2, "os"), (3, "osp")]
