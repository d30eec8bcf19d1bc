"""The unused-import and unused-private-definition check that CI runs
over ``src/abcu``, ``tests`` and ``tools`` (``tools/unused_imports.py``):
each is clean, and the check finds what it should."""

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


def test_tests_and_tools_have_no_unused_imports(capsys):
    assert unused_imports.main([str(ROOT / "tests"), str(ROOT / "tools")]) == 0
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


def test_finds_unused_private_definitions():
    sources = {
        "a.py": (
            "import itertools\n"
            "_TABLE = {}\n"
            "_UNREAD: int = 3\n"
            "__version__ = '1'\n"
            "def _helper(x):\n"
            "    return _helper(x - 1) if x else _TABLE\n"
            "def _lonely(x):\n"
            "    return _lonely(x - 1) if x else 0\n"
            "class _Shape:\n"
            "    pass\n"
            "def public():\n"
            "    return _Shape()\n"
        ),
        "b.py": (
            "from a import _helper\n"
            "import a\n"
            "def _by_attribute():\n"
            "    return a._ORPHAN\n"
            "_by_attribute()\n"
            "_ORPHAN = _helper\n"
        ),
    }
    assert unused_imports.unused_private(sources) == [
        ("a.py", 3, "_UNREAD"), ("a.py", 7, "_lonely"),
    ]


def test_main_reports_private_definitions(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def _dead():\n    return 1\n", encoding="utf-8")
    assert unused_imports.main([str(tmp_path)]) == 1
    assert "'_dead' defined but never read" in capsys.readouterr().out
