"""Machine reports compared byte for byte with recorded files.

Each case runs one ``abcu`` query with ``--witness --output machine`` on
a document from ``docs/examples`` or ``tests/golden`` and compares its
standard output with ``tests/golden/reports/<document>/<query>.out``.
The files pin values, method tags, witnesses and their scan order, so a
change to any solver path that alters a report fails here on every
Python the suite runs on.

To record the files again (only when a report is meant to change)::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from abcu.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
REPORTS = GOLDEN / "reports"
DOCUMENTS = sorted(ROOT.glob("docs/examples/*.json")) + sorted(GOLDEN.glob("*.json"))
FORCE = "--force-enumeration"
QUERIES = (
    [("prob", axiom) for axiom in ("jr", "pjr", "ejr")]
    + [("decide", mode, axiom) for mode in ("poss", "nec") for axiom in ("jr", "pjr", "ejr")]
    + [("max", axiom) for axiom in ("jr", "pjr", "ejr")]
    + [("exists", question) for question in ("poss-jr", "nec-jr", "nec-pjr", "nec-ejr")]
    # The scan orders of the forced deciders, which the default paths bypass.
    + [("decide", mode, axiom, FORCE) for mode in ("poss", "nec") for axiom in ("jr", "pjr", "ejr")]
    + [("exists", question, FORCE) for question in ("nec-jr", "nec-pjr", "nec-ejr")]
)
CASES = [(doc, query) for doc in DOCUMENTS for query in QUERIES]


def _report(doc: Path, query: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*query, str(doc), "--witness", "--output", "machine"])
    return code, out.getvalue()


def _name(query: tuple[str, ...]) -> str:
    """``decide-poss-jr``, or ``decide-poss-jr-force-enumeration`` with the flag."""
    return "-".join(part.lstrip("-") for part in query)


def _golden_file(doc: Path, query: tuple[str, ...]) -> Path:
    return REPORTS / doc.stem / (_name(query) + ".out")


@pytest.mark.parametrize(
    "doc, query", CASES, ids=[f"{doc.stem}-{_name(query)}" for doc, query in CASES]
)
def test_report_matches_golden_file(doc, query):
    code, out = _report(doc, query)
    assert code == 0
    assert out == _golden_file(doc, query).read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    recorded = {path for path in REPORTS.rglob("*.out")}
    assert recorded == {_golden_file(doc, query) for doc, query in CASES}


def record() -> None:
    for doc, query in CASES:
        code, out = _report(doc, query)
        if code != 0:
            raise SystemExit(f"{doc.name} {' '.join(query)}: exit {code}")
        path = _golden_file(doc, query)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(out, encoding="utf-8")
    print(f"recorded {len(CASES)} reports under {REPORTS}")


if __name__ == "__main__":
    sys.exit(record())
