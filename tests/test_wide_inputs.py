"""Wide inputs: a valid document with 100,000 candidates (a lottery, a
joint model, a certain joint profile and a three-valued matrix) ends in
an exit status of 0, 2 or 3 on every command, never in a traceback.

Each command runs in a child process whose address space is capped
(``RLIMIT_AS``, set in the child only), so a path that needs memory
quadratic in the number of candidates fails here as ``MemoryError``
instead of exhausting the machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")
if not hasattr(resource, "RLIMIT_AS"):
    pytest.skip("no RLIMIT_AS on this platform", allow_module_level=True)

SRC = Path(__file__).parent.parent / "src"
CANDIDATES = 100_000
ADDRESS_SPACE = 1_500_000_000  # bytes

# Each document's commands.
COMMANDS = {
    "lottery": (
        ("prob", "jr"),
        ("prob", "ejr"),
        ("decide", "poss", "jr"),
        ("decide", "nec", "jr"),
        ("exists", "poss-jr"),
        ("max", "jr"),
        ("max", "pjr"),
    ),
    "joint": (
        ("validate",),
        ("convert", "to-joint"),
        ("prob", "jr"),
        ("prob", "ejr"),
        ("decide", "poss", "jr"),
        ("decide", "nec", "jr"),
        ("exists", "poss-jr"),
        ("exists", "nec-jr"),
        ("max", "jr"),
        ("max", "ejr"),
    ),
    "certain": (
        ("check", "jr"),
        ("check", "pjr"),
        ("check", "ejr"),
        ("sizejr",),
    ),
    "three-valued": (
        ("count",),
        ("prob", "ejr"),
    ),
}
# Commands that must answer, not only end cleanly.
MUST_ANSWER = {("lottery", ("prob", "jr")), ("lottery", ("max", "pjr")), ("joint", ("max", "ejr"))}
CASES = [(name, argv) for name, commands in COMMANDS.items() for argv in commands]
# The lottery's commands keep their ids of old, "prob-jr" and so on.
IDS = ["-".join(argv if name == "lottery" else (name,) + argv) for name, argv in CASES]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _documents(m):
    """Documents over ``m`` candidates, by name: a 2-voter lottery and a
    2-voter joint model with committee [0]; a certain 2-voter joint
    profile with committee [0, 1] and size 1; a 2-voter three-valued
    matrix with three unknown entries per row and committee [0]."""
    instance = {"voters": 2, "candidates": m, "committee_size": 1}
    lottery = {"kind": "lottery", "voters": [
        [{"prob": "1/2", "set": [1, 2]}, {"prob": "1/2", "set": [m - 1]}],
        [{"prob": "1/3", "set": [5, m // 2]}, {"prob": "2/3", "set": [0, 1]}],
    ]}
    joint = {"kind": "joint", "entries": [
        {"prob": "1/4", "profile": [[1, 2], [m - 1]]},
        {"prob": "3/4", "profile": [[5, m // 2], [0, m // 2]]},
    ]}
    certain = {"kind": "joint", "entries": [{"prob": "1", "profile": [[1, m - 1], [1, m // 2]]}]}
    rows = [["0"] * m for _ in range(2)]
    for row, unknown in zip(rows, ((1, 2, m - 1), (0, 5, m // 2))):
        row[1] = "1"
        for c in unknown:
            row[c] = "1/2"
    matrix = {"kind": "three-valued", "rows": rows}
    return {
        "lottery": {"instance": instance, "model": lottery, "committee": [0]},
        "joint": {"instance": instance, "model": joint, "committee": [0]},
        "certain": {"instance": dict(instance, committee_size=2), "model": certain,
                    "committee": [0, 1], "size": 1},
        "three-valued": {"instance": instance, "model": matrix, "committee": [0]},
    }


@pytest.fixture(scope="module")
def wide_documents(tmp_path_factory):
    """Each document of ``_documents`` over 100,000 candidates, by name,
    as a path."""
    folder = tmp_path_factory.mktemp("wide")
    paths = {}
    for name, doc in _documents(CANDIDATES).items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(dict(doc, format="abcu/1")))
    return paths


@pytest.mark.parametrize("name, argv", CASES, ids=IDS)
def test_exit_status_and_no_traceback(wide_documents, name, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "abcu", *argv, str(wide_documents[name])],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=600,
    )
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode in (0, 2, 3), (done.returncode, done.stderr)
    if (name, argv) in MUST_ANSWER:
        assert done.returncode == 0, done.stderr
    if (name, argv) == ("lottery", ("prob", "jr")):
        assert "method: dp-voters" in done.stdout
