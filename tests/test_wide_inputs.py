"""Wide inputs: a valid document with 100,000 candidates ends in an exit
status of 0, 2 or 3 on every command, never in a traceback.

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

COMMANDS = (
    ("prob", "jr"),
    ("prob", "ejr"),
    ("decide", "poss", "jr"),
    ("decide", "nec", "jr"),
    ("exists", "poss-jr"),
    ("max", "jr"),
)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.fixture(scope="module")
def wide_lottery(tmp_path_factory):
    """A 2-voter lottery over 100,000 candidates with committee [0]."""
    m = CANDIDATES
    doc = {
        "format": "abcu/1",
        "instance": {"voters": 2, "candidates": m, "committee_size": 1},
        "model": {"kind": "lottery", "voters": [
            [{"prob": "1/2", "set": [1, 2]}, {"prob": "1/2", "set": [m - 1]}],
            [{"prob": "1/3", "set": [5, m // 2]}, {"prob": "2/3", "set": [0, 1]}],
        ]},
        "committee": [0],
    }
    path = tmp_path_factory.mktemp("wide") / "lottery.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("argv", COMMANDS, ids=["-".join(argv) for argv in COMMANDS])
def test_exit_status_and_no_traceback(wide_lottery, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "abcu", *argv, str(wide_lottery)],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=600,
    )
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode in (0, 2, 3), (done.returncode, done.stderr)
    if argv == ("prob", "jr"):
        assert done.returncode == 0
        assert "method: dp-voters" in done.stdout
