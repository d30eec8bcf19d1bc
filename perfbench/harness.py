"""Closed-loop query runner: deadlines, the timed loop, the gate and statistics.

One client runs the next query only after the previous one returned.
A query overrunning its deadline is abandoned by ``SIGALRM`` raising
:class:`DeadlineExceeded` inside the call, so the loop never waits a
slow call out.  All of this runs in the benchmark's single process and
thread.

Between queries the loop times a fixed calibration kernel, so that each
query's wall time can be scaled to a reference machine speed (see
:func:`scaled_latencies`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import os
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable


class DeadlineExceeded(BaseException):
    """Raised inside a query when its deadline passes.

    A ``BaseException`` so that no ``except Exception`` in the program
    under test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def call_with_deadline(fn: Callable[[], object], seconds: float):
    """Run ``fn`` and abandon it with :class:`DeadlineExceeded` after ``seconds``."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Query:
    """One replayable query.

    ``check`` judges the query's first outcome against an independent
    source and returns an error message, or None when it is right.
    ``raises`` lists the exception types that are a correct outcome.
    """

    qid: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    deadline_s: float
    raises: tuple[type, ...] = ()


@dataclass
class CliOutcome:
    """What one in-process ``abcu.cli.main`` call produced."""

    code: int
    stdout: str
    stderr: str


OK, ERROR, DEADLINE = "ok", "error", "deadline"


def execute(q: Query) -> tuple[str, float, object]:
    """Run ``q`` once: ``(status, seconds, value or exception)``."""
    value: object = None
    start = time.perf_counter()
    try:
        value = call_with_deadline(q.call, q.deadline_s)
        status = OK
    except DeadlineExceeded:
        status = DEADLINE
    except q.raises as exc:
        value, status = exc, OK
    except Exception as exc:  # any other exception is a failed query
        value, status = exc, ERROR
    return status, time.perf_counter() - start, value


# ---------------------------------------------------------------------------
# outcomes


def canonical(value):
    """JSON-able form of a query outcome with ``method`` tags removed.

    Method tags are recorded by the trace but never gated, because
    later changes add new ones.  For the same reason an expected error
    is reduced to its type or exit code: its message may be reworded.
    """
    if isinstance(value, CliOutcome):
        if value.code != 0:
            return {"code": value.code}
        out = value.stdout
        try:
            out = canonical(json.loads(out))
        except ValueError:
            pass
        return {"code": value.code, "stdout": out}
    if isinstance(value, BaseException):
        return {"raises": type(value).__name__}
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name != "method"}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items() if k != "method"}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def same_outcome(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


# ---------------------------------------------------------------------------
# the loop


@dataclass
class LoopResult:
    """Per-execution records of one loop.

    ``calibration`` holds one kernel time before each execution and one
    after the last, so execution ``j`` lies between entries ``j`` and
    ``j + 1``.
    """

    latencies: list[float] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    qids: list[str] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    passes: int = 0
    first: dict = field(default_factory=dict)
    inconsistent: set = field(default_factory=set)


def run_loop(queries: list[Query], seconds: float | None = None, passes: int | None = None,
             hooks=None) -> LoopResult:
    """Replay whole passes of ``queries`` in order.

    Stops after ``passes`` passes, or after the first pass that ends
    once ``seconds`` have elapsed, so every run samples the same
    multiset of queries.  ``hooks`` (a tracer) is told where each query
    begins and ends.  Each repeat of a query must reproduce its first
    outcome exactly.
    """
    if seconds is None and passes is None:
        raise ValueError("run_loop needs seconds or passes")
    res = LoopResult()
    start = time.perf_counter()
    res.calibration.append(calibrate())
    while True:
        for q in queries:
            if hooks is not None:
                hooks.begin_query(q.qid)
            status, seconds_taken, value = execute(q)
            if hooks is not None:
                hooks.end_query(value)
            res.calibration.append(calibrate())
            res.latencies.append(seconds_taken)
            res.statuses.append(status)
            res.qids.append(q.qid)
            if status != DEADLINE:
                if q.qid not in res.first:
                    res.first[q.qid] = (status, value)
                elif not same_outcome(res.first[q.qid][1], value):
                    res.inconsistent.add(q.qid)
        res.passes += 1
        if passes is not None and res.passes >= passes:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    res.elapsed = time.perf_counter() - start
    return res


def gate(queries: list[Query], loop: LoopResult, recorded: dict | None) -> dict[str, str]:
    """Check each query's first outcome; return ``{qid: problem}``.

    A query that overran its deadline on every execution has no outcome
    to check; its overruns are already counted as failures.  ``recorded``
    maps query ids to outcome digests taken at an earlier commit.
    """
    problems: dict[str, str] = {}
    for q in queries:
        if q.qid not in loop.first:
            continue
        status, value = loop.first[q.qid]
        if status == ERROR:
            problems[q.qid] = f"unexpected {type(value).__name__}: {value}"
            continue
        try:
            verdict = q.check(value)
        except Exception as exc:  # a crashing check is a wrong answer
            verdict = f"check raised {type(exc).__name__}: {exc}"
        if verdict is not None:
            problems[q.qid] = verdict
        elif q.qid in loop.inconsistent:
            problems[q.qid] = "repeats disagree with the first outcome"
        elif recorded and q.qid in recorded and recorded[q.qid] != digest(value):
            problems[q.qid] = "outcome differs from the recorded answer"
    return problems


def count_failures(loop: LoopResult, problems: dict[str, str]) -> int:
    return sum(
        1 for qid, status in zip(loop.qids, loop.statuses)
        if status != OK or qid in problems
    )


# ---------------------------------------------------------------------------
# machine speed
#
# The virtual machines this benchmark runs on change speed by up to 2x
# within seconds, as neighbours load the host; thread CPU time slows in
# step with wall time, so it does not remove the effect.  Each query's
# wall time is therefore divided by the speed of a fixed, library-free
# calibration kernel timed just before and after it, and reported at the
# reference speed at which the kernel takes REFERENCE_KERNEL_S.  A change
# that makes abcu slower still reads slower by the same share.

REFERENCE_KERNEL_S = 0.001  # about the median on the 2-vCPU VM where this was defined
CALIBRATION_WINDOW = 3  # kernel samples on each side of a query


def _kernel():
    """Pure-Python work of the kinds abcu does: ``Fraction`` sums,
    bit-mask loops over combinations, and JSON round trips."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 29 + 1)
    hits = 0
    for combo in itertools.combinations(range(12), 4):
        bits = 0
        for c in combo:
            bits |= 1 << c
        hits += (bits & 0xAAA).bit_count()
    doc = json.loads(json.dumps({"rows": [[str(i), "1/2", "0"] for i in range(60)]}))
    return total, hits, doc


def calibrate() -> float:
    """Wall time of one calibration kernel, with the collector paused so
    that the time does not depend on the size of the workload's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(samples: list[float]) -> float:
    """Factor that takes times measured beside ``samples`` to the
    reference speed."""
    return REFERENCE_KERNEL_S / median(samples)


def scaled_latencies(loop: LoopResult) -> list[float]:
    """Each execution's wall time at the reference speed, using the
    kernel samples within ``CALIBRATION_WINDOW`` on either side of it."""
    cal = loop.calibration
    w = CALIBRATION_WINDOW
    return [t * speed_scale(cal[max(0, j - w + 1):j + w + 1])
            for j, t in enumerate(loop.latencies)]


# ---------------------------------------------------------------------------
# statistics and context


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs, read from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields and fields[0] == "cpu" and len(fields) > 8 else None


def git_sha(root: Path) -> str:
    """HEAD of the repository at ``root`` read from ``.git``, or ``unknown``."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(root: Path) -> dict:
    import platform

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
