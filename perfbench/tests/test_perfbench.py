"""Tests of the benchmark itself: smoke runs, statistics, failure counting,
deadlines and tracing.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness, oracle, run, workloads  # noqa: E402
from perfbench.harness import CliOutcome, LoopResult, Query  # noqa: E402
from perfbench.tracing import PER_LAYER, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    harness.install_deadline_handler()
    return run.fresh_import()


def _build(lib, name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](lib, seed, tmp_path / name)


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_subset_of_each_workload_is_correct(lib, name, tmp_path):
    wl = _build(lib, name, tmp_path)
    try:
        cheap = wl.queries[:6]
        loop = harness.run_loop(cheap, None, passes=2)
        assert harness.gate(cheap, loop, None) == {}
        assert harness.count_failures(loop, {}) == 0
        assert len(loop.latencies) == 12
    finally:
        wl.close()


def test_same_seed_same_inputs(lib, tmp_path):
    a = _build(lib, "poly-scale", tmp_path, seed=5)
    b = _build(lib, "poly-scale", tmp_path, seed=5)
    c = _build(lib, "poly-scale", tmp_path, seed=6)
    assert [q.qid for q in a.queries] == [q.qid for q in b.queries]
    assert [q.qid for q in a.queries] != [q.qid for q in c.queries]
    first = [q for q in a.queries if q.qid.startswith("dense-pjr")][0]
    again = [q for q in b.queries if q.qid == first.qid][0]
    assert first.call() == again.call()


def test_result_line_matches_the_benchmark_contract(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli-docs",
         "--seed", "4", "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# statistics


def test_percentile_matches_inclusive_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.9, 7.0, 0.2]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    assert harness.percentile(values, 50) == pytest.approx(statistics.median(values))
    assert harness.percentile(values, 90) == pytest.approx(cuts[8])
    assert harness.percentile(values, 10) == pytest.approx(cuts[0])
    assert harness.percentile([2.0], 90) == 2.0
    assert harness.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)


def test_loop_runs_whole_passes():
    calls = []
    queries = [Query(str(i), lambda i=i: calls.append(i), lambda value: None, 5.0)
               for i in range(5)]
    loop = harness.run_loop(queries, seconds=0.0)
    assert calls == [0, 1, 2, 3, 4] and loop.passes == 1
    assert len(loop.calibration) == len(loop.latencies) + 1
    loop = harness.run_loop(queries, passes=3)
    assert loop.qids == [q.qid for q in queries] * 3


def test_latencies_are_scaled_by_the_nearby_kernel_times():
    ref = harness.REFERENCE_KERNEL_S
    # The machine runs at half speed for the first two queries, then at
    # the reference speed; the window is three kernels either side.
    loop = LoopResult(latencies=[0.010] * 8, calibration=[2 * ref] * 3 + [ref] * 6)
    scaled = harness.scaled_latencies(loop)
    assert scaled[0] == pytest.approx(0.005)
    assert scaled[-1] == pytest.approx(0.010)
    assert harness.speed_scale([ref, 3 * ref, 2 * ref]) == pytest.approx(0.5)


def test_failed_count_covers_status_and_gate_problems():
    loop = LoopResult(
        latencies=[0.1] * 6,
        statuses=["ok", "ok", "deadline", "error", "ok", "ok"],
        qids=["a", "b", "a", "c", "b", "d"],
    )
    assert harness.count_failures(loop, {}) == 2
    assert harness.count_failures(loop, {"b": "wrong"}) == 4


# ---------------------------------------------------------------------------
# failures are counted


def _fixed(value):
    return lambda: value


def test_injected_wrong_answer_is_failed(lib, tmp_path):
    wl = _build(lib, "enum-exact", tmp_path)
    q = next(q for q in wl.queries if q.qid.startswith("prob-jr-cp"))
    right = q.call()
    wrong = type(right)(right.value + Fraction(1, 7), right.method, right.counts)
    bad = Query(q.qid, _fixed(wrong), q.check, 5.0)
    loop = harness.run_loop([bad], None, passes=3)
    problems = harness.gate([bad], loop, None)
    assert q.qid in problems
    assert harness.count_failures(loop, problems) == 3
    assert harness.gate([q], harness.run_loop([q], None, passes=1), None) == {}


def test_injected_wrong_witness_is_failed(lib, tmp_path):
    wl = _build(lib, "poly-scale", tmp_path)
    q = next(q for q in wl.queries if q.qid.startswith("nec-jr-cp"))
    right = q.call()
    assert harness.gate([q], harness.run_loop([q], None, passes=1), None) == {}
    if right.witness_profile is not None:
        pp = right.witness_profile
        fake = type(pp)(pp.profile, pp.prob / 2)
        wrong = type(right)(right.answer, right.method, fake, right.witness_violation)
    else:
        wrong = type(right)(not right.answer, right.method)
    bad = Query(q.qid, _fixed(wrong), q.check, 5.0)
    assert q.qid in harness.gate([bad], harness.run_loop([bad], None, passes=1), None)


def test_unexpected_exception_is_failed():
    def boom():
        raise ValueError("boom")

    q = Query("boom", boom, lambda value: None, 5.0)
    loop = harness.run_loop([q], None, passes=2)
    problems = harness.gate([q], loop, None)
    assert loop.statuses == ["error", "error"]
    assert "ValueError" in problems["boom"]
    assert harness.count_failures(loop, problems) == 2


def test_expected_exception_is_a_success(lib):
    model = lib.tva_model(lib.Instance(2, 2, 1), [["1/2", "1/2"], ["1/2", "1/2"]])
    q = Query("budget", lambda: lib.jr_probability(model, (0,), budget=2),
              lambda exc: None if isinstance(exc, lib.BudgetError) else "no budget error",
              5.0, (lib.BudgetError,))
    loop = harness.run_loop([q], None, passes=1)
    assert loop.statuses == ["ok"]
    assert harness.gate([q], loop, None) == {}


def test_deadline_overrun_is_abandoned_and_failed():
    harness.install_deadline_handler()

    def spin():
        while True:
            pass

    q = Query("spin", spin, lambda value: None, 0.05)
    start = time.perf_counter()
    loop = harness.run_loop([q], None, passes=2)
    assert time.perf_counter() - start < 1.0
    assert loop.statuses == ["deadline", "deadline"]
    assert harness.count_failures(loop, harness.gate([q], loop, None)) == 2


def test_recorded_answer_mismatch_is_failed():
    q = Query("x", _fixed(Fraction(1, 3)), lambda value: None, 5.0)
    loop = harness.run_loop([q], None, passes=1)
    assert harness.gate([q], loop, {"x": harness.digest(Fraction(1, 3))}) == {}
    assert "recorded" in harness.gate([q], loop, {"x": harness.digest(Fraction(1, 4))})["x"]


def test_cli_json_is_compared_parsed_whatever_its_size():
    doc = {"entries": [{"prob": "1/3", "profile": [[0, 1], [2]]}] * 60_000}
    compact = json.dumps(doc)
    pretty = json.dumps(doc, indent=2)
    assert len(pretty) > 1 << 20
    assert harness.digest(CliOutcome(0, pretty, "")) == harness.digest(CliOutcome(0, compact, ""))
    assert harness.digest(CliOutcome(0, compact, "")) != harness.digest(
        CliOutcome(0, compact.replace("1/3", "1/4", 1), ""))


def test_generated_documents_are_not_recorded():
    for path in (ROOT / "perfbench" / "expected").glob("*.json"):
        for answers in json.loads(path.read_text()).values():
            assert not [qid for qid in answers if qid.startswith(run.UNRECORDED)]


def test_method_tags_are_not_gated(lib):
    model = lib.tva_model(lib.Instance(2, 2, 1), [["1/2", "0"], ["1", "1/2"]])
    result = lib.jr_probability(model, (0,))
    renamed = type(result)(result.value, "dp-voters", result.counts)
    assert harness.digest(result) == harness.digest(renamed)


# ---------------------------------------------------------------------------
# oracle and tracing


def test_oracle_agrees_with_definitions_on_a_small_case():
    # 4 voters, k = 2: quota 2.  Voters 0 and 1 share candidate 2 and
    # ignore the committee {0, 1}, so JR, PJR and EJR all fail.
    prof = tuple(oracle.mask(s) for s in ([2], [2, 3], [0], [1]))
    w = oracle.mask([0, 1])
    for ok in (oracle.jr_ok, oracle.pjr_ok, oracle.ejr_ok):
        assert not ok(4, 2, 4, prof, w)
    assert oracle.jr_ok(4, 2, 4, prof, oracle.mask([0, 2]))
    assert oracle.violation_real(4, 2, prof, w, "jr", 1, (0, 1), (2,))
    assert not oracle.violation_real(4, 2, prof, w, "jr", 1, (0, 2), (2,))


def _ladder_lib(lib, fail_at=None):
    """``lib`` with a ``jr_probability`` that is exact on small models and
    instant on large ones, raising ``BudgetError`` from ``fail_at`` entries."""

    def jr_probability(model, w, *, budget=None):
        assert budget is not None and budget >= 2 ** max(workloads.FRONTIER_LADDER)
        unknowns = sum(v not in (0, 1) for row in model.probs for v in row)
        if fail_at is not None and unknowns >= fail_at:
            raise lib.BudgetError(2**unknowns, budget)
        if unknowns <= 12:
            return lib.jr_probability(model, w, budget=budget)
        return types.SimpleNamespace(value=None)

    return types.SimpleNamespace(Instance=lib.Instance, cp_model=lib.cp_model,
                                 BudgetError=lib.BudgetError, jr_probability=jr_probability)


def test_frontier_ladder_measures_time_not_the_budget(lib):
    best, steps = workloads.frontier(_ladder_lib(lib), 3, harness.call_with_deadline,
                                     harness.DeadlineExceeded)
    assert best == max(workloads.FRONTIER_LADDER)
    assert steps == [(u, "ok") for u in workloads.FRONTIER_LADDER]
    best, steps = workloads.frontier(_ladder_lib(lib, fail_at=32), 3,
                                     harness.call_with_deadline, harness.DeadlineExceeded)
    assert best == 16 and steps[-1] == (32, "budget")


def test_tracer_spans_and_self_time(lib, tmp_path):
    wl = _build(lib, "enum-exact", tmp_path)
    queries = [q for q in wl.queries if q.qid.startswith(("prob-pjr", "max-jr"))][:3]
    originals = (lib.axiom_probability, lib.decide.enumerate_plausible)
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.probability.enumerate_plausible is not originals[1]
        captured = lib.decide.enumerate_plausible
        loop = harness.run_loop(queries, None, passes=1, hooks=tracer)
    finally:
        tracer.uninstall()
    assert (lib.axiom_probability, lib.decide.enumerate_plausible) == originals
    spans, profiles = len(tracer.spans), tracer.counts["enum.profiles"]
    model = lib.tva_model(lib.Instance(2, 2, 1), [["1/2", "0"], ["1", "1/2"]])
    assert len(list(captured(model))) == 4
    assert (len(tracer.spans), tracer.counts["enum.profiles"]) == (spans, profiles)
    assert harness.gate(queries, loop, None) == {}
    values = tracer.metrics(1.0, 0)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["uncertainty.enum_profiles"] > 0
    assert values["axioms.pjr_checks"] + values["axioms.jr_checks"] > 0
    assert values["probability.calls"] >= len(queries)
    self_total = sum(tracer.self_s.values())
    assert self_total == pytest.approx(tracer.query_s, rel=1e-6)
    assert {s[5] for s in tracer.spans} == {q.qid for q in queries}


def test_benchmark_json_lists_the_per_layer_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == dict(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(run.END_TO_END)
