"""Benchmark runner for abcu.

    python3 perfbench/run.py --workload enum-exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --summary [--seed 1] [--seconds 10] [--trace 0|1]

One workload per process: a closed loop with one client, replaying the
workload's seeded query set.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced pass.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--summary``
runs every workload in its own process, prints every metric by name and
unit, and exits 1 if any query answered wrongly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402
from perfbench.harness import median  # noqa: E402

WORKLOAD_NAMES = ("enum-exact", "poly-scale", "cli-docs")
SETUP_REPEATS = 5
SETUP_KERNELS = 10  # calibration kernels timed on each side of a set-up
END_TO_END = (
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("frontier_unknowns", "count"),
)


def fresh_import():
    """Import abcu from scratch, so that set-up time includes the import."""
    for name in [n for n in sys.modules if n == "abcu" or n.startswith("abcu.")]:
        del sys.modules[name]
    importlib.import_module("abcu.cli")
    return sys.modules["abcu"]


def recorded_answers(workload: str, seed: int) -> dict | None:
    path = ROOT / "perfbench" / "expected" / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def run_defects(wl) -> list[tuple[str, str]]:
    """The known-defect probe: ``(query id, problem)`` for each failure."""
    out = []
    for q in wl.defects:
        status, seconds, value = harness.execute(q)
        if status == harness.DEADLINE:
            out.append((q.qid, f"deadline {q.deadline_s:g} s overrun"))
        elif status == harness.ERROR:
            out.append((q.qid, f"{type(value).__name__} after {seconds:.3f} s"))
        else:
            problem = q.check(value)
            if problem:
                out.append((q.qid, problem))
    return out


def setup(workload: str, seed: int, workdir: Path, repeats: int, tracer=None):
    """Import abcu and build every input, ``repeats`` times; keep the last.

    Returns each set-up's wall time and that time at the reference speed,
    from calibration kernels timed just before and after it.
    """
    from perfbench.workloads import WORKLOADS

    times, scaled, wl = [], [], None
    for _ in range(repeats):
        if wl is not None:
            wl.close()
        kernels = [harness.calibrate() for _ in range(SETUP_KERNELS)]
        start = time.perf_counter()
        lib = fresh_import()
        if tracer is not None:
            tracer.install()
        wl = WORKLOADS[workload](lib, seed, workdir)
        times.append(time.perf_counter() - start)
        kernels += [harness.calibrate() for _ in range(SETUP_KERNELS)]
        scaled.append(times[-1] * harness.speed_scale(kernels))
    return lib, wl, times, scaled


def _print_metrics(rows) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import workloads
    from perfbench.tracing import PER_LAYER, Tracer

    harness.install_deadline_handler()
    steal0, load0 = harness.steal_ticks(), os.getloadavg()
    workdir = ROOT / "perfbench" / "_work" / f"{workload}-{os.getpid()}"
    tracer = Tracer() if trace else None
    lib, wl, setup_times, setup_scaled = setup(
        workload, seed, workdir, 1 if trace else SETUP_REPEATS, tracer)
    try:
        if trace:
            tracer.uninstall()
            plain = harness.run_loop(wl.queries, passes=1)
            tracer.install()
            loop = harness.run_loop(wl.queries, passes=1, hooks=tracer)
            tracer.uninstall()
        else:
            loop = harness.run_loop(wl.queries, seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gate_start = time.perf_counter()
        problems = harness.gate(wl.queries, loop, recorded_answers(workload, seed))
        gate_s = time.perf_counter() - gate_start
        failed = harness.count_failures(loop, problems)
        defects = run_defects(wl)
        frontier, steps = workloads.frontier(lib, seed, harness.call_with_deadline,
                                             harness.DeadlineExceeded)
    finally:
        wl.close()
    attempted = len(loop.latencies)
    latencies = harness.scaled_latencies(loop)
    steal1 = harness.steal_ticks()
    context = harness.run_context(ROOT) | {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loadavg_start": [round(x, 2) for x in load0],
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "queries_distinct": len(wl.queries), "passes": loop.passes,
        "loop_s": round(loop.elapsed, 3), "gate_s": round(gate_s, 3),
        "setup_runs_s": [round(t, 4) for t in setup_times],
        "kernel_ms_median": round(median(loop.calibration) * 1000, 4),
    }
    print("context " + json.dumps(context, sort_keys=True))
    for qid, problem in sorted(problems.items())[:20]:
        print(f"WRONG {qid}: {problem}")
    for qid, problem in defects:
        print(f"known defect {qid}: {problem}")
    print(f"frontier ladder: {steps}")
    if trace:
        overhead = sum(harness.scaled_latencies(plain)) / sum(latencies)
        values = tracer.metrics(overhead, len(defects))
        tracer.write(ROOT / "perfbench" / "out" / f"trace-{workload}-seed{seed}.json")
        print(f"{workload} per-layer metrics, one traced pass of {attempted} queries "
              "(private helpers count as their public caller's self time, "
              "e.g. size_jr's JR checks are optimize self time):")
        _print_metrics([(name, values[name], unit) for name, unit in PER_LAYER])
        print("self time share of traced query time:")
        for layer, share in tracer.layer_shares().items():
            print(f"  {layer:<12} {share:7.1%}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        ok = attempted - failed
        values = {
            "queries_per_s": ok / sum(latencies),
            "latency_p50_ms": harness.percentile(latencies, 50) * 1000,
            "latency_p90_ms": harness.percentile(latencies, 90) * 1000,
            "success_ratio": ok / attempted,
            "setup_s": median(setup_scaled),
            "peak_rss_mb": rss_mb,
            "frontier_unknowns": frontier,
        }
        probe = len(wl.defects)
        print(f"{workload}: {attempted} queries ({loop.passes} passes of "
              f"{len(wl.queries)}) in {loop.elapsed:.2f} s, {failed} failed; latency "
              f"percentiles over {attempted} samples; setup is the median of "
              f"{len(setup_times)}; times are at the reference speed "
              f"(calibration kernel = {harness.REFERENCE_KERNEL_S * 1000:g} ms)")
        _print_metrics([(name, values[name], unit) for name, unit in END_TO_END])
        print("  unscaled wall time: "
              f"{ok / sum(loop.latencies):.6g} queries/s, "
              f"p50 {harness.percentile(loop.latencies, 50) * 1000:.6g} ms, "
              f"p90 {harness.percentile(loop.latencies, 90) * 1000:.6g} ms, "
              f"setup {median(setup_times):.6g} s")
        print(f"  failed_ratio (timed loop)            {failed / attempted:.6g}  ratio")
        print(f"  failed_ratio (with known-defect probe) "
              f"{(failed + len(defects)) / (attempted + probe):.6g}  ratio "
              f"({len(defects)} of {probe} probe queries failed)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def summary(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and relay its report."""
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark process failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{workload}: WRONG ANSWERS", file=sys.stderr)
            status = 1
        print()
    return status


# Generated documents depend on abcu.gen_random, which may change; their
# shape checks are the gate.
UNRECORDED = ("gen-",)


def record(workload: str, seeds: list[int]) -> int:
    """Store digests of every query outcome for ``seeds``; refuses to
    record a seed whose outcomes fail the oracle gate."""
    from perfbench import workloads

    harness.install_deadline_handler()
    path = ROOT / "perfbench" / "expected" / f"{workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds:
        workdir = ROOT / "perfbench" / "_work" / f"record-{os.getpid()}"
        wl = workloads.WORKLOADS[workload](fresh_import(), seed, workdir)
        try:
            loop = harness.run_loop(wl.queries, passes=1)
            problems = harness.gate(wl.queries, loop, None)
        finally:
            wl.close()
        if problems:
            print(f"seed {seed}: not recorded, {problems}", file=sys.stderr)
            return 1
        data[str(seed)] = {qid: harness.digest(value)
                           for qid, (_, value) in sorted(loop.first.items())
                           if not qid.startswith(UNRECORDED)}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED",
                        help="record outcome digests of --workload for these seeds")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "abcu" / "__init__.py").is_file():
        print(f"abcu sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.summary:
        return summary(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("--workload is required")
    if args.record:
        return record(args.workload, args.record)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
