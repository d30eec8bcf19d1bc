"""Span tracing from outside the library, for the per-layer breakdown.

:meth:`Tracer.install` replaces each public function of each abcu
module with a timing wrapper, at every module namespace that holds the
function (``abcu.decide.enumerate_plausible`` as well as
``abcu.uncertainty.enumerate_plausible``), because the modules import
these names directly.  Private helpers are not wrapped, so their time
is self time of the public caller: ``size_jr``'s JR checks are
``optimize`` self time, and the ``model`` helpers are counted in their
callers.

A span records name, start, end, parent and query id.  The per-profile
axiom checks and each ``next()`` on a plausible-profile enumerator are
too many to keep one by one; they are summed into their layer and into
their parent's child time instead.  Self time is a span's duration
minus the time its children cover, summed per layer over the queries.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Public functions wrapped per layer (the modules of src/abcu).
LAYERS = {
    "uncertainty": (
        "joint_model", "lottery_model", "cp_model", "tva_model", "validate",
        "validation_errors", "tva_to_cp", "cp_to_lottery", "lottery_to_joint",
        "plausible_count", "first_plausible", "enumerate_plausible",
        "profile_probability",
    ),
    "axioms": (
        "jr_violation", "pjr_violation", "ejr_violation", "axiom_violation",
        "is_jr", "is_pjr", "is_ejr", "satisfies", "greedy_jr_committee",
    ),
    "probability": ("jr_probability", "axiom_probability", "jr_satisfying_count"),
    "decide": (
        "is_poss_jr", "is_nec_jr", "exists_poss_jr", "exists_nec_jr",
        "is_poss_axiom", "is_nec_axiom", "exists_nec_axiom", "exists_poss_axiom",
    ),
    "optimize": ("max_axiom", "size_jr"),
    "reductions": ("reduce_3sat", "reduce_vc", "gen_random", "complementary_slot_pairs"),
    "io": ("parse_document", "emit_document", "parse_dimacs", "parse_edge_list", "document_for"),
    "cli": ("main",),
}

# Inclusive-time groups: the outermost span of a group adds its duration.
GROUPS = {
    "validate": "validate", "validation_errors": "validate",
    "tva_to_cp": "convert", "cp_to_lottery": "convert", "lottery_to_joint": "convert",
    "reduce_3sat": "build", "reduce_vc": "build", "gen_random": "build",
    "parse_document": "parse", "parse_dimacs": "parse", "parse_edge_list": "parse",
    "emit_document": "emit",
}

AXIOM_OF = {
    "jr_violation": "jr", "is_jr": "jr", "pjr_violation": "pjr", "is_pjr": "pjr",
    "ejr_violation": "ejr", "is_ejr": "ejr",
}

PER_LAYER = (
    ("uncertainty.enum_profiles", "count"),
    ("uncertainty.enum_ms", "ms"),
    ("uncertainty.enum_profiles_per_s", "1/s"),
    ("uncertainty.scan_ratio", "ratio"),
    ("uncertainty.convert_ms", "ms"),
    ("uncertainty.convert_entries", "count"),
    ("uncertainty.validate_ms", "ms"),
    ("uncertainty.self_ms", "ms"),
    ("reductions.build_ms", "ms"),
    ("reductions.self_ms", "ms"),
    ("axioms.jr_checks", "count"),
    ("axioms.pjr_checks", "count"),
    ("axioms.ejr_checks", "count"),
    ("axioms.jr_checks_per_s", "1/s"),
    ("axioms.pjr_checks_per_s", "1/s"),
    ("axioms.ejr_checks_per_s", "1/s"),
    ("axioms.self_ms", "ms"),
    ("probability.calls", "count"),
    ("probability.self_ms", "ms"),
    ("probability.enum_share", "ratio"),
    ("decide.calls", "count"),
    ("decide.self_ms", "ms"),
    ("decide.poly_share", "ratio"),
    ("optimize.committees", "count"),
    ("optimize.self_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("io.parse_mb_per_s", "MB/s"),
    ("io.emit_ms", "ms"),
    ("io.emit_mb_per_s", "MB/s"),
    ("io.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.out_bytes", "bytes"),
    ("bench.self_ms", "ms"),
    ("trace.query_ms", "ms"),
    ("trace.queries", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("probe.known_defects_failed", "count"),
)


# Query id of spans recorded while the workload is built.  Set-up counts
# towards the validate, build and parse metrics but not towards self time,
# which is reported as a share of query time.
SETUP = "setup"


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "span", "group", "axiom")

    def __init__(self, layer, name, start, span, group, axiom):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.group = group
        self.axiom = axiom


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[list] = []
        self.qid = SETUP
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.group_s: defaultdict[str, float] = defaultdict(float)
        self.check_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.query_s = 0.0
        self.queries = 0
        self.enabled = False
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.enabled = True
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"abcu.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = self._wrap(original, layer, name)
        for modname, module in list(sys.modules.items()):
            if modname != "abcu" and not modname.startswith("abcu."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the originals.  Wrappers that callers captured while
        installed (``fn = lib.is_jr`` in a query) pass straight through."""
        self.enabled = False
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- frames ------------------------------------------------------------

    def _open(self, layer, name, record):
        parent = self.stack[-1] if self.stack else None
        span = -1
        if record:
            span = len(self.spans)
            parent_span = next((f.span for f in reversed(self.stack) if f.span >= 0), -1)
            self.spans.append([name, layer, 0.0, 0.0, parent_span, self.qid])
        axiom = AXIOM_OF.get(name) if layer == "axioms" else None
        frame = _Frame(layer, name, 0.0, span, GROUPS.get(name), axiom)
        self.stack.append(frame)
        frame.start = time.perf_counter()
        if record:
            self.spans[span][2] = frame.start
        return frame, parent

    def _close(self, frame: _Frame, parent, result, args, kwargs, ok: bool) -> float:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        if self.qid != SETUP:
            self.self_s[frame.layer] += duration - frame.child
        if frame.span >= 0:
            self.spans[frame.span][3] = end
        if parent is not None:
            parent.child += duration
        if frame.group and (parent is None or parent.group != frame.group):
            self.group_s[frame.group] += duration
        if parent is not None and parent.layer == frame.layer:
            return duration
        self.calls[frame.layer] += 1
        if frame.layer == "axioms":
            axiom = frame.axiom
            if axiom is None and frame.name in ("satisfies", "axiom_violation"):
                axiom = args[3] if len(args) > 3 else kwargs.get("axiom")
            if axiom is not None:
                self.counts[f"checks.{axiom}"] += 1
                self.check_s[axiom] += duration
        if ok:
            self._count_result(frame.name, result, args)
        return duration

    def _count_result(self, name, result, args) -> None:
        method = getattr(result, "method", None)
        if name in LAYERS["probability"] and method == "enumeration":
            self.counts["probability.enum_calls"] += 1
        elif name in LAYERS["decide"] and method == "poly-special-case":
            self.counts["decide.poly_calls"] += 1
        elif name == "max_axiom":
            inst = args[0].instance
            self.counts["optimize.committees"] += math.comb(inst.m, inst.k)
        elif name == "size_jr":
            inst, r = args[0], args[2]
            found, w = result
            self.counts["optimize.committees"] += (
                _lex_rank(w, inst.m) + 1 if found else math.comb(inst.m, r)
            )
        elif name == "cp_to_lottery":
            self.counts["convert.entries"] += sum(len(v) for v in result.lotteries)
        elif name == "lottery_to_joint":
            self.counts["convert.entries"] += len(result.entries)
        elif name in ("parse_document", "parse_dimacs", "parse_edge_list"):
            self.counts["io.parse_bytes"] += len(args[0])
        elif name == "emit_document":
            self.counts["io.emit_bytes"] += len(result)

    def _wrap(self, fn, layer, name):
        record = layer != "axioms"
        tracer = self

        if name == "enumerate_plausible":
            count = sys.modules["abcu.uncertainty"].plausible_count

            @functools.wraps(fn)
            def enum_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame, parent = tracer._open(layer, name, record)
                ok, result = False, None
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                finally:
                    tracer._close(frame, parent, result, args, kwargs, ok)
                tracer.counts["enum.planned"] += count(args[0])
                return _TracedIter(tracer, result)

            return enum_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame, parent = tracer._open(layer, name, record)
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._close(frame, parent, result, args, kwargs, ok)

        return wrapper

    # -- queries -----------------------------------------------------------

    def begin_query(self, qid: str) -> None:
        self.qid = qid
        self._root = self._open("bench", qid, True)

    def end_query(self, value) -> None:
        frame, parent = self._root
        self.query_s += self._close(frame, parent, None, (), {}, False)
        self.queries += 1
        stdout = getattr(value, "stdout", None)
        if isinstance(stdout, str):
            self.counts["cli.out_bytes"] += len(stdout)

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_ratio: float, defects_failed: int) -> dict[str, float]:
        c = self.counts
        ms = lambda s: s * 1000.0  # noqa: E731
        rate = lambda n, s: n / s if s > 0 else 0.0  # noqa: E731
        out = {
            "uncertainty.enum_profiles": c["enum.profiles"],
            "uncertainty.enum_ms": ms(self.group_s["enum"]),
            "uncertainty.enum_profiles_per_s": rate(c["enum.profiles"], self.group_s["enum"]),
            "uncertainty.scan_ratio": rate(c["enum.profiles"], c["enum.planned"]),
            "uncertainty.convert_ms": ms(self.group_s["convert"]),
            "uncertainty.convert_entries": c["convert.entries"],
            "uncertainty.validate_ms": ms(self.group_s["validate"]),
            "reductions.build_ms": ms(self.group_s["build"]),
            "probability.calls": self.calls["probability"],
            "probability.enum_share": rate(c["probability.enum_calls"], self.calls["probability"]),
            "decide.calls": self.calls["decide"],
            "decide.poly_share": rate(c["decide.poly_calls"], self.calls["decide"]),
            "optimize.committees": c["optimize.committees"],
            "io.parse_ms": ms(self.group_s["parse"]),
            "io.parse_mb_per_s": rate(c["io.parse_bytes"] / 1e6, self.group_s["parse"]),
            "io.emit_ms": ms(self.group_s["emit"]),
            "io.emit_mb_per_s": rate(c["io.emit_bytes"] / 1e6, self.group_s["emit"]),
            "cli.out_bytes": c["cli.out_bytes"],
            "trace.query_ms": ms(self.query_s),
            "trace.queries": self.queries,
            "trace.spans": len(self.spans),
            "trace.overhead_ratio": overhead_ratio,
            "probe.known_defects_failed": defects_failed,
        }
        for axiom in ("jr", "pjr", "ejr"):
            out[f"axioms.{axiom}_checks"] = c[f"checks.{axiom}"]
            out[f"axioms.{axiom}_checks_per_s"] = rate(c[f"checks.{axiom}"], self.check_s[axiom])
        for layer in ("uncertainty", "reductions", "axioms", "probability", "decide",
                      "optimize", "io", "cli", "bench"):
            out[f"{layer}.self_ms"] = ms(self.self_s[layer])
        return {name: out[name] for name, _ in PER_LAYER}

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of all traced query time."""
        total = self.query_s or 1.0
        return {layer: s / total for layer, s in sorted(self.self_s.items())}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)


class _TracedIter:
    """Times each ``next()`` of a plausible-profile enumerator."""

    __slots__ = ("tracer", "inner")

    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        start = time.perf_counter()
        try:
            item = next(self.inner)
        finally:
            spent = time.perf_counter() - start
            tracer.group_s["enum"] += spent
            tracer.self_s["uncertainty"] += spent
            if tracer.stack:
                tracer.stack[-1].child += spent
        tracer.counts["enum.profiles"] += 1
        return item


def _lex_rank(w, m: int) -> int:
    """Position of sorted combination ``w`` among all ``len(w)``-subsets
    of ``range(m)`` in lexicographic order."""
    r = len(w)
    rank = 0
    prev = -1
    for i, c in enumerate(w):
        for x in range(prev + 1, c):
            rank += math.comb(m - x - 1, r - i - 1)
        prev = c
    return rank
