"""The three seeded workloads, the frontier ladder and the known-defect probe.

Every input is drawn from the benchmark's own ``random.Random(seed)``
as raw rows, lotteries, profiles, CNF or edge-list text; none comes from
``abcu.gen_random``, so a change to that generator cannot change a
workload.  The library receives the inputs only through its public
constructors or through ``abcu.cli.main``.

Sizes follow fixed ladders that do not depend on the seed; the seed
only draws the contents.  So every seed gives the same mix of query
costs, and latency percentiles do not jump with the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import checks, oracle
from .checks import Lazy
from .harness import CliOutcome, Query
from .oracle import RawModel, mask

DEADLINE_S = 10.0
FRONTIER_DEADLINE_S = 0.5
FRONTIER_LADDER = (4, 8, 16, 32, 64)
DEFECT_DEADLINE_S = 5.0


@dataclass
class Workload:
    queries: list[Query]
    defects: list[Query] = field(default_factory=list)
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# raw input generators


def _prob(rng: random.Random) -> str:
    den = rng.randint(2, 6)
    return f"{rng.randint(1, den - 1)}/{den}"


def _weights(rng: random.Random, count: int) -> list[str]:
    raw = [rng.randint(1, 4) for _ in range(count)]
    total = sum(raw)
    return [str(Fraction(x, total)) for x in raw]


def _subset(rng: random.Random, m: int, density: float) -> list[int]:
    return [c for c in range(m) if rng.random() < density]


def _distinct_subsets(rng, count, m, density, forbid=()):
    seen = set(tuple(s) for s in forbid)
    out = []
    while len(out) < count:
        s = _subset(rng, m, density)
        if tuple(s) not in seen:
            seen.add(tuple(s))
            out.append(s)
    return out


def matrix_raw(rng, kind, n, m, k, interior, *, density=0.5, avoid=()):
    """cp/3va rows with ``interior`` uncertain entries outside columns ``avoid``."""
    rows = [["1" if rng.random() < density else "0" for _ in range(m)] for _ in range(n)]
    cells = [(i, c) for i in range(n) for c in range(m) if c not in avoid]
    for i, c in rng.sample(cells, interior):
        rows[i][c] = "1/2" if kind == "3va" else _prob(rng)
    return RawModel(kind, n, m, k, rows=rows)


def lottery_raw(rng, n, m, k, supports, *, density=0.4, singleton=False):
    lotteries = []
    for size in supports:
        if singleton:
            sets = [[c] for c in rng.sample(range(m), size)]
        else:
            sets = _distinct_subsets(rng, size, m, density)
        lotteries.append(list(zip(_weights(rng, size), sets)))
    return RawModel("lottery", n, m, k, lotteries=lotteries)


def joint_raw(rng, n, m, k, count, *, density=0.4):
    seen = set()
    profiles = []
    while len(profiles) < count:
        prof = [_subset(rng, m, density) for _ in range(n)]
        key = tuple(tuple(s) for s in prof)
        if key not in seen:
            seen.add(key)
            profiles.append(prof)
    return RawModel("joint", n, m, k, entries=list(zip(_weights(rng, count), profiles)))


def supports_for(target: int, n: int) -> list[int]:
    """Per-voter support sizes in {1..4} whose product is close to ``target``."""
    sizes = [1] * n
    while math.prod(sizes) < target:
        i = min(range(n), key=lambda j: (sizes[j], j))
        if sizes[i] == 4:
            break
        sizes[i] += 1
    return sizes


def model_raw(rng, kind, n, m, k, log2_profiles: float) -> RawModel:
    """A model of ``kind`` with about ``2 ** log2_profiles`` plausible profiles."""
    target = round(2 ** log2_profiles)
    if kind in ("cp", "3va"):
        return matrix_raw(rng, kind, n, m, k, round(log2_profiles))
    if kind == "lottery":
        sizes = supports_for(target, n)
        rng.shuffle(sizes)
        return lottery_raw(rng, n, m, k, sizes)
    return joint_raw(rng, n, m, k, target)


def random_cnf(rng, clauses, num_vars):
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(clauses)
    ]


def cnf_text(num_vars, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if not edges:
        edges = [(0, 1)]
    return edges


def edge_text(n, edges) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


def to_model(lib, raw: RawModel):
    inst = lib.Instance(raw.n, raw.m, raw.k)
    if raw.kind == "cp":
        return lib.cp_model(inst, raw.rows)
    if raw.kind == "3va":
        return lib.tva_model(inst, raw.rows)
    if raw.kind == "lottery":
        return lib.lottery_model(inst, raw.lotteries)
    return lib.joint_model(inst, raw.entries)


KIND_TAGS = {"cp": "candidate-probability", "3va": "three-valued",
             "lottery": "lottery", "joint": "joint"}


def to_document(raw: RawModel, committee=None) -> dict:
    model: dict = {"kind": KIND_TAGS[raw.kind]}
    if raw.kind in ("cp", "3va"):
        model["rows"] = raw.rows
    elif raw.kind == "lottery":
        model["voters"] = [[{"prob": p, "set": s} for p, s in v] for v in raw.lotteries]
    else:
        model["entries"] = [{"prob": p, "profile": prof} for p, prof in raw.entries]
    doc = {"format": "abcu/1",
           "instance": {"voters": raw.n, "candidates": raw.m, "committee_size": raw.k},
           "model": model}
    if committee is not None:
        doc["committee"] = list(committee)
    return doc


def committee_for(rng, raw: RawModel) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(raw.m), raw.k)))


def _shuffled(rng: random.Random, queries: list[Query]) -> list[Query]:
    """Interleave query types, so that any prefix of a pass is a fair mix."""
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# enum-exact


ENUM_KINDS = ("cp", "3va", "lottery", "joint")


def _ladder(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * (j + 0.5) / count for j in range(count)]


# (query type, kinds, queries per kind, log2 of plausible profiles from, to).
# These fill the body of the latency distribution: first-witness exits,
# existence, budget and gadget queries are cheap; full probability scans
# sit around the median.  Joint JR is cheaper per profile, so it sits with
# the cheap.
ENUM_PLAN = (
    ("prob-jr", ("cp", "3va", "lottery"), 4, 8.0, 9.4),
    ("prob-jr-force", ("cp", "3va", "lottery"), 4, 8.0, 9.4),
    ("prob-pjr", ENUM_KINDS, 4, 6.6, 7.8),
    ("prob-ejr", ENUM_KINDS, 4, 7.8, 8.6),
    ("max-pjr", ENUM_KINDS, 1, 4.5, 4.5),
    ("prob-jr", ("joint",), 4, 8.0, 9.0),
    ("prob-jr-force", ("joint",), 4, 8.0, 9.0),
    ("poss-pjr", ENUM_KINDS, 3, 4.5, 6.0),
    ("poss-ejr", ENUM_KINDS, 3, 4.5, 6.0),
    ("nec-pjr", ENUM_KINDS, 3, 4.5, 6.0),
    ("nec-ejr", ENUM_KINDS, 3, 4.5, 6.0),
    ("exists-nec-pjr", ENUM_KINDS, 2, 3.0, 4.0),
    ("exists-nec-ejr", ENUM_KINDS, 2, 3.0, 4.0),
)

# The tail, about the top sixth of the queries: max queries and the
# largest JR scans, two of each, with log2 plausible profiles per kind set
# so that each costs about 50 ms.  A joint JR scan that long would need
# thousands of listed profiles, which would dominate set-up.  The JR check and the committee search
# do about the same work whatever the drawn contents, while PJR and EJR
# scans vary by up to 2x with them; so p90, which falls inside this block,
# does not jump with the seed.
TAIL_PLAN = {
    "max-jr": {"cp": 7, "3va": 7, "lottery": 7.5, "joint": 9.15},
    "max-ejr": {"cp": 7, "3va": 7, "lottery": 7, "joint": 8.1},
    "prob-jr": {"cp": 10, "3va": 10, "lottery": 10.7},
    "prob-jr-force": {"cp": 10, "3va": 10, "lottery": 10.7},
}
TAIL_REPEATS = 2


def _enum_query(lib, qtype, raw, model, plist, w):
    """``(call, check)`` for one enum-exact query type."""
    parts = qtype.split("-")
    mode = parts[0]
    axiom = parts[1] if mode == "prob" else parts[-1]
    if mode == "prob":
        force = parts[-1] == "force"
        return (lambda: lib.axiom_probability(model, w, axiom, force_enumeration=force),
                checks.check_prob(raw, plist, w, axiom))
    if mode in ("poss", "nec"):
        fn = lib.is_poss_axiom if mode == "poss" else lib.is_nec_axiom
        return (lambda: fn(model, w, axiom),
                checks.check_scan(lib, model, raw, plist, w, axiom, mode))
    if mode == "exists":
        return (lambda: lib.exists_nec_axiom(model, axiom),
                checks.check_exists_nec(raw, plist, axiom))
    return lambda: lib.max_axiom(model, axiom), checks.check_max(raw, plist, axiom)


def enum_exact(lib, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    queries: list[Query] = []

    def add(qid, call, check, raises=()):
        queries.append(Query(qid, call, check, DEADLINE_S, raises))

    def enum_model(kind, n, m, k, size):
        raw = model_raw(rng, kind, n, m, k, size)
        model = to_model(lib, raw)
        return raw, model, Lazy(lambda: oracle.profiles(raw))

    shapes = [(6, 6, 3), (7, 5, 2), (5, 7, 3), (8, 6, 4)]
    max_shape, exists_shape = (6, 5, 2), (5, 5, 2)
    for row, (qtype, kinds, count, lo, hi) in enumerate(ENUM_PLAN):
        for i, size in enumerate(_ladder(lo, hi, count)):
            for kind in kinds:
                if qtype.startswith("max"):
                    shape = max_shape
                elif qtype.startswith("exists"):
                    shape = exists_shape
                else:
                    shape = shapes[(i + row) % len(shapes)]
                raw, model, plist = enum_model(kind, *shape, size)
                qid = f"{qtype}-{kind}-{row}.{i}"
                add(qid, *_enum_query(lib, qtype, raw, model, plist, committee_for(rng, raw)))
    for qtype, sizes in TAIL_PLAN.items():
        shape = max_shape if qtype.startswith("max") else shapes[0]
        for kind, size in sizes.items():
            for i in range(TAIL_REPEATS):
                raw, model, plist = enum_model(kind, *shape, size)
                qid = f"{qtype}-{kind}-tail.{i}"
                add(qid, *_enum_query(lib, qtype, raw, model, plist, committee_for(rng, raw)))
    # Vertex-cover gadgets: the satisfying-profile count is the cover count.
    for j, n in enumerate((8, 8, 8, 8, 10, 10)):
        edges = random_graph(rng, n, 0.3)
        model, _, w = lib.reduce_vc(lib.io.parse_edge_list(edge_text(n, edges)))
        add(f"vc-count-{n}-{j}", lambda model=model, w=w: lib.jr_satisfying_count(model, w),
            checks.check_equal(lambda n=n, edges=edges:
                               (oracle.vertex_cover_count(n, edges), 2**n), "count"))
    # 3SAT gadgets: possible JR iff the formula is satisfiable.
    for j, (clauses, num_vars, want) in enumerate(
            ((8, 5, True), (10, 6, True), (12, 6, True), (8, 3, False), (12, 3, False),
             (14, 3, False))):
        while True:
            cnf = random_cnf(rng, clauses, num_vars)
            if oracle.brute_sat(num_vars, cnf) == want:
                break
        model, _, w = lib.reduce_3sat(lib.io.parse_dimacs(cnf_text(num_vars, cnf)))
        add(f"3sat-poss-jr-{'sat' if want else 'unsat'}-{j}",
            lambda model=model, w=w: lib.is_poss_jr(model, w),
            _check_gadget_poss(lib, model, w, want))
    # Queries that must exceed the budget, each naming the offending count.
    big = matrix_raw(rng, "cp", 8, 8, 4, 24)
    big_model = to_model(lib, big)
    mid = matrix_raw(rng, "3va", 6, 6, 3, 10)
    mid_model = to_model(lib, mid)
    w_big, w_mid = committee_for(rng, big), committee_for(rng, mid)
    add("budget-prob-default", lambda: lib.jr_probability(big_model, w_big),
        checks.check_raises("BudgetError", 2**24), (lib.BudgetError,))
    add("budget-prob-pjr", lambda: lib.axiom_probability(mid_model, w_mid, "pjr", budget=500),
        checks.check_raises("BudgetError", 2**10), (lib.BudgetError,))
    add("budget-max", lambda: lib.max_axiom(mid_model, "ejr", budget=10_000),
        checks.check_raises("BudgetError", 20 * 2**10), (lib.BudgetError,))
    add("budget-exists", lambda: lib.exists_nec_axiom(mid_model, "pjr", budget=10),
        checks.check_raises("BudgetError", 20), (lib.BudgetError,))
    return Workload(_shuffled(rng, queries))


def _check_gadget_poss(lib, model, w, want: bool):
    inst = model.instance

    def check(result):
        if result.answer != want:
            return f"possible JR {result.answer}, but the formula satisfiable = {want}"
        if want:
            pp = result.witness_profile
            if pp is None or lib.profile_probability(model, pp.profile) != pp.prob:
                return "witness probability differs from profile_probability"
            if pp.prob != Fraction(1, 3) ** inst.n:
                return "witness is not a plausible gadget profile"
            masks = tuple(mask(s) for s in pp.profile)
            if not oracle.jr_ok(inst.n, inst.k, inst.m, masks, mask(w)):
                return "witness violates JR"
        return None
    return check


# ---------------------------------------------------------------------------
# poly-scale


def _certain_profile(rng, n, m, density):
    return [_subset(rng, m, density) for _ in range(n)]


def _certain_check(n, m, k, prof, w, axiom):
    masks = tuple(mask(s) for s in prof)
    return checks.check_equal(lambda: oracle.CHECKS[axiom](n, k, m, masks, mask(w)),
                              f"is_{axiom}")


def poly_scale(lib, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    queries: list[Query] = []

    def add(qid, call, check):
        queries.append(Query(qid, call, check, DEADLINE_S))

    # Eight size tiers, so that per-query costs form a continuum up to the tail.
    sizes = [(120, 12, 4), (160, 16, 5), (200, 20, 6), (240, 14, 4),
             (280, 18, 5), (320, 12, 3), (360, 16, 4), (400, 20, 6)]
    for j, (n, m, k) in enumerate(sizes):
        raws = {
            "cp": matrix_raw(rng, "cp", n, m, k, n * m // 6, density=0.15),
            "3va": matrix_raw(rng, "3va", n, m, k, n * m // 6, density=0.15),
            "lottery": _poss_lottery(rng, n, m, k),
            "joint": joint_raw(rng, n, m, k, 4 + j, density=0.25),
        }
        for kind, raw in raws.items():
            model = to_model(lib, raw)
            for r in range(2):
                w = committee_for(rng, raw)
                for mode in ("poss", "nec"):
                    fn = lib.is_poss_jr if mode == "poss" else lib.is_nec_jr
                    add(f"{mode}-jr-{kind}-{n}-{r}", lambda fn=fn, model=model, w=w: fn(model, w),
                        checks.check_jr_decision(lib, model, raw, w, mode))
            add(f"exists-poss-jr-{kind}-{n}", lambda model=model: lib.exists_poss_jr(model),
                checks.check_exists_poss_jr(raw))
        # Necessary-JR existence on the two polynomial special cases.
        singles = lottery_raw(rng, n, m, k, [rng.randint(1, 3) for _ in range(n)], singleton=True)
        interior = RawModel("cp", n // 4, m, k if j % 2 else m,
                            rows=[[_prob(rng) for _ in range(m)] for _ in range(n // 4)])
        for raw in (singles, interior):
            model = to_model(lib, raw)
            add(f"exists-nec-jr-{raw.kind}-{n}", lambda model=model: lib.exists_nec_jr(model),
                checks.check_exists_nec_jr(raw))
        # Closed-form JR probability: three-valued, committee entries certain.
        w = tuple(sorted(rng.sample(range(m), k)))
        certain = matrix_raw(rng, "3va", n, m, k, n * m // 5, density=0.1, avoid=w)
        model = to_model(lib, certain)
        value = lambda raw=certain, w=w: oracle.certain_w_jr_probability(raw, mask(w))  # noqa: E731
        add(f"prob-jr-certain-w-{n}", lambda model=model, w=w: lib.jr_probability(model, w),
            checks.check_value(value, checks.three_valued_counts(certain, value)))
        # Deterministic checks on one certain profile; EJR scans C(m, ell)
        # candidate sets per level, so these use m = 12 and k = 4.
        mc, kc = 12, 4
        prof = _certain_profile(rng, n, mc, 0.25)
        inst = lib.Instance(n, mc, kc)
        cprof = tuple(tuple(s) for s in prof)
        w = tuple(sorted(rng.sample(range(mc), kc)))
        for axiom in ("jr", "ejr"):
            fn = lib.is_jr if axiom == "jr" else lib.is_ejr
            add(f"check-{axiom}-{n}", lambda fn=fn, inst=inst, p=cprof, w=w: fn(inst, p, w),
                _certain_check(n, mc, kc, prof, w, axiom))
        r = 1 + j % (kc - 1)
        add(f"size-jr-{n}-{r}", lambda inst=inst, p=cprof, r=r: lib.size_jr(inst, p, r),
            checks.check_equal(lambda n=n, prof=prof, r=r:
                               _size_jr_expected(n, mc, kc, prof, r), "size_jr"))
    # Full-committee counting: k = n, so m >= n.
    for j, (n, m) in enumerate(((8, 16), (10, 16), (12, 18), (14, 20))):
        raw = matrix_raw(rng, "3va", n, m, n, n * m // 4, density=0.2)
        model = to_model(lib, raw)
        w = committee_for(rng, raw)
        add(f"prob-jr-k-eq-n-{n}", lambda model=model, w=w: lib.jr_probability(model, w),
            _check_counts(raw, w))
    # Dense certain profiles: PJR checks that are polynomial in n only after a fix.
    dense = [(12, 4), (12, 6), (14, 4), (14, 6), (16, 4), (16, 6), (18, 4), (18, 6),
             (20, 6), (20, 6), (22, 6), (22, 6), (24, 6)]
    for j, (n, k) in enumerate(dense):
        prof, w = _relabel(rng, *_dense_pjr_base(n, 8, k, j))
        inst = lib.Instance(n, 8, k)
        cprof = tuple(tuple(s) for s in prof)
        add(f"dense-pjr-{n}-{k}-{j}", lambda inst=inst, p=cprof, w=w: lib.is_pjr(inst, p, w),
            _certain_check(n, 8, k, prof, w, "pjr"))
    return Workload(_shuffled(rng, queries), defects=_known_defects(lib, rng))


def _dense_pjr_base(n, m, k, salt):
    """A dense certain profile on which committee ``range(k)`` satisfies
    PJR, from a generator that does not depend on the workload seed.

    A PJR check that finds no violation searches every voter group, and
    that search costs the same on every relabelling of the profile.  So
    each seed relabels these bases instead of drawing new profiles, and
    the cost of the dense checks does not change with the seed.
    """
    rng = random.Random(f"dense-pjr-{n}-{m}-{k}-{salt}")
    w = mask(range(k))
    while True:
        prof = _certain_profile(rng, n, m, 0.7)
        if oracle.pjr_ok(n, k, m, tuple(mask(s) for s in prof), w):
            return prof, tuple(range(k)), m


def _relabel(rng, prof, w, m):
    """The same profile with voters and candidates renamed at random."""
    names = list(range(m))
    rng.shuffle(names)
    prof = [sorted(names[c] for c in s) for s in prof]
    rng.shuffle(prof)
    return prof, tuple(sorted(names[c] for c in w))


def _poss_lottery(rng, n, m, k) -> RawModel:
    """Lottery in which every voter may also approve nothing.  The
    all-empty profile is JR for every committee, so possible JR is known
    to hold whatever committee is asked about."""
    lotteries = []
    for _ in range(n):
        size = rng.randint(1, 3)
        sets = _distinct_subsets(rng, size, m, 0.2, forbid=[[]]) + [[]]
        lotteries.append(list(zip(_weights(rng, size + 1), sets)))
    return RawModel("lottery", n, m, k, lotteries=lotteries)


def _size_jr_expected(n, m, k, prof, r):
    masks = tuple(mask(s) for s in prof)
    for w in itertools.combinations(range(m), r):
        if oracle.jr_ok(n, k, m, masks, mask(w)):
            return True, w
    return False, None


def _check_counts(raw: RawModel, w):
    def check(result):
        count, total = oracle.full_committee_counts(raw, mask(w))
        if result.counts != (count, total) or result.value != Fraction(count, total):
            return f"k = n counts {result.counts} != expected {(count, total)}"
        return None
    return check


def _known_defects(lib, rng) -> list[Query]:
    """Queries with a known right answer that the library fails today:
    the 1,200-voter possible-JR search overflows the recursion limit, and
    a 30-voter dense PJR check runs far past its deadline."""
    n, m, k = 1200, 6, 2
    lotteries = [[("1/2", [0]), ("1/2", [2 + rng.randrange(m - 2)])] for _ in range(n)]
    raw = RawModel("lottery", n, m, k, lotteries=lotteries)
    model = to_model(lib, raw)
    deep = Query("defect-poss-jr-lottery-1200", lambda: lib.is_poss_jr(model, (0, 1)),
                 checks.check_jr_decision(lib, model, raw, (0, 1), "poss"), DEFECT_DEADLINE_S)
    n, m, k = 30, 8, 4
    prof = [sorted(set(_subset(rng, m, 0.8)) | {7}) for _ in range(n)]
    inst = lib.Instance(n, m, k)
    cprof = tuple(tuple(s) for s in prof)
    w = (0, 1, 2, 3)
    dense = Query("defect-dense-pjr-30", lambda: lib.is_pjr(inst, cprof, w),
                  _certain_check(n, m, k, prof, w, "pjr"), DEFECT_DEADLINE_S)
    return [deep, dense]


# ---------------------------------------------------------------------------
# cli-docs


def _cli(lib, argv: list[str]) -> Callable[[], CliOutcome]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return CliOutcome(code, out.getvalue(), err.getvalue())
    return call


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _write_doc(path: Path, raw: RawModel, committee=None) -> str:
    return _write(path, json.dumps(to_document(raw, committee), indent=2) + "\n")


def cli_docs(lib, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    queries: list[Query] = []

    def add(qid, argv, check):
        queries.append(Query(qid, _cli(lib, argv), check, DEADLINE_S))

    machine = ["--output", "machine", "--witness"]
    sizes = ((200, 24, 4), (280, 20, 4), (360, 22, 5), (420, 18, 3), (480, 20, 4))
    for j, (n, m, k) in enumerate(sizes):
        raws = {
            "cp": matrix_raw(rng, "cp", n, m, k, n * m // 5, density=0.15),
            "3va": matrix_raw(rng, "3va", n, m, k, n * m // 5, density=0.15),
            "lottery": _poss_lottery(rng, n, m, k),
            "joint": joint_raw(rng, n // 2, m, k, 6, density=0.25),
        }
        for kind, raw in raws.items():
            w = committee_for(rng, raw)
            path = _write_doc(workdir / f"{kind}-{n}.json", raw, w)
            add(f"validate-{kind}-{n}", ["validate", path, "--output", "machine"],
                checks.check_cli_json(0, lambda: {"valid": True, "errors": []}))
            for mode in ("poss", "nec"):
                add(f"decide-{mode}-jr-{kind}-{n}", ["decide", mode, "jr", path] + machine,
                    checks.check_cli_decision(raw, w, mode))
            add(f"exists-poss-jr-{kind}-{n}", ["exists", "poss-jr", path] + machine,
                checks.check_cli_exists_poss(raw))
        # Closed-form probability and counting on a committee-certain three-valued model.
        w = tuple(sorted(rng.sample(range(m), k)))
        certain = matrix_raw(rng, "3va", n, m, k, n * m // 4, density=0.1, avoid=w)
        path = _write_doc(workdir / f"certain-{n}.json", certain, w)
        value = lambda raw=certain, w=w: oracle.certain_w_jr_probability(raw, mask(w))  # noqa: E731
        add(f"prob-jr-{n}", ["prob", "jr", path] + machine, checks.check_cli_prob(certain, value))
        add(f"count-{n}", ["count", path] + machine, checks.check_cli_count(certain, value))
        # Necessary-JR existence on singleton lotteries.
        singles = lottery_raw(rng, n, m, k, [rng.randint(1, 3) for _ in range(n)], singleton=True)
        path = _write_doc(workdir / f"singles-{n}.json", singles)
        add(f"exists-nec-jr-{n}", ["exists", "nec-jr", path] + machine,
            checks.check_cli_exists_nec(singles))
        # Conversions: per-voter supports of 2^4..2^6 sets, and small joint products.
        conv = RawModel("cp", n // 2, 10, 3, rows=[
            [_prob(rng) if c in free else rng.choice(("0", "1")) for c in range(10)]
            for free in (set(rng.sample(range(10), rng.randint(3, 5))) for _ in range(n // 2))
        ])
        path = _write_doc(workdir / f"convert-cp-{n}.json", conv)
        add(f"convert-lottery-{n}", ["convert", "to-lottery", path], checks.check_cli_lottery(conv))
        lot = lottery_raw(rng, n // 2, 10, 3, [1] * (n // 2 - 7) + [2] * 7)
        rng.shuffle(lot.lotteries)
        path = _write_doc(workdir / f"convert-lot-{n}.json", lot)
        add(f"convert-joint-{n}", ["convert", "to-joint", path], checks.check_cli_joint(lot))
        # Generation, checked for shape: the right kind, size and uncertainty.
        kind = ("cp", "3va", "lottery")[j % 3]
        degree = 2 if kind == "lottery" else n
        argv = ["gen", "--kind", kind, "--voters", str(n), "--candidates", str(m),
                "--committee-size", str(k), "--uncertainty", str(degree),
                "--seed", str(rng.randrange(10**6))]
        add(f"gen-{kind}-{n}", argv, checks.check_cli_gen(kind, KIND_TAGS[kind], n, m, k, degree))
    # Malformed documents must exit 2 with the errors listed.
    good = matrix_raw(rng, "cp", 200, 12, 4, 300, density=0.2)
    bad_docs = {
        "float": _mutate(good, lambda d: d["model"]["rows"][7].__setitem__(3, 0.25)),
        "rowlen": _mutate(good, lambda d: d["model"]["rows"][150].pop()),
        "sum": _mutate(_poss_lottery(rng, 300, 12, 4),
                       lambda d: d["model"]["voters"][201][0].__setitem__("prob", "1/7")),
        "dup": _mutate(joint_raw(rng, 80, 12, 4, 8, density=0.25),
                       lambda d: d["model"]["entries"].append(d["model"]["entries"][0])),
    }
    for name, text in bad_docs.items():
        path = _write(workdir / f"bad-{name}.json", text)
        add(f"validate-bad-{name}", ["validate", path, "--output", "machine"],
            checks.check_cli_invalid())
    path = _write(workdir / "bad-truncated.json", bad_docs["sum"][: len(bad_docs["sum"]) // 2])
    add("validate-bad-truncated", ["validate", path, "--output", "machine"],
        checks.check_cli_invalid())
    # Gadget builders from CNF and edge-list text.
    for j, (clauses, num_vars) in enumerate(((40, 20), (60, 30))):
        cnf = random_cnf(rng, clauses, num_vars)
        path = _write(workdir / f"formula-{j}.cnf", cnf_text(num_vars, cnf))
        add(f"reduce-3sat-{clauses}", ["reduce", "3sat", path], checks.check_cli_3sat(cnf))
    for j, n in enumerate((60, 90)):
        edges = random_graph(rng, n, 0.06)
        path = _write(workdir / f"graph-{j}.edges", edge_text(n, edges))
        add(f"reduce-vc-{n}", ["reduce", "vc", path], checks.check_cli_vc(n, edges))
    return Workload(_shuffled(rng, queries), workdir=workdir)


def _mutate(raw: RawModel, edit) -> str:
    doc = json.loads(json.dumps(to_document(raw, tuple(range(raw.k)))))
    edit(doc)
    return json.dumps(doc, indent=2) + "\n"


WORKLOADS = {"enum-exact": enum_exact, "poly-scale": poly_scale, "cli-docs": cli_docs}


# ---------------------------------------------------------------------------
# frontier ladder


def frontier(lib, seed: int, call_with_deadline, deadline_exceeded) -> tuple[int, list]:
    """Largest number of interior entries on the ladder for which
    ``jr_probability`` on a seeded 8x8 cp model finishes in time.

    The budget admits every step, so the ladder measures time, not the
    budget; a ``BudgetError`` all the same ends the ladder.  Steps at or
    below 2^12 plausible profiles are also checked against the oracle; a
    wrong answer ends the ladder like an overrun.
    """
    rng = random.Random(seed ^ 0x5EED)
    n = m = 8
    base = [["1" if rng.random() < 0.4 else "0" for _ in range(m)] for _ in range(n)]
    cells = rng.sample([(i, c) for i in range(n) for c in range(m)], n * m)
    probs = {cell: _prob(rng) for cell in cells}
    w = (0, 1, 2, 3)
    budget = 2 ** max(FRONTIER_LADDER)
    best, steps = 0, []
    for u in FRONTIER_LADDER:
        rows = [list(row) for row in base]
        for i, c in cells[:u]:
            rows[i][c] = probs[(i, c)]
        raw = RawModel("cp", n, m, 4, rows=rows)
        model = to_model(lib, raw)
        try:
            result = call_with_deadline(lambda: lib.jr_probability(model, w, budget=budget),
                                        FRONTIER_DEADLINE_S)
        except deadline_exceeded:
            steps.append((u, "deadline"))
            break
        except lib.BudgetError:
            steps.append((u, "budget"))
            break
        if u <= 12:
            want = oracle.probability(raw, *oracle.profiles(raw), mask(w), "jr")
            if result.value != want:
                steps.append((u, "wrong"))
                break
        steps.append((u, "ok"))
        best = u
    return best, steps
