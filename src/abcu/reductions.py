"""Instance generators: hard-instance gadgets and random models.

``reduce_3sat`` turns a 3-CNF formula into a Lottery possible-JR query
that answers yes iff the formula is satisfiable, and ``reduce_vc`` turns
a graph into a three-valued counting query whose satisfying-profile
count equals the graph's number of vertex covers.  Both are used as
test oracles: they tie the solvers to independently checkable
combinatorial quantities.  ``gen_random`` produces reproducible random
models for homogeneous property suites.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .model import Committee, InputError, Instance
from .uncertainty import (
    HALF,
    CandidateProbModel,
    LotteryModel,
    Model,
    cp_model,
    joint_model,
    lottery_model,
    tva_model,
)


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF: clauses are triples of nonzero signed 1-based variable ids."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise InputError(f"formula needs at least one variable, got {self.num_vars}")
        if not self.clauses:
            raise InputError("formula has no clauses")
        for idx, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise InputError(f"clause {idx}: expected exactly 3 literals, got {len(clause)}")
            for lit in clause:
                if not isinstance(lit, int) or lit == 0 or abs(lit) > self.num_vars:
                    raise InputError(f"clause {idx}: bad literal {lit!r}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges canonical as sorted (u, v) pairs."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise InputError(f"graph needs at least one vertex, got {self.num_vertices}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.num_vertices):
                raise InputError(f"bad edge ({u}, {v}) for {self.num_vertices} vertices")
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))


def complementary_slot_pairs(f: CnfFormula) -> tuple[tuple[int, int], ...]:
    """Pairs of 1-based literal slots, in distinct clauses, holding a
    variable and its negation; sorted ascending.

    Slot ``3*i + j + 1`` is the ``j``-th literal of clause ``i``.  Each
    pair gets one clash candidate in :func:`reduce_3sat`, in this order.
    """
    literals = [lit for clause in f.clauses for lit in clause]
    pairs = []
    for s1, s2 in itertools.combinations(range(len(literals)), 2):
        if s1 // 3 != s2 // 3 and literals[s1] == -literals[s2]:
            pairs.append((s1 + 1, s2 + 1))
    return tuple(pairs)


def reduce_3sat(f: CnfFormula) -> tuple[LotteryModel, Instance, Committee]:
    """Encode satisfiability as possible JR under a Lottery model.

    One voter per clause; each voter puts probability 1/3 on one
    approval set per literal slot.  A slot's set holds its own slot
    candidate plus a clash candidate per complementary slot in another
    clause.  The queried committee is a block of fresh candidates nobody
    approves, with ``k = n/2``, so the quota is two voters: the
    committee is possibly JR iff some choice of one set per voter never
    repeats a clash candidate, which is exactly a satisfying assignment picking
    one true literal per clause.  Any positive set probabilities would
    do; uniform thirds are canonical.

    Candidate ids: slot candidates ``0..3n-1`` (slot ``s+1`` is id
    ``s``), then clash candidates in :func:`complementary_slot_pairs`
    order, then the ``k`` committee candidates.
    """
    n = len(f.clauses)
    if n % 2 != 0:
        raise InputError(f"clause count {n} must be even")
    k = n // 2
    pairs = complementary_slot_pairs(f)
    clash_base = 3 * n
    dummy_base = clash_base + len(pairs)
    m = dummy_base + k
    slot_sets: list[list[int]] = [[s] for s in range(3 * n)]
    for idx, (s1, s2) in enumerate(pairs):
        slot_sets[s1 - 1].append(clash_base + idx)
        slot_sets[s2 - 1].append(clash_base + idx)
    third = Fraction(1, 3)
    lotteries = [
        [(third, slot_sets[3 * i + j]) for j in range(3)] for i in range(n)
    ]
    inst = Instance(n, m, k)
    w = tuple(range(dummy_base, dummy_base + k))
    return lottery_model(inst, lotteries), inst, w


def reduce_vc(g: Graph) -> tuple[CandidateProbModel, Instance, Committee]:
    """Encode vertex-cover counting as a three-valued JR profile count.

    One voter per vertex; each edge gets a candidate approved with
    certainty by its two endpoints.  A block of ``k = n/2`` extra
    candidates forms the committee; only the first of them is unknown
    (1/2) to every voter, the rest are disapproved.  A completion
    satisfies JR iff the voters approving that first extra candidate
    cover every edge, so satisfying completions correspond one-to-one
    to vertex covers and the total count is ``2^n``.

    Candidate ids: one per edge in sorted edge order, then the ``k``
    committee candidates.
    """
    n = g.num_vertices
    if n % 2 != 0:
        raise InputError(f"vertex count {n} must be even")
    k = n // 2
    edges = tuple(sorted(g.edges))
    m = len(edges) + k
    rows = [[Fraction(0)] * m for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        rows[u][idx] = Fraction(1)
        rows[v][idx] = Fraction(1)
    for i in range(n):
        rows[i][len(edges)] = HALF
    inst = Instance(n, m, k)
    w = tuple(range(len(edges), len(edges) + k))
    return tva_model(inst, rows), inst, w


# ---------------------------------------------------------------------------
# random model generation

KINDS = ("joint", "lottery", "singleton-lottery", "cp", "3va")


def _random_subset(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(c for c in range(m) if rng.random() < 0.5)


def _distinct(rng: random.Random, count: int, draw, space: int, what: str):
    if count > space:
        raise InputError(f"cannot draw {count} distinct {what} from a space of {space}")
    out: list = []
    seen = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise InputError(f"failed to draw {count} distinct {what}")
        item = draw()
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _weights(rng: random.Random, count: int) -> list[Fraction]:
    raw = [rng.randint(1, 4) for _ in range(count)]
    total = sum(raw)
    return [Fraction(x, total) for x in raw]


# The certain entries of a random matrix, shared by every model.
_BITS = (Fraction(0), Fraction(1))


def gen_random(
    kind: str, n: int, m: int, k: int, uncertainty: int, seed: int
) -> Model:
    """Reproducible random valid model; same arguments, same model.

    ``uncertainty`` scales the amount of randomness: the number of
    unknown/interior matrix entries for cp/3va, and the per-voter
    support size minus one (upper bound) for the lottery kinds and the
    joint kind.  Degree 0 always yields a fully certain model.
    """
    if kind not in KINDS:
        raise InputError(f"unknown model kind {kind!r}, expected one of {KINDS}")
    if uncertainty < 0:
        raise InputError(f"uncertainty degree {uncertainty} must be nonnegative")
    inst = Instance(n, m, k)
    rng = random.Random(seed)
    if kind in ("3va", "cp"):
        if uncertainty > n * m:
            raise InputError(f"uncertainty {uncertainty} exceeds the {n * m} matrix entries")
        rows = [[_BITS[rng.randint(0, 1)] for _ in range(m)] for _ in range(n)]
        pairs = rng.sample([(i, c) for i in range(n) for c in range(m)], uncertainty)
        for i, c in pairs:
            if kind == "3va":
                rows[i][c] = HALF
            else:
                den = rng.randint(2, 6)
                rows[i][c] = Fraction(rng.randint(1, den - 1), den)
        return tva_model(inst, rows) if kind == "3va" else cp_model(inst, rows)
    if kind in ("lottery", "singleton-lottery"):
        lotteries = []
        for _ in range(n):
            size = 1 + rng.randint(0, uncertainty)
            if kind == "singleton-lottery":
                size = min(size, m)
                sets = _distinct(rng, size, lambda: (rng.randrange(m),), m, "singletons")
            else:
                size = min(size, 2**m)
                sets = _distinct(rng, size, lambda: _random_subset(rng, m), 2**m, "approval sets")
            lams = _weights(rng, size)
            lotteries.append(list(zip(lams, sets)))
        return lottery_model(inst, lotteries)
    size = min(1 + uncertainty, 2 ** (n * m))
    profiles = _distinct(
        rng, size,
        lambda: tuple(_random_subset(rng, m) for _ in range(n)),
        2 ** (n * m),
        "profiles",
    )
    lams = _weights(rng, size)
    return joint_model(inst, list(zip(lams, profiles)))
