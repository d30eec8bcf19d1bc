"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports abcu.  Models are the benchmark's own raw inputs
(:class:`RawModel`), approval sets are integer bitmasks, and each axiom
is decided by a different algorithm from the library's:

* JR and EJR straight from their definitions;
* PJR through the subset characterisation: a violation exists iff for
  some ``ell``, some ``T`` with ``|T| = ell`` and some ``S`` inside the
  committee with ``|S| = ell - 1``, at least ``ceil(ell n / k)`` voters
  approve all of ``T`` and have their committee approvals inside ``S``;
* exact probabilities by integer numerators over one common denominator,
  not by multiplying fractions per profile.

Plausible profiles come in the library's documented order (voter 0
outermost; a voter's lottery sets in input order; matrix entries
branch row-major, disapprove before approve), so first-witness answers
can be compared exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class RawModel:
    """One model as the benchmark generates it, before the library sees it.

    ``rows`` holds probability strings for ``cp``/``3va``; ``lotteries``
    holds per-voter ``(prob, set)`` pairs; ``entries`` holds joint
    ``(prob, profile)`` pairs.
    """

    kind: str
    n: int
    m: int
    k: int
    rows: list = field(default_factory=list)
    lotteries: list = field(default_factory=list)
    entries: list = field(default_factory=list)

    @functools.cached_property
    def matrix(self) -> list[list[Fraction]]:
        """``rows`` parsed once into fractions."""
        return [[Fraction(p) for p in row] for row in self.rows]


def mask(members) -> int:
    out = 0
    for c in members:
        out |= 1 << c
    return out


def members(bits: int) -> tuple[int, ...]:
    return tuple(c for c in range(bits.bit_length()) if bits >> c & 1)


def popcount(bits: int) -> int:
    return bin(bits).count("1")


# ---------------------------------------------------------------------------
# axioms on one profile of bitmasks


def jr_ok(n: int, k: int, m: int, prof, w: int) -> bool:
    unrep = [a for a in prof if not a & w]
    for c in range(m):
        if w >> c & 1:
            continue
        if sum(1 for a in unrep if a >> c & 1) * k >= n:
            return False
    return True


def ejr_ok(n: int, k: int, m: int, prof, w: int) -> bool:
    for ell in range(1, k + 1):
        eligible = [a for a in prof if popcount(a & w) < ell]
        if len(eligible) * k < ell * n:
            continue
        for t in itertools.combinations(range(m), ell):
            tm = mask(t)
            if sum(1 for a in eligible if a & tm == tm) * k >= ell * n:
                return False
    return True


def pjr_first_violation(n: int, k: int, m: int, prof, w: int):
    """First ``(ell, T)`` in (ell, lexicographic T) order with a PJR
    violation, or None."""
    committee = members(w)
    for ell in range(1, k + 1):
        need = -(-ell * n // k)
        if need > n:
            continue
        for t in itertools.combinations(range(m), ell):
            tm = mask(t)
            pool = [a & w for a in prof if a & tm == tm]
            if len(pool) < need:
                continue
            for s in itertools.combinations(committee, ell - 1):
                outside = w & ~mask(s)
                if sum(1 for x in pool if not x & outside) >= need:
                    return ell, t
    return None


def pjr_ok(n: int, k: int, m: int, prof, w: int) -> bool:
    return pjr_first_violation(n, k, m, prof, w) is None


CHECKS = {"jr": jr_ok, "pjr": pjr_ok, "ejr": ejr_ok}


def satisfies(raw: RawModel, prof, w: int, axiom: str) -> bool:
    return CHECKS[axiom](raw.n, raw.k, raw.m, prof, w)


def violation_real(n: int, k: int, prof, w: int, axiom: str, ell: int, group, common) -> bool:
    """Does the reported group really violate ``axiom`` for committee ``w``?"""
    group = list(group)
    if not group or len(set(group)) != len(group) or not all(0 <= i < n for i in group):
        return False
    if len(group) * k < ell * n or ell < 1 or len(common) < ell:
        return False
    cm = mask(common)
    if any(prof[i] & cm != cm for i in group):
        return False
    if axiom == "jr":
        return ell == 1 and not cm & w and all(not prof[i] & w for i in group)
    if axiom == "ejr":
        return all(popcount(prof[i] & w) < ell for i in group)
    union = 0
    for i in group:
        union |= prof[i]
    return popcount(union & w) < ell


# ---------------------------------------------------------------------------
# models


def _matrix_voter(probs) -> list[tuple[int, Fraction]]:
    forced = mask(c for c, p in enumerate(probs) if p == 1)
    free = [c for c, p in enumerate(probs) if 0 < p < 1]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        lam = Fraction(1)
        extra = 0
        for c, bit in zip(free, bits):
            if bit:
                extra |= 1 << c
                lam *= probs[c]
            else:
                lam *= 1 - probs[c]
        out.append((forced | extra, lam))
    return out


def voter_distributions(raw: RawModel) -> list[list[tuple[int, Fraction]]]:
    """Per-voter ``(set mask, prob)`` lists in documented order."""
    if raw.kind == "lottery":
        return [[(mask(s), Fraction(p)) for p, s in voter] for voter in raw.lotteries]
    return [_matrix_voter(row) for row in raw.matrix]


def profiles(raw: RawModel) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Every plausible profile with an integer weight, and the common
    denominator: profile probability is ``weight / denominator``."""
    if raw.kind == "joint":
        lams = [Fraction(p) for p, _ in raw.entries]
        den = math.lcm(*(f.denominator for f in lams))
        return [
            (tuple(mask(s) for s in prof), int(lam * den))
            for lam, (_, prof) in zip(lams, raw.entries)
        ], den
    dists = voter_distributions(raw)
    den = 1
    per_voter = []
    for dist in dists:
        d = math.lcm(*(lam.denominator for _, lam in dist))
        den *= d
        per_voter.append([(bits, int(lam * d)) for bits, lam in dist if lam > 0])
    out = []
    for combo in itertools.product(*per_voter):
        weight = 1
        for _, num in combo:
            weight *= num
        out.append((tuple(bits for bits, _ in combo), weight))
    return out, den


def plausible_count(raw: RawModel) -> int:
    if raw.kind == "joint":
        return len(raw.entries)
    if raw.kind == "lottery":
        return math.prod(len(v) for v in raw.lotteries)
    return 2 ** sum(1 for row in raw.matrix for p in row if 0 < p < 1)


def profile_prob(raw: RawModel, prof) -> Fraction:
    """Exact probability of a profile given as a list of approval lists."""
    if len(prof) != raw.n:
        return Fraction(0)
    if raw.kind == "joint":
        want = [sorted(s) for s in prof]
        for p, entry in raw.entries:
            if [sorted(s) for s in entry] == want:
                return Fraction(p)
        return Fraction(0)
    if raw.kind == "lottery":
        lam = Fraction(1)
        for voter, s in zip(raw.lotteries, prof):
            table = {mask(t): Fraction(p) for p, t in voter}
            lam *= table.get(mask(s), Fraction(0))
        return lam
    lam = Fraction(1)
    for row, s in zip(raw.matrix, prof):
        chosen = mask(s)
        if chosen >> raw.m:
            return Fraction(0)
        for c, p in enumerate(row):
            lam *= p if chosen >> c & 1 else 1 - p
    return lam


def first_profile(raw: RawModel) -> tuple[int, ...]:
    """The first plausible profile: the first listed one, or every
    uncertain matrix entry disapproved."""
    if raw.kind == "joint":
        return tuple(mask(s) for s in raw.entries[0][1])
    if raw.kind == "lottery":
        return tuple(mask(voter[0][1]) for voter in raw.lotteries)
    return tuple(mask(c for c, p in enumerate(row) if p == 1) for row in raw.matrix)


def probability(raw: RawModel, plist, den: int, w: int, axiom: str) -> Fraction:
    good = sum(weight for prof, weight in plist if satisfies(raw, prof, w, axiom))
    return Fraction(good, den)


def first_matching(raw: RawModel, plist, w: int, axiom: str, want: bool):
    """First profile (in order) whose satisfaction of ``axiom`` equals ``want``."""
    for prof, _ in plist:
        if satisfies(raw, prof, w, axiom) == want:
            return prof
    return None


def exists_nec(raw: RawModel, plist, axiom: str):
    for w in itertools.combinations(range(raw.m), raw.k):
        wm = mask(w)
        if all(satisfies(raw, prof, wm, axiom) for prof, _ in plist):
            return w
    return None


def max_committee(raw: RawModel, plist, den: int, axiom: str):
    best, best_w, ties = None, None, 0
    for w in itertools.combinations(range(raw.m), raw.k):
        value = probability(raw, plist, den, mask(w), axiom)
        if best is None or value > best:
            best, best_w, ties = value, w, 1
        elif value == best:
            ties += 1
    return best_w, best, ties


# ---------------------------------------------------------------------------
# JR questions answerable in polynomial time for independent voters


def potential_culprits(raw: RawModel, w: int, c: int) -> int:
    """Voters who can, in one plausible ballot, approve ``c`` and avoid ``w``."""
    if raw.kind == "lottery":
        return sum(
            1 for voter in raw.lotteries
            if any(mask(s) >> c & 1 and not mask(s) & w for _, s in voter)
        )
    committee = members(w)
    return sum(1 for row in raw.matrix if row[c] > 0 and all(row[x] < 1 for x in committee))


def nec_jr(raw: RawModel, w: int) -> bool:
    """JR in every plausible profile (independent voters): no outside
    candidate can gather a quota of simultaneously unrepresented approvers."""
    if raw.kind == "joint":
        return all(jr_ok(raw.n, raw.k, raw.m, tuple(mask(s) for s in prof), w)
                   for _, prof in raw.entries)
    return all(
        potential_culprits(raw, w, c) * raw.k < raw.n
        for c in range(raw.m) if not w >> c & 1
    )


def best_case_profile(raw: RawModel, w: int) -> tuple[int, ...]:
    """Matrix models: approve every committee member that can be approved
    and, outside the committee, only what must be approved."""
    out = []
    for probs in raw.matrix:
        out.append(
            mask(c for c in range(raw.m) if (w >> c & 1 and probs[c] > 0)
                 or (not w >> c & 1 and probs[c] == 1))
        )
    return tuple(out)


def poss_jr(raw: RawModel, w: int) -> bool:
    if raw.kind == "joint":
        return any(jr_ok(raw.n, raw.k, raw.m, tuple(mask(s) for s in prof), w)
                   for _, prof in raw.entries)
    if raw.kind == "lottery":
        raise ValueError("possible JR under a lottery has no polynomial oracle")
    return jr_ok(raw.n, raw.k, raw.m, best_case_profile(raw, w), w)


def exists_nec_jr_special(raw: RawModel):
    """Singleton lotteries and strictly interior matrices only: the
    expected committee, or None when no committee is necessarily JR."""
    if raw.kind == "lottery":
        reach = [0] * raw.m
        for voter in raw.lotteries:
            for _, s in voter:
                reach[s[0]] += 1
        mandatory = [c for c in range(raw.m) if reach[c] * raw.k >= raw.n]
        if len(mandatory) > raw.k:
            return None
        rest = [c for c in range(raw.m) if c not in mandatory]
        return tuple(sorted(mandatory + rest[: raw.k - len(mandatory)]))
    return tuple(range(raw.m)) if raw.k == raw.m else None


def certain_w_jr_probability(raw: RawModel, w: int) -> Fraction:
    """Three-valued model certain over ``w``: outside candidates' violation
    events use disjoint fair coins, so multiply their complements.  Each
    tail is computed by convolving the coins, not by a binomial sum."""
    unrep = [row for row in raw.matrix if all(row[c] == 0 for c in members(w))]
    value = Fraction(1)
    for c in range(raw.m):
        if w >> c & 1:
            continue
        sure = sum(1 for row in unrep if row[c] == 1)
        coins = sum(1 for row in unrep if row[c] == Fraction(1, 2))
        dist = [1]
        for _ in range(coins):
            dist = [a + b for a, b in zip(dist + [0], [0] + dist)]
        bad = sum(ways for extra, ways in enumerate(dist) if (sure + extra) * raw.k >= raw.n)
        value *= 1 - Fraction(bad, 2**coins)
    return value


def full_committee_counts(raw: RawModel, w: int) -> tuple[int, int]:
    """``k = n``: count each voter's JR-compatible completions by brute force."""
    count, total = 1, 1
    for probs in raw.matrix:
        free = [c for c, p in enumerate(probs) if p == Fraction(1, 2)]
        forced = mask(c for c, p in enumerate(probs) if p == 1)
        good = 0
        for bits in itertools.product((0, 1), repeat=len(free)):
            ballot = forced | mask(c for c, b in zip(free, bits) if b)
            good += bool(ballot & w) or ballot == 0
        count *= good
        total *= 2 ** len(free)
    return count, total


# ---------------------------------------------------------------------------
# gadget ground truth


def brute_sat(num_vars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses):
            return True
    return False


def vertex_cover_count(num_vertices: int, edges) -> int:
    count = 0
    for chosen in range(1 << num_vertices):
        if all(chosen >> u & 1 or chosen >> v & 1 for u, v in edges):
            count += 1
    return count
