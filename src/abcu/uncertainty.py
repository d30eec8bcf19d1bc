"""The four uncertainty models over approval profiles.

* Joint: an explicit distribution over whole profiles.
* Lottery: independent per-voter distributions over approval sets.
* CandidateProb: independent per-(voter, candidate) approval probabilities.
* ThreeValued: CandidateProb restricted to {0, 1/2, 1}
  (disapprove / unknown / approve), so all completions of the unknown
  entries are equiprobable.

A profile with positive probability is *plausible*.  This module
provides validation, the conversions ThreeValued -> CandidateProb ->
Lottery -> Joint, and a deterministic enumerator of plausible profiles
with exact probabilities: the brute-force substrate every other module
checks itself against.

Enumeration runs on one integer-weight kernel.  Each voter gets a table
of (approval set, integer weight) over that voter's common denominator:
a Lottery voter's entries in input order, a CandidateProb/ThreeValued
row expanded as in ``cp_to_lottery`` (free candidates ascending,
disapprove before approve).  The kernel takes the product of the tables
with voter 0 outermost, so a profile's probability is the product of its
voters' weights over the product of their denominators, with no
``Fraction`` arithmetic per profile.  A Joint model's entries are put
over the lcm of their denominators.  Internal scans sum these integers;
``enumerate_plausible`` turns each weight back into a ``Fraction``.

Enumeration order is fixed: Joint entries in input order; Lottery
combinations with voter 0 outermost and each voter's sets in input
order; CandidateProb/ThreeValued branch over the undetermined
(voter, candidate) pairs in row-major order, disapprove before approve
(the product of the expanded rows yields exactly this order).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .model import (
    ApprovalSet,
    BudgetError,
    InputError,
    Instance,
    Profile,
    approval_profile,
    approval_set,
    parse_probability,
    resolve_budget,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class JointModel:
    """Distribution over whole approval profiles."""

    instance: Instance
    entries: tuple[tuple[Fraction, Profile], ...]


@dataclass(frozen=True)
class LotteryModel:
    """Independent per-voter distributions over approval sets."""

    instance: Instance
    lotteries: tuple[tuple[tuple[Fraction, ApprovalSet], ...], ...]


@dataclass(frozen=True)
class CandidateProbModel:
    """Independent approval probability for every (voter, candidate) pair."""

    instance: Instance
    probs: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ThreeValuedModel:
    """Certain approvals/disapprovals plus unknown entries at 1/2."""

    instance: Instance
    entries: tuple[tuple[Fraction, ...], ...]


Model = Union[JointModel, LotteryModel, CandidateProbModel, ThreeValuedModel]


@dataclass(frozen=True)
class PlausibleProfile:
    """An approval profile together with its exact positive probability."""

    profile: Profile
    prob: Fraction


# ---------------------------------------------------------------------------
# construction


def joint_model(inst: Instance, entries: Iterable[tuple[object, object]]) -> JointModel:
    """Build and validate a Joint model from (probability, profile) pairs."""
    built = tuple(
        (parse_probability(lam), approval_profile(prof, inst)) for lam, prof in entries
    )
    return validate(JointModel(inst, built))


def lottery_model(
    inst: Instance, lotteries: Iterable[Iterable[tuple[object, object]]]
) -> LotteryModel:
    """Build and validate a Lottery model from per-voter (probability, set) pairs."""
    built = tuple(
        tuple((parse_probability(lam), approval_set(s, inst.m)) for lam, s in voter)
        for voter in lotteries
    )
    return validate(LotteryModel(inst, built))


def cp_model(inst: Instance, rows: Iterable[Iterable[object]]) -> CandidateProbModel:
    """Build and validate a CandidateProb model from an n-by-m matrix."""
    built = tuple(tuple(parse_probability(p) for p in row) for row in rows)
    return validate(CandidateProbModel(inst, built))


def tva_model(inst: Instance, rows: Iterable[Iterable[object]]) -> ThreeValuedModel:
    """Build and validate a ThreeValued model from an n-by-m matrix."""
    built = tuple(tuple(parse_probability(p) for p in row) for row in rows)
    return validate(ThreeValuedModel(inst, built))


# ---------------------------------------------------------------------------
# validation


def _canonical(s) -> bool:
    return isinstance(s, tuple) and list(s) == sorted(set(s))


def _set_errors(s, m: int, where: str, errors: list[str]) -> None:
    if not _canonical(s):
        errors.append(f"{where}: approval set {s!r} is not a canonical sorted tuple")
        return
    for c in s:
        if not isinstance(c, int) or c < 0 or c >= m:
            errors.append(f"{where}: candidate id {c!r} out of range for m={m}")


def _matrix_errors(rows, inst: Instance, errors: list[str]) -> None:
    if len(rows) != inst.n:
        errors.append(f"matrix has {len(rows)} rows, expected n={inst.n}")
    for i, row in enumerate(rows):
        if len(row) != inst.m:
            errors.append(f"row {i}: has {len(row)} entries, expected m={inst.m}")


def validation_errors(model: Model) -> list[str]:
    """Every invariant violation in ``model``, as human-readable messages."""
    errors: list[str] = []
    inst = model.instance
    if isinstance(model, JointModel):
        if not model.entries:
            errors.append("no profiles listed")
        seen: dict[Profile, int] = {}
        total = Fraction(0)
        for r, (lam, prof) in enumerate(model.entries):
            if lam <= 0 or lam > 1:
                errors.append(f"entry {r}: probability {lam} not in (0, 1]")
            total += lam
            if len(prof) != inst.n:
                errors.append(f"entry {r}: profile has {len(prof)} sets, expected n={inst.n}")
            for i, s in enumerate(prof):
                _set_errors(s, inst.m, f"entry {r}, voter {i}", errors)
            if prof in seen:
                errors.append(f"entry {r}: duplicate of profile in entry {seen[prof]}")
            else:
                seen[prof] = r
        if model.entries and total != 1:
            errors.append(f"profile probabilities sum to {total}, expected 1")
    elif isinstance(model, LotteryModel):
        if len(model.lotteries) != inst.n:
            errors.append(f"{len(model.lotteries)} voter distributions, expected n={inst.n}")
        for i, voter in enumerate(model.lotteries):
            if not voter:
                errors.append(f"voter {i}: empty distribution")
                continue
            total = Fraction(0)
            seen_sets: set[ApprovalSet] = set()
            for lam, s in voter:
                if lam <= 0 or lam > 1:
                    errors.append(f"voter {i}: probability {lam} not in (0, 1]")
                total += lam
                _set_errors(s, inst.m, f"voter {i}", errors)
                if s in seen_sets:
                    errors.append(f"voter {i}: duplicate approval set {s}")
                seen_sets.add(s)
            if total != 1:
                errors.append(f"voter {i}: set probabilities sum to {total}, expected 1")
    elif isinstance(model, CandidateProbModel):
        _matrix_errors(model.probs, inst, errors)
        for i, row in enumerate(model.probs):
            for c, p in enumerate(row):
                if not 0 <= p <= 1:
                    errors.append(f"entry ({i}, {c}): probability {p} not in [0, 1]")
    elif isinstance(model, ThreeValuedModel):
        _matrix_errors(model.entries, inst, errors)
        for i, row in enumerate(model.entries):
            for c, p in enumerate(row):
                if p not in (0, HALF, 1):
                    errors.append(f"entry ({i}, {c}): value {p} not in {{0, 1/2, 1}}")
    else:
        raise InputError(f"not an uncertainty model: {model!r}")
    return errors


def validate(model: Model) -> Model:
    """Raise :class:`InputError` listing every violation; return the model."""
    errors = validation_errors(model)
    if errors:
        raise InputError("; ".join(errors))
    return model


# ---------------------------------------------------------------------------
# conversions


def tva_to_cp(model: ThreeValuedModel) -> CandidateProbModel:
    """Embed a ThreeValued model into CandidateProb (entries unchanged)."""
    return CandidateProbModel(model.instance, model.entries)


def _cp_rows(model: CandidateProbModel | ThreeValuedModel) -> tuple[tuple[Fraction, ...], ...]:
    return model.entries if isinstance(model, ThreeValuedModel) else model.probs


def _row_lottery(row) -> tuple[tuple[Fraction, ApprovalSet], ...]:
    """One matrix row as a set distribution: free candidates ascending,
    the first outermost, disapprove before approve."""
    forced = [c for c, p in enumerate(row) if p == 1]
    free = [c for c, p in enumerate(row) if 0 < p < 1]
    entries = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        lam = ONE
        members = list(forced)
        for c, bit in zip(free, bits):
            if bit:
                members.append(c)
                lam *= row[c]
            else:
                lam *= 1 - row[c]
        entries.append((lam, tuple(sorted(members))))
    return tuple(entries)


def cp_to_lottery(
    model: CandidateProbModel | ThreeValuedModel, budget: int | None = None
) -> LotteryModel:
    """Expand per-candidate probabilities into per-voter set distributions.

    Voter ``i``'s support is every set containing the forced approvals
    and any subset of the undetermined candidates, with probability
    ``prod(p for approved) * prod(1 - p for not approved)``.  Support
    size is ``2**u_i`` for ``u_i`` undetermined entries, hence the
    budget check.
    """
    cap = resolve_budget(budget)
    lotteries = []
    for row in _cp_rows(model):
        support = 2 ** sum(1 for p in row if 0 < p < 1)
        if support > cap:
            raise BudgetError(support, cap)
        lotteries.append(_row_lottery(row))
    return LotteryModel(model.instance, tuple(lotteries))


def lottery_to_joint(model: LotteryModel, budget: int | None = None) -> JointModel:
    """Take the product of the independent per-voter distributions."""
    denom, profiles = _weighted_profiles(model, budget)
    return JointModel(
        model.instance, tuple((Fraction(wt, denom), prof) for prof, wt in profiles)
    )


# ---------------------------------------------------------------------------
# enumeration


def _free_pairs(rows) -> list[tuple[int, int]]:
    return [
        (i, c)
        for i, row in enumerate(rows)
        for c, p in enumerate(row)
        if 0 < p < 1
    ]


def plausible_count(model: Model) -> int:
    """Exact number of plausible profiles, computed without enumerating."""
    if isinstance(model, JointModel):
        return len(model.entries)
    if isinstance(model, LotteryModel):
        total = 1
        for voter in model.lotteries:
            total *= len(voter)
        return total
    return 2 ** len(_free_pairs(_cp_rows(model)))


def first_plausible(model: Model) -> PlausibleProfile:
    """The first profile in enumeration order, without paying for enumeration."""
    if isinstance(model, JointModel):
        lam, prof = model.entries[0]
        return PlausibleProfile(prof, lam)
    if isinstance(model, LotteryModel):
        lam = ONE
        sets = []
        for voter in model.lotteries:
            entry_lam, s = voter[0]
            lam *= entry_lam
            sets.append(s)
        return PlausibleProfile(tuple(sets), lam)
    rows = _cp_rows(model)
    prof = tuple(
        tuple(c for c, p in enumerate(row) if p == 1) for row in rows
    )
    lam = ONE
    for row in rows:
        for p in row:
            if 0 < p < 1:
                lam *= 1 - p
    return PlausibleProfile(prof, lam)


def _over_common_denominator(entries) -> tuple[int, list]:
    """``(probability, item)`` pairs as ``(denominator, [(item, weight)])``
    with ``probability == weight / denominator`` for every item."""
    denom = math.lcm(*(lam.denominator for lam, _ in entries))
    return denom, [(item, lam.numerator * (denom // lam.denominator)) for lam, item in entries]


def _product(tables) -> Iterator[tuple[Profile, int]]:
    """Product of per-voter ``[(set, weight)]`` tables, voter 0 outermost.

    The prefix over all voters but the last is built once and extended
    by each of the last voter's sets in the innermost loop.
    """
    *head, last = tables
    head_sets = [[s for s, _ in table] for table in head]
    head_weights = [[wt for _, wt in table] for table in head]
    for prefix, weights in zip(itertools.product(*head_sets), itertools.product(*head_weights)):
        weight = math.prod(weights)
        for s, wt in last:
            yield prefix + (s,), weight * wt


def _weighted_profiles(
    model: Model, budget: int | None = None
) -> tuple[int, Iterator[tuple[Profile, int]]]:
    """The enumeration kernel: ``(denominator, iterator of (profile, weight))``.

    Every plausible profile comes exactly once, in enumeration order
    (see module docstring), with probability ``weight / denominator``
    for a positive integer ``weight``.  Raises :class:`BudgetError` up
    front when the profile count exceeds the budget.
    """
    cap = resolve_budget(budget)
    total = plausible_count(model)
    if total > cap:
        raise BudgetError(total, cap)
    if isinstance(model, JointModel):
        denom, entries = _over_common_denominator(model.entries)
        return denom, iter(entries)
    if isinstance(model, LotteryModel):
        voters = model.lotteries
    else:
        voters = [_row_lottery(row) for row in _cp_rows(model)]
    tables = [_over_common_denominator(voter) for voter in voters]
    return math.prod(d for d, _ in tables), _product([t for _, t in tables])


def enumerate_plausible(model: Model, budget: int | None = None) -> Iterator[PlausibleProfile]:
    """Every plausible profile exactly once, with its exact probability.

    Deterministic order (see module docstring); probabilities sum to 1.
    Raises :class:`BudgetError` up front when the profile count exceeds
    the budget; exponential objects fail loudly, never silently.
    """
    denom, profiles = _weighted_profiles(model, budget)
    return (PlausibleProfile(prof, Fraction(wt, denom)) for prof, wt in profiles)


def profile_probability(model: Model, prof) -> Fraction:
    """Exact probability of ``prof`` under ``model`` (0 if not plausible)."""
    prof = approval_profile(prof, model.instance)
    if isinstance(model, JointModel):
        for lam, entry in model.entries:
            if entry == prof:
                return lam
        return Fraction(0)
    if isinstance(model, LotteryModel):
        lam = ONE
        for voter, s in zip(model.lotteries, prof):
            table = {entry_set: entry_lam for entry_lam, entry_set in voter}
            if s not in table:
                return Fraction(0)
            lam *= table[s]
        return lam
    # One integer factor per entry: the entry's numerator for an
    # approved candidate, the complement's otherwise, over the entry's
    # denominator; a single Fraction is built at the end.
    num = den = 1
    for row, s in zip(_cp_rows(model), prof):
        members = set(s)
        for c, p in enumerate(row):
            factor = p.numerator if c in members else p.denominator - p.numerator
            if factor == 0:
                return Fraction(0)
            num *= factor
            den *= p.denominator
    return Fraction(num, den)
