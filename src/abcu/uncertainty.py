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

Probabilities are parsed once.  Each constructor call keeps one memo
from raw value to ``Fraction`` (``_probability_parser``): a string or an
exact ``int`` is parsed by ``parse_probability`` the first time it
occurs and looked up afterwards; a ``Fraction`` is range-checked on its
numerator and denominator and kept as it is; anything else goes
straight to ``parse_probability``, so it fails with that function's
message.  ``io`` parses a document with one such memo and hands the
parsed values on, so no entry is parsed twice.

Matrix rows are classified on integers (``_split_row``): an entry
``p = num/den`` is a forced approval when ``num == den``, free when
``0 < num < den`` and a certain disapproval when ``num == 0``.  Row
expansion, ``first_plausible``, ``plausible_count``,
``profile_probability`` and the matrix paths of ``decide`` and
``probability`` work on this classification, and validation reads the
same integers, so no path compares a ``Fraction`` per entry; a
``Fraction`` is built only for a probability that is returned.  Each
model object classifies its rows once, on first use, and keeps the
result (``split_rows``), so a model asked many questions pays for one
pass.  The stored rows are not a dataclass field: equality, hashing,
``repr`` and the written document see only the matrix.

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
from functools import cached_property
from typing import Iterable, Iterator, Union

from .model import (
    _INT_TYPES,
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


class _MatrixRows:
    """The rows of a CandidateProb or ThreeValued model, classified by
    ``_split_row`` on first use and kept on the object.  Callers read
    the lists and never change them."""

    @cached_property
    def split_rows(self) -> list[tuple[list[int], list[tuple[int, int, int]]]]:
        return list(map(_split_row, _cp_rows(self)))


@dataclass(frozen=True)
class CandidateProbModel(_MatrixRows):
    """Independent approval probability for every (voter, candidate) pair."""

    instance: Instance
    probs: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ThreeValuedModel(_MatrixRows):
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


def _probability_parser():
    """``parse_probability`` memoised for one document or constructor call.

    Strings and exact ints are parsed once per distinct value.  A
    ``Fraction`` in ``[0, 1]`` is kept as it is, checked on its integers.
    Every other value, and every value that fails, goes to
    ``parse_probability`` each time, so its error is unchanged.
    """
    memo: dict = {}

    def parse(value) -> Fraction:
        kind = type(value)
        if kind is str or kind is int:
            f = memo.get(value)
            if f is None:
                f = memo[value] = parse_probability(value)
            return f
        if kind is Fraction and 0 <= value.numerator <= value.denominator:
            return value
        return parse_probability(value)

    return parse


def joint_model(inst: Instance, entries: Iterable[tuple[object, object]]) -> JointModel:
    """Build and validate a Joint model from (probability, profile) pairs."""
    parse = _probability_parser()
    built = tuple((parse(lam), approval_profile(prof, inst)) for lam, prof in entries)
    return _validated(JointModel(inst, built), check_sets=False)


def lottery_model(
    inst: Instance, lotteries: Iterable[Iterable[tuple[object, object]]]
) -> LotteryModel:
    """Build and validate a Lottery model from per-voter (probability, set) pairs."""
    parse = _probability_parser()
    built = tuple(
        tuple((parse(lam), approval_set(s, inst.m)) for lam, s in voter)
        for voter in lotteries
    )
    return _validated(LotteryModel(inst, built), check_sets=False)


def _matrix(rows: Iterable[Iterable[object]]) -> tuple[tuple[Fraction, ...], ...]:
    parse = _probability_parser()
    return tuple(tuple(map(parse, row)) for row in rows)


def cp_model(inst: Instance, rows: Iterable[Iterable[object]]) -> CandidateProbModel:
    """Build and validate a CandidateProb model from an n-by-m matrix."""
    return validate(CandidateProbModel(inst, _matrix(rows)))


def tva_model(inst: Instance, rows: Iterable[Iterable[object]]) -> ThreeValuedModel:
    """Build and validate a ThreeValued model from an n-by-m matrix."""
    return validate(ThreeValuedModel(inst, _matrix(rows)))


# ---------------------------------------------------------------------------
# validation


def _canonical(s) -> bool:
    try:
        return isinstance(s, tuple) and list(s) == sorted(set(s))
    except TypeError:  # unhashable or unorderable members
        return False


def _set_errors(s, m: int, where: str, errors: list[str]) -> None:
    if not _canonical(s):
        errors.append(f"{where}: approval set {s!r} is not a canonical sorted tuple")
        return
    for c in s:
        if not isinstance(c, int) or c < 0 or c >= m:
            errors.append(f"{where}: candidate id {c!r} out of range for m={m}")


def _set_ok(s, m: int) -> bool:
    """A quick pass of ``_set_errors``: a sorted tuple of distinct ints in range."""
    return (
        type(s) is tuple and {*map(type, s)} <= _INT_TYPES
        and (not s or (s[0] >= 0 and s[-1] < m)) and list(s) == sorted(set(s))
    )


def _integer_sum(lams: list[Fraction]) -> tuple[int, int]:
    """``sum(lams)`` as (numerator, denominator) over the lcm of the
    denominators, with no ``Fraction`` arithmetic."""
    den = math.lcm(*(lam.denominator for lam in lams))
    return sum(lam.numerator * (den // lam.denominator) for lam in lams), den


def _matrix_errors(rows, inst: Instance, errors: list[str]) -> None:
    if len(rows) != inst.n:
        errors.append(f"matrix has {len(rows)} rows, expected n={inst.n}")
    for i, row in enumerate(rows):
        if len(row) != inst.m:
            errors.append(f"row {i}: has {len(row)} entries, expected m={inst.m}")


def _distinct_entries(rows):
    """The distinct entry objects of a matrix, by identity.  A parsed
    matrix shares one ``Fraction`` per distinct raw value, so checking
    these first settles a valid matrix in a few integer tests."""
    flat = list(itertools.chain.from_iterable(rows))
    return dict(zip(map(id, flat), flat)).values()


def _cp_entry_ok(p) -> bool:
    return 0 <= p.numerator <= p.denominator


def _tva_entry_ok(p) -> bool:
    num, den = p.numerator, p.denominator
    return num == 0 or num == den or (num, den) == (1, 2)


def validation_errors(model: Model) -> list[str]:
    """Every invariant violation in ``model``, as human-readable messages."""
    return _model_errors(model, check_sets=True)


def _model_errors(model: Model, check_sets: bool) -> list[str]:
    """``validation_errors``, checking each approval set of a Joint or
    Lottery model only when ``check_sets``.  The constructors pass
    False: ``approval_set`` has just canonicalised and range-checked
    every set."""
    errors: list[str] = []
    inst = model.instance
    if isinstance(model, JointModel):
        if not model.entries:
            errors.append("no profiles listed")
        seen: dict[Profile, int] = {}
        for r, (lam, prof) in enumerate(model.entries):
            if not 0 < lam.numerator <= lam.denominator:
                errors.append(f"entry {r}: probability {lam} not in (0, 1]")
            if len(prof) != inst.n:
                errors.append(f"entry {r}: profile has {len(prof)} sets, expected n={inst.n}")
            if check_sets:
                if type(prof) is not tuple:
                    errors.append(f"entry {r}: profile {prof!r} is not a tuple of approval sets")
                for i, s in enumerate(prof):
                    if not _set_ok(s, inst.m):
                        _set_errors(s, inst.m, f"entry {r}, voter {i}", errors)
            try:
                first = seen.setdefault(prof, r)
            except TypeError:  # unhashable, reported above
                continue
            if first != r:
                errors.append(f"entry {r}: duplicate of profile in entry {first}")
        if model.entries:
            num, den = _integer_sum([lam for lam, _ in model.entries])
            if num != den:
                errors.append(f"profile probabilities sum to {Fraction(num, den)}, expected 1")
    elif isinstance(model, LotteryModel):
        if len(model.lotteries) != inst.n:
            errors.append(f"{len(model.lotteries)} voter distributions, expected n={inst.n}")
        for i, voter in enumerate(model.lotteries):
            if not voter:
                errors.append(f"voter {i}: empty distribution")
                continue
            seen_sets: set[ApprovalSet] = set()
            for lam, s in voter:
                if not 0 < lam.numerator <= lam.denominator:
                    errors.append(f"voter {i}: probability {lam} not in (0, 1]")
                if check_sets and not _set_ok(s, inst.m):
                    _set_errors(s, inst.m, f"voter {i}", errors)
                try:
                    duplicate = s in seen_sets
                except TypeError:  # unhashable, reported above
                    continue
                if duplicate:
                    errors.append(f"voter {i}: duplicate approval set {s}")
                seen_sets.add(s)
            num, den = _integer_sum([lam for lam, _ in voter])
            if num != den:
                errors.append(f"voter {i}: set probabilities sum to {Fraction(num, den)}, expected 1")
    elif isinstance(model, CandidateProbModel):
        _matrix_errors(model.probs, inst, errors)
        if not all(map(_cp_entry_ok, _distinct_entries(model.probs))):
            for i, row in enumerate(model.probs):
                for c, p in enumerate(row):
                    if not _cp_entry_ok(p):
                        errors.append(f"entry ({i}, {c}): probability {p} not in [0, 1]")
    elif isinstance(model, ThreeValuedModel):
        _matrix_errors(model.entries, inst, errors)
        if not all(map(_tva_entry_ok, _distinct_entries(model.entries))):
            for i, row in enumerate(model.entries):
                for c, p in enumerate(row):
                    if not _tva_entry_ok(p):
                        errors.append(f"entry ({i}, {c}): value {p} not in {{0, 1/2, 1}}")
    else:
        raise InputError(f"not an uncertainty model: {model!r}")
    return errors


def validate(model: Model) -> Model:
    """Raise :class:`InputError` listing every violation; return the model."""
    return _validated(model, check_sets=True)


def _validated(model: Model, check_sets: bool) -> Model:
    errors = _model_errors(model, check_sets)
    if errors:
        raise InputError("; ".join(errors))
    return model


# ---------------------------------------------------------------------------
# conversions


def tva_to_cp(model: ThreeValuedModel) -> CandidateProbModel:
    """Embed a ThreeValued model into CandidateProb (entries unchanged).
    The rows are the same, so their classification is handed on."""
    cp = CandidateProbModel(model.instance, model.entries)
    vars(cp)["split_rows"] = model.split_rows
    return cp


def _cp_rows(model: CandidateProbModel | ThreeValuedModel) -> tuple[tuple[Fraction, ...], ...]:
    return model.entries if isinstance(model, ThreeValuedModel) else model.probs


def _split_row(row) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A matrix row on integers: its forced approvals (``p == 1``) and
    its free entries ``(c, num, den)`` with ``0 < p = num/den < 1``, each
    in ascending candidate order.  Entries equal to 0 are in neither."""
    forced = []
    free = []
    for c, p in enumerate(row):
        num, den = p.numerator, p.denominator
        if num == den:
            forced.append(c)
        elif num:
            free.append((c, num, den))
    return forced, free


def _row_table(forced, free) -> tuple[int, list[tuple[ApprovalSet, int]]]:
    """A classified row as ``(denominator, [(set, weight)])``: free
    candidates ascending, the first outermost, disapprove before approve;
    each weight is one integer product over the free entries."""
    den = 1
    table: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for c, num, d in free:
        den *= d
        table = [
            entry
            for chosen, wt in table
            for entry in ((chosen, wt * (d - num)), (chosen + (c,), wt * num))
        ]
    return den, [(tuple(sorted((*forced, *chosen))), wt) for chosen, wt in table]


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
    for forced, free in model.split_rows:
        support = 2 ** len(free)
        if support > cap:
            raise BudgetError(support, cap)
        den, table = _row_table(forced, free)
        lotteries.append(tuple((Fraction(wt, den), s) for s, wt in table))
    return LotteryModel(model.instance, tuple(lotteries))


def lottery_to_joint(model: LotteryModel, budget: int | None = None) -> JointModel:
    """Take the product of the independent per-voter distributions."""
    denom, profiles = _weighted_profiles(model, budget)
    return JointModel(
        model.instance, tuple((Fraction(wt, denom), prof) for prof, wt in profiles)
    )


# ---------------------------------------------------------------------------
# enumeration


def plausible_count(model: Model) -> int:
    """Exact number of plausible profiles, computed without enumerating."""
    if isinstance(model, JointModel):
        return len(model.entries)
    if isinstance(model, LotteryModel):
        total = 1
        for voter in model.lotteries:
            total *= len(voter)
        return total
    return 2 ** sum(len(free) for _, free in model.split_rows)


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
    # Forced approvals only: every free entry is disapproved.
    sets = []
    num = den = 1
    for forced, free in model.split_rows:
        sets.append(tuple(forced))
        for _, p_num, p_den in free:
            num *= p_den - p_num
            den *= p_den
    return PlausibleProfile(tuple(sets), Fraction(num, den))


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


def _require_budget(model: Model, budget: int | None) -> None:
    """Raise :class:`BudgetError` when the plausible-profile count
    exceeds the budget."""
    cap = resolve_budget(budget)
    total = plausible_count(model)
    if total > cap:
        raise BudgetError(total, cap)


def _weighted_profiles(
    model: Model, budget: int | None = None
) -> tuple[int, Iterator[tuple[Profile, int]]]:
    """The enumeration kernel: ``(denominator, iterator of (profile, weight))``.

    Every plausible profile comes exactly once, in enumeration order
    (see module docstring), with probability ``weight / denominator``
    for a positive integer ``weight``.  Raises :class:`BudgetError` up
    front when the profile count exceeds the budget.
    """
    if isinstance(model, JointModel):
        _require_budget(model, budget)
        denom, entries = _over_common_denominator(model.entries)
        return denom, iter(entries)
    tables = _voter_tables(model, budget)
    return math.prod(d for d, _ in tables), _product([t for _, t in tables])


def _voter_tables(
    model: LotteryModel | CandidateProbModel | ThreeValuedModel, budget: int | None
) -> list[tuple[int, list[tuple[ApprovalSet, int]]]]:
    """Each voter's ``(denominator, [(approval set, weight)])`` table, in
    enumeration order: a Lottery voter's entries in input order, a
    matrix row expanded by ``_row_table``.  A profile's probability is
    the product of its voters' weights over the product of the
    denominators.  Raises :class:`BudgetError` up front when the
    plausible-profile count exceeds the budget, as every scan over the
    tables does."""
    _require_budget(model, budget)
    if isinstance(model, LotteryModel):
        return [_over_common_denominator(voter) for voter in model.lotteries]
    return list(itertools.starmap(_row_table, model.split_rows))


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
    return _profile_probability(model, approval_profile(prof, model.instance))


def _profile_probability(model: Model, prof: Profile) -> Fraction:
    """``profile_probability`` of a canonical profile of ``n`` sets."""
    if isinstance(model, JointModel):
        for lam, entry in model.entries:
            if entry == prof:
                return lam
        return Fraction(0)
    if isinstance(model, LotteryModel):
        num = den = 1
        for voter, s in zip(model.lotteries, prof):
            for entry_lam, entry_set in voter:
                if entry_set == s:
                    num *= entry_lam.numerator
                    den *= entry_lam.denominator
                    break
            else:
                return Fraction(0)
        return Fraction(num, den)
    # One integer factor per free entry: its numerator when approved,
    # its complement's otherwise, over its denominator.  The profile is
    # implausible when it misses a forced approval or approves an entry
    # of 0.
    num = den = 1
    for (forced, free), s in zip(model.split_rows, prof):
        members = set(s)
        if not members.issuperset(forced):
            return Fraction(0)
        approved = len(forced)
        for c, p_num, p_den in free:
            if c in members:
                approved += 1
                num *= p_num
            else:
                num *= p_den - p_num
            den *= p_den
        if approved != len(members):
            return Fraction(0)
    return Fraction(num, den)
