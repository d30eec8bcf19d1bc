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

Flat scans, which sum over every profile or look for the first witness,
read the same profiles and weights as lanes (``_lanes``): one integer
per (voter, candidate) with one bit per profile, so a test of every
profile is a few big-integer operations; ``_profile_at`` decodes a bit.
A Joint model's lanes come column-wise from its entries, with no
per-profile loop in Python, and are kept on the model with its
common-denominator weights (``JointModel.lanes``, ``weighted``).
Independent voters' lanes come from the product structure of their
tables, in chunks of at most ``LANE_CHUNK`` profiles; a voter with one
table entry gets no lanes and is counted with the others of its set.

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
    """Distribution over whole approval profiles.

    The entries over their common denominator (``weighted``) and their
    lanes (``lanes``) are built on first use and kept on the object, like
    the classified rows of a matrix model.  Neither is a dataclass field,
    and a pickle leaves both out, so equality, hashing, ``repr``, pickles
    and the written document see only the entries.
    """

    instance: Instance
    entries: tuple[tuple[Fraction, Profile], ...]

    @cached_property
    def weighted(self) -> tuple[int, list[tuple[Profile, int]]]:
        """``(denominator, [(profile, integer weight)])`` in entry order."""
        return _over_common_denominator(self.entries)

    @cached_property
    def lanes(self) -> tuple[int, list[tuple]]:
        """``(denominator, [chunk])``: every entry in one chunk of lanes
        (see ``_lanes``)."""
        denom, weighted = self.weighted
        profiles, weights = zip(*weighted)
        return denom, [_joint_chunk(self.instance, profiles, weights)]

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("weighted", None)
        state.pop("lanes", None)
        return state


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


def _exact(p) -> bool:
    """Whether ``p`` is an exact number that the integer checks can read:
    a ``Fraction`` or an ``int``, never a float or a string."""
    return isinstance(p, (Fraction, int))


def _cp_entry_ok(p) -> bool:
    return _exact(p) and 0 <= p.numerator <= p.denominator


def _tva_entry_ok(p) -> bool:
    if not _exact(p):
        return False
    num, den = p.numerator, p.denominator
    return num == 0 or num == den or (num, den) == (1, 2)


def _lam_errors(lam, where: str, errors: list[str]) -> None:
    """The error, if any, of the probability ``lam`` of a Joint entry or
    a Lottery set: it must be exact and in (0, 1]."""
    if not _exact(lam):
        errors.append(f"{where}: {lam!r} is not an exact probability")
    elif not 0 < lam.numerator <= lam.denominator:
        errors.append(f"{where}: probability {lam} not in (0, 1]")


def _entry_errors(rows, ok, message: str, errors: list[str]) -> None:
    """One error per matrix entry that fails ``ok``: ``message`` for an
    exact value, a plain refusal for anything else."""
    if all(map(ok, _distinct_entries(rows))):
        return
    for i, row in enumerate(rows):
        for c, p in enumerate(row):
            if not _exact(p):
                errors.append(f"entry ({i}, {c}): {p!r} is not an exact probability")
            elif not ok(p):
                errors.append(f"entry ({i}, {c}): " + message.format(p))


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
            if type(lam) is not Fraction or not 0 < lam.numerator <= lam.denominator:
                _lam_errors(lam, f"entry {r}", errors)
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
        lams = [lam for lam, _ in model.entries]
        if lams and all(map(_exact, lams)):
            num, den = _integer_sum(lams)
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
                if type(lam) is not Fraction or not 0 < lam.numerator <= lam.denominator:
                    _lam_errors(lam, f"voter {i}", errors)
                if check_sets and not _set_ok(s, inst.m):
                    _set_errors(s, inst.m, f"voter {i}", errors)
                try:
                    duplicate = s in seen_sets
                except TypeError:  # unhashable, reported above
                    continue
                if duplicate:
                    errors.append(f"voter {i}: duplicate approval set {s}")
                seen_sets.add(s)
            lams = [lam for lam, _ in voter]
            if not all(map(_exact, lams)):
                continue
            num, den = _integer_sum(lams)
            if num != den:
                errors.append(f"voter {i}: set probabilities sum to {Fraction(num, den)}, expected 1")
    elif isinstance(model, CandidateProbModel):
        _matrix_errors(model.probs, inst, errors)
        _entry_errors(model.probs, _cp_entry_ok, "probability {} not in [0, 1]", errors)
    elif isinstance(model, ThreeValuedModel):
        _matrix_errors(model.entries, inst, errors)
        _entry_errors(model.entries, _tva_entry_ok, "value {} not in {{0, 1/2, 1}}", errors)
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
    if not free:  # a certain row: ``forced`` is already ascending
        return 1, [(tuple(forced), 1)]
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
    with ``probability == weight / denominator`` for every item.  Each
    probability is read once, by one ``as_integer_ratio`` call, since
    the ``Fraction`` properties cost more than the integer arithmetic."""
    ratios = [(lam.as_integer_ratio(), item) for lam, item in entries]
    denom = math.lcm(*{den for (_, den), _ in ratios})
    return denom, [(item, num * (denom // den)) for (num, den), item in ratios]


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
        denom, entries = model.weighted
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


# ---------------------------------------------------------------------------
# lanes

# The most profiles in one chunk of a scan over independent voters.
LANE_CHUNK = 1 << 12


def _lanes(model: Model, budget: int | None) -> tuple[int, Iterator[tuple]]:
    """The plausible profiles as lanes: ``(denominator, chunks)``.

    A chunk ``(count, lanes, weights, fixed)`` holds ``count``
    consecutive profiles in enumeration order, profile ``p`` of the chunk
    at bit ``p``.  ``lanes[c][v]`` has bit ``p`` set when the ``v``-th
    voter with lanes approves candidate ``c`` in that profile.  The
    voters without lanes approve the same set in every profile: ``fixed``
    lists ``(candidate mask, number of such voters)`` per distinct set
    (none on a Joint model).  ``weights`` is ``(scale,
    planes)``: the integer weight of profile ``p`` is ``scale`` times the
    sum of ``1 << b`` over the ``(b, plane)`` of ``planes`` whose plane
    has bit ``p`` set, and its probability is that weight over the
    denominator (``_lane_total`` sums a mask of profiles).

    A Joint model is one chunk, stored on the model (``JointModel.lanes``).
    Independent voters come in chunks of at most ``LANE_CHUNK`` profiles
    (more only when the last voter alone has more sets), built lazily from
    the product structure of ``_voter_tables``: voter 0 outermost, so the
    innermost voters that fit in a chunk vary inside it and the outer
    voters are fixed for the chunk.  Raises :class:`BudgetError` up front
    when the plausible-profile count exceeds the budget.
    """
    if isinstance(model, JointModel):
        _require_budget(model, budget)
        return model.lanes
    tables = _voter_tables(model, budget)
    return math.prod(d for d, _ in tables), _table_chunks(model.instance, [t for _, t in tables])


def _lane_total(mask: int, weights: tuple[int, list[tuple[int, int]]]) -> int:
    """The integer weight of the profiles of ``mask``, one bit per
    profile of its chunk."""
    scale, planes = weights
    return scale * sum((mask & plane).bit_count() << b for b, plane in planes)


# _DIGITS[i] translates a byte to "1" when its bit i is set, else to "0".
_DIGITS = [bytes(48 + (x >> i & 1) for x in range(256)) for i in range(8)]


def _bit_slices(words: bytes, size: int, width: int) -> list[int]:
    """Bit-slice a run of little-endian ``size``-byte words, the last
    word first: lane ``b`` has bit ``p`` set when word ``p`` has bit
    ``b`` set.  Byte ``i`` of every word is one strided slice, whose
    digits for one of its bits read as the lane, in C throughout."""
    return [int(words[b // 8::size].translate(_DIGITS[b % 8]), 2) for b in range(width)]


def _weight_planes(weights) -> list[tuple[int, int]]:
    """``weights`` (one per bit) bit-sliced: ``(b, plane)`` for each bit
    ``b`` set in some weight, ``plane`` holding the bits whose weight
    has bit ``b`` set.  Weights over their least common denominator have
    no common factor, so all-equal weights are all 1: one plane."""
    width = max(weights).bit_length()
    size = (width + 7) // 8
    if size == 1:
        words = bytes(reversed(weights))
    else:
        words = b"".join(map(int.to_bytes, reversed(weights), itertools.repeat(size),
                             itertools.repeat("little")))
    planes = enumerate(_bit_slices(words, size, width))
    return [(b, plane) for b, plane in planes if plane]


class _SetWords(dict):
    """Approval set -> its candidate mask as little-endian bytes, built on
    first use."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def __missing__(self, s: ApprovalSet) -> bytes:
        word = self[s] = sum(1 << c for c in s).to_bytes(self.size, "little")
        return word


# The one-byte words of the sets over at most 8 candidates, shared by
# every model, so a fresh model computes none of them again.  A word
# depends only on its set, and there are at most 256 such sets.
_BYTE_WORDS = _SetWords(1)


def _joint_chunk(inst: Instance, profiles: tuple[Profile, ...], weights: tuple[int, ...]) -> tuple:
    """The lanes of a profile list as one chunk.  Every voter's sets, in
    voter-major order and the last first, become candidate masks of
    ``ceil(m / 8)`` bytes each; ``_bit_slices`` reads off one integer per
    candidate holding every voter's lane, ``count`` bits each."""
    count = len(profiles)
    size = (inst.m + 7) // 8
    words = _BYTE_WORDS if size == 1 else _SetWords(size)
    # Each voter's column of sets, last profile first, last voter first.
    columns = list(zip(*reversed(profiles)))[::-1]
    joined = b"".join(map(words.__getitem__, itertools.chain.from_iterable(columns)))
    full = (1 << count) - 1
    lanes = [
        [voters >> (v * count) & full for v in range(inst.n)]
        for voters in _bit_slices(joined, size, inst.m)
    ]
    return count, lanes, (1, _weight_planes(weights)), ()


def _table_chunks(inst: Instance, tables: list[list[tuple[ApprovalSet, int]]]) -> Iterator[tuple]:
    """The chunks of the product of per-voter ``[(set, weight)]`` tables.

    A voter with one entry approves the same set in every profile, with
    probability 1 (weight 1 over denominator 1), so it gets no lanes:
    such voters are counted per distinct set in ``fixed``.  Of the other
    voters, the inner ones, the longest suffix whose product of table
    sizes fits ``LANE_CHUNK``, vary inside a chunk.  Inner voter ``v``'s
    ``j``-th set covers the bits whose digit for ``v`` is ``j``: a block
    of ``stride`` ones (the product of the later voters' table sizes) at
    ``j * stride``, repeated every ``len(table) * stride`` bits, that is
    the block pattern times a repunit.  The inner weights are the same in
    every chunk; the outer voters' sets and weights are fixed per chunk,
    with their lanes all ones or zero.
    """
    counts: dict[ApprovalSet, int] = {}
    varying = []
    for table in tables:
        if len(table) > 1:
            varying.append(table)
        else:
            (s, _), = table
            counts[s] = counts.get(s, 0) + 1
    fixed = [(sum(1 << c for c in s), count) for s, count in counts.items()]
    n = len(varying)
    split = max(n - 1, 0)
    size = len(varying[-1]) if varying else 1
    while split and size * len(varying[split - 1]) <= LANE_CHUNK:
        split -= 1
        size *= len(varying[split])
    full = (1 << size) - 1
    lanes = [[0] * n for _ in range(inst.m)]
    weights = [1]
    stride = size
    for v in range(split, n):
        table = varying[v]
        period = stride
        stride //= len(table)
        repunit = full // ((1 << period) - 1)
        block = (1 << stride) - 1
        patterns: dict[int, int] = {}
        for j, (s, _) in enumerate(table):
            for c in s:
                patterns[c] = patterns.get(c, 0) | block << (j * stride)
        for c, pattern in patterns.items():
            lanes[c][v] = pattern * repunit
        weights = [a * wt for a in weights for _, wt in table]
    planes = _weight_planes(weights)
    for combo in itertools.product(*varying[:split]):
        chunk = [col[:] for col in lanes]
        outer = 1
        for v, (s, wt) in enumerate(combo):
            outer *= wt
            for c in s:
                chunk[c][v] = full
        yield size, chunk, (outer, planes), fixed


def _profile_at(tables: list[list[tuple[ApprovalSet, int]]], p: int) -> tuple[Profile, int]:
    """Profile ``p`` of the product of per-voter ``[(set, weight)]`` tables
    and its weight: ``p``'s digits in the mixed radix of the table sizes,
    voter 0 most significant, index each voter's table."""
    sets = []
    weight = 1
    for table in reversed(tables):
        p, j = divmod(p, len(table))
        s, wt = table[j]
        sets.append(s)
        weight *= wt
    return tuple(reversed(sets)), weight


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
