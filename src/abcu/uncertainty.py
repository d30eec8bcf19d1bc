"""The four uncertainty models over approval profiles.

* Joint: an explicit distribution over whole profiles.
* Lottery: independent per-voter distributions over approval sets.
* CandidateProb: independent per-(voter, candidate) approval probabilities.
* Three-valued: a CandidateProb model tagged ``three_valued``, its
  entries restricted to {0, 1/2, 1} (disapprove / unknown / approve), so
  all completions of the unknown entries are equiprobable.  Every model
  has the attribute, false on Joint and Lottery models; validation, the
  closed forms and profile counts of ``probability`` and ``io`` read it.

A profile with positive probability is *plausible*.  This module
provides validation, the conversions three-valued -> CandidateProb ->
Lottery -> Joint, and one decoder of the enumeration order (below):
``profile_at(p)`` is profile ``p`` with its exact probability.
``enumerate_plausible`` and ``lottery_to_joint`` decode every index in
turn, and the first-witness scans of ``decide`` the one index they find.

A Joint model's profile ``p`` is its entry ``p``.  Independent voters
each get a table of (approval set, integer weight) over that voter's
common denominator: a Lottery voter's entries in input order, a
CandidateProb row expanded as in ``cp_to_lottery`` (free candidates
ascending, disapprove before approve).  The digits of ``p`` in the
mixed radix of the table sizes, voter 0 most significant, index the
tables, so a profile's probability is the product of its voters'
weights over the product of their denominators, one ``Fraction`` per
profile.  A voter whose table has one entry has radix 1: it approves
that set in every profile, at weight 1 over denominator 1.  The voters
are split once into these and the varying ones (``voter_split``), and
only the varying voters' digits are decoded.

Flat scans, which sum over every profile or look for the first witness,
read the same profiles and weights as lanes (``_lanes``): one integer
per (voter, candidate) with one bit per profile, so a test of every
profile is a few big-integer operations.  A Joint model's lanes come
column-wise from its entries, with no per-profile loop in Python.
Independent voters' lanes come from the product structure of their
tables, in chunks of at most ``LANE_CHUNK`` profiles; a voter with one
table entry gets no lanes and is counted with the others of its set.

Every keyed table that this module fills as it is read is a ``_Memo``,
a dict that builds a missing key's value by its ``make`` and keeps it:
the parser below, ``cp_to_lottery``'s fractions, a Joint chunk's set
words and the halfword tables.  Probabilities are parsed once per
distinct value.  Each constructor call keeps one parser
(``_ProbabilityParser``), a ``_Memo`` of ``parse_probability`` from raw
value to ``Fraction``: a string or an exact ``int`` is parsed the first
time it is looked up and found afterwards; a ``Fraction`` is
range-checked on its numerator and denominator and kept as it is;
anything else goes straight to ``parse_probability``, so it fails with
that function's message.  The constructors read their input in whole
passes: every probability of the model in one, every approval set
canonicalised and range-checked in one (``model._approval_sets``), and
the results regrouped by voter, entry or row.  A list of strings and
ints is parsed by dict lookups alone, with no Python call per entry,
and a matrix of ``Fraction`` objects is checked once per distinct
object.  Only a malformed call reads its items one by one, to raise the
error of the first bad one.  ``io`` parses a document with one such
parser and hands the parsed values on, so no entry is parsed twice.

Matrix entries are classified once per distinct value, on integers: an
entry ``p = num/den`` is a forced approval (``FORCED``) when ``num ==
den``, free (``FREE``) for any other nonzero ``num`` and a certain
disapproval (0) when ``num == 0``.  The classes are kept as ``codes``,
one byte per entry in row-major order (``_codes``), built on first use,
so a document that is only validated never classifies: a matrix parsed
from strings and ints classifies each raw value in its parser's memo
and looks every entry's raw value up in one pass in C; a model built by
hand or from ``Fraction`` entries classifies each distinct entry object
and looks every entry up by identity.  Every matrix view is derived
from the codes by bytes operations in C: a candidate's
voters are a strided slice of them read as binary digits, the rows'
candidates one row word per class (below), the profile count
``2 ** codes.count(FREE)``, and only the free entries are read for
their numerators and denominators, once per distinct object.  Row
expansion, the first profile, ``profile_probability`` and the matrix
paths of ``decide`` and ``probability`` work on these views, and
validation reads the same integers, so no path compares a ``Fraction``
per entry; a ``Fraction`` is built only for a probability that is
returned.

A row word holds one candidate mask per row, row ``i`` at bit ``i * B``
for ``B`` the width ``m`` rounded up to whole halfwords (``_row_width``).
It is built from the codes by one strided copy per candidate into rows
of ``B`` bytes, read as binary digits.  ``_row_sets`` decodes a row
word into every row's approval set with no loop over the rows in
Python: the word's bytes are read as halfwords, each halfword position
``j`` is looked up in its table of candidate tuples (``_halfword_sets``)
and the positions are joined by ``operator.add``.  The first profile of
a matrix model is the decoded forced word, and the matrix JR witnesses
of ``decide`` are decoded the same way.  A position's table is one
``_Memo`` per process, shared by every model and filled through
``_BITS`` as values are met, about 1 microsecond per new value with
Python 3.11 on a 2-vCPU virtual machine, so the first decode of a
400-row matrix in a process costs up to 0.4 ms more per halfword
position.  A table holds at most ``2 ** 16`` entries, about 11 MiB when
full (27 MiB for candidates from 256 on, whose ints are not shared).

A Lottery model is validated the same way, in whole-model passes
(``_lotteries_ok``): each distinct probability object is range-checked
once, the sum of each distinct tuple of a voter's probability objects
is taken once (``_integer_sum``), and every voter's sets are checked
for duplicates by the sizes of their ``set``.  Only a model that these
passes refuse is read voter by voter (``_lottery_errors``), so every
message is the one that reading in order gives.

Every model kind answers the same facts about itself, so callers read
attributes instead of asking for its kind: ``profile_count`` (the
number of plausible profiles, which the budget gate of every scan reads
in O(1)), ``first`` (the first plausible profile), ``profile_at(p)``
(profile ``p`` in enumeration order, as a ``PlausibleProfile``),
``lanes`` (the ``(denominator, chunks)`` of ``_lanes``) and
``three_valued``.  What these and the polynomial questions read is
built on first use and kept on the model as views: a Joint model's lanes
and its approvers per candidate, one list of voter bitsets per entry,
each built the first time it is read (``approvers``); an independent
model's voter tables (``tables``), count, first profile, split of the
voters (``voter_split``) and the inner block of its lanes (``block``:
the inner voters' lanes and bit-sliced weights and the ``fixed``
counts, sized by ``LANE_CHUNK`` when built), so a scan after the first
pays only for the outer voters of each chunk;
a Lottery model's approvers per candidate, one list of voter bitsets
per set position ``t``, built the same way (``layers``); a matrix
model's distinct entry objects (``entry_values``, kept by the
constructor as it parses and checked by validation in place of every
entry), its entry classes (``codes``), which every other matrix view is
derived from, its classified rows (``split_rows``), its voters per candidate
as two bitsets, its forced and its free entries (``columns``), every
row's forced and every row's free entries as candidate masks packed into
one integer each (``row_words``) and each candidate's products of its
free entries' numerators, of their complements and of the denominators
(``column_products``), the product of every complement (``missed``),
and for every kind the candidates that some voter may approve
(``approved``).  One rule covers every view: it is not a
dataclass field, so equality, hashing, ``repr`` and the written
document see only the fields, and a pickle
holds the fields alone (``_Model.__getstate__``).  ``tva_to_cp`` hands
on the codes and every view already built, since the rows are the same.  Callers read
the views and never change them.  Two threads reading a view at once
may both build it, and both build the same value.

Enumeration order is fixed: Joint entries in input order; Lottery
combinations with voter 0 outermost and each voter's sets in input
order; CandidateProb branch over the undetermined (voter, candidate)
pairs in row-major order, disapprove before approve (the product of the
expanded rows yields exactly this order).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Collection, Iterable, Iterator, Union

from .axioms import _approvers, _mask
from .model import (
    _INT_TYPES,
    ApprovalSet,
    InputError,
    Instance,
    Profile,
    _approval_sets,
    _check_budget,
    approval_profile,
    approval_set,
    parse_probability,
)

HALF = Fraction(1, 2)

# The classes of a matrix entry ``num/den`` in ``CandidateProbModel.codes``:
# a certain disapproval (``num == 0``) is 0.
FORCED = 1  # ``num == den``
FREE = 2  # any other ``num != 0``
# _SELECT[code] translates that code's byte to 1 and every other to 0, for
# ``itertools.compress``; _DIGIT[code] translates it to "1" and every other
# to "0", for ``int(digits, 2)``.
_SELECT = [bytes(x == code for x in range(256)) for code in range(3)]
_DIGIT = [bytes(48 + (x == code) for x in range(256)) for code in range(3)]
# _BITS[x]: the bits of the byte value x, lowest first, as bytes 0 and 1.
_BITS = [bytes(x >> b & 1 for b in range(8)) for x in range(256)]


class _Memo(dict):
    """A keyed table filled as it is read: a missing key's value is
    ``make(key)``, stored and returned, so a hit is a ``dict`` lookup."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Model:
    """What every model kind answers alike: ``three_valued``, false unless
    a matrix model is tagged so, and its state in a pickle, which holds
    the dataclass fields only, so that no view built on first use is
    written out."""

    three_valued = False

    def __getstate__(self) -> dict:
        state = vars(self)
        return {name: state[name] for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class JointModel(_Model):
    """Distribution over whole approval profiles.  Profile ``p`` is entry
    ``p``; the lanes (``lanes``), the candidates some entry approves
    (``approved``) and each entry's per-candidate approvers
    (``approvers``) are built on first use and kept."""

    instance: Instance
    entries: tuple[tuple[Fraction, Profile], ...]

    @property
    def profile_count(self) -> int:
        return len(self.entries)

    @property
    def first(self) -> PlausibleProfile:
        return self.profile_at(0)

    def profile_at(self, p: int) -> PlausibleProfile:
        lam, prof = self.entries[p]
        return PlausibleProfile(prof, lam)

    @cached_property
    def lanes(self) -> tuple[int, list[tuple]]:
        """``(denominator, [chunk])``: every entry in one chunk of lanes
        (see ``_lanes``)."""
        denom, weighted = _over_common_denominator(self.entries)
        profiles, weights = zip(*weighted)
        return denom, [_joint_chunk(self.instance, profiles, weights)]

    @cached_property
    def approved(self) -> list[int]:
        """The candidates that some entry's profile approves, ascending."""
        return sorted(set(itertools.chain.from_iterable(
            itertools.chain.from_iterable(map(_second, self.entries)))))

    @cached_property
    def approvers(self) -> _EntryApprovers:
        """For each entry, each candidate's approvers as a voter bitset
        (``axioms._approvers``), in entry order; an entry's list is built
        the first time it is read."""
        entries = self.entries
        return _EntryApprovers(self.instance.m, len(entries), lambda p: entries[p][1])


class _EntryApprovers:
    """Per-index approver bitsets (``axioms._approvers`` over the profile
    ``profile(p)`` of index ``p``), each built the first time it is read,
    so a scan that stops at its first index builds one: a Joint model's
    entries, a Lottery model's set positions."""

    __slots__ = ("m", "profile", "built")

    def __init__(self, m: int, count: int, profile: Callable[[int], Profile]):
        self.m = m
        self.profile = profile
        self.built: list[list[int] | None] = [None] * count

    def __getitem__(self, p: int) -> list[int]:
        # Each slot is filled on its own, so readers in two threads at
        # most build the same index twice, never shift one into another.
        approvers = self.built[p]
        if approvers is None:
            approvers = self.built[p] = _approvers(self.m, self.profile(p))
        return approvers

    def __iter__(self) -> Iterator[list[int]]:
        return map(self.__getitem__, range(len(self.built)))


class _IndependentVoters(_Model):
    """A model of independent voters (Lottery or CandidateProb).  Its kind
    builds the voter tables (``tables``): each voter's ``(denominator,
    [(approval set, weight)])`` in enumeration order, so a profile's
    probability is the product of its voters' weights over the product
    of the denominators.  Every scan reads the inner block of the lanes
    (``block``), and every decoded profile the split of the voters
    (``voter_split``), built from them."""

    @cached_property
    def voter_split(self) -> tuple[list[ApprovalSet], list[tuple[int, int, list]]]:
        """``(single, varying)``: the set of each voter whose table has
        one entry, and every other voter as ``(voter, denominator,
        table)``, both in voter order.  A single-set voter approves its
        set in every profile, at weight 1 over denominator 1, and has
        radix 1 in a profile's index."""
        single = []
        varying = []
        for v, (den, table) in enumerate(self.tables):
            if len(table) > 1:
                varying.append((v, den, table))
            else:
                single.append(table[0][0])
        return single, varying

    @cached_property
    def block(self) -> tuple:
        """The part of every lane chunk that no chunk changes
        (``_lane_block``), sized by ``LANE_CHUNK`` as it is when built."""
        return _lane_block(self.instance.m, *self.voter_split)

    @property
    def lanes(self) -> tuple[int, Iterator[tuple]]:
        block = self.block
        return block[0], _block_chunks(block)

    def profile_at(self, p: int) -> PlausibleProfile:
        """Profile ``p``: its digits in the mixed radix of the varying
        voters' table sizes, the first most significant, index their
        tables; every single-set voter keeps its set of ``first``."""
        sets = list(self.first.profile)
        weight = denom = 1
        for v, den, table in reversed(self.voter_split[1]):
            p, j = divmod(p, len(table))
            sets[v], wt = table[j]
            weight *= wt
            denom *= den
        return PlausibleProfile(tuple(sets), Fraction(weight, denom))


@dataclass(frozen=True)
class LotteryModel(_IndependentVoters):
    """Independent per-voter distributions over approval sets; a voter's
    table lists its entries in input order."""

    instance: Instance
    lotteries: tuple[tuple[tuple[Fraction, ApprovalSet], ...], ...]

    @cached_property
    def tables(self) -> list[tuple[int, list[tuple[ApprovalSet, int]]]]:
        return [_over_common_denominator(voter) for voter in self.lotteries]

    @cached_property
    def profile_count(self) -> int:
        return math.prod(map(len, self.lotteries))

    @cached_property
    def first(self) -> PlausibleProfile:
        """Each voter's first set."""
        num = den = 1
        sets = []
        for voter in self.lotteries:
            entry_lam, s = voter[0]
            entry_num, entry_den = entry_lam.as_integer_ratio()
            num *= entry_num
            den *= entry_den
            sets.append(s)
        return PlausibleProfile(tuple(sets), Fraction(num, den))

    @cached_property
    def approved(self) -> list[int]:
        """The candidates that some voter's set holds, ascending."""
        return sorted(set(itertools.chain.from_iterable(
            map(_second, itertools.chain.from_iterable(self.lotteries)))))

    @cached_property
    def layers(self) -> _EntryApprovers:
        """For each set position ``t``, each candidate's voters whose
        ``t``-th set holds it, as voter bitsets: ``axioms._approvers``
        over the ``t``-th sets, where a voter with fewer sets has none.
        A layer is built the first time it is read; layer 0 is the view
        of the first plausible profile."""
        lotteries = self.lotteries
        return _EntryApprovers(
            self.instance.m, max(map(len, lotteries)),
            lambda t: [voter[t][1] if t < len(voter) else () for voter in lotteries],
        )


@dataclass(frozen=True)
class CandidateProbModel(_IndependentVoters):
    """Independent approval probability for every (voter, candidate)
    pair; when tagged ``three_valued``, certain entries and unknowns at
    1/2.  A row's table is its expansion by ``_row_table``.  Every view
    of the matrix is derived from one classification, ``codes``."""

    instance: Instance
    probs: tuple[tuple[Fraction, ...], ...]
    three_valued: bool = False

    @cached_property
    def tables(self) -> list[tuple[int, list[tuple[ApprovalSet, int]]]]:
        return list(itertools.starmap(_row_table, self.split_rows))

    @cached_property
    def profile_count(self) -> int:
        return 2 ** self.codes.count(FREE)

    @cached_property
    def first(self) -> PlausibleProfile:
        """Each row's forced approvals alone: every free entry is missed."""
        sets = _row_sets(self.row_words[0], len(self.probs), self.instance.m)
        return PlausibleProfile(sets, Fraction(self.missed, self.column_products[2]))

    @cached_property
    def entry_values(self) -> Collection:
        """The distinct entry objects, by identity (``_distinct_entries``),
        which validation checks in place of every entry.  The
        constructors keep it as they parse (``_matrix``); a model built
        by hand computes it on first read."""
        return _distinct_entries(self.probs)

    @cached_property
    def codes(self) -> bytes:
        """Each entry's class, one byte per entry in row-major order
        (``_codes``), built on first read.  A matrix parsed from strings
        and ints is classified per distinct raw value, by the parser's
        memo and the raw entries that ``_matrix`` keeps until then
        (``raw_entries``); any other model classifies each of its
        distinct entry objects."""
        raw = vars(self).pop("raw_entries", None)
        if raw is not None:
            return _codes(*raw)
        values = self.entry_values
        return _codes(dict(zip(map(id, values), values)),
                      map(id, itertools.chain.from_iterable(self.probs)))

    def _ratios(self) -> tuple[dict[int, int], dict[int, int]]:
        """The numerator and the denominator of each distinct entry, by
        the id of its object."""
        values = self.entry_values
        return ({id(p): p.numerator for p in values}, {id(p): p.denominator for p in values})

    @cached_property
    def split_rows(self) -> list[tuple[list[int], list[tuple[int, int, int]]]]:
        """For each row, its forced approvals and its free entries ``(c,
        num, den)``, each in ascending candidate order: the forced and the
        free entries of the whole matrix in row-major order, cut into rows
        by each row's counts of the two codes."""
        m = self.instance.m
        codes = self.codes
        free = codes.translate(_SELECT[FREE])
        nums, dens = self._ratios()
        ids = list(map(id, itertools.compress(itertools.chain.from_iterable(self.probs), free)))
        triples = zip(itertools.compress(itertools.cycle(range(m)), free),
                      map(nums.__getitem__, ids), map(dens.__getitem__, ids))
        forced = itertools.compress(itertools.cycle(range(m)), codes.translate(_SELECT[FORCED]))
        starts = range(0, len(codes), m)
        ends = range(m, len(codes) + m, m)

        def cut(items: Iterator, code: int) -> Iterator[list]:
            counts = map(codes.count, itertools.repeat(code), starts, ends)
            return map(list, map(itertools.islice, itertools.repeat(items), counts))

        return list(zip(cut(forced, FORCED), cut(triples, FREE)))

    @cached_property
    def columns(self) -> tuple[list[int], list[int]]:
        """``(forced, free)``: for each candidate, the voters whose entry
        is forced and the voters whose entry is free, as voter bitsets:
        one strided slice of the reversed codes per candidate, read as
        binary digits, the last voter first."""
        m = self.instance.m
        rev = self.codes[::-1]
        return tuple([int(digits[s::m], 2) for s in range(m - 1, -1, -1)]
                     for digits in (rev.translate(_DIGIT[FORCED]), rev.translate(_DIGIT[FREE])))

    @cached_property
    def approved(self) -> list[int]:
        """The candidates that some row approves with positive
        probability, ascending: those with a forced or a free entry."""
        forced, free = self.columns
        return list(itertools.compress(range(self.instance.m), map(operator.or_, forced, free)))

    @cached_property
    def row_words(self) -> tuple[int, int]:
        """``(forced, free)``: every row's forced and its free entries as
        one integer each, row ``i``'s candidate mask at bit ``i * B`` for
        the row width ``B = _row_width(m)``, read back by ``_row_sets``.
        The codes are spread to rows of ``B`` bytes by one strided copy
        per candidate, and the reversed bytes are read as binary digits,
        the last row's last candidate first."""
        m = self.instance.m
        width = _row_width(m)
        codes = self.codes
        padded = bytearray(len(codes) // m * width)
        for c in range(m):
            padded[c::width] = codes[c::m]
        rev = padded[::-1]
        return tuple(int(rev.translate(_DIGIT[code]), 2) for code in (FORCED, FREE))

    @cached_property
    def column_products(self) -> tuple[list[int], list[int], int]:
        """``(approve, miss, den)``: for each candidate, the product of
        ``num`` and the product of ``den - num`` over its free entries
        ``num/den``, and the product of every free entry's ``den``.  A
        profile that approves the free entries of some columns and misses
        those of the others has probability ``approve`` of the first times
        ``miss`` of the rest, over ``den``.  The free entries are read
        column by column and counted per distinct object, so each
        distinct entry of a column is one power."""
        m = self.instance.m
        free = self.codes.translate(_SELECT[FREE])
        selectors = [free[c::m] for c in range(m)]
        by_column = itertools.chain.from_iterable(zip(*self.probs))
        ids = map(id, itertools.compress(by_column, b"".join(selectors)))
        nums, dens = self._ratios()
        approve = []
        miss = []
        den = 1
        for count in map(bytes.count, selectors, itertools.repeat(1)):
            column_approve = column_miss = column_den = 1
            for key, times in Counter(itertools.islice(ids, count)).items():
                num, d = nums[key], dens[key]
                column_approve *= num ** times
                column_miss *= (d - num) ** times
                column_den *= d ** times
            approve.append(column_approve)
            miss.append(column_miss)
            den *= column_den
        return approve, miss, den

    @cached_property
    def missed(self) -> int:
        """The product of every candidate's ``miss`` (``column_products``),
        unreduced: over ``den``, the probability of missing every free
        entry.  A profile that approves the free entries of a few columns
        is priced from it by dividing out their ``miss``, each nonzero."""
        return math.prod(self.column_products[1])


Model = Union[JointModel, LotteryModel, CandidateProbModel]


@dataclass(frozen=True)
class PlausibleProfile:
    """An approval profile together with its exact positive probability."""

    profile: Profile
    prob: Fraction


# ---------------------------------------------------------------------------
# construction


# The item types of a list of raw probabilities that the parser's memo
# may read directly.  ``bool`` and ``float`` are not among them: ``True ==
# 1`` and ``1.0 == 1``, so they would find the key ``1``.
_RAW_TYPES = {str, int}
_FRACTION_TYPES = {Fraction}


class _ProbabilityParser(_Memo):
    """``parse_probability`` memoised for one document or constructor
    call: a dict from raw value to ``Fraction``.

    A string or an exact int is parsed the first time it is looked up
    and found afterwards; a value that fails is not kept, so it fails
    with the same error each time.  Called on one value, the parser
    keeps a ``Fraction`` in ``[0, 1]`` as it is, checked on its
    integers, and hands every other value to ``parse_probability``.
    ``sweep`` parses a list whose item types are within ``{str, int}``
    by dict lookups alone, with no Python call per value; ``all`` parses
    any list.  ``make`` is ``parse_probability`` as it is when the
    parser is made.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__(parse_probability)

    def __call__(self, value) -> Fraction:
        kind = type(value)
        if kind is str or kind is int:
            return self[value]
        if kind is Fraction and 0 <= value.numerator <= value.denominator:
            return value
        return parse_probability(value)

    def sweep(self, values: list) -> list[Fraction] | None:
        """``values`` parsed through the memo, or None when some item is
        not a string or an exact int.  Raises the first failure's error."""
        if {*map(type, values)} <= _RAW_TYPES:
            return list(map(self.__getitem__, values))
        return None

    def all(self, values: list) -> list[Fraction]:
        """``values`` parsed in order; raises the first failure's error."""
        swept = self.sweep(values)
        return list(map(self, values)) if swept is None else swept


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


def _pairs(items: list) -> tuple[list, list]:
    """The first and second items of each pair in ``items``; a
    ``ValueError`` when some item is not a pair."""
    pairs = list(map(tuple, items))
    if {*map(len, pairs)} - {2}:
        raise ValueError("not a pair")
    return list(map(_first, pairs)), list(map(_second, pairs))


def joint_model(inst: Instance, entries: Iterable[tuple[object, object]]) -> JointModel:
    """Build and validate a Joint model from (probability, profile) pairs."""
    parse = _ProbabilityParser()
    read: list = []
    try:
        read.extend(entries)
        lams, profiles = _pairs(read)
        lams = parse.all(lams)
        profiles = list(map(tuple, profiles))
    except (InputError, TypeError, ValueError):
        # The first error in reading order: an earlier entry's profile
        # may hold one.
        for lam, prof in read:
            parse(lam)
            approval_profile(prof, inst)
        raise
    return _joint(inst, lams, profiles)


def _joint(inst: Instance, lams: list[Fraction], profiles: list) -> JointModel:
    """A validated Joint model from its entries' parsed probabilities and
    raw profiles, each a list of raw approval sets."""
    n = inst.n
    if {*map(len, profiles)} - {n}:
        for prof in profiles:  # raises at the first error in reading order
            approval_profile(prof, inst)
    sets = iter(_approval_sets(itertools.chain.from_iterable(profiles), inst.m))
    built = tuple(zip(lams, zip(*[sets] * n)))  # n sets at a time
    return _validated(JointModel(inst, built), check_sets=False)


def lottery_model(
    inst: Instance, lotteries: Iterable[Iterable[tuple[object, object]]]
) -> LotteryModel:
    """Build and validate a Lottery model from per-voter (probability, set) pairs."""
    parse = _ProbabilityParser()
    voters: list[tuple] = []
    try:
        voters.extend(map(tuple, lotteries))
        lams, sets = _pairs(list(itertools.chain.from_iterable(voters)))
        lams = parse.all(lams)
    except (InputError, TypeError, ValueError):
        # The first error in reading order: an earlier set may hold one.
        for voter in voters:
            for lam, s in voter:
                parse(lam)
                approval_set(s, inst.m)
        raise
    return _lottery(inst, lams, sets, list(map(len, voters)))


def _lottery(inst: Instance, lams: list[Fraction], sets: list, lengths: list[int]) -> LotteryModel:
    """A validated Lottery model from every voter's parsed probabilities
    and raw approval sets, flattened in voter order, and each voter's
    number of sets."""
    pairs = zip(lams, _approval_sets(sets, inst.m))
    built = tuple(tuple(itertools.islice(pairs, size)) for size in lengths)
    return _validated(LotteryModel(inst, built), check_sets=False)


def _matrix(inst: Instance, rows: Iterable[Iterable[object]], three_valued: bool,
            parse: _ProbabilityParser | None = None) -> CandidateProbModel:
    """An unvalidated matrix model, its entries parsed in one pass by
    ``parse``, a fresh parser (by default, a new one).  When every entry
    is a string or an exact int, the parser's memo holds exactly the
    distinct entry objects, and the raw entries are kept for ``codes``,
    which classifies each raw value once on first read; when every entry
    is a ``Fraction``, each distinct object is checked once, and the
    entries are classified by identity on first use, as in a model built
    by hand.  Either way the distinct
    objects are kept as ``entry_values``."""
    parse = _ProbabilityParser() if parse is None else parse
    read: list[tuple] = []
    try:
        read.extend(map(tuple, rows))
    except TypeError:  # a row that is not iterable
        parse.all(list(itertools.chain.from_iterable(read)))  # an earlier entry's error first
        raise
    flat = list(itertools.chain.from_iterable(read))
    types = {*map(type, flat)}
    raw = None
    if types <= _RAW_TYPES:
        entries = list(map(parse.__getitem__, flat))
        distinct = list(parse.values())
        raw = parse, flat
    elif types == _FRACTION_TYPES:
        # Each distinct object is checked once, in reading order, so the
        # first bad one is the first bad entry; the others are kept.
        distinct = _distinct_entries((flat,))
        for p in distinct:
            parse(p)
        entries = flat
    else:
        entries = list(map(parse, flat))
        distinct = None
    it = iter(entries)
    model = CandidateProbModel(
        inst, tuple(tuple(itertools.islice(it, len(row))) for row in read), three_valued
    )
    if distinct is not None:
        vars(model)["entry_values"] = distinct
    if raw is not None:
        vars(model)["raw_entries"] = raw
    return model


def _codes(distinct: dict, keys: Iterable) -> bytes:
    """A matrix's ``codes`` from ``distinct``, a dict from key to entry
    ``num/den`` that holds every entry's key, and ``keys``, the entries'
    keys in row-major order.  Each distinct entry is classified once on
    its integers, ``FORCED`` when ``num == den``, ``FREE`` for any other
    nonzero ``num`` and 0 otherwise, so an entry out of [0, 1] in a model
    built by hand is free; the keys are then looked up in one pass in C."""
    code = {key: FORCED if p.numerator == p.denominator else FREE if p.numerator else 0
            for key, p in distinct.items()}
    return bytes(bytearray(map(code.__getitem__, keys)))  # faster than bytes(map(...))


def _row_width(m: int) -> int:
    """The bits of one row in a matrix's ``row_words``: ``m`` rounded up
    to whole halfwords."""
    return 16 * -(-m // 16)


@cache
def _halfword_sets(j: int) -> _Memo:
    """The shared table of halfword ``j``: a 16-bit value -> its set bits' candidates."""
    span = range(16 * j, 16 * j + 16)
    return _Memo(lambda x: tuple(itertools.compress(span, _BITS[x & 255] + _BITS[x >> 8])))


def _row_sets(word: int, n: int, m: int) -> tuple[ApprovalSet, ...]:
    """The approval sets of the ``n`` rows of ``word``, a row word of
    ``m`` candidates (see ``CandidateProbModel.row_words``), with no loop
    over the rows in Python: the word's bytes are read as halfwords, the
    lowest first; every row's halfword ``j`` is looked up in the table of
    position ``j`` (``_halfword_sets``), and the pieces are joined."""
    size = _row_width(m) // 16
    halves = memoryview(word.to_bytes(2 * size * n, sys.byteorder)).cast("H")
    if sys.byteorder == "big":  # the highest halfword comes first
        halves = halves[::-1]
    sets = map(_halfword_sets(0).__getitem__, halves[::size])
    for j in range(1, size):
        sets = map(operator.add, sets, map(_halfword_sets(j).__getitem__, halves[j::size]))
    return tuple(sets)


def cp_model(inst: Instance, rows: Iterable[Iterable[object]]) -> CandidateProbModel:
    """Build and validate a CandidateProb model from an n-by-m matrix."""
    return validate(_matrix(inst, rows, False))


def tva_model(inst: Instance, rows: Iterable[Iterable[object]]) -> CandidateProbModel:
    """Build and validate a three-valued model, a CandidateProb model
    tagged ``three_valued``, from an n-by-m matrix."""
    return validate(_matrix(inst, rows, True))


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


_AS_RATIO = operator.methodcaller("as_integer_ratio")


def _integer_sum(lams: list[Fraction]) -> tuple[int, int]:
    """``sum(lams)`` as (numerator, denominator) over the lcm of the
    denominators, with no ``Fraction`` arithmetic: one
    ``as_integer_ratio`` call per value, then C-level integer passes."""
    nums, dens = zip(*map(_AS_RATIO, lams))
    den = math.lcm(*dens)
    return sum(map(operator.mul, nums, map(operator.floordiv, itertools.repeat(den), dens))), den


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


def _entry_errors(model: CandidateProbModel, ok, message: str, errors: list[str]) -> None:
    """One error per matrix entry that fails ``ok``: ``message`` for an
    exact value, a plain refusal for anything else.  The distinct
    entries (``entry_values``) are checked first, so a valid matrix
    costs one test per distinct value."""
    if all(map(ok, model.entry_values)):
        return
    for i, row in enumerate(model.probs):
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
    inst = getattr(model, "instance", None)  # None on a non-model, refused below
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
        if not _lotteries_ok(model, check_sets):
            _lottery_errors(model, check_sets, errors)
    elif isinstance(model, CandidateProbModel):
        _matrix_errors(model.probs, inst, errors)
        if model.three_valued:
            _entry_errors(model, _tva_entry_ok, "value {} not in {{0, 1/2, 1}}", errors)
        else:
            _entry_errors(model, _cp_entry_ok, "probability {} not in [0, 1]", errors)
    else:
        raise InputError(f"not an uncertainty model: {model!r}")
    return errors


def _lotteries_ok(model: LotteryModel, check_sets: bool) -> bool:
    """Whether a Lottery model is valid, decided in whole-model passes:
    each distinct probability object is checked once, and the sum of
    each distinct tuple of a voter's probability objects; each voter's
    sets are checked for duplicates by the size of their ``set``, and
    each distinct set object, when ``check_sets``, once.  False when
    the model has an error or holds anything but ``Fraction``
    probabilities and pairs, so that ``_lottery_errors`` lists the
    errors as it reads voter by voter."""
    lotteries = model.lotteries
    inst = model.instance
    try:
        sizes = list(map(len, lotteries))
        if len(sizes) != inst.n or 0 in sizes:
            return False
        pairs = list(itertools.chain.from_iterable(lotteries))
        if {*map(len, pairs)} - {2}:
            return False
        lams = list(map(_first, pairs))
        if not all([type(lam) is Fraction and 0 < lam.numerator <= lam.denominator
                    for lam in dict(zip(map(id, lams), lams)).values()]):
            return False
        if check_sets:
            sets = list(map(_second, pairs))
            if not all([_set_ok(s, inst.m) for s in dict(zip(map(id, sets), sets)).values()]):
                return False
        if list(map(len, map(set, map(map, itertools.repeat(_second), lotteries)))) != sizes:
            return False  # a duplicate set
        ids = iter(list(map(id, lams)))
        keys = map(tuple, map(itertools.islice, itertools.repeat(ids), sizes))
        for voter in dict(zip(keys, lotteries)).values():
            num, den = _integer_sum(list(map(_first, voter)))
            if num != den:
                return False
    except (TypeError, LookupError):  # an unhashable set, or an item that is no pair
        return False
    return True


def _lottery_errors(model: LotteryModel, check_sets: bool, errors: list[str]) -> None:
    """Every error of a Lottery model, voter by voter."""
    inst = model.instance
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


def tva_to_cp(model: CandidateProbModel) -> CandidateProbModel:
    """A three-valued model as a plain CandidateProb one: the same
    matrix, untagged.  The rows are the same, so their classification
    (``codes``) is handed on, with every other view already built."""
    cp = CandidateProbModel(model.instance, model.probs)
    vars(cp)["codes"] = model.codes
    fields = model.__dataclass_fields__
    vars(cp).update(item for item in vars(model).items() if item[0] not in fields)
    return cp


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


def cp_to_lottery(model: CandidateProbModel, budget: int | None = None) -> LotteryModel:
    """Expand per-candidate probabilities into per-voter set distributions.

    Voter ``i``'s support is every set containing the forced approvals
    and any subset of the undetermined candidates, with probability
    ``prod(p for approved) * prod(1 - p for not approved)``.  Support
    size is ``2**u_i`` for ``u_i`` undetermined entries, hence the
    budget check, row by row before any row is expanded.  The
    distributions are the model's voter tables (``tables``), each weight
    over its denominator one ``Fraction`` per distinct pair in the call.
    """
    for _, free in model.split_rows:
        _check_budget(2 ** len(free), budget)
    fractions = _Memo(lambda pair: Fraction(*pair))
    return LotteryModel(model.instance, tuple(
        tuple(zip(map(fractions.__getitem__, zip(map(_second, table), itertools.repeat(den))),
                  map(_first, table)))
        for den, table in model.tables
    ))


def lottery_to_joint(model: LotteryModel, budget: int | None = None) -> JointModel:
    """Take the product of the independent per-voter distributions: one
    entry per plausible profile, in enumeration order."""
    return JointModel(model.instance, tuple(
        (pp.prob, pp.profile) for pp in enumerate_plausible(model, budget)
    ))


# ---------------------------------------------------------------------------
# enumeration


def plausible_count(model: Model) -> int:
    """Exact number of plausible profiles, computed without enumerating."""
    return model.profile_count


def first_plausible(model: Model) -> PlausibleProfile:
    """The first profile in enumeration order, without paying for enumeration."""
    return model.first


def _over_common_denominator(entries) -> tuple[int, list]:
    """``(probability, item)`` pairs as ``(denominator, [(item, weight)])``
    with ``probability == weight / denominator`` for every item.  Each
    probability is read once, by one ``as_integer_ratio`` call, since
    the ``Fraction`` properties cost more than the integer arithmetic."""
    ratios = [(lam.as_integer_ratio(), item) for lam, item in entries]
    denom = math.lcm(*{den for (_, den), _ in ratios})
    return denom, [(item, num * (denom // den)) for (num, den), item in ratios]


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
    (more only when the last voter alone has more sets), from the product
    structure of the voter tables: voter 0 outermost, so the innermost
    voters that fit in a chunk vary inside it and the outer voters are
    fixed for the chunk.  The inner voters' lanes and weights are the
    same in every chunk and stored on the model (``block``); each chunk
    adds the outer voters' sets and weights as it is read.  Raises
    :class:`BudgetError` up front when the plausible-profile count
    exceeds the budget.
    """
    _check_budget(model.profile_count, budget)
    return model.lanes


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


def _joint_chunk(inst: Instance, profiles: tuple[Profile, ...], weights: tuple[int, ...]) -> tuple:
    """The lanes of a profile list as one chunk.  Every voter's sets, in
    voter-major order and the last first, become candidate masks of
    ``ceil(m / 8)`` bytes each; ``_bit_slices`` reads off one integer per
    candidate holding every voter's lane, ``count`` bits each."""
    count = len(profiles)
    size = (inst.m + 7) // 8
    words = _Memo(lambda s: _mask(s).to_bytes(size, "little"))  # one word per distinct set
    # Each voter's column of sets, last profile first, last voter first.
    columns = list(zip(*reversed(profiles)))[::-1]
    joined = b"".join(map(words.__getitem__, itertools.chain.from_iterable(columns)))
    full = (1 << count) - 1
    lanes = [
        [voters >> (v * count) & full for v in range(inst.n)]
        for voters in _bit_slices(joined, size, inst.m)
    ]
    return count, lanes, (1, _weight_planes(weights)), ()


def _lane_block(m: int, single: list[ApprovalSet], varying: list[tuple[int, int, list]]) -> tuple:
    """The chunk-independent part of the lanes of the product of the
    voter tables, split as ``voter_split``: ``(denominator, size, lanes,
    planes, fixed, outer)``.

    A single-set voter approves the same set in every profile, with
    probability 1, so it gets no lanes: such voters are counted per
    distinct set in ``fixed``.  Of the varying voters, the inner ones,
    the longest suffix whose product of table sizes fits ``LANE_CHUNK``,
    vary inside a chunk of ``size`` profiles.  Inner voter ``v``'s
    ``j``-th set covers the bits whose digit for ``v`` is ``j``: a block
    of ``stride`` ones (the product of the later voters' table sizes) at
    ``j * stride``, repeated every ``len(table) * stride`` bits, that is
    the block pattern times a repunit.  ``lanes``
    holds these, with 0 for every outer voter, and ``planes`` the inner
    weights bit-sliced (``_weight_planes``).  ``outer`` lists the outer
    voters' tables; their sets and weights are fixed per chunk
    (``_block_chunks``).
    """
    fixed = list(Counter(map(_mask, single)).items())
    tables = [table for _, _, table in varying]
    n = len(tables)
    split = max(n - 1, 0)
    size = len(tables[-1]) if tables else 1
    while split and size * len(tables[split - 1]) <= LANE_CHUNK:
        split -= 1
        size *= len(tables[split])
    full = (1 << size) - 1
    lanes = [[0] * n for _ in range(m)]
    weights = [1]
    stride = size
    for v in range(split, n):
        table = tables[v]
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
    denom = math.prod(den for _, den, _ in varying)
    return denom, size, lanes, _weight_planes(weights), fixed, tables[:split]


def _block_chunks(block: tuple) -> Iterator[tuple]:
    """The chunks of a ``_lane_block``, one per combination of the outer
    voters' entries, in enumeration order: each outer voter's lanes are
    all ones for the candidates of its set, and the product of their
    weights scales the inner weights."""
    _, size, lanes, planes, fixed, outer = block
    full = (1 << size) - 1
    for combo in itertools.product(*outer):
        chunk = [col[:] for col in lanes]
        scale = 1
        for v, (s, wt) in enumerate(combo):
            scale *= wt
            for c in s:
                chunk[c][v] = full
        yield size, chunk, (scale, planes), fixed


def enumerate_plausible(model: Model, budget: int | None = None) -> Iterator[PlausibleProfile]:
    """Every plausible profile exactly once, with its exact probability.

    Deterministic order (see module docstring), each index decoded by
    ``profile_at``; probabilities sum to 1.  Raises :class:`BudgetError`
    up front when the profile count exceeds the budget; exponential
    objects fail loudly, never silently.
    """
    _check_budget(model.profile_count, budget)
    return map(model.profile_at, range(model.profile_count))


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
                    entry_num, entry_den = entry_lam.as_integer_ratio()
                    num *= entry_num
                    den *= entry_den
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
