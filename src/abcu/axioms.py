"""Deterministic checkers for JR, PJR and EJR on a single approval profile.

A committee fails justified representation (JR) when some candidate
outside it is approved by a full quota (``n/k`` voters) none of whom has
any approved candidate in the committee.  PJR and EJR strengthen this to
``ell``-cohesive groups: at least ``ell * n / k`` voters jointly approving
at least ``ell`` common candidates must see ``ell`` committee members in
their combined approvals (PJR) or one member of the group must have
``ell`` approved committee members (EJR).  EJR implies PJR implies JR.

All checkers return the first violation in a documented scan order
(ascending ``ell``, then lexicographic candidate subset, then
lexicographic voter group), so witnesses are reproducible.

PJR and EJR are decided one level ``ell`` at a time on bitmasks: each
candidate's approvers become a voter bitset (:func:`_approvers`), and
the voters are split by the committee members they approve, one AND
per member and part.  With ``q`` the level's quota, a level fails iff
some pool of voters holds ``q`` who jointly approve an ``ell``-set
``T``:

* EJR: one pool, the voters with fewer than ``ell`` approved committee
  members.
* PJR: one pool per ``S``, a set of ``ell - 1`` committee members: the
  voters whose approved committee members all lie in ``S``.  A group's
  approvals meet the committee in fewer than ``ell`` members iff they
  lie inside some such ``S``, so no voter group is enumerated.  EJR
  implies PJR, so the PJR pools are searched only where EJR fails.

Only heavy candidates, approved by at least ``q`` voters of the pool,
can belong to ``T``, and ``T`` is searched depth first over them in
ascending order, so the first ``T`` found is the lexicographically
first, exactly as a scan over all ``ell``-subsets would find it.  A
level costs ``O(C(h, ell))`` bitset operations on ``n``-bit integers for
``h`` heavy candidates, times ``C(k, ell - 1)`` pools for PJR: polynomial
in ``n`` for fixed ``k``.  The PJR witness group is rebuilt greedily as
the lexicographically first quota-sized group of ``T``'s approvers that
fits inside some ``S`` (see :func:`pjr_violation`), so every witness
and the scan order are those of the brute force over voter groups.

The same tests also run on lanes (:func:`_lane_test`), for flat scans
over many profiles: one integer per (voter, candidate), bit ``p`` set
when that voter approves that candidate in profile ``p``, so a few
big-integer operations test every profile at once, as in bitsliced DES
(Biham, "A Fast New DES Implementation in Software", FSE 1997).  A
voter's count of approvers or of approved committee members becomes a
bit-sliced counter across the lanes, and a quota test a comparison of
that counter with a constant (:func:`_at_least`).  Voters with a single
approval set have no lanes: they are counted once per distinct set, and
their count is taken off the quota.  PJR and EJR search the
``ell``-sets ``T`` depth first over all the lanes together
(:func:`_common_lanes`): a branch is pruned once no lane has the quota
of approvers left, and lanes that already violate drop out of every
later pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from typing import Callable, Iterator

from .model import (
    Committee,
    InputError,
    Instance,
    Profile,
    committee,
    min_group_size,
)

AXIOMS = ("jr", "pjr", "ejr")


@dataclass(frozen=True)
class Violation:
    """A cohesive voter group left underrepresented by a committee.

    ``group`` meets the ``ell``-threshold, jointly approves every
    candidate in ``common`` (``len(common) >= ell``), and fails the
    axiom's representation condition.  For JR, ``ell`` is 1 and
    ``common`` is the single ignored candidate.
    """

    axiom: str
    ell: int
    group: tuple[int, ...]
    common: tuple[int, ...]


def _require_axiom(axiom: str) -> str:
    if axiom not in AXIOMS:
        raise InputError(f"unknown axiom {axiom!r}, expected one of {AXIOMS}")
    return axiom


def _jr_violation(inst: Instance, prof: Profile, wset: frozenset[int]) -> Violation | None:
    """JR check against an arbitrary candidate set (no size requirement),
    on the profile's per-candidate view."""
    a = _approvers(inst.m, prof)
    return _jr_on_bits(min_group_size(1, inst), a, _covered(a, wset), wset)


def _approvers(m: int, prof: Profile) -> list[int]:
    """Each candidate's approvers in ``prof``, as a voter bitset: the
    per-candidate view that every polynomial JR question reads.  Each
    candidate's binary digits are written into one buffer, the last voter
    first, and parsed once."""
    digits = [bytearray(b"0") * len(prof) for _ in range(m)]
    j = len(prof)
    for s in prof:
        j -= 1
        for c in s:
            digits[c][j] = 49  # "1"
    return [int(column, 2) for column in digits]


def _covered(approvers: list[int], members) -> int:
    """The voters approving some candidate of ``members``."""
    return reduce(or_, [approvers[c] for c in members], 0)


def _jr_on_bits(quota: int, approvers: list[int], covered: int,
                wset: frozenset[int]) -> Violation | None:
    """The JR test on a per-candidate view: the first candidate ``c``
    outside ``wset``, in ascending order, whose approvers
    (``approvers[c]``, a voter bitset) outside ``covered`` number at
    least ``quota``, as the violation with those voters, ascending, as
    its group; None when there is none.  :func:`jr_violation` runs it on
    a profile's own view, with ``covered`` the voters approving a member;
    the deciders pass the views of a model's best and worst completions
    instead."""
    uncovered = ~covered
    for c, bits in enumerate(approvers):
        if c not in wset:
            bits &= uncovered
            if bits.bit_count() >= quota:
                return Violation("jr", 1, _voters(bits), (c,))
    return None


def jr_violation(inst: Instance, prof: Profile, w: Committee) -> Violation | None:
    """First JR violation of committee ``w``, or None if JR holds.

    Polynomial scan: for each candidate outside the committee, gather
    the unrepresented voters approving it and compare the group against
    the quota.  The witness group is the maximal one for its candidate.
    """
    w = committee(w, inst)
    return _jr_violation(inst, prof, frozenset(w))


def ejr_violation(inst: Instance, prof: Profile, w: Committee) -> Violation | None:
    """First EJR violation, or None.

    At level ``ell`` the eligible voters are those with fewer than
    ``ell`` approved committee members.  For fixed ``T`` the eligible
    voters approving all of ``T`` form the largest possible violating
    group, and every violating group is contained in one of this form,
    so level ``ell`` fails iff some ``ell``-set ``T`` has at least the
    quota of eligible approvers.  The witness is that group for the
    lexicographically first such ``T`` at the lowest failing level.
    """
    w = committee(w, inst)
    return _ejr_violation(inst, prof, frozenset(w))


def _ejr_violation(inst: Instance, prof: Profile, wset: frozenset[int]) -> Violation | None:
    levels = _Levels(inst, wset)
    view = levels.view(prof)
    hit = levels.ejr(view)
    if hit is None:
        return None
    ell, common, eligible = hit
    return Violation("ejr", ell, _voters(_approvers_of(common, view, eligible)), common)


def pjr_violation(inst: Instance, prof: Profile, w: Committee) -> Violation | None:
    """First PJR violation, or None.

    A group fails PJR at level ``ell`` iff its approvals meet ``W`` in
    fewer than ``ell`` candidates, that is iff they lie inside some
    ``S`` of ``ell - 1`` committee members.  So level ``ell`` fails iff,
    for some such ``S``, at least the quota of voters whose approved
    committee members all lie in ``S`` jointly approve some ``ell``-set
    ``T`` of heavy candidates (see the module docstring); this costs
    ``O(C(k, ell - 1) * C(h, ell))`` operations on ``n``-bit integers,
    polynomial in ``n`` for fixed ``k``.  The witness takes the
    lexicographically first such ``T`` at the lowest failing level.  Its
    group is rebuilt greedily: ``T``'s approvers are taken in ascending
    order, and one joins when, for some ``S`` containing the group's
    committee approvals so far, enough later approvers lie inside ``S``
    to complete the quota.  That test is exact, so the group is the
    lexicographically first quota-sized violating group, the one a brute
    force over voter groups returns, at ``O(n * C(k, ell - 1))`` more
    operations.

    EJR implies PJR, so the cheaper EJR level test runs first, and a
    committee that satisfies EJR is returned None without a PJR pool.
    Where EJR fails, the PJR levels are searched from the lowest, so the
    violation is PJR's own lowest failing level and group, which may lie
    above the EJR level or not exist.
    """
    w = committee(w, inst)
    return _pjr_violation(inst, prof, frozenset(w))


def _pjr_violation(inst: Instance, prof: Profile, wset: frozenset[int]) -> Violation | None:
    levels = _Levels(inst, wset)
    view = levels.view(prof)
    # EJR implies PJR, so the S-pools are searched only when EJR fails.
    if levels.ejr(view) is None:
        return None
    ell = levels.pjr(view)
    if ell is None:
        return None
    quota = min_group_size(ell, inst)
    inside = list(zip(levels.subsets[ell], levels.pools(levels.wparts(view), ell)))
    # The first T over every S is the least of each S's first T.
    common = min(filter(None, (_first_common(pool, ell, quota, view[1]) for _, pool in inside)))
    approvers = _approvers_of(common, view, -1)
    inside = [(s, pool & approvers) for s, pool in inside]
    group: list[int] = []
    cover = 0
    for i in _voters(approvers):
        later = approvers >> (i + 1) << (i + 1)
        joined = cover | _mask(prof[i]) & levels.wmask
        need = quota - len(group) - 1
        if any(not joined & ~s and (pool & later).bit_count() >= need for s, pool in inside):
            group.append(i)
            cover = joined
            if not need:
                break
    return Violation("pjr", ell, tuple(group), common)


def _mask(members) -> int:
    return sum(1 << c for c in members)


# A profile as the PJR/EJR level tests read it: (mask of approved
# committee members, voter bitset) for each nonempty part of the voters
# split by their approved members (see :meth:`_Levels.view`), and each
# candidate's approvers as a voter bitset.  The tests read a mask only
# within the committee, so a mask may also hold candidates outside it.
_View = tuple[list[tuple[int, int]], list[int]]


# For each byte value, a digit 1 for "1" and 0 for every other character.
_DIGIT_BITS = bytes(int(b == ord("1")) for b in range(256))


def _voters(bits: int) -> tuple[int, ...]:
    """The set bits of ``bits``, ascending, read off its binary digits:
    the digits, lowest first, become bytes 0 and 1 that select their
    positions."""
    return tuple(itertools.compress(itertools.count(),
                                    bin(bits)[:1:-1].encode().translate(_DIGIT_BITS)))


def _approvers_of(common: tuple[int, ...], view: _View, pool: int) -> int:
    """The voters of ``pool`` (all voters for ``-1``) approving every
    candidate in ``common``."""
    for c in common:
        pool &= view[1][c]
    return pool


def _first_common(pool: int, ell: int, quota: int, approvers: list[int]) -> tuple[int, ...] | None:
    """The lexicographically first ``ell``-set of candidates approved by
    at least ``quota`` voters of ``pool``, or None.

    Only heavy candidates, those with ``quota`` approvers in ``pool``,
    can belong to it, and a prefix whose common approvers fall below
    the quota has no extension, so a depth-first search over the heavy
    candidates in ascending order visits the sets in lexicographic order
    and skips only sets that cannot qualify.
    """
    heavy = []
    for c, bits in enumerate(approvers):
        bits &= pool
        if bits.bit_count() >= quota:
            heavy.append((c, bits))
    if len(heavy) < ell:
        return None
    return _extend(heavy, 0, ell, quota, pool)


def _extend(heavy: list[tuple[int, int]], start: int, ell: int, quota: int,
            pool: int) -> tuple[int, ...] | None:
    for j in range(start, len(heavy) - ell + 1):
        c, bits = heavy[j]
        bits &= pool
        if bits.bit_count() < quota:
            continue
        if ell == 1:
            return (c,)
        rest = _extend(heavy, j + 1, ell - 1, quota, bits)
        if rest is not None:
            return (c,) + rest
    return None


class _Levels:
    """The PJR and EJR level tests of one committee ``W``."""

    def __init__(self, inst: Instance, wset: frozenset[int]):
        self.m = inst.m
        self.wset = wset
        self.wmask = _mask(wset)
        self.quotas = [
            (ell, q) for ell in range(1, inst.k + 1)
            if (q := min_group_size(ell, inst)) <= inst.n
        ]

    @cached_property
    def subsets(self) -> dict[int, list[int]]:
        """For each level, the masks of the (ell - 1)-subsets S of W (all
        of W when it has fewer members), in lexicographic order.  Only
        the PJR tests read them, so they are built on first read."""
        members = sorted(self.wset)
        return {
            ell: [_mask(s) for s in itertools.combinations(members, min(ell - 1, len(members)))]
            for ell, _ in self.quotas
        }

    @cached_property
    def outsides(self) -> dict[int, list[tuple[list[int], int]]]:
        """For each level, the members of W outside each of its ``S``, as
        a list and a mask: the PJR lane pools, built on first read."""
        members = sorted(self.wset)
        return {
            ell: [([c for c in members if not s >> c & 1], self.wmask & ~s) for s in masks]
            for ell, masks in self.subsets.items()
        }

    def view(self, prof: Profile) -> _View:
        """``prof``'s view: its approvers (:func:`_approvers`), and its
        voters split by their approved committee members, one AND per
        member and part."""
        approvers = _approvers(self.m, prof)
        parts = [(0, (1 << len(prof)) - 1)]
        for c in self.wset:
            bits = approvers[c]
            member = 1 << c
            split = []
            for part, voters in parts:
                inside = voters & bits
                if inside:
                    split.append((part | member, inside))
                if inside != voters:
                    split.append((part, voters ^ inside))
            parts = split
        return parts, approvers

    def ejr(self, view: _View) -> tuple[int, tuple[int, ...], int] | None:
        """The lowest failing EJR level ``ell``, its first common set
        ``T`` and its eligible voters, or None when EJR holds."""
        groups, approvers = view
        wmask = self.wmask
        by_count = [0] * (wmask.bit_count() + 1)
        for mask, bits in groups:
            by_count[(mask & wmask).bit_count()] |= bits
        eligible = 0
        for ell, quota in self.quotas:
            eligible |= by_count[ell - 1]
            if eligible.bit_count() < quota:
                continue
            common = _first_common(eligible, ell, quota, approvers)
            if common is not None:
                return ell, common, eligible
        return None

    def wparts(self, view: _View) -> dict[int, int]:
        """Mask of approved committee members -> voter bitset."""
        wmask = self.wmask
        wparts: dict[int, int] = {}
        for mask, bits in view[0]:
            part = mask & wmask
            wparts[part] = wparts.get(part, 0) | bits
        return wparts

    def pools(self, wparts: dict[int, int], ell: int) -> Iterator[int]:
        """For each ``S`` of level ``ell``, the voters whose approved
        committee members all lie in ``S``."""
        for s in self.subsets[ell]:
            pool = 0
            for part, bits in wparts.items():
                if not part & ~s:
                    pool |= bits
            yield pool

    def pjr(self, view: _View) -> int | None:
        """The lowest failing PJR level, or None when PJR holds."""
        wparts = self.wparts(view)
        approvers = view[1]
        for ell, quota in self.quotas:
            for pool in self.pools(wparts, ell):
                if (pool.bit_count() >= quota
                        and _first_common(pool, ell, quota, approvers) is not None):
                    return ell
        return None


# The violation finders against a canonical committee's frozenset.
_COMMITTEE_FINDERS = {
    "jr": _jr_violation,
    "pjr": _pjr_violation,
    "ejr": _ejr_violation,
}


# ---------------------------------------------------------------------------
# lane tests: every profile of a chunk at once


def _at_least(xs: list[int], quota: int) -> int:
    """The lanes in which at least ``quota`` of ``xs`` have their bit set.

    The lanes are counted by a bit-sliced ripple-carry adder, ``count[i]``
    holding bit ``i`` of every lane's count, which is then compared with
    ``quota`` from the top bit down.  Quotas of 1, 2 and ``len(xs)`` take
    a shorter loop, and a quota of 0 or less holds in every lane (-1).
    """
    if quota <= 0:
        return -1
    xs = [x for x in xs if x]
    if len(xs) < quota:
        return 0
    if quota == 1:
        return reduce(or_, xs)
    if quota == len(xs):
        return reduce(and_, xs)
    if quota == 2:  # the usual JR quota: lanes seen once, then twice
        once = twice = 0
        for x in xs:
            twice |= once & x
            once |= x
        return twice
    count: list[int] = []
    for x in xs:
        for i, bit in enumerate(count):
            count[i] = bit ^ x
            x &= bit
            if not x:
                break
        else:
            count.append(x)
    if quota >> len(count):
        return 0
    # Lanes above the quota so far, and lanes equal to it so far.
    above = 0
    equal = -1
    for i in range(len(count) - 1, -1, -1):
        if quota >> i & 1:
            equal &= count[i]
        else:
            above |= equal & count[i]
            equal &= ~count[i]
    return above | equal


def _common_lanes(xs: list[int], lanes: list[list[int]], start: int, ell: int, quota: int,
                  alive: int, fixed: list[tuple[int, int]]) -> int:
    """The lanes of ``alive`` in which some ``ell``-set ``T`` of the
    candidates from ``start`` on is approved by at least ``quota`` voters
    of the pool: ``xs`` (one lane per voter with lanes) and ``fixed``
    (``(candidate mask, count)`` of the voters without lanes).

    A depth-first search over ``T`` in ascending order, carried across the
    lanes: a branch is pruned once no lane still has ``quota`` approvers
    of its prefix, and the search stops once every lane of ``alive`` has
    such a ``T``.
    """
    hit = 0
    for c in range(start, len(lanes) - ell + 1):
        ys = list(map(and_, xs, lanes[c]))
        held = [f for f in fixed if f[0] >> c & 1] if fixed else fixed
        need = quota - sum(count for _, count in held) if held else quota
        now = _at_least(ys, need) & alive & ~hit
        if not now:
            continue
        if ell > 1:
            now = _common_lanes(ys, lanes, c + 1, ell - 1, quota, now, held)
        hit |= now
        if hit == alive:
            break
    return hit


def _any_lanes(lanes: list[list[int]], members) -> list[int]:
    """Each voter's lanes in which it approves some candidate of ``members``."""
    union = [0] * len(lanes[0])
    for c in members:
        union = list(map(or_, union, lanes[c]))
    return union


def _lane_test(inst: Instance, wset: frozenset[int], axiom: str) -> Callable[..., int]:
    """The single-profile tests on every profile of a chunk at once: a
    function from the chunk's lanes (``lanes[c][v]``), its all-ones mask
    and its ``fixed`` voters (see ``uncertainty._lanes``) to the mask of
    the profiles that satisfy ``axiom`` for ``wset``, as
    ``_COMMITTEE_FINDERS`` would find no violation in them.

    * JR: the lanes where each voter approves no member of ``wset``, then
      per outside candidate the lanes where at least the quota of those
      voters approve it.
    * EJR: each voter's count of approved members, bit-sliced as "at
      least j" lanes; level ``ell``'s pool is the lanes where a voter
      approves fewer than ``ell`` members.
    * PJR: one pool per level ``ell`` and ``S`` (as :class:`_Levels`),
      the lanes where a voter approves no member outside ``S``, over the
      lanes that violate EJR only: the EJR test runs first, and a chunk
      where every lane satisfies EJR needs no pool.

    A PJR or EJR level violates where its pool holds a quota of voters
    jointly approving an ``ell``-set (``_common_lanes``).  Lanes that
    already violate leave every later pool.  A fixed voter is in a pool
    in every lane or in none, so its count is taken off the quota.
    """
    members = sorted(wset)
    wmask = _mask(wset)
    if axiom == "jr":
        quota = min_group_size(1, inst)
        outside = [c for c in range(inst.m) if c not in wset]

        def jr(lanes: list[list[int]], full: int, fixed: list[tuple[int, int]]) -> int:
            unrepresented = [~x for x in _any_lanes(lanes, members)]
            fixed = [f for f in fixed if not f[0] & wmask]
            violating = 0
            for c in outside:
                count = sum(k for mask, k in fixed if mask >> c & 1) if fixed else 0
                violating |= _at_least(list(map(and_, lanes[c], unrepresented)), quota - count)
                if violating & full == full:
                    break
            return full & ~violating

        return jr
    levels = _Levels(inst, wset)

    def ejr(lanes: list[list[int]], full: int, fixed: list[tuple[int, int]]) -> int:
        # approved[j][v]: the lanes where voter v approves j or more members.
        approved = [[-1] * len(lanes[0])]
        for c in members:
            col = lanes[c]
            approved.append(list(map(and_, approved[-1], col)))
            for j in range(len(approved) - 2, 0, -1):
                approved[j] = list(map(or_, approved[j], map(and_, approved[j - 1], col)))
        violating = 0
        for ell, quota in levels.quotas:
            alive = full & ~violating
            pool = [alive & ~x for x in approved[ell]]
            held = [f for f in fixed if (f[0] & wmask).bit_count() < ell]
            violating |= _common_lanes(pool, lanes, 0, ell, quota, alive, held)
            if violating == full:
                break
        return full & ~violating

    if axiom == "ejr":
        return ejr

    def pjr(lanes: list[list[int]], full: int, fixed: list[tuple[int, int]]) -> int:
        # EJR implies PJR, so only the lanes that violate EJR are tested.
        suspects = full & ~ejr(lanes, full, fixed)
        if not suspects:
            return full
        violating = 0
        for ell, quota in levels.quotas:
            for outside, out in levels.outsides[ell]:
                alive = suspects & ~violating
                pool = [alive & ~x for x in _any_lanes(lanes, outside)]
                held = [f for f in fixed if not f[0] & out]
                violating |= _common_lanes(pool, lanes, 0, ell, quota, alive, held)
                if violating == suspects:
                    return full & ~violating
        return full & ~violating

    return pjr


def axiom_violation(inst: Instance, prof: Profile, w: Committee, axiom: str) -> Violation | None:
    """Dispatch to the requested axiom's violation finder."""
    return _COMMITTEE_FINDERS[_require_axiom(axiom)](inst, prof, frozenset(committee(w, inst)))


def is_jr(inst: Instance, prof: Profile, w: Committee) -> bool:
    return jr_violation(inst, prof, w) is None


def is_pjr(inst: Instance, prof: Profile, w: Committee) -> bool:
    return pjr_violation(inst, prof, w) is None


def is_ejr(inst: Instance, prof: Profile, w: Committee) -> bool:
    return ejr_violation(inst, prof, w) is None


def satisfies(inst: Instance, prof: Profile, w: Committee, axiom: str) -> bool:
    return axiom_violation(inst, prof, w, axiom) is None


def greedy_jr_committee(inst: Instance, prof: Profile) -> Committee:
    """Build a size-``k`` committee satisfying JR for ``prof``.

    Repeatedly adds the candidate approved by the largest number of
    still-unrepresented voters while some candidate meets the quota
    among them (ties broken by lowest candidate index), then pads with
    the lowest-indexed unused candidates.  Each pick represents a quota
    of voters, so at most ``k`` picks happen before the loop stops.
    """
    return _greedy_jr(inst, _approvers(inst.m, prof))


def _greedy_jr(inst: Instance, approvers: list[int]) -> Committee:
    """:func:`greedy_jr_committee` on the profile's per-candidate view
    (:func:`_approvers`): a pick is one popcount per candidate, and the
    voters it represents leave the unrepresented bitset."""
    quota = min_group_size(1, inst)
    chosen: list[int] = []
    unrepresented = -1
    while len(chosen) < inst.k:
        best = top = -1
        for c, bits in enumerate(approvers):
            if c not in chosen:
                count = (bits & unrepresented).bit_count()
                if count > top:
                    best, top = c, count
        if top < quota:
            break
        chosen.append(best)
        unrepresented &= ~approvers[best]
    for c in range(inst.m):
        if len(chosen) == inst.k:
            break
        if c not in chosen:
            chosen.append(c)
    return tuple(sorted(chosen))
