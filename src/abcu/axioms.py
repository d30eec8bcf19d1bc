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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .model import (
    ApprovalSet,
    Committee,
    InputError,
    Instance,
    Profile,
    committee,
    meets_threshold,
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
    """JR check against an arbitrary candidate set (no size requirement)."""
    unrepresented = [i for i, a in enumerate(prof) if wset.isdisjoint(a)]
    for c in range(inst.m):
        if c in wset:
            continue
        group = tuple(i for i in unrepresented if c in prof[i])
        if meets_threshold(len(group), 1, inst):
            return Violation("jr", 1, group, (c,))
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

    Exact but exponential in ``ell``: enumerates candidate subsets ``T``
    of each size ``ell``.  For fixed ``T`` the set of voters approving
    all of ``T`` with fewer than ``ell`` committee approvals is the
    largest possible violating group, and every violating group is
    contained in one of this form, so the enumeration is sound and
    complete.
    """
    w = committee(w, inst)
    return _ejr_violation(inst, prof, frozenset(w))


def _ejr_violation(inst: Instance, prof: Profile, wset: frozenset[int]) -> Violation | None:
    approved = [frozenset(a) for a in prof]
    in_w = [len(a & wset) for a in approved]
    for ell in range(1, inst.k + 1):
        eligible = [i for i in range(inst.n) if in_w[i] < ell]
        if not meets_threshold(len(eligible), ell, inst):
            continue
        for t in itertools.combinations(range(inst.m), ell):
            tset = frozenset(t)
            group = tuple(i for i in eligible if tset <= approved[i])
            if meets_threshold(len(group), ell, inst):
                return Violation("ejr", ell, group, t)
    return None


def pjr_violation(inst: Instance, prof: Profile, w: Committee) -> Violation | None:
    """First PJR violation, or None.

    For each ``T`` of size ``ell`` whose unanimous approvers meet the
    ``ell``-threshold, minimizes the committee coverage of the group's
    approval union by brute force over voter subsets of exactly the
    minimal qualifying size: shrinking a violating group can only shrink
    the union, so minimal size suffices.
    """
    w = committee(w, inst)
    return _pjr_violation(inst, prof, frozenset(w))


def _pjr_violation(inst: Instance, prof: Profile, wset: frozenset[int]) -> Violation | None:
    approved = [frozenset(a) for a in prof]
    for ell in range(1, inst.k + 1):
        size = min_group_size(ell, inst)
        if size > inst.n:
            continue
        for t in itertools.combinations(range(inst.m), ell):
            tset = frozenset(t)
            pool = [i for i in range(inst.n) if tset <= approved[i]]
            if len(pool) < size:
                continue
            for group in itertools.combinations(pool, size):
                union = frozenset().union(*(approved[i] for i in group))
                if len(union & wset) < ell:
                    return Violation("pjr", ell, group, t)
    return None


class _PackedSets(dict):
    """Approval set -> packed per-candidate counter increments, built on
    first use: one field per candidate, +1 in each approved candidate's
    field for a set disjoint from the committee, 0 for any other set."""

    __slots__ = ("wset", "width")

    def __init__(self, wset: frozenset[int], width: int):
        super().__init__()
        self.wset = wset
        self.width = width

    def __missing__(self, s: ApprovalSet) -> int:
        packed = 0
        if self.wset.isdisjoint(s):
            for c in s:
                packed |= 1 << (self.width * c)
        self[s] = packed
        return packed


def _jr_test(inst: Instance, wset: frozenset[int]) -> Callable[[Profile], bool]:
    """A predicate equal to ``_jr_violation(inst, prof, wset) is None``.

    Sums the profile's packed sets, so each outside candidate's field
    holds its number of unrepresented approvers (at most ``n``, below
    ``2**(width - 1)``).  A bias of ``2**(width - 1) - quota`` in each
    outside field sets that field's top bit exactly when the count
    reaches the quota, and no field carries into the next.
    """
    width = inst.n.bit_length() + 1
    top = 1 << (width - 1)
    quota = min_group_size(1, inst)
    bias = high = 0
    for c in range(inst.m):
        if c not in wset:
            bias += (top - quota) << (width * c)
            high |= top << (width * c)
    packed = _PackedSets(wset, width)
    lookup = packed.__getitem__
    return lambda prof: not (sum(map(lookup, prof), bias) & high)


_VIOLATION_FINDERS = {
    "jr": jr_violation,
    "pjr": pjr_violation,
    "ejr": ejr_violation,
}

# The same finders against a canonical committee's frozenset, for scans
# that check one committee against many profiles.
_COMMITTEE_FINDERS = {
    "jr": _jr_violation,
    "pjr": _pjr_violation,
    "ejr": _ejr_violation,
}


def _satisfaction_test(
    inst: Instance, wset: frozenset[int], axiom: str
) -> Callable[[Profile], bool]:
    """A predicate telling whether a profile satisfies ``axiom`` for the
    committee ``wset``: the packed counter test for JR, the full checker
    otherwise."""
    if axiom == "jr":
        return _jr_test(inst, wset)
    find = _COMMITTEE_FINDERS[axiom]
    return lambda prof: find(inst, prof, wset) is None


def axiom_violation(inst: Instance, prof: Profile, w: Committee, axiom: str) -> Violation | None:
    """Dispatch to the requested axiom's violation finder."""
    return _VIOLATION_FINDERS[_require_axiom(axiom)](inst, prof, w)


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
    chosen: list[int] = []
    unrepresented = set(range(inst.n))
    while len(chosen) < inst.k:
        counts = [0] * inst.m
        for i in unrepresented:
            for c in prof[i]:
                counts[c] += 1
        for c in chosen:
            counts[c] = -1
        best = max(range(inst.m), key=lambda c: (counts[c], -c))
        if not meets_threshold(counts[best], 1, inst):
            break
        chosen.append(best)
        unrepresented = {i for i in unrepresented if best not in prof[i]}
    for c in range(inst.m):
        if len(chosen) == inst.k:
            break
        if c not in chosen:
            chosen.append(c)
    return tuple(sorted(chosen))
