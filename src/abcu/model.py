"""Core domain types for approval-based committee voting.

Voters are identified by ``0..n-1`` and candidates by ``0..m-1``.
Approval sets, profiles and committees are canonical sorted tuples, so
values hash and compare deterministically and enumeration orders are
reproducible.  All probabilities are exact :class:`fractions.Fraction`
values; group-size thresholds are compared by integer
cross-multiplication, never by division, because ``n/k`` is fractional
in general.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

ApprovalSet = tuple[int, ...]
Profile = tuple[ApprovalSet, ...]
Committee = tuple[int, ...]

DEFAULT_BUDGET = 2**20

# A decimal exponent beyond this magnitude is refused before ``Fraction``
# builds ``10**exponent``: no probability needs one, and the integer
# would be as long as the exponent is large.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class InputError(ValueError):
    """Invalid instance, model, committee, document or parameter."""


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"enumeration of {count} objects exceeds the budget of {budget}")
        self.count = count
        self.budget = budget


def resolve_budget(budget: int | None) -> int:
    """The enumeration budget in force: ``budget``, or the default when
    None.  A negative budget is an input error."""
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 0:
        raise InputError(f"the budget must be at least 0, not {budget}")
    return budget


def _check_budget(total: int, budget: int | None) -> None:
    """The one budget gate: raise :class:`BudgetError` when ``total``
    objects exceed the budget in force."""
    cap = resolve_budget(budget)
    if total > cap:
        raise BudgetError(total, cap)


@dataclass(frozen=True)
class Instance:
    """Election frame: ``n`` voters, ``m`` candidates, committee size ``k``."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"need at least one voter, got n={self.n}")
        if self.m < 1:
            raise InputError(f"need at least one candidate, got m={self.m}")
        if not 1 <= self.k <= self.m:
            raise InputError(f"committee size k={self.k} must satisfy 1 <= k <= m={self.m}")


def parse_probability(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction in ``[0, 1]``.

    Accepts ints, Fractions and strings (``"1/2"`` or ``"0.6"``, both
    parsed exactly).  Floats are rejected: their binary representation
    silently loses the decimal value the caller meant.  So is a decimal
    exponent beyond ``MAX_EXPONENT``, before any integer is built.  A
    value outside ``[0, 1]`` is named as it was given.
    """
    if isinstance(value, bool):
        raise InputError(f"not a probability: {value!r}")
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not exact; pass a string like '0.6' or a fraction '3/5'")
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and not _exponent_ok(exponent[1]):
            raise InputError(
                f"cannot parse probability {value!r}: decimal exponent above {MAX_EXPONENT} in magnitude"
            )
    try:
        f = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot parse probability {value!r}: {exc}") from None
    if not 0 <= f <= 1:
        raise InputError(f"probability {value} outside [0, 1]")
    return f


def _exponent_ok(digits: str) -> bool:
    try:
        return abs(int(digits)) <= MAX_EXPONENT
    except ValueError:  # more digits than ``int`` converts
        return False


# A collection holds only exact ints, and no bools, iff the set of its
# item types is a subset of this one.
_INT_TYPES = {int}


def _not_int(c) -> bool:
    return not isinstance(c, int) or isinstance(c, bool)


def approval_set(members: Iterable[int], m: int | None = None) -> ApprovalSet:
    """Canonicalize a collection of candidate ids: sorted, deduplicated.

    When ``m`` is given, members must lie in ``0..m-1``.  Members that
    cannot be sorted or hashed name the first non-integer in input order.
    """
    members = list(members)
    try:
        canon = tuple(sorted(set(members)))
    except TypeError:  # unhashable or unorderable members: some is no int
        bad = next(filter(_not_int, members))
        raise InputError(f"candidate id {bad!r} is not an integer") from None
    if {*map(type, canon)} <= _INT_TYPES and (
        not canon or (canon[0] >= 0 and (m is None or canon[-1] < m))
    ):
        return canon
    for c in canon:
        if _not_int(c):
            raise InputError(f"candidate id {c!r} is not an integer")
        if c < 0 or (m is not None and c >= m):
            raise InputError(f"candidate id {c} out of range for m={m}")
    return canon


def _approval_sets(sets: Iterable[Iterable[int]], m: int) -> list[ApprovalSet]:
    """``[approval_set(s, m) for s in sets]`` in one pass: every set
    canonicalised, then one type and range check over all members.
    ``approval_set`` runs set by set only to raise the first error, so
    each error is the one that reading the sets in order raises."""
    sets = list(sets)
    try:
        canon = list(map(tuple, map(sorted, map(set, sets))))
    except TypeError:  # unhashable or unorderable members, or no set at all
        for s in sets:  # raises the first error in reading order
            approval_set(s, m)
        raise
    members = list(itertools.chain.from_iterable(canon))
    if not {*map(type, members)} <= _INT_TYPES or (
        members and (min(members) < 0 or max(members) >= m)
    ):
        for s in canon:
            approval_set(s, m)
    return canon


def approval_profile(sets: Iterable[Iterable[int]], inst: Instance) -> Profile:
    """Canonicalize a full profile and check it has exactly ``n`` approval sets."""
    prof = tuple(approval_set(s, inst.m) for s in sets)
    if len(prof) != inst.n:
        raise InputError(f"profile has {len(prof)} approval sets, expected n={inst.n}")
    return prof


def committee(members: Iterable[int], inst: Instance, size: int | None = None) -> Committee:
    """Canonicalize a committee and check its size (defaults to ``k``)."""
    want = inst.k if size is None else size
    w = approval_set(members, inst.m)
    if len(w) != want:
        raise InputError(f"committee {w} has size {len(w)}, expected {want}")
    return w


def meets_threshold(group_size: int, ell: int, inst: Instance) -> bool:
    """Exact test for ``group_size >= ell * n / k`` by cross-multiplication."""
    if ell < 1:
        raise InputError(f"cohesiveness level ell={ell} must be positive")
    return group_size * inst.k >= ell * inst.n


def min_group_size(ell: int, inst: Instance) -> int:
    """Smallest group size meeting the ``ell``-threshold (exact ceiling)."""
    if ell < 1:
        raise InputError(f"cohesiveness level ell={ell} must be positive")
    return -(-ell * inst.n // inst.k)
