"""Committee search: probability maximization and small-committee JR.

``max_axiom`` scans all size-``k`` committees in lexicographic order and
keeps the first one attaining the maximum axiom probability, counting
how many committees tie.  ``size_jr`` decides whether a committee of a
given size ``r`` smaller than ``k`` satisfies JR, with the quota still
computed from the instance's ``k``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .axioms import _approvers, _covered, _jr_on_bits, _require_axiom
from .model import (
    _INT_TYPES,
    Committee,
    InputError,
    Instance,
    Profile,
    _check_budget,
    approval_profile,
    min_group_size,
)
from .probability import committee_probabilities
from .uncertainty import Model


@dataclass(frozen=True)
class MaxResult:
    """Lexicographically least probability-maximizing committee, its
    exact probability, and the number of committees attaining it."""

    committee: Committee
    value: Fraction
    ties: int


def max_axiom(
    model: Model, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> MaxResult:
    """Committee with the highest probability of satisfying ``axiom``.

    The probabilities come from ``probability.committee_probabilities``,
    the dispatcher behind ``axiom_probability``, so both questions take
    the same path.  JR on a Lottery or CandidateProb model takes each
    committee's polynomial path, a closed form or the voter DP.  Every
    other question (PJR and EJR, Joint models and ``force_enumeration``)
    scores all committees in one pass over the lanes of the plausible
    profiles (``uncertainty._lanes``): each committee's lane test marks
    all the satisfying profiles of a chunk at once, and their integer
    weights are summed.  A Joint model builds its lanes once and keeps
    them, so every committee, and every later question on the model,
    reads the same lanes; independent voters are scanned in chunks of at
    most 2^12 profiles, each built once for all the committees, with the
    voters of a single approval set counted per distinct set instead of
    given lanes.
    """
    inst = model.instance
    _require_axiom(axiom)
    _check_budget(math.comb(inst.m, inst.k) * model.profile_count, budget)
    committees = list(itertools.combinations(range(inst.m), inst.k))
    results = committee_probabilities(model, committees, axiom, budget, force_enumeration)
    values = [result.value for result in results]
    best = max(values)
    return MaxResult(committees[values.index(best)], best, values.count(best))


def size_jr(inst: Instance, prof: Profile, r: int) -> tuple[bool, Committee | None]:
    """Is there a committee of size ``r < k`` satisfying JR?

    The quota stays ``n/k`` with the instance's original ``k``; only the
    committee itself is smaller.  Returns the first suitable committee
    in lexicographic order.  The profile's per-candidate view is built
    once, and each committee is tested on it in ``O(m)`` bitset
    operations.
    """
    if not isinstance(r, int) or isinstance(r, bool) or not 1 <= r < inst.k:
        raise InputError(f"target size r={r!r} must satisfy 1 <= r < k={inst.k}")
    approvers = _approvers(inst.m, _plain_profile(prof, inst))
    quota = min_group_size(1, inst)
    for w in itertools.combinations(range(inst.m), r):
        if _jr_on_bits(quota, approvers, _covered(approvers, w), frozenset(w)) is None:
            return True, w
    return False, None


# The containers ``_plain_profile`` reads as they are.
_SEQUENCES = {tuple, list}


def _plain_profile(prof, inst: Instance) -> Profile:
    """``prof`` itself when it is a tuple or list of ``n`` tuples or
    lists of ``int`` candidate ids in ``0..m-1``: ``_approvers`` reads
    such sets as it reads their canonical forms, so they are checked in
    bulk, not canonicalised one by one.  Anything else goes through
    ``approval_profile``, so its errors are unchanged."""
    if type(prof) in _SEQUENCES and len(prof) == inst.n and {*map(type, prof)} <= _SEQUENCES:
        members = list(itertools.chain.from_iterable(prof))
        if {*map(type, members)} <= _INT_TYPES and (
            not members or (min(members) >= 0 and max(members) < inst.m)
        ):
            return prof
    return approval_profile(prof, inst)
