"""Possible/necessary satisfaction deciders for JR, PJR and EJR.

"Possible" means some plausible profile satisfies the axiom, "necessary"
means all of them do.  Polynomial procedures exist for several
model/problem combinations and are used automatically:

* Joint models are decided by scanning their explicit profile list.
* CandidateProb/ThreeValued possible-JR reduces to a single check on the
  best-case completion: approving every committee member with positive
  probability and, outside the committee, only forced approvals can only
  remove violations, and the completion is plausible by independence.
* Lottery/CandidateProb/ThreeValued necessary-JR reduces to counting,
  per outside candidate, the voters who can simultaneously approve it
  and dodge the committee (for lotteries: a single plausible set
  containing the candidate and disjoint from the committee).
* Necessary-JR committee existence has two polynomial special cases:
  lotteries whose plausible sets are all singletons (candidates whose
  potential-approver count meets the quota are mandatory), and
  strictly interior probability matrices (only the full candidate set
  can be necessarily JR, so the answer is yes iff k = m).

Everything else is decided by exact enumeration over plausible profiles
(and, for existence questions, over committees in lexicographic order).
All searches return the first witness in scan order.

PJR and EJR questions on Lottery, CandidateProb and ThreeValued models
walk the profiles as a tree over the voters (``axioms._pruned_walk``),
whose leaves come in enumeration order.  A violating group depends only
on its own members, and its quota is fixed by the instance, so a prefix
that violates violates in every completion, and its subtree is dropped.
The first surviving leaf is therefore the first satisfying profile, and
the first dropped subtree starts with the first violating profile: its
prefix with every later voter on its first set.  Possible satisfaction
stops at the first leaf, necessary satisfaction at the first dropped
subtree, and the existence questions run one such walk per committee.
Witnesses are those of the flat scan, which Joint models and
``force_enumeration`` keep, and a refutation's violation comes from the
full single-profile checker.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .axioms import (
    _COMMITTEE_FINDERS,
    Violation,
    greedy_jr_committee,
    jr_violation,
    _pruned_walk,
    _require_axiom,
    _satisfaction_test,
)
from .model import (
    BudgetError,
    Committee,
    Instance,
    committee,
    meets_threshold,
    resolve_budget,
)
from .uncertainty import (
    CandidateProbModel,
    JointModel,
    LotteryModel,
    Model,
    PlausibleProfile,
    ThreeValuedModel,
    _cp_rows,
    _profile_probability,
    _voter_tables,
    _weighted_profiles,
    first_plausible,
)

POLY = "poly-special-case"
ENUM = "enumeration"


@dataclass(frozen=True)
class DecisionResult:
    """Answer plus witness: a profile for possible-*, a profile and its
    violation for necessary-* refutations, a committee for exists-*."""

    answer: bool
    method: str
    witness_profile: PlausibleProfile | None = None
    witness_violation: Violation | None = None
    witness_committee: Committee | None = None


def _matrix_like(model: Model) -> bool:
    return isinstance(model, (CandidateProbModel, ThreeValuedModel))


def _check_committee_count(inst: Instance, budget: int | None) -> None:
    """Raise :class:`BudgetError` when the size-``k`` committees exceed the budget."""
    cap = resolve_budget(budget)
    total = math.comb(inst.m, inst.k)
    if total > cap:
        raise BudgetError(total, cap)


# ---------------------------------------------------------------------------
# possible JR


def is_poss_jr(
    model: Model, w, *, budget: int | None = None, force_enumeration: bool = False
) -> DecisionResult:
    """Does ``w`` satisfy JR in at least one plausible profile?"""
    inst = model.instance
    w = committee(w, inst)
    if force_enumeration:
        return _poss_by_enumeration(model, w, "jr", budget)
    if isinstance(model, JointModel):
        for lam, prof in model.entries:
            if jr_violation(inst, prof, w) is None:
                return DecisionResult(True, POLY, witness_profile=PlausibleProfile(prof, lam))
        return DecisionResult(False, POLY)
    if _matrix_like(model):
        wset = set(w)
        prof = tuple(
            tuple(sorted(
                [c for c in w if row[c].numerator]
                + [c for c in forced if c not in wset]
            ))
            for row, (forced, _) in zip(_cp_rows(model), model.split_rows)
        )
        if jr_violation(inst, prof, w) is None:
            return DecisionResult(
                True, POLY,
                witness_profile=PlausibleProfile(prof, _profile_probability(model, prof)),
            )
        return DecisionResult(False, POLY)
    return _poss_jr_lottery(model, w, budget)


def _poss_jr_lottery(model: LotteryModel, w: Committee, budget: int | None) -> DecisionResult:
    """Backtracking over per-voter set choices with quota pruning.

    A partial assignment dies as soon as some outside candidate already
    has a quota of committed unrepresented approvers: later choices
    cannot remove them.  The first surviving full assignment (voters in
    index order, sets in input order) is the witness.  Every set tried
    is one search node.  The search keeps an explicit stack, one level
    per voter, so its depth is not bounded by the interpreter's.
    """
    cap = resolve_budget(budget)
    inst = model.instance
    wset = frozenset(w)
    counts = [0] * inst.m
    chosen: list[tuple[int, ...]] = []
    bumps: list[list[int]] = []
    # next_set[i]: index of the next set to try for voter i on the current branch.
    next_set = [0] * inst.n
    nodes = 0
    i = 0
    while i < inst.n:
        voter = model.lotteries[i]
        if next_set[i] == len(voter):
            # Voter i is exhausted: undo voter i - 1's choice and move on.
            if i == 0:
                return DecisionResult(False, ENUM)
            next_set[i] = 0
            i -= 1
            chosen.pop()
            for c in bumps.pop():
                counts[c] -= 1
            continue
        s = voter[next_set[i]][1]
        next_set[i] += 1
        nodes += 1
        if nodes > cap:
            raise BudgetError(nodes, cap)
        bumped = [] if wset & set(s) else list(s)
        dead = False
        for c in bumped:
            counts[c] += 1
            if meets_threshold(counts[c], 1, inst):
                dead = True
        if dead:
            for c in bumped:
                counts[c] -= 1
            continue
        chosen.append(s)
        bumps.append(bumped)
        i += 1
    prof = tuple(chosen)
    return DecisionResult(
        True, ENUM,
        witness_profile=PlausibleProfile(prof, _profile_probability(model, prof)),
    )


def exists_poss_jr(model: Model) -> DecisionResult:
    """Always yes: every profile admits a JR committee, so build one
    greedily for the first plausible profile."""
    pp = first_plausible(model)
    w = greedy_jr_committee(model.instance, pp.profile)
    return DecisionResult(True, POLY, witness_committee=w, witness_profile=pp)


# ---------------------------------------------------------------------------
# necessary JR


def is_nec_jr(
    model: Model, w, *, budget: int | None = None, force_enumeration: bool = False
) -> DecisionResult:
    """Does ``w`` satisfy JR in every plausible profile?"""
    inst = model.instance
    w = committee(w, inst)
    if force_enumeration:
        return _nec_by_enumeration(model, w, "jr", budget)
    if isinstance(model, JointModel):
        for lam, prof in model.entries:
            viol = jr_violation(inst, prof, w)
            if viol is not None:
                return DecisionResult(
                    False, POLY,
                    witness_profile=PlausibleProfile(prof, lam),
                    witness_violation=viol,
                )
        return DecisionResult(True, POLY)
    if isinstance(model, LotteryModel):
        return _nec_jr_lottery(model, w)
    return _nec_jr_matrix(model, w)


def _nec_jr_lottery(model: LotteryModel, w: Committee) -> DecisionResult:
    """A voter can join a violation at an outside candidate ``c`` only
    through one plausible set that holds ``c`` and avoids the committee;
    ``c`` is violated in some profile iff a quota of voters have one.
    One pass records each voter's first such set for every candidate;
    the witness puts the voters who have one for the first violated
    candidate on it, and every other voter on its first set."""
    inst = model.instance
    wset = frozenset(w)
    firsts: list[dict[int, tuple[int, ...]]] = []
    counts = [0] * inst.m
    for voter in model.lotteries:
        first: dict[int, tuple[int, ...]] = {}
        for _, s in voter:
            if wset.isdisjoint(s):
                for c in s:
                    first.setdefault(c, s)
        for c in first:
            counts[c] += 1
        firsts.append(first)
    for c in range(inst.m):
        # Members of the committee have no avoiding set, so count 0.
        if meets_threshold(counts[c], 1, inst):
            prof = tuple(
                first.get(c, voter[0][1]) for first, voter in zip(firsts, model.lotteries)
            )
            return DecisionResult(
                False, POLY,
                witness_profile=PlausibleProfile(prof, _profile_probability(model, prof)),
                witness_violation=jr_violation(inst, prof, w),
            )
    return DecisionResult(True, POLY)


def _nec_jr_matrix(model: CandidateProbModel | ThreeValuedModel, w: Committee) -> DecisionResult:
    inst = model.instance
    rows = _cp_rows(model)
    wset = frozenset(w)
    forced = [f for f, _ in model.split_rows]
    # Voters who can dodge the committee: no forced approval inside it.
    dodgers = [i for i in range(inst.n) if wset.isdisjoint(forced[i])]
    for c in range(inst.m):
        if c in wset:
            continue
        group = [i for i in dodgers if rows[i][c].numerator]
        if meets_threshold(len(group), 1, inst):
            in_group = set(group)
            prof = tuple(
                tuple(sorted({*forced[i], c})) if i in in_group else tuple(forced[i])
                for i in range(inst.n)
            )
            return DecisionResult(
                False, POLY,
                witness_profile=PlausibleProfile(prof, _profile_probability(model, prof)),
                witness_violation=jr_violation(inst, prof, w),
            )
    return DecisionResult(True, POLY)


def exists_nec_jr(
    model: Model, *, budget: int | None = None, force_enumeration: bool = False
) -> DecisionResult:
    """Is some size-``k`` committee JR in every plausible profile?"""
    inst = model.instance
    if not force_enumeration:
        if isinstance(model, LotteryModel) and all(
            len(s) == 1 for voter in model.lotteries for _, s in voter
        ):
            counts = [0] * inst.m
            for voter in model.lotteries:
                for _, s in voter:
                    counts[s[0]] += 1
            mandatory = [c for c in range(inst.m) if meets_threshold(counts[c], 1, inst)]
            if len(mandatory) > inst.k:
                return DecisionResult(False, POLY)
            chosen = list(mandatory)
            for c in range(inst.m):
                if len(chosen) == inst.k:
                    break
                if c not in mandatory:
                    chosen.append(c)
            return DecisionResult(True, POLY, witness_committee=tuple(sorted(chosen)))
        if _matrix_like(model):
            if all(len(free) == inst.m for _, free in model.split_rows):
                # Every candidate can be the unanimous favourite, so only
                # the full candidate set is necessarily JR.
                if inst.k == inst.m:
                    return DecisionResult(True, POLY, witness_committee=tuple(range(inst.m)))
                return DecisionResult(False, POLY)
    _check_committee_count(inst, budget)
    for w in itertools.combinations(range(inst.m), inst.k):
        if is_nec_jr(model, w, budget=budget).answer:
            return DecisionResult(True, ENUM, witness_committee=w)
    return DecisionResult(False, ENUM)


# ---------------------------------------------------------------------------
# PJR / EJR via enumeration (and the generic enumeration fallbacks)


def _poss_by_enumeration(model: Model, w: Committee, axiom: str, budget: int | None) -> DecisionResult:
    denom, profiles = _weighted_profiles(model, budget)
    holds = _satisfaction_test(model.instance, frozenset(w), axiom)
    for prof, wt in profiles:
        if holds(prof):
            return DecisionResult(
                True, ENUM, witness_profile=PlausibleProfile(prof, Fraction(wt, denom))
            )
    return DecisionResult(False, ENUM)


def _nec_by_enumeration(model: Model, w: Committee, axiom: str, budget: int | None) -> DecisionResult:
    inst = model.instance
    wset = frozenset(w)
    denom, profiles = _weighted_profiles(model, budget)
    holds = _satisfaction_test(inst, wset, axiom)
    for prof, wt in profiles:
        if not holds(prof):
            return DecisionResult(
                False, ENUM,
                witness_profile=PlausibleProfile(prof, Fraction(wt, denom)),
                witness_violation=_COMMITTEE_FINDERS[axiom](inst, prof, wset),
            )
    return DecisionResult(True, ENUM)


def _first_walked(
    inst: Instance, tables: list, wset: frozenset[int], axiom: str, holds: bool
) -> PlausibleProfile | None:
    """The first plausible profile, in enumeration order, that satisfies
    (``holds``) or violates PJR/EJR ``axiom`` for ``wset``, or None, by
    the pruned walk over the voter ``tables`` (``_voter_tables``).

    The first leaf of the walk is the first satisfying profile: every
    profile before it lies in a pruned subtree.  The first pruned node
    gives the first violating one: the profiles before its subtree are
    leaves, and its subtree's first profile violates, since a violation
    in a prefix survives every completion.
    """
    walk = _pruned_walk(inst, [t for _, t in tables], [wset], axiom)
    for satisfied, prof, wt, _ in walk:
        if satisfied == holds:
            return PlausibleProfile(tuple(prof), Fraction(wt, math.prod(d for d, _ in tables)))
    return None


def _walks(model: Model, force_enumeration: bool) -> bool:
    """Whether a PJR/EJR scan over ``model`` takes the pruned walk: on
    independent voters, unless enumeration is forced."""
    return not force_enumeration and not isinstance(model, JointModel)


def is_poss_axiom(
    model: Model, w, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> DecisionResult:
    """Possible satisfaction for any axiom; JR uses the fast paths, PJR
    and EJR on independent voters the pruned walk (``_first_walked``)."""
    _require_axiom(axiom)
    if axiom == "jr":
        return is_poss_jr(model, w, budget=budget, force_enumeration=force_enumeration)
    w = committee(w, model.instance)
    if not _walks(model, force_enumeration):
        return _poss_by_enumeration(model, w, axiom, budget)
    pp = _first_walked(model.instance, _voter_tables(model, budget), frozenset(w), axiom, True)
    if pp is None:
        return DecisionResult(False, ENUM)
    return DecisionResult(True, ENUM, witness_profile=pp)


def is_nec_axiom(
    model: Model, w, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> DecisionResult:
    """Necessary satisfaction for any axiom; JR uses the fast paths, PJR
    and EJR on independent voters the pruned walk (``_first_walked``).
    The witness violation is the full checker's on the witness profile."""
    _require_axiom(axiom)
    if axiom == "jr":
        return is_nec_jr(model, w, budget=budget, force_enumeration=force_enumeration)
    inst = model.instance
    w = committee(w, inst)
    if not _walks(model, force_enumeration):
        return _nec_by_enumeration(model, w, axiom, budget)
    wset = frozenset(w)
    pp = _first_walked(inst, _voter_tables(model, budget), wset, axiom, False)
    if pp is None:
        return DecisionResult(True, ENUM)
    return DecisionResult(
        False, ENUM, witness_profile=pp,
        witness_violation=_COMMITTEE_FINDERS[axiom](inst, pp.profile, wset),
    )


def exists_nec_axiom(
    model: Model, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> DecisionResult:
    """Is some committee necessarily satisfying ``axiom``?  First
    lexicographic winner is returned.  For PJR/EJR on independent voters
    each committee's walk stops at its first pruned node."""
    _require_axiom(axiom)
    if axiom == "jr":
        return exists_nec_jr(model, budget=budget, force_enumeration=force_enumeration)
    inst = model.instance
    _check_committee_count(inst, budget)
    committees = itertools.combinations(range(inst.m), inst.k)
    if not _walks(model, force_enumeration):
        profiles = [prof for prof, _ in _weighted_profiles(model, budget)[1]]
        for w in committees:
            if all(map(_satisfaction_test(inst, frozenset(w), axiom), profiles)):
                return DecisionResult(True, ENUM, witness_committee=w)
        return DecisionResult(False, ENUM)
    tables = _voter_tables(model, budget)
    for w in committees:
        if _first_walked(inst, tables, frozenset(w), axiom, False) is None:
            return DecisionResult(True, ENUM, witness_committee=w)
    return DecisionResult(False, ENUM)


def exists_poss_axiom(model: Model, axiom: str, *, budget: int | None = None) -> DecisionResult:
    """Is some committee possibly satisfying ``axiom``?  For JR this is
    always yes; for PJR/EJR it is decided by enumeration, on independent
    voters by each committee's pruned walk up to its first leaf."""
    _require_axiom(axiom)
    if axiom == "jr":
        return exists_poss_jr(model)
    inst = model.instance
    _check_committee_count(inst, budget)
    committees = itertools.combinations(range(inst.m), inst.k)
    if isinstance(model, JointModel):
        denom, weighted = _weighted_profiles(model, budget)
        profiles = list(weighted)
        for w in committees:
            holds = _satisfaction_test(inst, frozenset(w), axiom)
            for prof, wt in profiles:
                if holds(prof):
                    return DecisionResult(
                        True, ENUM, witness_committee=w,
                        witness_profile=PlausibleProfile(prof, Fraction(wt, denom)),
                    )
        return DecisionResult(False, ENUM)
    tables = _voter_tables(model, budget)
    for w in committees:
        pp = _first_walked(inst, tables, frozenset(w), axiom, True)
        if pp is not None:
            return DecisionResult(True, ENUM, witness_committee=w, witness_profile=pp)
    return DecisionResult(False, ENUM)
