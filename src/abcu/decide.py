"""Possible/necessary satisfaction deciders for JR, PJR and EJR.

"Possible" means some plausible profile satisfies the axiom, "necessary"
means all of them do.  Polynomial procedures exist for several
model/problem combinations and are used automatically:

* Joint-model JR is decided by checking the listed profiles in order.
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

Lottery possible-JR, NP-hard (``reduce_3sat``), backtracks over one set
per voter and remembers each dead subtree with the nodes it took, so its
node counts, witnesses and budget errors are the plain search's.

Every other question is decided by ``_first``, the first plausible
profile in enumeration order that satisfies or violates the axiom (for
existence questions, per committee in lexicographic order).  PJR and
EJR on Lottery, CandidateProb and ThreeValued models, unless
``force_enumeration``, walk the profiles as a tree over the voters
(``axioms._pruned_walk``): a violating prefix violates in every
completion, so its subtree is dropped, the first leaf is the first
satisfying profile, and the first dropped subtree starts with the first
violating one.  It stops at the first witness, which usually lies near
profile 0, where it measured faster than testing a whole chunk of lanes
(probabilities, which visit every profile, read the lanes).  Joint
models and ``force_enumeration`` test a chunk of profiles at once on
lanes (``axioms._lane_test``), and the witness is the lowest bit of the
first nonzero mask.  A refutation's violation comes from the full
single-profile checker.
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
    _lane_test,
    _pruned_walk,
    _require_axiom,
)
from .model import (
    BudgetError,
    Committee,
    Instance,
    committee,
    meets_threshold,
    min_group_size,
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
    _lanes,
    _profile_at,
    _profile_probability,
    _table_chunks,
    _voter_tables,
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
        return is_poss_axiom(model, w, "jr", budget=budget, force_enumeration=True)
    if isinstance(model, JointModel):
        for lam, prof in model.entries:
            if jr_violation(inst, prof, w) is None:
                return DecisionResult(True, POLY, witness_profile=PlausibleProfile(prof, lam))
        return DecisionResult(False, POLY)
    if isinstance(model, LotteryModel):
        return _poss_jr_lottery(model, w, budget)
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


def _poss_jr_lottery(model: LotteryModel, w: Committee, budget: int | None) -> DecisionResult:
    """Backtracking over per-voter set choices with quota pruning.

    A partial assignment dies as soon as some outside candidate already
    has a quota of committed unrepresented approvers: later choices
    cannot remove them.  The first surviving full assignment (voters in
    index order, sets in input order) is the witness.  Every set tried
    is one search node.  The search keeps an explicit stack, one level
    per voter, so its depth is not bounded by the interpreter's.

    When voter ``i`` runs out of sets, the key of the state it was
    entered in is stored with the nodes its subtree took; a later entry
    with that key adds the count and backs out, so node counts and budget
    errors are the plain search's.  The key is ``i``, which sets of voters
    ``i`` on are dead (``blocks[i]``) and, for quotas of 3 or more, their
    candidates' counts, those one short of the quota as 0 (every later
    set holding one is dead).  The tables are built at the first
    backtrack, so a search that never backtracks pays nothing for them.
    """
    cap = resolve_budget(budget)
    inst = model.instance
    n, lotteries = inst.n, model.lotteries
    wset = frozenset(w)
    quota = min_group_size(1, inst)
    top = quota - 1
    counts = [0] * inst.m
    chosen: list[tuple[int, ...]] = []
    bumps: list[tuple[int, ...]] = []
    # next_set[i]: the next set to try for voter i on the current branch (one
    # past the end for a remembered dead state); entered[i]: nodes on entry.
    next_set = [0] * n
    entered = [0] * (n + 1)
    memo: dict | None = None

    def key(j):  # ``% top`` writes a count at ``top`` as 0; ``later`` is empty below quota 3
        return (j, blocks[j] >> off[j], *[counts[c] % top for c in later[j]])

    nodes = 0
    i = 0
    while i < n:
        voter = lotteries[i]
        if next_set[i] >= len(voter):
            # Voter i is exhausted: undo voter i - 1's choice and move on.
            if i == 0:
                return DecisionResult(False, ENUM)
            if memo is None:
                # holders[c]: a bit per (voter, set) slot that avoids w and holds c;
                # with a quota of 1 no set is bumped, and blocks stay 0.
                memo, off, holders = {}, [0] * (n + 1), [0] * inst.m
                for j, sets in enumerate(lotteries):
                    off[j + 1] = off[j] + len(sets)
                    for t, (_, s) in enumerate(sets):
                        if wset.isdisjoint(s):
                            for c in s:
                                holders[c] |= 1 << (off[j] + t)
                later = [[c for c, h in enumerate(holders) if h.bit_length() > o]
                         for o in off] if top > 1 else [()] * (n + 1)
                blocks, replay = [0] * (n + 1), [0] * inst.m
                for j, bumped in enumerate(bumps):
                    blocks[j + 1] = blocks[j]
                    for c in bumped:
                        replay[c] += 1
                        if replay[c] == top:
                            blocks[j + 1] |= holders[c]
            if next_set[i] == len(voter):
                memo[key(i)] = nodes - entered[i]
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
        bumped = s if wset.isdisjoint(s) else ()
        dead = False
        for c in bumped:
            counts[c] += 1
            if counts[c] >= quota:
                dead = True
        if dead:
            for c in bumped:
                counts[c] -= 1
            continue
        chosen.append(s)
        bumps.append(bumped)
        i += 1
        entered[i] = nodes
        if memo is not None and i < n:
            b = blocks[i - 1]
            for c in bumped:
                if counts[c] == top:
                    b |= holders[c]
            blocks[i] = b
            done = memo.get(key(i))
            if done is not None:
                nodes += done
                if nodes > cap:
                    raise BudgetError(cap + 1, cap)
                next_set[i] = len(lotteries[i]) + 1
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
        return is_nec_axiom(model, w, "jr", budget=budget, force_enumeration=True)
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
        if isinstance(model, (CandidateProbModel, ThreeValuedModel)):
            if all(len(free) == inst.m for _, free in model.split_rows):
                # Every candidate can be the unanimous favourite, so only
                # the full candidate set is necessarily JR.
                if inst.k == inst.m:
                    return DecisionResult(True, POLY, witness_committee=tuple(range(inst.m)))
                return DecisionResult(False, POLY)
    _check_committee_count(inst, budget)
    for w in itertools.combinations(range(inst.m), inst.k):
        if is_nec_jr(model, w, budget=budget, force_enumeration=force_enumeration).answer:
            return DecisionResult(True, ENUM, witness_committee=w)
    return DecisionResult(False, ENUM)


# ---------------------------------------------------------------------------
# the first-witness scan, behind PJR/EJR and every forced question


def _first(
    model: Model, wset: frozenset[int], axiom: str, holds: bool, budget: int | None,
    force: bool, tables: list | None = None,
) -> PlausibleProfile | None:
    """The first plausible profile, in enumeration order, that satisfies
    (``holds``) or violates ``axiom`` for ``wset``, or None: the first
    leaf or pruned node of the walk for PJR/EJR on independent voters
    unless ``force``, else the lowest bit of the first chunk's lane mask
    that has one.  Bit ``p`` is a Joint model's entry ``p``; for
    independent voters the chunk's offset plus ``p`` are the digits,
    voter 0 most significant, of the profile in the mixed radix of
    ``tables`` (``_voter_tables``, built here unless a scan over many
    committees passes them), where a voter of one entry has radix 1."""
    inst = model.instance
    if isinstance(model, JointModel):
        denom, chunks = _lanes(model, budget)
    else:
        if tables is None:
            tables = _voter_tables(model, budget)
        denom = math.prod(d for d, _ in tables)
        sets = [t for _, t in tables]
        if axiom != "jr" and not force:
            for satisfied, prof, wt in _pruned_walk(inst, sets, wset, axiom):
                if satisfied == holds:
                    return PlausibleProfile(tuple(prof), Fraction(wt, denom))
            return None
        chunks = _table_chunks(inst, sets)
    test = _lane_test(inst, wset, axiom)
    offset = 0
    for count, lanes, _, fixed in chunks:
        full = (1 << count) - 1
        mask = test(lanes, full, fixed)
        if not holds:
            mask = full & ~mask
        if mask:
            p = offset + (mask & -mask).bit_length() - 1
            prof, wt = model.weighted[1][p] if tables is None else _profile_at(sets, p)
            return PlausibleProfile(prof, Fraction(wt, denom))
        offset += count
    return None


def is_poss_axiom(
    model: Model, w, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> DecisionResult:
    """Possible satisfaction for any axiom; JR uses the fast paths unless
    ``force_enumeration``, every other question the first satisfying
    profile of ``_first``."""
    _require_axiom(axiom)
    if axiom == "jr" and not force_enumeration:
        return is_poss_jr(model, w, budget=budget)
    w = committee(w, model.instance)
    pp = _first(model, frozenset(w), axiom, True, budget, force_enumeration)
    if pp is None:
        return DecisionResult(False, ENUM)
    return DecisionResult(True, ENUM, witness_profile=pp)


def is_nec_axiom(
    model: Model, w, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> DecisionResult:
    """Necessary satisfaction for any axiom; JR uses the fast paths unless
    ``force_enumeration``, every other question the first violating
    profile of ``_first``.  The witness violation is the full checker's
    on the witness profile."""
    _require_axiom(axiom)
    if axiom == "jr" and not force_enumeration:
        return is_nec_jr(model, w, budget=budget)
    inst = model.instance
    wset = frozenset(committee(w, inst))
    pp = _first(model, wset, axiom, False, budget, force_enumeration)
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
    lexicographic winner is returned; each committee's scan stops at its
    first violating profile."""
    _require_axiom(axiom)
    if axiom == "jr":
        return exists_nec_jr(model, budget=budget, force_enumeration=force_enumeration)
    inst = model.instance
    _check_committee_count(inst, budget)
    tables = None if isinstance(model, JointModel) else _voter_tables(model, budget)
    for w in itertools.combinations(range(inst.m), inst.k):
        if _first(model, frozenset(w), axiom, False, budget, force_enumeration, tables) is None:
            return DecisionResult(True, ENUM, witness_committee=w)
    return DecisionResult(False, ENUM)


def exists_poss_axiom(model: Model, axiom: str, *, budget: int | None = None) -> DecisionResult:
    """Is some committee possibly satisfying ``axiom``?  For JR this is
    always yes; for PJR/EJR each committee's scan stops at its first
    satisfying profile."""
    _require_axiom(axiom)
    if axiom == "jr":
        return exists_poss_jr(model)
    inst = model.instance
    _check_committee_count(inst, budget)
    tables = None if isinstance(model, JointModel) else _voter_tables(model, budget)
    for w in itertools.combinations(range(inst.m), inst.k):
        pp = _first(model, frozenset(w), axiom, True, budget, False, tables)
        if pp is not None:
            return DecisionResult(True, ENUM, witness_committee=w, witness_profile=pp)
    return DecisionResult(False, ENUM)
