"""Possible/necessary satisfaction deciders for JR, PJR and EJR.

"Possible" means some plausible profile satisfies the axiom, "necessary"
means all of them do.  Each question has one decider, a ``*_axiom``
function, which alone picks the JR fast path for the model kind unless
``force_enumeration`` is set; the ``*_jr`` functions forward to it.
Polynomial procedures exist for several model/problem combinations and
are used automatically:

* Joint-model JR is decided by checking the listed profiles in order.
* CandidateProb possible-JR, three-valued models included, reduces to a
  single check on the best-case completion: approving every committee
  member with positive probability and, outside the committee, only
  forced approvals can only remove violations, and the completion is
  plausible by independence.
* Lottery/CandidateProb necessary-JR reduces to counting, per outside
  candidate, the voters who can simultaneously approve it and dodge the
  committee (for lotteries: a single plausible set containing the
  candidate and disjoint from the committee).
* Necessary-JR committee existence has two polynomial special cases:
  lotteries whose plausible sets are all singletons (candidates whose
  potential-approver count meets the quota are mandatory), and
  strictly interior probability matrices (only the full candidate set
  can be necessarily JR, so the answer is yes iff k = m).

JR questions read the per-candidate views stored on the model
(``JointModel.approvers``, ``columns``, ``LotteryModel.layers``; see
``uncertainty``) and run one test, ``axioms._jr_on_bits``: ``O(m)``
big-integer ORs and popcounts against the quota ``ceil(n/k)``.  A
Joint entry is tested on its own approvers, by one loop for both modes
(``_joint_jr``).  The best case of a matrix model leaves uncovered the
voters with no committee entry above 0 (the OR of the committee's
forced and free columns) and counts the forced columns outside it; the
worst case leaves uncovered the voters with no forced committee entry
and counts forced and free columns together.  Witnesses are priced from
per-candidate products (``column_products``) and their product of
misses (``missed``), built only for a witness: a possible-JR witness
approves the committee's free entries and misses every other one, so
each member's column swaps its misses for its approvals; a necessary-JR
refutation misses every free entry but those of its group at the
violated candidate, whose column is read once.
A witness is built on the rows stored as two row words (``row_words``:
every row's forced and free candidate masks in one integer each, see
``uncertainty``) by a few big-integer operations: for possible JR the
forced word OR the free word within the committee, whose mask is
repeated at the start of every row (``_spread``); for a refutation the
forced word OR the violated candidate's bit in the rows of the group.
The word is decoded to sets in one whole-matrix pass
(``uncertainty._row_sets``), so no loop in Python runs over the voters
or the free entries.

A lottery's layer ``t`` holds each candidate's voters whose ``t``-th set
holds it.  The voters who can approve an outside candidate ``c`` with a
set that avoids the committee are the OR over the layers of ``c``'s
voters less those whose set there meets the committee; necessary JR
fails iff one such candidate has a quota of them, so it takes
``O(T(k + m))`` big-integer operations for the longest lottery's ``T``
sets.  The witness, built only for a refutation, puts that group on
their first such sets and every other voter on its first set.  The
all-singleton special case of necessary-JR existence reads its
singleton test and per-candidate counts off the layers as popcounts.

Lottery possible-JR, NP-hard (``reduce_3sat``), first tests the first
profile on layer 0: when it is JR, the backtracking search would return
it after one node per voter, so that is the answer, or the budget error
the search would raise.  Otherwise it backtracks over one set per voter
and remembers each dead subtree with the nodes it took, so its node
counts, witnesses and budget errors are the plain search's; the method
is ``enumeration`` either way.

Every other question is decided by ``_first``, the first plausible
profile in enumeration order that satisfies or violates the axiom (for
existence questions, per committee in lexicographic order).  It tests a
chunk of profiles at once on lanes (``axioms._lane_test``), and the
witness is the lowest bit of the first nonzero mask, on every model
kind and for every axiom.  The lanes of independent voters are read
from the model's stored scan plan (see ``uncertainty``), so the scans
of one model over many committees build its tables and inner lane block
once.  A refutation's violation comes from the full single-profile
checker.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import or_

from .axioms import (
    _COMMITTEE_FINDERS,
    _DIGIT_BITS,
    Violation,
    _covered,
    _greedy_jr,
    _jr_on_bits,
    _lane_test,
    _mask,
    _require_axiom,
    _voters,
)
from .model import (
    BudgetError,
    Committee,
    _check_budget,
    committee,
    meets_threshold,
    min_group_size,
    resolve_budget,
)
from .uncertainty import (
    FREE,
    CandidateProbModel,
    JointModel,
    LotteryModel,
    Model,
    PlausibleProfile,
    _lanes,
    _profile_probability,
    _row_sets,
    _row_width,
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


# ---------------------------------------------------------------------------
# possible JR


def is_poss_jr(
    model: Model, w, *, budget: int | None = None, force_enumeration: bool = False
) -> DecisionResult:
    """Does ``w`` satisfy JR in at least one plausible profile?  The JR
    case of ``is_poss_axiom``, which picks the fast path."""
    return is_poss_axiom(model, w, "jr", budget=budget, force_enumeration=force_enumeration)


def _poss_jr_matrix(model: CandidateProbModel, w: Committee) -> DecisionResult:
    """JR in the best case, which approves every member of positive
    probability and, outside the committee, only the forced approvals."""
    inst = model.instance
    wset = frozenset(w)
    forced, free = model.columns
    best = _covered(forced, w) | _covered(free, w)
    if _jr_on_bits(min_group_size(1, inst), forced, best, wset) is not None:
        return DecisionResult(False, POLY)
    # Each row approves its forced candidates and its free committee
    # members: the committee mask is repeated at the start of every row.
    row_forced, row_free = model.row_words
    every_row = _spread((1 << inst.n) - 1, inst.n, inst.m)
    sets = _row_sets(row_forced | row_free & _mask(w) * every_row, inst.n, inst.m)
    # Every free entry is missed but the members': each member's column
    # swaps its ``miss`` for its ``approve``.
    approve, miss, den = model.column_products
    num = model.missed
    for c in w:
        num = num // miss[c] * approve[c]
    return DecisionResult(
        True, POLY, witness_profile=PlausibleProfile(sets, Fraction(num, den)),
    )


def _joint_jr(model: JointModel, w: Committee, holds: bool) -> DecisionResult:
    """The first Joint entry, in entry order, on which ``w`` satisfies
    (``holds``) or violates JR, tested on the entry's approvers, as the
    witness of a ``holds`` answer; the answer is ``not holds`` when no
    entry is one."""
    quota = min_group_size(1, model.instance)
    wset = frozenset(w)
    for (lam, prof), approvers in zip(model.entries, model.approvers):
        viol = _jr_on_bits(quota, approvers, _covered(approvers, w), wset)
        if (viol is None) == holds:
            return DecisionResult(
                holds, POLY,
                witness_profile=PlausibleProfile(prof, lam),
                witness_violation=viol,
            )
    return DecisionResult(not holds, POLY)


def _poss_jr_lottery(model: LotteryModel, w: Committee, budget: int | None) -> DecisionResult:
    """Backtracking over per-voter set choices with quota pruning.

    A partial assignment dies as soon as some outside candidate already
    has a quota of committed unrepresented approvers: later choices
    cannot remove them.  The first surviving full assignment (voters in
    index order, sets in input order) is the witness.  Every set tried
    is one search node.  The search keeps an explicit stack, one level
    per voter, so its depth is not bounded by the interpreter's.

    The first profile is tested first, on layer 0 of the stored view.
    When it is JR, no prefix of it has a quota at any candidate, so the
    search would take every voter's first set, one node each, and stop
    at that profile after ``n`` nodes: it is returned, or the budget
    error the search would raise at node ``cap + 1``.

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
    layer = model.layers[0]
    if _jr_on_bits(quota, layer, _covered(layer, w), wset) is None:
        if n > cap:
            raise BudgetError(cap + 1, cap)
        return DecisionResult(True, ENUM, witness_profile=model.first)
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
    """Always yes: the JR case of ``exists_poss_axiom``."""
    return exists_poss_axiom(model, "jr")


# ---------------------------------------------------------------------------
# necessary JR


def is_nec_jr(
    model: Model, w, *, budget: int | None = None, force_enumeration: bool = False
) -> DecisionResult:
    """Does ``w`` satisfy JR in every plausible profile?  The JR case of
    ``is_nec_axiom``, which picks the fast path."""
    return is_nec_axiom(model, w, "jr", budget=budget, force_enumeration=force_enumeration)


def _nec_jr_lottery(model: LotteryModel, w: Committee) -> DecisionResult:
    """A voter can join a violation at an outside candidate ``c`` only
    through one plausible set that holds ``c`` and avoids the committee;
    ``c`` is violated in some profile iff a quota of voters have one.
    Those voters, ``reach[c]``, are the OR over the stored layers of
    ``c``'s voters in a layer less the voters whose set there meets the
    committee, so the test is one ``_jr_on_bits``, and its violation is
    the first such ``c`` with that group: every earlier outside
    candidate has fewer reaching voters than the quota.  The witness puts
    each voter of the group on its first set that holds ``c`` and avoids
    the committee, and every other voter on its first set."""
    inst = model.instance
    layers = list(model.layers)
    dodges = [~_covered(layer, w) for layer in layers]
    reach = [0] * inst.m
    for layer, dodge in zip(layers, dodges):
        reach = [r | (bits & dodge) for r, bits in zip(reach, layer)]
    viol = _jr_on_bits(min_group_size(1, inst), reach, 0, frozenset(w))
    if viol is None:
        return DecisionResult(True, POLY)
    (c,) = viol.common
    sets = list(model.first.profile)
    left = reach[c]
    for t, (layer, dodge) in enumerate(zip(layers, dodges)):
        hit = layer[c] & dodge & left
        for i in _voters(hit):
            sets[i] = model.lotteries[i][t][1]
        left ^= hit
    prof = tuple(sets)
    return DecisionResult(
        False, POLY,
        witness_profile=PlausibleProfile(prof, _profile_probability(model, prof)),
        witness_violation=viol,
    )


def _spread(bits: int, n: int, m: int) -> int:
    """The voter bitset ``bits`` of ``n`` voters with voter ``i``'s bit
    moved to the start of row ``i`` of a row word of ``m`` candidates
    (``CandidateProbModel.row_words``): its binary digits, lowest first,
    as bytes 0 and 1, are copied into every row's first byte of a zero
    buffer."""
    digits = bin(bits)[:1:-1].encode().translate(_DIGIT_BITS)
    step = _row_width(m) // 8
    buf = bytearray(n * step)
    buf[:len(digits) * step:step] = digits
    return int.from_bytes(buf, "little")


def _nec_jr_matrix(model: CandidateProbModel, w: Committee) -> DecisionResult:
    """The worst case: the voters who can dodge the committee (no forced
    approval inside it) each approve the outside candidate ``c`` when
    they can.  ``c`` is violated in some profile iff a quota of them
    approve it with positive probability.  The witness puts the first
    such ``c`` on that group, every other approval at its forced value;
    its violation is ``c`` with the same group, since every earlier
    outside candidate has fewer dodging approvers than the quota."""
    inst = model.instance
    wset = frozenset(w)
    forced, free = model.columns
    possible = list(map(or_, forced, free))
    covered = _covered(forced, w)
    viol = _jr_on_bits(min_group_size(1, inst), possible, covered, wset)
    if viol is None:
        return DecisionResult(True, POLY)
    (c,) = viol.common
    group = frozenset(viol.group)
    approve_c = _spread(possible[c] & ~covered, inst.n, inst.m) << c
    prof = _row_sets(model.row_words[0] | approve_c, inst.n, inst.m)
    # Every free entry is missed but those of the group at ``c``.
    _, miss, den = model.column_products
    num = model.missed // miss[c]
    for i in _voters(free[c]):
        p_num, p_den = model.probs[i][c].as_integer_ratio()
        num *= p_num if i in group else p_den - p_num
    return DecisionResult(
        False, POLY,
        witness_profile=PlausibleProfile(prof, Fraction(num, den)),
        witness_violation=viol,
    )


def exists_nec_jr(
    model: Model, *, budget: int | None = None, force_enumeration: bool = False
) -> DecisionResult:
    """Is some size-``k`` committee JR in every plausible profile?  The
    JR case of ``exists_nec_axiom``, which picks the fast path."""
    return exists_nec_axiom(model, "jr", budget=budget, force_enumeration=force_enumeration)


# ---------------------------------------------------------------------------
# the first-witness scan, behind PJR/EJR and every forced question


def _first(
    model: Model, wset: frozenset[int], axiom: str, holds: bool, budget: int | None
) -> PlausibleProfile | None:
    """The first plausible profile, in enumeration order, that satisfies
    (``holds``) or violates ``axiom`` for ``wset``, or None: the lowest
    bit of the first chunk's lane mask that has one: the chunk's offset
    plus that bit is the profile's index (``profile_at``)."""
    _, chunks = _lanes(model, budget)
    test = _lane_test(model.instance, wset, axiom)
    offset = 0
    for count, lanes, _, fixed in chunks:
        full = (1 << count) - 1
        mask = test(lanes, full, fixed)
        if not holds:
            mask = full & ~mask
        if mask:
            return model.profile_at(offset + (mask & -mask).bit_length() - 1)
        offset += count
    return None


def is_poss_axiom(
    model: Model, w, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> DecisionResult:
    """Possible satisfaction for any axiom.  Unless ``force_enumeration``,
    JR takes its model kind's fast path: the lottery search, the first
    satisfying Joint entry or a matrix model's best case.  Every other
    question is the first satisfying profile of ``_first``."""
    _require_axiom(axiom)
    w = committee(w, model.instance)
    if axiom == "jr" and not force_enumeration:
        if isinstance(model, LotteryModel):
            return _poss_jr_lottery(model, w, budget)
        if isinstance(model, JointModel):
            return _joint_jr(model, w, True)
        return _poss_jr_matrix(model, w)
    pp = _first(model, frozenset(w), axiom, True, budget)
    if pp is None:
        return DecisionResult(False, ENUM)
    return DecisionResult(True, ENUM, witness_profile=pp)


def is_nec_axiom(
    model: Model, w, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> DecisionResult:
    """Necessary satisfaction for any axiom.  Unless ``force_enumeration``,
    JR takes its model kind's fast path: the first violating Joint
    entry, the lottery reach count or a matrix model's worst case.  Every
    other question is the first violating profile of ``_first``, whose
    witness violation is the full checker's on the witness profile."""
    _require_axiom(axiom)
    inst = model.instance
    w = committee(w, inst)
    if axiom == "jr" and not force_enumeration:
        if isinstance(model, JointModel):
            return _joint_jr(model, w, False)
        if isinstance(model, LotteryModel):
            return _nec_jr_lottery(model, w)
        return _nec_jr_matrix(model, w)
    wset = frozenset(w)
    pp = _first(model, wset, axiom, False, budget)
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
    lexicographic winner is returned.  Unless ``force_enumeration``, JR
    first tries its two polynomial special cases (all-singleton
    lotteries, strictly interior matrices) and then tests each committee
    with ``is_nec_axiom``'s fast path; every other question stops each
    committee's scan at its first violating profile."""
    _require_axiom(axiom)
    inst = model.instance
    jr = axiom == "jr" and not force_enumeration
    if jr and isinstance(model, LotteryModel):
        # Every set is one candidate iff the layers hold as many
        # (voter, candidate) bits as voters with a nonempty set, and
        # those are as many as sets; a candidate's count is its sets.
        layers = list(model.layers)
        counts = [sum(layer[c].bit_count() for layer in layers) for c in range(inst.m)]
        nonempty = sum(_covered(layer, range(inst.m)).bit_count() for layer in layers)
        if sum(counts) == nonempty == sum(map(len, model.lotteries)):
            mandatory = [c for c in range(inst.m) if meets_threshold(counts[c], 1, inst)]
            if len(mandatory) > inst.k:
                return DecisionResult(False, POLY)
            rest = [c for c in range(inst.m) if c not in mandatory]
            chosen = sorted(mandatory + rest[:inst.k - len(mandatory)])
            return DecisionResult(True, POLY, witness_committee=tuple(chosen))
    if jr and isinstance(model, CandidateProbModel):
        if model.codes.count(FREE) == len(model.codes):
            # Every candidate can be the unanimous favourite, so only
            # the full candidate set is necessarily JR.
            if inst.k == inst.m:
                return DecisionResult(True, POLY, witness_committee=tuple(range(inst.m)))
            return DecisionResult(False, POLY)
    _check_budget(math.comb(inst.m, inst.k), budget)
    for w in itertools.combinations(range(inst.m), inst.k):
        if jr:
            holds = is_nec_axiom(model, w, "jr").answer
        else:
            holds = _first(model, frozenset(w), axiom, False, budget) is None
        if holds:
            return DecisionResult(True, ENUM, witness_committee=w)
    return DecisionResult(False, ENUM)


def exists_poss_axiom(model: Model, axiom: str, *, budget: int | None = None) -> DecisionResult:
    """Is some committee possibly satisfying ``axiom``?  For JR this is
    always yes: every profile admits a JR committee, so one is built
    greedily for the first plausible profile, on its stored
    per-candidate view (a matrix model's forced approvals, a Lottery
    model's layer 0, a Joint model's first entry).  For PJR/EJR each
    committee's scan stops at its first satisfying profile."""
    _require_axiom(axiom)
    inst = model.instance
    if axiom == "jr":
        if isinstance(model, JointModel):
            approvers = model.approvers[0]
        elif isinstance(model, LotteryModel):
            approvers = model.layers[0]
        else:
            approvers = model.columns[0]
        return DecisionResult(
            True, POLY, witness_committee=_greedy_jr(inst, approvers),
            witness_profile=model.first,
        )
    _check_budget(math.comb(inst.m, inst.k), budget)
    for w in itertools.combinations(range(inst.m), inst.k):
        pp = _first(model, frozenset(w), axiom, True, budget)
        if pp is not None:
            return DecisionResult(True, ENUM, witness_committee=w, witness_profile=pp)
    return DecisionResult(False, ENUM)
