"""Exact satisfaction probabilities for JR, PJR and EJR.

The probability that a committee satisfies an axiom is the sum, over
plausible profiles, of the profile probability times the axiom
indicator.  Joint models are summed over their entries as lanes (see
below).  On a three-valued model, a CandidateProb model tagged
``three_valued`` (see ``uncertainty``), JR has two shortcuts:

* When every entry over the committee is certain (0 or 1), the set of
  certainly-unrepresented voters is fixed, and each outside candidate's
  violation event depends only on that candidate's own unknown entries.
  Events over disjoint fair coins are independent, so the satisfaction
  probability is a product over outside candidates of one minus the
  violation probability, itself a binomial tail count over that
  candidate's unknowns.  The model's stored per-candidate bitsets
  (``columns``, see ``uncertainty``) give each candidate's certain and
  unknown unrepresented approvers as two popcounts.

* When ``k = n`` the quota is one voter, so a profile satisfies JR iff
  every voter either approves a committee member or approves nothing.
  The voter DP below then keeps one state, since every counter it would
  raise reaches the quota, so it is one pass over the free entries and
  needs no budget gate (``count-k-eq-n``).

Every other JR probability on a Lottery or CandidateProb model comes
from a dynamic program over the independent voters (``dp-voters``).  A
profile violates JR for ``w`` iff some outside candidate is approved by
a quota ``ceil(n/k)`` of voters who approve no member of ``w``.  So the
state after a prefix of voters is one counter per outside candidate
that some voter may approve, its number of unrepresented approvers so
far, and a step that brings a counter to the quota drops its mass.
There are at most ``ceil(n/k)**(m-k)`` states, so the program is polynomial
in ``n`` for fixed ``m - k``, and never reaches more states than the
enumeration it replaces visits profile prefixes.  It runs behind the
same profile-count budget gate as enumeration.

PJR and EJR probabilities come from exact enumeration, tagged
``enumeration``, as do probabilities on Joint models (JR tagged
``joint-scan``) and every query under ``force_enumeration``.  The scan
is bit-sliced into lanes (``uncertainty._lanes``): one integer per
(voter, candidate) whose bit ``p`` is set when that voter approves that
candidate in plausible profile ``p``.  A committee's lane test
(``axioms._lane_test``) marks every satisfying profile of a chunk with a
few big-integer operations per voter, and the chunk's integer weights,
bit-sliced the same way, are summed over the marked bits, so one test
serves all the profiles of a chunk.  Voters with a single approval set
get no lanes: they are counted once per distinct set, and each quota
test subtracts their count, so a model of many certain voters and a few
uncertain ones costs about as much as its uncertain voters alone.  A
Joint model's lanes and weights are built on first use and kept on the
model, so later questions reuse them.  Independent voters are scanned in
chunks of at most ``uncertainty.LANE_CHUNK`` (2^12) profiles, so memory
stays bounded by the chunk, not the profile count; the part every chunk
shares, the inner voters' lanes and weights, is built on first use and
kept on the model with its voter tables (``block``, ``tables``), and
each chunk adds only its outer voters.  The same lane tests and chunks
decide every PJR/EJR possible and necessary question (``decide._first``),
which stops at the first chunk that holds a witness.
The per-profile scan is kept in ``tests/oracles.py`` as the reference
the lanes are tested against.  On a three-valued model all plausible
profiles are equiprobable, so results also carry the exact (satisfying,
total) profile counts.  ``committee_probabilities`` is the one switch
between these paths, for one committee (``axiom_probability``) or for
every committee at once (``optimize.max_axiom``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .axioms import _covered, _lane_test, _require_axiom
from .model import (
    Committee,
    InputError,
    _check_budget,
    committee,
    meets_threshold,
    min_group_size,
)
from .uncertainty import (
    CandidateProbModel,
    JointModel,
    LotteryModel,
    Model,
    _lane_total,
    _lanes,
)

JOINT_SCAN = "joint-scan"
CLOSED_FORM_CERTAIN_W = "closed-form-certain-w"
COUNT_K_EQ_N = "count-k-eq-n"
DP_VOTERS = "dp-voters"
ENUM = "enumeration"


@dataclass(frozen=True)
class ProbResult:
    """Exact probability, the method that produced it, and, for
    equiprobable (three-valued) models, the exact profile counts with
    ``value == counts[0] / counts[1]``."""

    value: Fraction
    method: str
    counts: tuple[int, int] | None = None


def _with_counts(value: Fraction, method: str, model: Model) -> ProbResult:
    if not model.three_valued:
        return ProbResult(value, method)
    total = model.profile_count
    count, rest = divmod(value.numerator * total, value.denominator)
    assert rest == 0
    return ProbResult(value, method, (count, total))


def _certain_over_committee(model: CandidateProbModel, w: Committee) -> bool:
    free = model.columns[1]
    return not any([free[c] for c in w])


def _certain_w_value(model: CandidateProbModel, w: Committee) -> Fraction:
    inst = model.instance
    wset = set(w)
    forced, free = model.columns
    # The unrepresented voters: every committee entry is certain, so 0.
    unrepresented = ~_covered(forced, w)
    num = 1
    unknowns = 0
    for c in range(inst.m):
        if c in wset:
            continue
        n1 = (forced[c] & unrepresented).bit_count()
        nu = (free[c] & unrepresented).bit_count()
        if meets_threshold(n1, 1, inst):
            return Fraction(0)
        # Smallest number of unknown approvals that pushes the group of
        # certain approvers over the quota (exact ceiling, no division).
        tau = -(-(inst.n - n1 * inst.k) // inst.k)
        violating = sum(math.comb(nu, l) for l in range(tau, nu + 1))
        num *= 2**nu - violating
        unknowns += nu
    return Fraction(num, 2**unknowns)


def _lane_values(
    model: Model, lanes: tuple[int, Iterable[tuple]], committees: list[Committee], axiom: str
) -> list[Fraction]:
    """Exact satisfaction probabilities of ``committees`` from the
    ``(denominator, chunks)`` of ``uncertainty._lanes``: each committee's
    lane test marks a chunk's satisfying profiles, whose integer weights
    are summed."""
    denom, chunks = lanes
    tests = [_lane_test(model, frozenset(w), axiom) for w in committees]
    totals = [0] * len(tests)
    for count, chunk, weights, fixed in chunks:
        full = (1 << count) - 1
        for j, test in enumerate(tests):
            totals[j] += _lane_total(test(chunk, full, fixed), weights)
    return [Fraction(total, denom) for total in totals]


def _scan_values(
    model: Model, committees: list[Committee], axiom: str, budget: int | None
) -> list[Fraction]:
    """Exact satisfaction probabilities of ``committees`` from one pass
    over the plausible profiles, as lanes."""
    return _lane_values(model, _lanes(model, budget), committees, axiom)


def _advance(states: dict[int, int], keep: int, moves, high: int) -> dict[int, int]:
    """One step of the voter DP: each state stays with its weight times
    ``keep`` and, for each ``(bump, wt)`` in ``moves``, moves by ``bump``
    with its weight times ``wt``, unless that sets a bit of ``high``."""
    step: dict[int, int] = {}
    for state, x in states.items():
        if keep:
            step[state] = step.get(state, 0) + x * keep
        for bump, wt in moves:
            t = state + bump
            if not t & high:
                step[t] = step.get(t, 0) + x * wt
    return step


def _jr_dp(model: Model, w: Committee) -> Fraction:
    """JR probability of canonical committee ``w`` under a Lottery or
    CandidateProb model, by one pass over the voters.

    A state packs one counter per candidate outside ``w`` that some
    voter may approve (``approved``; no other candidate can reach the
    quota), the number of unrepresented voters so far who approve it,
    into fields of ``quota.bit_length() + 1`` bits.  Each field starts at
    ``top - quota`` for its top bit ``top``, so a counter reaches the
    quota exactly when its top bit is set, and a field never carries
    into the next; such a step is a violation and its mass is dropped.
    ``states`` maps each reachable state to an integer weight over the
    running denominator ``denom``.  Every field's start and top bit are
    one field's times the repunit with a 1 at the bottom of each field,
    and a set's bump is summed from its candidates' field offsets, so no
    integer is wider than a state and none is kept per candidate.
    """
    inst = model.instance
    wset = set(w)
    quota = min_group_size(1, inst)
    width = quota.bit_length() + 1
    top = 1 << (width - 1)
    counted = [c for c in model.approved if c not in wset]
    offset = dict(zip(counted, range(0, width * len(counted), width)))
    repunit = ((1 << width * len(counted)) - 1) // ((1 << width) - 1)
    high = top * repunit
    states = {(top - quota) * repunit: 1}
    denom = 1
    if isinstance(model, LotteryModel):
        for den, table in model.tables:
            # Sets that meet ``w`` or are empty keep the state; the others
            # bump the counters of their candidates.
            keep = 0
            moves: dict[int, int] = {}
            for s, wt in table:
                if s and wset.isdisjoint(s):
                    bump = sum([1 << offset[c] for c in s])
                    moves[bump] = moves.get(bump, 0) + wt
                else:
                    keep += wt
            states = _advance(states, keep, moves.items(), high)
            denom *= den
            if not states:
                return Fraction(0)
        return Fraction(sum(states.values()), denom)
    for forced, free in model.split_rows:
        if not wset.isdisjoint(forced):
            continue  # certainly represented
        # The voter approves no member of ``w`` with weight ``unrep``
        # out of ``den_in``.  On that branch the forced approvals bump
        # their counters and each free outside entry splits the branch.
        den_in = unrep = den_out = 1
        outside = []
        for c, num, den in free:
            if c in wset:
                den_in *= den
                unrep *= den - num
            else:
                den_out *= den
                outside.append((den - num, c, num))
        branch = _advance(states, 0, [(sum([1 << offset[c] for c in forced]), unrep)], high)
        for miss, c, num in outside:
            branch = _advance(branch, miss, [(1 << offset[c], num)], high)
        represented = (den_in - unrep) * den_out
        if represented:
            for state, x in states.items():
                branch[state] = branch.get(state, 0) + x * represented
        states = branch
        denom *= den_in * den_out
        if not states:
            return Fraction(0)
    return Fraction(sum(states.values()), denom)


def _jr_path(model: Model, w: Committee, budget: int | None) -> ProbResult:
    """JR probability of canonical committee ``w`` under independent
    voters without enumerating profiles: the committee-certain closed
    form, or else the voter DP, behind the profile-count budget gate
    unless a three-valued model has ``k = n``."""
    inst = model.instance
    if model.three_valued:
        if _certain_over_committee(model, w):
            return _with_counts(_certain_w_value(model, w), CLOSED_FORM_CERTAIN_W, model)
        if inst.k == inst.n:
            # A quota of 1 drops every bump, so the DP keeps one state: O(free entries).
            return _with_counts(_jr_dp(model, w), COUNT_K_EQ_N, model)
    _check_budget(model.profile_count, budget)
    return _with_counts(_jr_dp(model, w), DP_VOTERS, model)


def committee_probabilities(
    model: Model, committees: list[Committee], axiom: str, budget: int | None,
    force_enumeration: bool,
) -> list[ProbResult]:
    """The ``ProbResult`` of each canonical committee of ``committees``
    for ``axiom``, the one switch behind ``axiom_probability`` and
    ``optimize.max_axiom``.  Unless ``force_enumeration``, JR takes each
    committee's polynomial path on independent voters (``_jr_path``) and
    one ungated pass over a Joint model's stored lanes (``joint-scan``).
    Every other question is one lane scan of the plausible profiles for
    all the committees, behind the profile-count budget gate."""
    if axiom == "jr" and not force_enumeration:
        if isinstance(model, JointModel):
            values = _lane_values(model, model.lanes, committees, "jr")
            return [ProbResult(value, JOINT_SCAN) for value in values]
        return [_jr_path(model, w, budget) for w in committees]
    values = _scan_values(model, committees, axiom, budget)
    return [_with_counts(value, ENUM, model) for value in values]


def jr_probability(
    model: Model, w, *, budget: int | None = None, force_enumeration: bool = False
) -> ProbResult:
    """Exact probability that ``w`` satisfies JR under ``model``."""
    return axiom_probability(model, w, "jr", budget=budget, force_enumeration=force_enumeration)


def jr_satisfying_count(model: CandidateProbModel, w, *, budget: int | None = None) -> tuple[int, int]:
    """Exact (number of plausible profiles where ``w`` is JR, total
    number of plausible profiles) for a three-valued model."""
    if not model.three_valued:
        raise InputError("profile counting requires a three-valued model")
    result = jr_probability(model, w, budget=budget)
    assert result.counts is not None
    return result.counts


def axiom_probability(
    model: Model, w, axiom: str, *, budget: int | None = None,
    force_enumeration: bool = False,
) -> ProbResult:
    """Exact probability that ``w`` satisfies ``axiom`` (jr/pjr/ejr).

    JR dispatches to the joint scan, the closed form or the voter DP
    unless ``force_enumeration``; PJR and EJR are computed by the lane
    scan only (``committee_probabilities``).
    """
    _require_axiom(axiom)
    w = committee(w, model.instance)
    result, = committee_probabilities(model, [w], axiom, budget, force_enumeration)
    return result
