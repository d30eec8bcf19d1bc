"""Differential tests for the per-candidate views behind the polynomial
JR questions.

A matrix model keeps its voters as bitsets per candidate
(``columns``: forced and free entries) and the products of its free
entries per candidate (``column_products``); a Joint model keeps each
entry's approvers per candidate (``approvers``); a Lottery model keeps,
for each set position, each candidate's voters whose set there holds it
(``layers``).  Possible/necessary JR, the greedy committee of
``exists_poss_jr``, the committee-certain JR probability and ``size_jr``
read these views through one JR test, ``axioms._jr_on_bits``.  These
tests compare every answer, method, witness profile, witness
probability and violation with the ``Fraction``-comparison references
and the brute force over voter groups in ``tests/oracles.py``, on small
models over every committee and on models of 60 to 300 voters, whose
bitsets span many machine words.
They also pin that the views are built once per model object, on first
use, and are invisible to equality, hashing, ``repr``, pickles and the
written document.
"""

import functools
import itertools
import math
import pickle
import random
import threading
from collections import Counter
from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    CandidateProbModel,
    Instance,
    JointModel,
    LotteryModel,
    PlausibleProfile,
    cp_model,
    exists_nec_jr,
    exists_poss_jr,
    first_plausible,
    greedy_jr_committee,
    is_nec_jr,
    is_poss_jr,
    joint_model,
    jr_probability,
    jr_violation,
    lottery_model,
    size_jr,
    tva_model,
    tva_to_cp,
    validate,
)
from abcu import uncertainty
from abcu.axioms import _jr_violation
from abcu.decide import ENUM, POLY, DecisionResult
from abcu.io import document_for, emit_document, parse_document
from abcu.probability import (
    CLOSED_FORM_CERTAIN_W,
    COUNT_K_EQ_N,
    ProbResult,
    _certain_over_committee,
)
from oracles import (
    brute_jr,
    prob_oracle,
    recursive_poss_jr_lottery,
    reference_certain_over_committee,
    reference_certain_w_value,
    reference_first_plausible,
    reference_full_committee_counts,
    reference_greedy_jr_committee,
    reference_nec_jr_lottery,
    reference_nec_jr_matrix,
    reference_poss_jr_matrix,
    reference_profile_probability,
    reference_total_unknowns,
    violation_holds,
)

CP_VALUES = ("0", "1", "1/2", "1/3", "3/4", "2/7")
TVA_VALUES = ("0", "1", "1/2")
# Row styles: mixed, certain (0 and 1 only), interior (no 0 or 1).
STYLES = ("mixed", "mixed", "certain", "interior")
# The share of the voters that approve a model's hot candidate alone.
HOT_SHARE = 0.7


def _row(rng, m, values, style, hot=None):
    """A matrix row of ``style``.  With a ``hot`` candidate, most rows
    approve it alone, half of them certainly, so committees without it
    often fail JR."""
    if hot is not None and rng.random() < HOT_SHARE:
        row = ["0"] * m
        row[hot] = "1" if rng.random() < 0.5 else rng.choice(values[2:])
        return row
    if style == "certain":
        return [rng.choice(("0", "0", "1")) for _ in range(m)]
    if style == "interior":
        return [rng.choice(values[2:]) for _ in range(m)]
    return [rng.choice(values) for _ in range(m)]


def _hot(rng, inst, skew):
    """A candidate that most voters approve alone: in every model when
    ``skew`` is True, in none when it is False, else in half of them."""
    if skew is None:
        skew = rng.random() < 0.5
    return rng.randrange(inst.m) if skew else None


def _set(rng, m, hot):
    if hot is not None and rng.random() < HOT_SHARE:
        return (hot,)
    return tuple(sorted(rng.sample(range(m), rng.randint(0, min(m, 3)))))


def _matrix_model(rng, kind, inst, style=None, skew=None):
    """A cp or 3va model; each row takes ``style``, or one drawn from
    ``STYLES`` when it is None."""
    values = CP_VALUES if kind == "cp" else TVA_VALUES
    hot = _hot(rng, inst, skew)
    rows = [_row(rng, inst.m, values, style or rng.choice(STYLES), hot) for _ in range(inst.n)]
    return (cp_model if kind == "cp" else tva_model)(inst, rows)


def _lottery_model(rng, inst, skew=None):
    hot = _hot(rng, inst, skew)
    voters = []
    for _ in range(inst.n):
        sets = {_set(rng, inst.m, hot) for _ in range(rng.choice((1, 2, 3)))}
        sets = sorted(sets, key=lambda s: rng.random())
        weights = [rng.randint(1, 4) for _ in sets]
        voters.append([(Fraction(wt, sum(weights)), s) for wt, s in zip(weights, sets)])
    return lottery_model(inst, voters)


def _joint_model(rng, inst, count, skew=None):
    hot = _hot(rng, inst, skew)
    profiles = {tuple(_set(rng, inst.m, hot) for _ in range(inst.n)) for _ in range(count)}
    profiles = sorted(profiles, key=lambda _: rng.random())
    weights = [rng.randint(1, 5) for _ in profiles]
    return joint_model(
        inst, [(Fraction(wt, sum(weights)), prof) for wt, prof in zip(weights, profiles)]
    )


def _model(rng, kind, inst, skew=None):
    if kind == "lottery":
        return _lottery_model(rng, inst, skew)
    if kind == "joint":
        return _joint_model(rng, inst, rng.randint(1, 8), skew)
    return _matrix_model(rng, kind, inst, skew=skew)


def _instance(rng, n, m):
    return Instance(n, m, rng.choice((1, m, rng.randint(1, m))))


def _small_models(seed, count):
    rng = random.Random(seed)
    for j in range(count):
        kind = ("cp", "3va", "lottery", "joint")[j % 4]
        yield _model(rng, kind, _instance(rng, rng.randint(1, 8), rng.randint(1, 6)))


def _large_models(seed, count):
    """Models of 60 to 300 voters, each kind with ``k = 1``, ``k = m``
    and ``k`` in between, and matrices of one row style throughout among
    them."""
    rng = random.Random(seed)
    for j in range(count):
        kind = ("cp", "3va", "lottery", "joint")[j % 4]
        n, m = rng.randint(60, 300), rng.randint(3, 8)
        inst = Instance(n, m, (1, m, rng.randint(2, m - 1), rng.randint(2, m - 1))[j // 4 % 4])
        if kind in ("cp", "3va") and j % 3 == 0:
            yield _matrix_model(rng, kind, inst, style=rng.choice(STYLES[1:]))
        else:
            # No hot candidate on a lottery: the possible-JR search on a
            # large lottery that fails JR is exponential (``reduce_3sat``).
            yield _model(rng, kind, inst, skew=kind != "lottery")


def _committees(inst, rng=None, most=None):
    committees = list(itertools.combinations(range(inst.m), inst.k))
    if rng is not None and len(committees) > most:
        committees = rng.sample(committees, most)
    return committees


def _price(model, prof):
    """A profile's probability as a product of ``Fraction`` factors."""
    if isinstance(model, JointModel):
        return dict((p, lam) for lam, p in model.entries).get(prof, Fraction(0))
    if isinstance(model, LotteryModel):
        lam = Fraction(1)
        for voter, s in zip(model.lotteries, prof):
            lam *= dict((t, x) for x, t in voter).get(s, Fraction(0))
        return lam
    return reference_profile_probability(model, prof)


def _reference_joint(model, w, mode):
    """The first entry whose JR check passes (possible) or fails
    (necessary), by the single-profile checker."""
    for lam, prof in model.entries:
        viol = jr_violation(model.instance, prof, w)
        if mode == "poss" and viol is None:
            return DecisionResult(True, POLY, witness_profile=PlausibleProfile(prof, lam))
        if mode == "nec" and viol is not None:
            return DecisionResult(False, POLY, witness_profile=PlausibleProfile(prof, lam),
                                  witness_violation=viol)
    return DecisionResult(mode == "nec", POLY)


def _reference_decision(model, w, mode):
    if isinstance(model, JointModel):
        return _reference_joint(model, w, mode)
    if isinstance(model, LotteryModel):
        if mode == "poss":
            return recursive_poss_jr_lottery(model, w)
        return reference_nec_jr_lottery(model, w)
    if mode == "poss":
        return reference_poss_jr_matrix(model, w)
    return reference_nec_jr_matrix(model, w)


def _assert_decision(model, w, mode, brute):
    fn = is_poss_jr if mode == "poss" else is_nec_jr
    got = fn(model, w)
    assert got == _reference_decision(model, w, mode), (model, w, mode)
    inst = model.instance
    pp = got.witness_profile
    if pp is not None:
        assert pp.prob == _price(model, pp.profile) > 0
        assert (jr_violation(inst, pp.profile, w) is None) == got.answer
        if brute:
            assert brute_jr(inst, pp.profile, w) == got.answer
    if got.witness_violation is not None:
        assert got.witness_violation == jr_violation(inst, pp.profile, w)
        assert violation_holds(inst, pp.profile, w, got.witness_violation)


class TestDecisions:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_committee_of_small_models(self, seed):
        for model in _small_models(seed, 60):
            for w in _committees(model.instance):
                for mode in ("poss", "nec"):
                    _assert_decision(model, w, mode, brute=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_large_models(self, seed):
        rng = random.Random(seed)
        for model in _large_models(100 + seed, 16):
            for w in _committees(model.instance, rng, 6):
                for mode in ("poss", "nec"):
                    _assert_decision(model, w, mode, brute=False)

    def test_quota_met_exactly_and_missed_by_one(self):
        # n = 6, k = 2: the quota is 3.  Candidate 2 has three dodging
        # approvers with positive probability in one model, two in the other.
        inst = Instance(6, 3, 2)
        for approvers, violated in ((3, True), (2, False)):
            rows = [["1", "0", "1/2" if i < approvers else "0"] for i in range(6)]
            for maker in (cp_model, tva_model):
                model = maker(inst, rows)
                got = is_nec_jr(model, (0, 1))
                assert got == reference_nec_jr_matrix(model, (0, 1))
                assert got.answer is True  # every voter approves member 0
                model = maker(inst, [["0", "0", r[2]] for r in rows])
                got = is_nec_jr(model, (0, 1))
                assert got == reference_nec_jr_matrix(model, (0, 1))
                assert got.answer is not violated
                if violated:
                    assert got.witness_violation.group == (0, 1, 2)
                # Possible JR sees the forced approvals only.
                forced = maker(inst, [["0", "0", "1" if i < approvers else "0"]
                                      for i in range(6)])
                got = is_poss_jr(forced, (0, 1))
                assert got == reference_poss_jr_matrix(forced, (0, 1))
                assert got.answer is not violated

    def test_free_committee_entries_represent_in_the_best_case(self):
        # Every voter approves candidate 2 for certain; member 0 is free
        # for four of them.  The best case approves it, so JR holds there,
        # and the worst case leaves the four voters to candidate 2.
        inst = Instance(4, 3, 1)
        rows = [["1/3", "0", "1"]] * 3 + [["0", "1", "1"]]
        for maker in (cp_model, tva_model):
            model = maker(inst, [[p if maker is cp_model or p in ("0", "1") else "1/2"
                                  for p in row] for row in rows])
            for w in [(0,), (1,), (2,)]:
                for mode in ("poss", "nec"):
                    _assert_decision(model, w, mode, brute=True)


class TestExistsPossJr:
    def _reference(self, model):
        inst = model.instance
        if isinstance(model, JointModel):
            lam, prof = model.entries[0]
        elif isinstance(model, LotteryModel):
            prof = tuple(voter[0][1] for voter in model.lotteries)
            lam = math.prod(voter[0][0] for voter in model.lotteries)
        else:
            pp = reference_first_plausible(model)
            prof, lam = pp.profile, pp.prob
        return reference_greedy_jr_committee(inst, prof), prof, lam

    @pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
    def test_against_references(self, large):
        models = _large_models(7, 24) if large else _small_models(7, 120)
        for model in models:
            got = exists_poss_jr(model)
            w, prof, lam = self._reference(model)
            assert (got.answer, got.method) == (True, POLY)
            assert got.witness_committee == w
            assert got.witness_profile.profile == prof
            assert got.witness_profile.prob == lam
            assert first_plausible(model) == got.witness_profile
            assert jr_violation(model.instance, prof, w) is None

    def test_greedy_on_random_profiles(self):
        rng = random.Random(8)
        for _ in range(400):
            n = rng.choice((rng.randint(1, 8), rng.randint(60, 200)))
            m = rng.randint(1, 7)
            inst = _instance(rng, n, m)
            # Few candidates per voter, so counts often tie.
            prof = tuple(tuple(sorted(rng.sample(range(m), rng.randint(0, min(m, 2)))))
                         for _ in range(n))
            w = greedy_jr_committee(inst, prof)
            assert w == reference_greedy_jr_committee(inst, prof)
            assert jr_violation(inst, prof, w) is None


def _outcome(call):
    """A decision, or the count, budget and message of the budget error
    it raised."""
    try:
        return call()
    except BudgetError as exc:
        return exc.count, exc.budget, str(exc)


def _edge_lottery(rng, inst, style):
    """A lottery of ``style``: "singleton" sets only, "one" set per voter,
    or "mixed" sets of 0 to 3 candidates, the empty one among them, with
    a hot candidate in half of the models so that first profiles often
    violate JR."""
    hot = rng.randrange(inst.m) if style == "mixed" and rng.random() < 0.5 else None
    choices = inst.m if style == "singleton" else 2 ** inst.m
    voters = []
    for _ in range(inst.n):
        want = 1 if style == "one" else min(rng.choice((1, 1, 2, 3, 4)), choices)
        sets = set()
        while len(sets) < want:
            if style == "singleton":
                sets.add((rng.randrange(inst.m),))
            elif hot is not None and rng.random() < HOT_SHARE:
                sets.add((hot,))
            else:
                sets.add(tuple(sorted(rng.sample(range(inst.m), rng.randint(0, min(inst.m, 3))))))
        sets = sorted(sets, key=lambda s: rng.random())
        weights = [rng.randint(1, 4) for _ in sets]
        voters.append([(Fraction(wt, sum(weights)), s) for wt, s in zip(weights, sets)])
    return lottery_model(inst, voters)


def _edge_lotteries(seed, count):
    """Small lotteries of every style, with ``k = 1``, ``k = m``, quota 1
    (``k = n <= m``) and ``k`` at random."""
    rng = random.Random(seed)
    for j in range(count):
        n, m = rng.randint(1, 8), rng.randint(1, 6)
        k = (1, m, min(n, m), rng.randint(1, m))[j % 4]
        yield _edge_lottery(rng, Instance(n, m, k), ("mixed", "mixed", "singleton", "one")[j % 4])


def _reference_exists_nec_jr(model):
    """The first committee, in lexicographic order, that the reference
    decider finds necessarily JR; all-singleton lotteries take the
    polynomial special case, which answers the same."""
    inst = model.instance
    singleton = all(len(s) == 1 for voter in model.lotteries for _, s in voter)
    method = POLY if singleton else ENUM
    for w in _committees(inst):
        if reference_nec_jr_lottery(model, w).answer:
            return DecisionResult(True, method, witness_committee=w)
    return DecisionResult(False, method)


class TestLotteryDecisions:
    """The lottery JR deciders on the stored ``layers`` and ``first``
    against the references of ``tests/oracles.py``: the plain recursive
    search with its node count, and the per-candidate rescan of every
    voter's sets.  Possible JR is compared at the default budget, at
    ``n``, ``n - 1`` and ``n // 2``, and at the plain search's node count
    and one less, so the first-profile shortcut's node count and budget
    error are pinned as well as its answer."""

    def _assert_poss(self, model, w):
        n = model.instance.n
        want, nodes = recursive_poss_jr_lottery(model, w, count_nodes=True)
        assert is_poss_jr(model, w) == want, (model, w)
        for budget in (n, n - 1, n // 2, nodes, nodes - 1):
            got = _outcome(lambda: is_poss_jr(model, w, budget=budget))
            ref = _outcome(lambda: recursive_poss_jr_lottery(model, w, budget))
            assert got == ref, (model, w, budget)
        assert _outcome(lambda: is_poss_jr(model, w, budget=nodes - 1))[:2] == (nodes, nodes - 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_committee_of_small_lotteries(self, seed):
        for model in _edge_lotteries(20 + seed, 120):
            for w in _committees(model.instance):
                self._assert_poss(model, w)
                _assert_decision(model, w, "nec", brute=True)
            assert exists_nec_jr(model) == _reference_exists_nec_jr(model), model
            got = exists_poss_jr(model)
            prof = tuple(voter[0][1] for voter in model.lotteries)
            assert got.witness_profile == PlausibleProfile(prof, _price(model, prof))
            assert got.witness_committee == reference_greedy_jr_committee(model.instance, prof)

    def test_large_lotteries(self):
        rng = random.Random(23)
        for model in _large_models(24, 16):
            if isinstance(model, LotteryModel):
                for w in _committees(model.instance, rng, 4):
                    self._assert_poss(model, w)
                    _assert_decision(model, w, "nec", brute=False)

    def test_later_sets_reach_and_witness(self):
        # Quota 2 for committee {0, 1}.  Voter 0 reaches candidate 2 only
        # through its third set, voter 1 through its second; voter 2
        # cannot.  The first profile is JR, so possible JR takes the
        # shortcut, whose node count is n = 3.
        inst = Instance(3, 3, 2)
        third, half = Fraction(1, 3), Fraction(1, 2)
        model = lottery_model(inst, [
            [(third, [0]), (third, [0, 2]), (third, [2])],
            [(half, [1]), (half, [2])],
            [(1, [0])],
        ])
        got = is_nec_jr(model, (0, 1))
        assert got == reference_nec_jr_lottery(model, (0, 1))
        assert got.witness_profile == PlausibleProfile(((2,), (2,), (0,)), third * half)
        assert (got.witness_violation.group, got.witness_violation.common) == ((0, 1), (2,))
        poss = is_poss_jr(model, (0, 1), budget=3)
        assert poss == DecisionResult(True, ENUM, witness_profile=first_plausible(model))
        assert _outcome(lambda: is_poss_jr(model, (0, 1), budget=2))[:2] == (3, 2)
        assert _outcome(lambda: is_poss_jr(model, (0, 1), budget=0))[:2] == (1, 0)


class TestProbability:
    def _certain_models(self, seed, count):
        rng = random.Random(seed)
        for j in range(count):
            n = rng.randint(1, 8) if j % 2 else rng.randint(60, 300)
            inst = _instance(rng, n, rng.randint(1, 6))
            w = tuple(sorted(rng.sample(range(inst.m), inst.k)))
            rows = []
            for _ in range(n):
                row = _row(rng, inst.m, TVA_VALUES, rng.choice(STYLES))
                for c in w:
                    if row[c] == "1/2":
                        row[c] = rng.choice("01")
                rows.append(row)
            yield tva_model(inst, rows), w

    def test_committee_certain_closed_form(self):
        for model, w in self._certain_models(9, 80):
            got = jr_probability(model, w)
            value = reference_certain_w_value(model, w)
            total = 2 ** reference_total_unknowns(model)
            assert got == ProbResult(value, CLOSED_FORM_CERTAIN_W, (value * total, total))
            if model.instance.n <= 8 and total <= 2**12:
                assert value == prob_oracle(model, w)

    def test_certain_over_committee(self):
        for model in _small_models(10, 80):
            if isinstance(model, CandidateProbModel) and model.three_valued:
                for w in _committees(model.instance):
                    assert _certain_over_committee(model, w) == (
                        reference_certain_over_committee(model, w)
                    )

    def test_k_equals_n(self):
        rng = random.Random(11)
        for _ in range(60):
            m = rng.randint(1, 7)
            n = rng.randint(1, m)
            inst = Instance(n, m, n)
            model = _matrix_model(rng, "3va", inst)
            for w in _committees(inst):
                got = jr_probability(model, w)
                if got.method != COUNT_K_EQ_N:
                    assert reference_certain_over_committee(model, w)
                    continue
                count, total = reference_full_committee_counts(model, w)
                assert got == ProbResult(Fraction(count, total), COUNT_K_EQ_N, (count, total))
                if total <= 2**12:
                    assert got.value == prob_oracle(model, w)
        # 2^70 plausible profiles, past the default budget: k = n has no gate.
        inst = Instance(14, 20, 14)
        cells = [rng.choice("01") for _ in range(inst.n * inst.m)]
        for cell in rng.sample(range(len(cells)), 70):
            cells[cell] = "1/2"
        model = tva_model(inst, [cells[i * inst.m:(i + 1) * inst.m] for i in range(inst.n)])
        assert model.profile_count == 2**70
        for _ in range(20):
            w = tuple(sorted(rng.sample(range(inst.m), inst.k)))
            assert not reference_certain_over_committee(model, w)
            count, total = reference_full_committee_counts(model, w)
            assert jr_probability(model, w) == ProbResult(
                Fraction(count, total), COUNT_K_EQ_N, (count, total))


class TestSizeJr:
    @pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
    def test_first_committee_of_each_size(self, large):
        rng = random.Random(12 + large)
        for _ in range(60 if large else 300):
            n = rng.randint(60, 300) if large else rng.randint(1, 8)
            m = rng.randint(2, 8)
            inst = Instance(n, m, rng.randint(2, m))
            prof = tuple(tuple(sorted(rng.sample(range(m), rng.randint(0, min(m, 3)))))
                         for _ in range(n))
            for r in range(1, inst.k):
                want = next((w for w in itertools.combinations(range(m), r)
                             if (brute_jr(inst, prof, w) if not large
                                 else _jr_violation(inst, prof, frozenset(w)) is None)),
                            None)
                assert size_jr(inst, prof, r) == (want is not None, want)


# ---------------------------------------------------------------------------
# storage

# The views each model kind builds on first use, and everything it keeps.
VIEWS = {
    CandidateProbModel: ("columns", "row_words", "column_products", "first"),
    JointModel: ("approvers",),
    LotteryModel: ("layers", "first"),
}
STORED = {
    CandidateProbModel: ("entry_values", "codes", *VIEWS[CandidateProbModel]),
    JointModel: ("lanes", *VIEWS[JointModel]),
    LotteryModel: VIEWS[LotteryModel],
}


def _examples():
    rng = random.Random(13)
    inst = Instance(70, 5, 2)
    half, third = Fraction(1, 2), Fraction(1, 3)
    # Voters 0-39 may approve candidate 0 instead of {1, 2}: a quota (35)
    # of them, so a committee is necessarily JR only if it holds 0.
    lottery = lottery_model(inst, [[(half, (1, 2)), (half, (0,))]] * 40
                            + [[(third, (3,)), (third, (4,)), (third, ())]] * 30)
    return [_matrix_model(rng, "cp", inst), _matrix_model(rng, "3va", inst),
            _joint_model(rng, inst, 6), lottery]


def _read_views(model):
    if isinstance(model, JointModel):
        list(model.approvers)
    elif isinstance(model, LotteryModel):
        list(model.layers)
        model.first
    else:
        model.columns
        model.row_words
        model.column_products
        model.first


def _observed(model):
    return (model, hash(model), repr(model), pickle.dumps(model),
            emit_document(document_for(model, (0, 1))))


class TestStorage:
    @pytest.mark.parametrize("which", range(4), ids=["cp", "3va", "joint", "lottery"])
    def test_invisible_after_first_read(self, which):
        model = _examples()[which]
        before = _observed(model)
        _read_views(model)
        stored = STORED[type(model)]
        assert all(name in vars(model) for name in VIEWS[type(model)])
        assert _observed(model) == before
        twin = type(model)(*(getattr(model, f) for f in model.__dataclass_fields__))
        assert model == twin and hash(model) == hash(twin)
        thawed = pickle.loads(pickle.dumps(model))
        assert not set(stored) & set(vars(thawed))
        assert thawed == model
        for mode in (is_poss_jr, is_nec_jr):
            assert mode(thawed, (0, 1)) == mode(model, (0, 1))
        assert not any(name in repr(model) for name in stored)

    def test_constructors_and_parsing_build_no_views(self):
        for model in _examples():
            text = emit_document(document_for(model, (0, 1)))
            built = [model, parse_document(text).model]
            if isinstance(model, CandidateProbModel) and model.three_valued:
                built.append(tva_to_cp(tva_model(model.instance, model.probs)))
            for fresh in built:
                assert not set(VIEWS[type(fresh)]) & set(vars(fresh)), type(fresh)

    def test_three_valued_embedding_hands_the_views_on(self):
        model = _examples()[1]
        bare = tva_to_cp(model)
        assert "columns" not in vars(bare) and "column_products" not in vars(bare)
        _read_views(model)
        cp = tva_to_cp(model)
        for name in STORED[CandidateProbModel]:
            assert vars(cp)[name] is vars(model)[name]
        fresh = CandidateProbModel(model.instance, model.probs)
        for w in _committees(model.instance):
            for mode in (is_poss_jr, is_nec_jr):
                assert mode(cp, w) == mode(fresh, w)

    def test_necessary_jr_that_holds_prices_nothing(self):
        inst = Instance(4, 3, 1)
        model = cp_model(inst, [["1", "1/3", "0"], ["1/2", "1", "1/4"]] * 2)
        assert is_nec_jr(model, (0,)).answer
        assert "columns" in vars(model) and "column_products" not in vars(model)

    def test_joint_scan_builds_entries_as_far_as_it_reads(self):
        inst = Instance(3, 3, 1)
        model = joint_model(inst, [("1/3", [[0], [0], [0]]), ("1/3", [[1], [1], [1]]),
                                   ("1/3", [[2], [2], [2]])])
        assert is_poss_jr(model, (0,)).witness_profile.profile == ((0,), (0,), (0,))
        assert model.approvers.built == [[7, 0, 0], None, None]
        assert not is_nec_jr(model, (0,)).answer
        assert model.approvers.built == [[7, 0, 0], [0, 7, 0], None]
        assert is_poss_jr(model, (2,)).answer
        assert model.approvers.built == [
            [7, 0, 0], [0, 7, 0], [0, 0, 7],
        ]

    def test_joint_entries_read_by_two_threads(self, monkeypatch):
        # One reader is held inside the build of entry 0 while a second
        # reader builds entry 0 itself; once both are done, every entry
        # still reads its own approvers.
        inst = Instance(3, 3, 1)
        model = joint_model(inst, [("1/3", [[0], [0], [0]]), ("1/3", [[1], [1], [1]]),
                                   ("1/3", [[2], [2], [2]])])
        approvers = uncertainty._approvers
        entered, release = threading.Event(), threading.Event()
        held = []

        def held_approvers(m, prof):
            if not held:
                held.append(prof)
                entered.set()
                assert release.wait(10)
            return approvers(m, prof)

        monkeypatch.setattr(uncertainty, "_approvers", held_approvers)
        view = model.approvers
        first = []
        reader = threading.Thread(target=lambda: first.append(view[0]))
        reader.start()
        assert entered.wait(10)
        assert view[0] == [7, 0, 0]
        release.set()
        reader.join(10)
        assert first == [[7, 0, 0]]
        assert [view[p] for p in range(3)] == [[7, 0, 0], [0, 7, 0], [0, 0, 7]]
        assert is_poss_jr(model, (1,)).witness_profile.profile == ((1,), (1,), (1,))
        assert is_nec_jr(model, (1,)).witness_profile.profile == ((0,), (0,), (0,))


@pytest.fixture
def builds(monkeypatch):
    """Count the builds of every stored view, by name; a matrix model's
    ``codes`` are counted as the calls of ``uncertainty._codes``, which
    both the constructors and the view build them with."""
    counts = Counter()
    for cls, name in ((CandidateProbModel, "entry_values"), (CandidateProbModel, "columns"),
                      (CandidateProbModel, "row_words"), (CandidateProbModel, "column_products"),
                      (CandidateProbModel, "first"), (LotteryModel, "first"),
                      (LotteryModel, "layers")):
        func = vars(cls)[name].func

        def counting(self, func=func, name=name):
            counts[name] += 1
            return func(self)

        prop = functools.cached_property(counting)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    approvers = uncertainty._approvers

    def counting_approvers(m, prof):
        counts["approvers"] += 1
        return approvers(m, prof)

    monkeypatch.setattr(uncertainty, "_approvers", counting_approvers)
    codes = uncertainty._codes

    def counting_codes(distinct, keys):
        counts["codes"] += 1
        return codes(distinct, keys)

    monkeypatch.setattr(uncertainty, "_codes", counting_codes)
    return counts


class TestBuiltOnce:
    @pytest.mark.parametrize("which", [0, 1], ids=["cp", "3va"])
    def test_matrix_views(self, builds, which):
        model = _examples()[which]
        # The constructors keep the raw entries; none classifies them.
        assert "codes" not in builds
        inst = model.instance
        answers = Counter()
        for _ in range(3):
            for w in _committees(inst):
                answers[is_poss_jr(model, w).answer] += 1
                answers[is_nec_jr(model, w).answer] += 1
                if model.three_valued and _certain_over_committee(model, w):
                    jr_probability(model, w)
            exists_poss_jr(model)
            first_plausible(model)
        # The entries are classified once, on the first read of the codes;
        # every view is derived from that classification, and the row
        # words are built once, for the first witness.  No view builds
        # approvers.
        assert builds == {"codes": 1, "columns": 1, "row_words": 1, "column_products": 1,
                          "first": 1}
        twin = CandidateProbModel(inst, model.probs, model.three_valued)
        is_nec_jr(twin, (0, 1))
        assert builds["columns"] == 2 and builds["codes"] == 2
        assert "approvers" not in builds
        # The constructor kept the distinct entries; a hand-built model
        # finds them once, when its entries are first classified, and
        # validation reads them.
        assert builds["entry_values"] == 1
        validate(twin)
        validate(twin)
        assert builds["entry_values"] == 1

    def test_joint_entries(self, builds):
        model = _examples()[2]
        builds.clear()  # the example matrices' codes
        for _ in range(3):
            for w in _committees(model.instance):
                is_poss_jr(model, w)
                is_nec_jr(model, w)
            exists_poss_jr(model)
        assert builds == {"approvers": len(model.entries)}

    def test_lottery_layers(self, builds):
        # On a fresh model the first-profile tests build layer 0 only;
        # necessary JR reads every layer.
        depth = max(map(len, _examples()[3].lotteries))
        for question, layers in ((exists_poss_jr, 1), (lambda m: is_poss_jr(m, (0, 1)), 1),
                                 (lambda m: is_nec_jr(m, (0, 1)), depth),
                                 (exists_nec_jr, depth)):
            model = _examples()[3]
            builds.clear()
            question(model)
            assert builds["layers"] == 1 and builds["approvers"] == layers
        model = _examples()[3]
        builds.clear()
        answers = Counter()
        for _ in range(3):
            for w in _committees(model.instance):
                answers[is_poss_jr(model, w).answer] += 1
                answers[is_nec_jr(model, w).answer] += 1
            exists_poss_jr(model)
            exists_nec_jr(model)
            first_plausible(model)
        assert answers[False] > 0 and answers[True] > 0
        # Over every question, one approver build per set position.
        assert builds == {"layers": 1, "first": 1, "approvers": depth}
