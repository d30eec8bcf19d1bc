"""Differential tests for PJR and EJR on independent voters.

On Lottery, CandidateProb and ThreeValued models, PJR/EJR probabilities
and ``max_axiom`` scan the lanes, where the voters of a single approval
set have no lanes and are counted per distinct set; they are compared
with the per-profile scan of ``tests/oracles.py``
(``reference_values_by_enumeration``, ``reference_max_axiom``), also on
20-200-voter models of mostly repeated certain sets.  The
possible/necessary deciders and both existence questions stop at the
first witness of the same lanes; they are compared whole (answers,
method tags, witnesses) with the per-profile first-witness scan of
``tests/oracles.py`` (``reference_decision``, ``reference_exists``),
also on models whose only cohesive group comes last, so that no profile
satisfies PJR or EJR.  On smaller models every result is also compared
with the brute force over voter groups and the ``Fraction``-product
enumerator of ``tests/oracles.py``.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from abcu import (
    Instance,
    MaxResult,
    PlausibleProfile,
    axiom_probability,
    cp_model,
    exists_nec_axiom,
    exists_poss_axiom,
    is_nec_axiom,
    is_poss_axiom,
    lottery_model,
    max_axiom,
    plausible_count,
    tva_model,
)
from abcu import axioms
from abcu.decide import ENUM, DecisionResult
from abcu.model import min_group_size
from abcu.uncertainty import _lanes
from oracles import (
    BRUTE,
    _satisfaction_test,
    reference_decision,
    reference_exists,
    reference_max_axiom,
    reference_plausible,
    reference_values_by_enumeration,
    violation_holds,
)

AXIOMS = ("pjr", "ejr")


def _lottery(rng, inst):
    voters = []
    for _ in range(inst.n):
        sets = {
            tuple(sorted(rng.sample(range(inst.m), rng.randint(0, inst.m))))
            for _ in range(rng.choice((1, 1, 2, 2, 3)))
        }
        sets = sorted(sets, key=lambda s: rng.random())
        weights = [rng.randint(1, 3) for _ in sets]
        voters.append([(Fraction(wt, sum(weights)), s) for wt, s in zip(weights, sets)])
    return lottery_model(inst, voters)


def _matrix(rng, inst, values, max_free):
    free = 0
    rows = []
    for _ in range(inst.n):
        certain = rng.random() < 0.3  # a row without free entries
        row = []
        for _ in range(inst.m):
            value = rng.choice(("0", "1") if certain or free >= max_free else values)
            free += value not in ("0", "1")
            row.append(value)
        rows.append(row)
    return rows


def random_model(rng, max_n=7, max_m=6, max_free=8):
    """A lottery, cp or 3va model with ``n <= max_n`` and ``m <= max_m``.
    Single voters, ``k = 1``, ``k >= n`` (quota 1), empty approval sets
    and rows without free entries all occur; the top level ``ell = k``
    always needs every voter."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    k = rng.randint(1, m)
    inst = Instance(n, m, k)
    kind = rng.choice(("lottery", "cp", "3va"))
    if kind == "lottery":
        return _lottery(rng, inst)
    if kind == "cp":
        return cp_model(inst, _matrix(rng, inst, ("0", "1", "1/2", "1/3", "3/4"), max_free))
    return tva_model(inst, _matrix(rng, inst, ("0", "1", "1/2", "1/2"), max_free))


def _models(seed, count, **kw):
    rng = random.Random(seed)
    for _ in range(count):
        model = random_model(rng, **kw)
        w = tuple(sorted(rng.sample(range(model.instance.m), model.instance.k)))
        yield model, w


def _late_group(rng):
    """A cp or 3va model with one free entry per voter, for the committee
    ``(0, 1, 2)``: its last voters, a JR quota of them, approve candidate
    3 for sure and nothing in the committee, so every profile violates
    PJR and EJR, but only the last voters show it."""
    inst = Instance(rng.randint(4, 9), 6, 3)
    kind = rng.choice(("cp", "3va"))
    free = ("1/2",) if kind == "3va" else ("1/2", "1/3", "3/4")
    first_of_group = inst.n - min_group_size(1, inst)
    rows = []
    for i in range(inst.n):
        row = [0] * inst.m
        if i < first_of_group:
            row[rng.randrange(inst.m)] = rng.choice(free)
        else:
            row[3] = 1
            row[rng.choice((4, 5))] = rng.choice(free)
        rows.append(row)
    return (tva_model if kind == "3va" else cp_model)(inst, rows), (0, 1, 2)


def _brute_first(model, w, axiom, holds):
    """The first profile of the reference enumeration on which the
    definition of ``axiom`` holds (or fails), or None."""
    brute = BRUTE[axiom]
    for pp in reference_plausible(model):
        if brute(model.instance, pp.profile, w) == holds:
            return pp
    return None


def _assert_probability(model, w, axiom):
    """``axiom_probability`` is the per-profile scan's value, tagged
    ``enumeration``, with exact counts on a ThreeValued model."""
    want, = reference_values_by_enumeration(model, [w], axiom)
    got = axiom_probability(model, w, axiom)
    assert (got.value, got.method) == (want, ENUM)
    if got.counts is not None:
        assert got.counts == (want * plausible_count(model), plausible_count(model))


class TestAgainstFlatScan:
    @pytest.mark.parametrize("seed", range(4))
    def test_probabilities(self, seed):
        for model, w in _models(seed, 120):
            for axiom in AXIOMS:
                _assert_probability(model, w, axiom)

    @pytest.mark.parametrize("seed", range(4))
    def test_max_axiom(self, seed):
        for model, _ in _models(100 + seed, 80):
            for axiom in AXIOMS:
                assert max_axiom(model, axiom) == MaxResult(*reference_max_axiom(model, axiom))

    @pytest.mark.parametrize("seed", range(4))
    def test_possible_and_necessary_decisions(self, seed):
        rng = random.Random(250 + seed)
        late = [_late_group(rng) for _ in range(10)]
        for model, w in late:
            for axiom in AXIOMS:
                assert not is_poss_axiom(model, w, axiom).answer
        for model, w in itertools.chain(_models(200 + seed, 120), late):
            for axiom in AXIOMS:
                for mode, decide in (("poss", is_poss_axiom), ("nec", is_nec_axiom)):
                    assert decide(model, w, axiom) == reference_decision(model, w, axiom, mode)

    @pytest.mark.parametrize("seed", range(4))
    def test_exists_nec(self, seed):
        for model, _ in _models(300 + seed, 80):
            for axiom in AXIOMS:
                assert exists_nec_axiom(model, axiom) == reference_exists(model, axiom, "nec")

    @pytest.mark.parametrize("seed", range(4))
    def test_exists_poss(self, seed):
        """Against a flat scan: committees in lexicographic order, each
        over every profile."""
        for model, _ in _models(400 + seed, 80):
            inst = model.instance
            profiles = reference_plausible(model)
            for axiom in AXIOMS:
                want = DecisionResult(False, ENUM)
                for w in itertools.combinations(range(inst.m), inst.k):
                    holds = _satisfaction_test(inst, frozenset(w), axiom)
                    hit = next((pp for pp in profiles if holds(pp.profile)), None)
                    if hit is not None:
                        want = DecisionResult(True, ENUM, witness_committee=w, witness_profile=hit)
                        break
                assert exists_poss_axiom(model, axiom) == want


class TestAgainstBruteForce:
    """Definitions over every voter group, on the reference enumerator."""

    @pytest.mark.parametrize("seed", range(3))
    def test_probability_and_decisions(self, seed):
        for model, w in _models(500 + seed, 40, max_n=6, max_m=5, max_free=6):
            inst = model.instance
            for axiom in AXIOMS:
                brute = BRUTE[axiom]
                want = sum(
                    (pp.prob for pp in reference_plausible(model) if brute(inst, pp.profile, w)),
                    Fraction(0),
                )
                assert axiom_probability(model, w, axiom).value == want
                poss = is_poss_axiom(model, w, axiom)
                assert poss.witness_profile == _brute_first(model, w, axiom, True)
                assert poss.answer == (want > 0)
                nec = is_nec_axiom(model, w, axiom)
                assert nec.witness_profile == _brute_first(model, w, axiom, False)
                assert nec.answer == (want == 1)
                if not nec.answer:
                    assert violation_holds(inst, nec.witness_profile.profile, w,
                                           nec.witness_violation)

    @pytest.mark.parametrize("seed", range(2))
    def test_existence(self, seed):
        for model, _ in _models(600 + seed, 25, max_n=5, max_m=5, max_free=5):
            inst = model.instance
            committees = list(itertools.combinations(range(inst.m), inst.k))
            for axiom in AXIOMS:
                nec = next((w for w in committees
                            if _brute_first(model, w, axiom, False) is None), None)
                assert exists_nec_axiom(model, axiom).witness_committee == nec
                poss = next((w for w in committees
                             if _brute_first(model, w, axiom, True) is not None), None)
                result = exists_poss_axiom(model, axiom)
                assert result.witness_committee == poss
                if poss is not None:
                    assert result.witness_profile == _brute_first(model, poss, axiom, True)


class TestShapes:
    def test_single_voter_and_quota_one(self):
        # n = 1: every quota is 1, so a voter with ell common approvals
        # and fewer than ell committee members violates at once.
        inst = Instance(1, 3, 2)
        model = lottery_model(inst, [[("1/3", [0, 2]), ("1/3", [1, 2]), ("1/3", [])]])
        for axiom in AXIOMS:
            assert axiom_probability(model, (0, 1), axiom).value == Fraction(1, 3)
            nec = is_nec_axiom(model, (0, 1), axiom)
            assert nec.witness_profile == PlausibleProfile(((0, 2),), Fraction(1, 3))
            assert nec.witness_violation.ell == 2
            assert nec.witness_violation.common == (0, 2)
            assert is_poss_axiom(model, (0, 1), axiom).witness_profile == PlausibleProfile(
                ((),), Fraction(1, 3)
            )

    def test_no_free_entries_is_one_leaf(self):
        model = cp_model(Instance(3, 3, 1), [["0", "1", "0"], ["0", "1", "0"], ["0", "1", "1"]])
        assert plausible_count(model) == 1
        for axiom in AXIOMS:
            assert axiom_probability(model, (0,), axiom).value == 0
            assert axiom_probability(model, (1,), axiom).value == 1
            assert max_axiom(model, axiom) == MaxResult(*reference_max_axiom(model, axiom))
            assert is_nec_axiom(model, (0,), axiom) == is_nec_axiom(
                model, (0,), axiom, force_enumeration=True
            )

    def test_k_at_least_n(self):
        inst = Instance(2, 4, 3)  # quotas 1, 2, 2
        model = tva_model(inst, [["1/2", "1", "0", "1/2"], ["0", "1/2", "1/2", "1"]])
        for axiom in AXIOMS:
            for w in itertools.combinations(range(4), 3):
                _assert_probability(model, w, axiom)
            assert max_axiom(model, axiom) == MaxResult(*reference_max_axiom(model, axiom))


def _crowded(rng):
    """A model of 20-200 voters, most of them certain on a few repeated
    sets, with quotas of 4 or more.  A quota's worth of certain voters,
    less 3 or 4, approve one target candidate alone, and 5-7 free voters,
    most of them approving nothing else, may approve it too; the other
    sets avoid the target, and one of them is held by most of the
    remaining voters."""
    n = rng.randint(20, 200)
    m = rng.randint(3, 4)
    k = rng.randint(2, m)
    inst = Instance(n, m, k)
    target = rng.randrange(m)
    others = [c for c in range(m) if c != target]
    pool = [tuple(sorted(rng.sample(others, rng.randint(1, 2)))) for _ in range(3)]
    free = rng.randint(5, 7)
    certain = [(target,)] * (min_group_size(1, inst) - rng.randint(3, 4))
    certain += [pool[0] if rng.random() < 0.7 else rng.choice(pool)
                for _ in range(n - free - len(certain))]
    voters = [(s, False) for s in certain]
    voters += [(rng.choice(pool + [()] * 3), True) for _ in range(free)]
    rng.shuffle(voters)
    kind = rng.choice(("lottery", "cp", "3va"))
    if kind == "lottery":
        return lottery_model(inst, [
            [(Fraction(1, 3), s), (Fraction(2, 3), tuple(sorted({*s, target})))]
            if uncertain else [(1, s)]
            for s, uncertain in voters
        ])
    rows = []
    for s, uncertain in voters:
        row = [int(c in s) for c in range(m)]
        if uncertain:
            row[target] = "1/2" if kind == "3va" else rng.choice(("1/3", "3/4"))
        rows.append(row)
    return (tva_model if kind == "3va" else cp_model)(inst, rows)


class TestRepeatedCertainSets:
    """Certain voters are counted per distinct set and taken off the
    quota; these models repeat each certain set many times, often more
    often than the quota, and leave remaining quotas of 3 or more for the
    free voters' lanes, so the general counter of ``_at_least`` runs."""

    @pytest.mark.parametrize("seed", range(3))
    def test_against_the_per_profile_scan(self, monkeypatch, seed):
        calls = []
        at_least = axioms._at_least
        monkeypatch.setattr(
            axioms, "_at_least",
            lambda xs, quota: calls.append((quota, sum(1 for x in xs if x))) or at_least(xs, quota),
        )
        rng = random.Random(700 + seed)
        counts = []
        for _ in range(8):
            model = _crowded(rng)
            inst = model.instance
            for _, _, _, fixed in _lanes(model, None)[1]:
                counts += [count for _, count in fixed]
            for axiom in ("jr",) + AXIOMS:
                committees = list(itertools.combinations(range(inst.m), inst.k))
                values = reference_values_by_enumeration(model, committees, axiom)
                best = max(values)
                want = MaxResult(committees[values.index(best)], best, values.count(best))
                assert max_axiom(model, axiom, force_enumeration=axiom == "jr") == want
                w = rng.choice(committees)
                got = axiom_probability(model, w, axiom, force_enumeration=True)
                assert got.value == values[committees.index(w)]
        assert max(counts) > 20
        assert any(quota <= 0 for quota, _ in calls)
        assert any(3 <= quota < nonzero for quota, nonzero in calls)


class TestDeepModel:
    """3,000 voters, 10 of them with one free entry: few profiles, and
    2,990 certain voters, counted per distinct set."""

    N = 3000
    FREE = range(7, 2800, 299)  # 10 voters, spread out

    @pytest.fixture(scope="class")
    def model(self):
        # Candidate 3 is approved for sure by 995 voters and with
        # probability 1/2 by the 10 free ones; the others approve 0.
        rows = []
        for i in range(self.N):
            if i in self.FREE:
                rows.append(["0", "0", "0", "1/2"])
            elif i % 3 == 0 and sum(1 for r in rows if r[3] == "1") < 995:
                rows.append(["0", "0", "0", "1"])
            else:
                rows.append(["1", "0", "0", "0"])
        return cp_model(Instance(self.N, 4, 3), rows)

    def test_values(self, model):
        # Level 1 (quota 1000) fails iff at least 5 of the 10 free voters
        # join the 995 approvers of 3; no voter approves two candidates.
        ok = sum(math.comb(10, j) for j in range(5))
        for axiom in AXIOMS:
            assert axiom_probability(model, (0, 1, 2), axiom).value == Fraction(ok, 1024)
            assert max_axiom(model, axiom).committee == (0, 1, 3)
            assert max_axiom(model, axiom).value == 1
            assert max_axiom(model, axiom).ties == 2

    def test_decisions(self, model):
        for axiom in AXIOMS:
            poss = is_poss_axiom(model, (0, 1, 2), axiom)
            assert poss.answer and poss.witness_profile.prob == Fraction(1, 1024)
            nec = is_nec_axiom(model, (0, 1, 2), axiom)
            # The first violating profile: the last five free voters approve 3.
            approving = [i for i in self.FREE if nec.witness_profile.profile[i] == (3,)]
            assert approving == list(self.FREE)[5:]
            assert nec.witness_violation.common == (3,)
            assert len(nec.witness_violation.group) == 1000
            assert exists_nec_axiom(model, axiom).witness_committee == (0, 1, 3)
            assert exists_poss_axiom(model, axiom).witness_committee == (0, 1, 2)
