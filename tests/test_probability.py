import random
from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    Instance,
    InputError,
    axiom_probability,
    gen_random,
    is_nec_jr,
    is_poss_jr,
    joint_model,
    jr_probability,
    jr_satisfying_count,
    plausible_count,
    tva_model,
)
from oracles import prob_oracle

HALF = Fraction(1, 2)


def _tva_certain_over(rng, n, m, k, w):
    """Random three-valued matrix whose committee columns are certain."""
    wset = set(w)
    rows = []
    for _ in range(n):
        row = []
        for c in range(m):
            if c in wset:
                row.append(Fraction(rng.randint(0, 1)))
            else:
                row.append(rng.choice((Fraction(0), HALF, Fraction(1))))
        rows.append(row)
    return tva_model(Instance(n, m, k), rows)


class TestClosedFormCertainCommittee:
    def test_hand_example(self):
        model = tva_model(Instance(2, 2, 1), [["0", "1"], ["0", "1/2"]])
        result = jr_probability(model, (0,))
        assert result.value == HALF
        assert result.method == "closed-form-certain-w"
        assert result.counts == (1, 2)

    def test_zero_when_certain_group_meets_quota(self):
        model = tva_model(Instance(2, 2, 1), [["0", "1"], ["0", "1"]])
        result = jr_probability(model, (0,))
        assert result.value == 0
        assert result.counts == (0, 1)

    def test_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            k = rng.randint(1, m)
            w = tuple(sorted(rng.sample(range(m), k)))
            model = _tva_certain_over(rng, n, m, k, w)
            result = jr_probability(model, w)
            assert result.method == "closed-form-certain-w"
            assert result.value == prob_oracle(model, w)
            forced = jr_probability(model, w, force_enumeration=True)
            assert forced.value == result.value
            assert forced.counts == result.counts


class TestCountingFullSizeCommittee:
    def test_hand_example(self):
        model = tva_model(Instance(2, 3, 2), [["1/2", "0", "1/2"], ["0", "1", "1/2"]])
        result = jr_probability(model, (0, 1))
        assert result.value == Fraction(3, 4)
        assert result.method == "count-k-eq-n"
        assert result.counts == (6, 8)
        assert jr_satisfying_count(model, (0, 1)) == (6, 8)

    def test_matches_enumeration(self):
        rng = random.Random(42)
        for i in range(80):
            n = rng.randint(1, 4)
            m = rng.randint(n, 5)
            model = gen_random("3va", n, m, n, rng.randint(0, min(8, n * m)), seed=900 + i)
            w = tuple(sorted(rng.sample(range(m), n)))
            result = jr_probability(model, w)
            assert result.method in ("count-k-eq-n", "closed-form-certain-w")
            assert result.value == prob_oracle(model, w)
            counts = jr_satisfying_count(model, w)
            assert Fraction(counts[0], counts[1]) == result.value
            assert counts[1] == plausible_count(model)


class TestGenericProbability:
    def test_joint_scan(self):
        inst = Instance(2, 2, 1)
        model = joint_model(inst, [(1, [[0], [0]])])
        result = jr_probability(model, (0,))
        assert result.value == 1
        assert result.method == "joint-scan"
        assert result.counts is None

    def test_matches_oracle_all_kinds(self):
        rng = random.Random(43)
        for i in range(80):
            kind = ("joint", "lottery", "cp", "3va")[i % 4]
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(1, m)
            degree = rng.randint(0, min(4, n * m)) if kind in ("cp", "3va") else rng.randint(0, 2)
            model = gen_random(kind, n, m, k, degree, seed=1300 + i)
            w = tuple(sorted(rng.sample(range(m), k)))
            assert jr_probability(model, w).value == prob_oracle(model, w)

    def test_certain_count_is_one_of_one(self):
        model = tva_model(Instance(2, 2, 1), [["1", "0"], ["1", "0"]])
        assert jr_satisfying_count(model, (0,)) == (1, 1)

    def test_counting_requires_three_valued(self):
        model = joint_model(Instance(1, 1, 1), [(1, [[0]])])
        with pytest.raises(InputError):
            jr_satisfying_count(model, (0,))

    def test_budget_propagates(self):
        model = tva_model(Instance(2, 3, 1), [["1/2"] * 3] * 2)
        with pytest.raises(BudgetError):
            jr_probability(model, (0,), budget=8)


class TestAxiomProbability:
    def test_certain_profile_matches_checkers(self):
        inst = Instance(4, 3, 2)
        bloc = joint_model(inst, [(1, [[0, 1]] * 4)])
        assert axiom_probability(bloc, (0, 2), "jr").value == 1
        assert axiom_probability(bloc, (0, 2), "ejr").value == 0
        assert axiom_probability(bloc, (0, 2), "pjr").value == 0

    def test_axiom_chain_pointwise(self):
        rng = random.Random(44)
        for i in range(40):
            kind = ("joint", "lottery", "cp", "3va")[i % 4]
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            k = rng.randint(1, m)
            degree = rng.randint(0, min(3, n * m)) if kind in ("cp", "3va") else rng.randint(0, 2)
            model = gen_random(kind, n, m, k, degree, seed=2500 + i)
            w = tuple(sorted(rng.sample(range(m), k)))
            ejr = axiom_probability(model, w, "ejr").value
            pjr = axiom_probability(model, w, "pjr").value
            jr = axiom_probability(model, w, "jr").value
            assert ejr <= pjr <= jr

    def test_three_valued_reports_counts_for_all_axioms(self):
        model = tva_model(Instance(2, 2, 1), [["1/2", "1/2"], ["1/2", "1/2"]])
        result = axiom_probability(model, (0,), "ejr")
        assert result.counts is not None
        count, total = result.counts
        assert result.value == Fraction(count, total)


class TestCrossModuleConsistency:
    def test_probability_one_iff_necessary(self):
        rng = random.Random(45)
        for i in range(60):
            kind = ("joint", "lottery", "cp", "3va")[i % 4]
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(1, m)
            degree = rng.randint(0, min(4, n * m)) if kind in ("cp", "3va") else rng.randint(0, 2)
            model = gen_random(kind, n, m, k, degree, seed=3600 + i)
            w = tuple(sorted(rng.sample(range(m), k)))
            value = jr_probability(model, w).value
            assert (value == 1) == is_nec_jr(model, w).answer
            assert (value > 0) == is_poss_jr(model, w).answer

    def test_law_of_total_probability_on_refinement(self):
        rng = random.Random(46)
        for i in range(30):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            model = gen_random("3va", n, m, 1, min(4, n * m), seed=4700 + i)
            w = (rng.randrange(m),)
            value = jr_probability(model, w).value
            rows = [list(row) for row in model.probs]
            unknowns = [(i2, c) for i2 in range(n) for c in range(m) if rows[i2][c] == HALF]
            for i2, c in unknowns:
                halves = []
                for fixed in (0, 1):
                    patched = [list(row) for row in rows]
                    patched[i2][c] = Fraction(fixed)
                    halves.append(jr_probability(tva_model(model.instance, patched), w).value)
                assert HALF * halves[0] + HALF * halves[1] == value
