import itertools
import random
from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    Instance,
    InputError,
    approval_profile,
    axiom_probability,
    cp_model,
    exists_nec_axiom,
    gen_random,
    joint_model,
    max_axiom,
    size_jr,
    tva_model,
)
from oracles import brute_jr, prob_oracle, random_profile


def _models(count, seed, max_n=3, max_m=4):
    rng = random.Random(seed)
    for i in range(count):
        kind = ("joint", "lottery", "cp", "3va")[i % 4]
        n, m = rng.randint(1, max_n), rng.randint(1, max_m)
        k = rng.randint(1, m)
        degree = rng.randint(0, min(4, n * m)) if kind in ("cp", "3va") else rng.randint(0, 2)
        yield gen_random(kind, n, m, k, degree, seed=5000 * seed + i)


class TestMaxAxiom:
    def test_prefers_certain_committee(self):
        model = tva_model(Instance(2, 2, 1), [["0", "1"], ["0", "1/2"]])
        result = max_axiom(model, "jr")
        assert result.committee == (1,)
        assert result.value == 1
        assert result.ties == 1
        # the alternative committee only wins half the completions
        assert axiom_probability(model, (0,), "jr").value == Fraction(1, 2)

    def test_certain_profile_yields_value_one(self):
        inst = Instance(4, 3, 2)
        model = joint_model(inst, [(1, [[0], [0], [1], [1]])])
        result = max_axiom(model, "jr")
        assert result.value == 1
        assert result.committee == (0, 1)

    def test_interior_matrix_caps_below_one(self):
        model = cp_model(Instance(2, 3, 2), [["1/2", "1/3", "2/3"]] * 2)
        assert max_axiom(model, "jr").value < 1

    def test_matches_exhaustive_scan(self):
        for model in _models(40, seed=51):
            inst = model.instance
            for axiom in ("jr", "ejr"):
                result = max_axiom(model, axiom)
                values = {
                    w: prob_oracle(model, w, axiom)
                    for w in itertools.combinations(range(inst.m), inst.k)
                }
                best = max(values.values())
                assert result.value == best
                assert result.ties == sum(1 for v in values.values() if v == best)
                assert result.committee == min(w for w, v in values.items() if v == best)

    def test_value_one_iff_necessarily_satisfiable(self):
        for model in _models(40, seed=52):
            for axiom in ("jr", "pjr"):
                result = max_axiom(model, axiom)
                exists = exists_nec_axiom(model, axiom, force_enumeration=True)
                assert (result.value == 1) == exists.answer
                if result.value == 1:
                    assert exists.witness_committee == result.committee

    def test_returned_committee_obeys_axiom_chain(self):
        for model in _models(20, seed=53):
            w = max_axiom(model, "jr").committee
            ejr = axiom_probability(model, w, "ejr").value
            pjr = axiom_probability(model, w, "pjr").value
            jr = axiom_probability(model, w, "jr").value
            assert ejr <= pjr <= jr

    def test_ties_counted_for_symmetric_models(self):
        model = joint_model(Instance(1, 3, 1), [(1, [[]])])
        result = max_axiom(model, "jr")
        assert result.value == 1
        assert result.ties == 3
        assert result.committee == (0,)

    def test_budget(self):
        model = gen_random("3va", 3, 6, 3, 6, seed=9)
        with pytest.raises(BudgetError):
            max_axiom(model, "jr", budget=100)


class TestSizeJr:
    def test_split_voters_cannot_share_one_seat(self):
        inst = Instance(2, 2, 2)
        prof = approval_profile([[0], [1]], inst)
        assert size_jr(inst, prof, 1) == (False, None)

    def test_unanimous_voters_can(self):
        inst = Instance(2, 2, 2)
        prof = approval_profile([[0], [0]], inst)
        assert size_jr(inst, prof, 1) == (True, (0,))

    @pytest.mark.parametrize("r", [0, 2, 3, -1])
    def test_size_preconditions(self, r):
        inst = Instance(2, 3, 2)
        prof = approval_profile([[0], [1]], inst)
        with pytest.raises(InputError):
            size_jr(inst, prof, r)

    def test_matches_brute_force(self):
        rng = random.Random(54)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(2, 5)
            k = rng.randint(2, m)
            inst = Instance(n, m, k)
            prof = approval_profile(random_profile(rng, inst), inst)
            r = rng.randint(1, k - 1)
            found, w = size_jr(inst, prof, r)
            expected = [
                ws for ws in itertools.combinations(range(m), r)
                if brute_jr(inst, prof, ws)
            ]
            assert found == bool(expected)
            if found:
                assert w == expected[0]
                assert brute_jr(inst, prof, w)


class TestSizeJrInput:
    """``size_jr`` reads a plain profile as it is and canonicalises
    anything else, with the same answers and the same errors as on
    ``approval_profile``'s canonical form."""

    def _want(self, inst, prof, r):
        try:
            canon = approval_profile(prof, inst)
        except Exception as err:  # the error size_jr must raise too
            return type(err), str(err)
        return size_jr(inst, canon, r)

    def _got(self, inst, prof, r):
        try:
            return size_jr(inst, prof, r)
        except Exception as err:
            return type(err), str(err)

    def test_plain_profiles(self):
        rng = random.Random(61)
        for _ in range(200):
            m = rng.randint(2, 6)
            inst = Instance(rng.randint(1, 6), m, rng.randint(2, m))
            r = rng.randint(1, inst.k - 1)
            prof = [[rng.randrange(m) for _ in range(rng.randint(0, 4))] for _ in range(inst.n)]
            for shaped in (prof, tuple(map(tuple, prof)), [tuple(s) for s in prof]):
                assert self._got(inst, shaped, r) == self._want(inst, prof, r)

    @pytest.mark.parametrize("prof", [
        [[0], [3]],                # out of range
        [[-1], [0]],               # negative
        [[0], [True]],             # a bool, though equal to 1
        [[1], [1.0]],              # a float equal to an int already seen
        [[0], [0.5]],
        [[0]],                     # too few sets
        [[0], [1], [2]],           # too many
        [[0], "1"],                # a string set
        [[0], {1}],                # a set, canonicalised
        [[0], [[1]]],              # an unhashable member
        [[0], ["a", 1]],           # unorderable members
        ([0], [1]),
    ])
    def test_every_other_input_as_approval_profile(self, prof):
        inst = Instance(2, 3, 2)
        assert self._got(inst, prof, 1) == self._want(inst, prof, 1)

    def test_an_iterator_is_read_once(self):
        inst = Instance(2, 3, 2)
        assert self._got(inst, iter([[0], [0, 1]]), 1) == self._want(inst, [[0], [0, 1]], 1)
