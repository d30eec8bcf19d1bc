"""Differential tests for the enumeration of plausible profiles, which
decodes each index by ``profile_at``, and the scans built on the same
integer weights, plus the budget counts the enumeration paths report.
The decoder writes the varying voters' sets into the first profile, so
single-set voters are placed before, after and between the varying
ones, and a model may have no varying voter at all."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    Instance,
    axiom_probability,
    cp_model,
    cp_to_lottery,
    enumerate_plausible,
    gen_random,
    is_jr,
    joint_model,
    jr_probability,
    lottery_model,
    lottery_to_joint,
    max_axiom,
    plausible_count,
    tva_model,
)
from oracles import _jr_test, brute_jr, random_profile, reference_plausible

KINDS = ("joint", "lottery", "cp", "3va")


def _random_models(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        k = rng.randint(1, m)
        degree = rng.randint(0, min(6, n * m)) if kind in ("cp", "3va") else rng.randint(0, 3)
        yield gen_random(kind, n, m, k, degree, seed=seed * 1000 + i)


class TestEnumerationKernel:
    def test_matches_fraction_product_enumerators(self):
        for model in _random_models(160, seed=41):
            assert list(enumerate_plausible(model)) == reference_plausible(model)

    def test_single_voter_models(self):
        for i, kind in enumerate(KINDS * 4):
            model = gen_random(kind, 1, 3, 1, 3, seed=500 + i)
            assert list(enumerate_plausible(model)) == reference_plausible(model)

    def test_rows_without_free_entries(self):
        inst = Instance(3, 3, 2)
        model = cp_model(inst, [["1", "0", "1"], ["2/3", "0", "1/5"], ["0", "0", "0"]])
        assert list(enumerate_plausible(model)) == reference_plausible(model)
        certain = tva_model(inst, [["1", "0", "1"], ["0", "1", "0"], ["0", "0", "0"]])
        assert list(enumerate_plausible(certain)) == reference_plausible(certain)

    def test_mixed_denominators(self):
        inst = Instance(2, 2, 1)
        lot = lottery_model(inst, [
            [("1/3", [0]), ("1/6", [1]), ("1/2", [0, 1])],
            [("3/7", []), ("4/7", [1])],
        ])
        assert list(enumerate_plausible(lot)) == reference_plausible(lot)
        joint = joint_model(inst, [("1/6", [[0], [1]]), ("1/4", [[1], [1]]), ("7/12", [[], [0]])])
        assert list(enumerate_plausible(joint)) == reference_plausible(joint)


# One letter per voter: "s" has a single approval set, "v" more than one.
# The last two have no varying voter, so a single profile.
LAYOUTS = ("ssvv", "vvss", "vsvsv", "svsvvs", "vv", "sss", "s")


def _layout_lottery(rng, layout, m=4):
    subsets = [s for r in range(m + 1) for s in itertools.combinations(range(m), r)]
    voters = []
    for kind in layout:
        size = 1 if kind == "s" else rng.randint(2, 3)
        raw = [rng.randint(1, 4) for _ in range(size)]
        voters.append([(Fraction(x, sum(raw)), s) for x, s in zip(raw, rng.sample(subsets, size))])
    return lottery_model(Instance(len(layout), m, 2), voters)


def _layout_rows(rng, layout, values, m=4):
    """Rows of 0 and 1, and in each row of a "v" voter one or two
    entries drawn from ``values``."""
    rows = []
    for kind in layout:
        row = [rng.choice(("0", "1")) for _ in range(m)]
        if kind == "v":
            for c in rng.sample(range(m), rng.randint(1, 2)):
                row[c] = rng.choice(values)
        rows.append(row)
    return rows


def _entries(model):
    return tuple((pp.prob, pp.profile) for pp in reference_plausible(model))


class TestDecoder:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_single_set_voters_anywhere(self, layout):
        rng = random.Random(layout)
        for _ in range(12):
            lottery = _layout_lottery(rng, layout)
            inst = lottery.instance
            cp = cp_model(inst, _layout_rows(rng, layout, ("1/2", "1/3", "3/4")))
            tva = tva_model(inst, _layout_rows(rng, layout, ("1/2",)))
            for model in (lottery, cp, tva):
                want = reference_plausible(model)
                assert list(enumerate_plausible(model)) == want
                assert want[0] == model.first and len(want) == model.profile_count
            assert lottery_to_joint(lottery).entries == _entries(lottery)
            for model in (cp, tva):
                assert lottery_to_joint(cp_to_lottery(model)).entries == _entries(model)


class TestPackedJrTest:
    @pytest.mark.parametrize("n, m, k", [
        (1, 1, 1), (1, 3, 2), (2, 2, 2), (3, 4, 1), (3, 5, 4),
        (4, 4, 4), (5, 3, 1), (7, 5, 2), (8, 6, 3), (9, 4, 2),
    ])
    def test_equals_is_jr(self, n, m, k):
        inst = Instance(n, m, k)
        rng = random.Random(n * 100 + m * 10 + k)
        for w in itertools.combinations(range(m), k):
            holds = _jr_test(inst, frozenset(w))
            outside = tuple(c for c in range(m) if c not in w)
            profiles = [random_profile(rng, inst) for _ in range(40)]
            # Every voter unrepresented and approving every outside
            # candidate: the largest count a field can hold.
            profiles.append((outside,) * n)
            for prof in profiles:
                assert holds(prof) == is_jr(inst, prof, w) == brute_jr(inst, prof, w)


def _partly_certain_3va(rng, n, m, k, unknown_columns):
    rows = [["1" if rng.random() < 0.5 else "0" for _ in range(m)] for _ in range(n)]
    for c in unknown_columns:
        for i in range(n):
            if rng.random() < 0.6:
                rows[i][c] = "1/2"
    return tva_model(Instance(n, m, k), rows)


class TestOnePassMax:
    @pytest.mark.parametrize("axiom", ["jr", "pjr", "ejr"])
    @pytest.mark.parametrize("force", [False, True])
    def test_equals_per_committee_probabilities(self, axiom, force):
        rng = random.Random(7)
        mixed = 0
        for n, m, k, unknown_columns in [
            (4, 4, 2, (0,)), (3, 5, 2, (1, 3)), (5, 4, 3, (2,)), (3, 4, 3, (0, 3)),
            (4, 5, 2, (4,)),
        ]:
            model = _partly_certain_3va(rng, n, m, k, unknown_columns)
            committees = list(itertools.combinations(range(m), k))
            results = [
                axiom_probability(model, w, axiom, force_enumeration=force)
                for w in committees
            ]
            methods = {r.method for r in results}
            general = "dp-voters" if axiom == "jr" else "enumeration"
            mixed += general in methods and len(methods) > 1
            best = max(r.value for r in results)
            want_w = committees[next(j for j, r in enumerate(results) if r.value == best)]
            want_ties = sum(1 for r in results if r.value == best)
            got = max_axiom(model, axiom, force_enumeration=force)
            assert (got.committee, got.value, got.ties) == (want_w, best, want_ties)
        # Without forcing, JR mixes closed forms and the voter DP in one call.
        assert mixed >= (3 if axiom == "jr" and not force else 0)

    def test_lottery_and_joint(self):
        for model in _random_models(24, seed=77):
            for axiom in ("jr", "pjr", "ejr"):
                inst = model.instance
                committees = list(itertools.combinations(range(inst.m), inst.k))
                values = [axiom_probability(model, w, axiom).value for w in committees]
                got = max_axiom(model, axiom)
                assert got.value == max(values)
                assert got.committee == committees[values.index(max(values))]
                assert got.ties == values.count(max(values))


def _interior_cp(rng, n, m, interior):
    rows = [["1" if rng.random() < 0.4 else "0" for _ in range(m)] for _ in range(n)]
    for i, c in rng.sample([(i, c) for i in range(n) for c in range(m)], interior):
        rows[i][c] = "2/5"
    return rows


class TestBudgetContract:
    def test_jr_probability_default_budget_names_profile_count(self):
        model = cp_model(Instance(8, 8, 4), _interior_cp(random.Random(3), 8, 8, 24))
        with pytest.raises(BudgetError) as exc:
            jr_probability(model, (0, 1, 2, 3))
        assert exc.value.count == 2**24

    def test_max_axiom_names_committees_times_profiles(self):
        rows = [["1/2"] * 6, ["1/2"] * 4 + ["1", "0"]] + [["0"] * 6] * 4
        model = tva_model(Instance(6, 6, 3), rows)
        assert plausible_count(model) == 2**10
        with pytest.raises(BudgetError) as exc:
            max_axiom(model, "ejr", budget=10_000)
        assert exc.value.count == math.comb(6, 3) * 2**10 == 20 * 2**10

    def test_pjr_probability_names_profile_count(self):
        rows = [["1/2"] * 5 + ["1"], ["1/2"] * 5 + ["0"]] + [["0"] * 6] * 4
        model = tva_model(Instance(6, 6, 3), rows)
        with pytest.raises(BudgetError) as exc:
            axiom_probability(model, (0, 1, 2), "pjr", budget=500)
        assert exc.value.count == 2**10

    def test_enumeration_sums_are_exact(self):
        model = cp_model(Instance(2, 2, 1), [["1/3", "1/7"], ["2/5", "0"]])
        inst = model.instance
        want = sum(
            (pp.prob for pp in reference_plausible(model) if is_jr(inst, pp.profile, (0,))),
            Fraction(0),
        )
        assert jr_probability(model, (0,)).value == want
