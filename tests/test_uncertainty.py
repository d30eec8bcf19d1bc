from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    CandidateProbModel,
    Instance,
    InputError,
    JointModel,
    LotteryModel,
    cp_model,
    cp_to_lottery,
    enumerate_plausible,
    first_plausible,
    gen_random,
    joint_model,
    lottery_model,
    lottery_to_joint,
    plausible_count,
    profile_probability,
    tva_model,
    tva_to_cp,
    validate,
    validation_errors,
)

HALF = Fraction(1, 2)


class TestValidation:
    def test_joint_ok(self):
        model = joint_model(
            Instance(2, 2, 1),
            [("1/2", [[0], [0]]), ("1/2", [[1], [1]])],
        )
        assert validation_errors(model) == []

    def test_lottery_bad_sum_names_voter(self):
        inst = Instance(1, 2, 1)
        with pytest.raises(InputError, match="voter 0.*5/6"):
            lottery_model(inst, [[(HALF, [0]), (Fraction(1, 3), [1])]])

    def test_three_valued_rejects_other_values(self):
        inst = Instance(1, 1, 1)
        with pytest.raises(InputError, match="0, 1/2, 1"):
            tva_model(inst, [["3/10"]])

    def test_zero_probability_entry_rejected(self):
        inst = Instance(1, 2, 1)
        with pytest.raises(InputError, match="not in \\(0, 1\\]"):
            lottery_model(inst, [[(0, [0]), (1, [1])]])

    def test_duplicate_profiles_rejected(self):
        inst = Instance(1, 2, 1)
        with pytest.raises(InputError, match="duplicate"):
            joint_model(inst, [(HALF, [[0]]), (HALF, [[0]])])

    def test_duplicate_sets_rejected(self):
        inst = Instance(1, 2, 1)
        with pytest.raises(InputError, match="duplicate"):
            lottery_model(inst, [[(HALF, [0]), (HALF, [0])]])

    def test_dimension_mismatch_reported(self):
        raw = CandidateProbModel(Instance(2, 2, 1), ((Fraction(1), Fraction(0)),))
        assert any("rows" in e for e in validation_errors(raw))

    def test_every_violation_reported_at_once(self):
        raw = LotteryModel(
            Instance(1, 2, 1),
            (((Fraction(1, 2), (0,)), (Fraction(1, 3), (0,))),),
        )
        errors = validation_errors(raw)
        assert any("duplicate" in e for e in errors)
        assert any("5/6" in e for e in errors)

    def test_hand_built_bad_sets_reported(self):
        inst = Instance(2, 3, 1)
        lottery = LotteryModel(inst, (
            ((HALF, (0, 0)), (HALF, (True,))),
            ((Fraction(1), (-1, 2)),),
        ))
        assert validation_errors(lottery) == [
            "voter 0: approval set (0, 0) is not a canonical sorted tuple",
            "voter 1: candidate id -1 out of range for m=3",
        ]
        joint = JointModel(inst, ((HALF, ((0,), (2, 1))), (HALF, ((3,), ()))))
        assert validation_errors(joint) == [
            "entry 0, voter 1: approval set (2, 1) is not a canonical sorted tuple",
            "entry 1, voter 0: candidate id 3 out of range for m=3",
        ]

    def test_hand_built_list_sets_reported(self):
        inst = Instance(2, 3, 1)
        lottery = LotteryModel(inst, (
            ((HALF, [0]), (HALF, (0,))),
            ((Fraction(1), (1,)),),
        ))
        assert validation_errors(lottery) == [
            "voter 0: approval set [0] is not a canonical sorted tuple",
        ]
        joint = JointModel(inst, (
            (HALF, ([0], (1,))), (HALF, ((0,), (1, [2]))), (HALF, [(2,), ()]),
        ))
        assert validation_errors(joint) == [
            "entry 0, voter 0: approval set [0] is not a canonical sorted tuple",
            "entry 1, voter 1: approval set (1, [2]) is not a canonical sorted tuple",
            "entry 2: profile [(2,), ()] is not a tuple of approval sets",
            "profile probabilities sum to 3/2, expected 1",
        ]
        with pytest.raises(InputError, match=r"approval set \[0\] is not a canonical"):
            validate(lottery)

    def test_constructors_check_each_set_once(self, monkeypatch):
        from abcu import uncertainty

        calls = []
        set_ok = uncertainty._set_ok
        monkeypatch.setattr(uncertainty, "_set_ok", lambda s, m: calls.append(s) or set_ok(s, m))
        inst = Instance(2, 3, 1)
        lottery = lottery_model(inst, [[(HALF, [1, 0]), (HALF, [2])], [(1, [])]])
        joint = joint_model(inst, [(HALF, [[0], [2, 1]]), (HALF, [[1], []])])
        assert calls == []
        assert validation_errors(lottery) == validation_errors(joint) == []
        assert len(calls) == 3 + 4

    def test_hand_built_inexact_matrix_entries_reported(self):
        inst = Instance(1, 1, 1)
        assert validation_errors(CandidateProbModel(inst, ((0.5,),))) == [
            "entry (0, 0): 0.5 is not an exact probability",
        ]
        assert validation_errors(CandidateProbModel(inst, (("1/2",),), True)) == [
            "entry (0, 0): '1/2' is not an exact probability",
        ]
        row = (0.5, Fraction(3, 2), 1, HALF)
        assert validation_errors(CandidateProbModel(Instance(1, 4, 1), (row,))) == [
            "entry (0, 0): 0.5 is not an exact probability",
            "entry (0, 1): probability 3/2 not in [0, 1]",
        ]
        assert validation_errors(CandidateProbModel(Instance(1, 4, 1), (row,), True)) == [
            "entry (0, 0): 0.5 is not an exact probability",
            "entry (0, 1): value 3/2 not in {0, 1/2, 1}",
        ]
        with pytest.raises(InputError, match="not an exact probability"):
            validate(CandidateProbModel(inst, ((None,),)))

    def test_hand_built_inexact_weights_reported(self):
        inst = Instance(1, 2, 1)
        lottery = LotteryModel(inst, ((("1/2", (0,)), (HALF, (1,))),))
        assert validation_errors(lottery) == ["voter 0: '1/2' is not an exact probability"]
        joint = JointModel(inst, ((0.5, ((0,),)), (HALF, ((1,),))))
        assert validation_errors(joint) == ["entry 0: 0.5 is not an exact probability"]
        assert validation_errors(LotteryModel(inst, (((1, (0,)),),))) == []

    def test_cp_out_of_range_candidate(self):
        inst = Instance(1, 2, 1)
        with pytest.raises(InputError, match="out of range"):
            lottery_model(inst, [[(1, [2])]])


class TestConversions:
    def test_tva_embeds_into_cp(self):
        model = tva_model(Instance(1, 2, 1), [["1", "1/2"]])
        cp = tva_to_cp(model)
        assert isinstance(cp, CandidateProbModel)
        assert cp.probs == model.probs
        assert model.three_valued and not cp.three_valued
        assert cp != model

    def test_cp_to_lottery_product_formula(self):
        model = cp_model(Instance(1, 3, 1), [["0.9", "0.6", "0.5"]])
        lot = cp_to_lottery(model)
        table = {s: lam for lam, s in lot.lotteries[0]}
        assert len(table) == 8
        assert table[(0, 2)] == Fraction(9, 50)
        assert sum(table.values()) == 1

    def test_cp_certain_gives_deterministic_lottery(self):
        model = cp_model(Instance(2, 2, 1), [["1", "0"], ["0", "1"]])
        lot = cp_to_lottery(model)
        assert lot.lotteries == (((Fraction(1), (0,)),), ((Fraction(1), (1,)),))

    def test_half_probability_single_candidate(self):
        model = cp_model(Instance(1, 1, 1), [["1/2"]])
        lot = cp_to_lottery(model)
        assert lot.lotteries[0] == ((HALF, ()), (HALF, (0,)))

    def test_lottery_to_joint_product(self):
        inst = Instance(2, 2, 1)
        lot = lottery_model(inst, [
            [(HALF, [0]), (HALF, [1])],
            [(HALF, [0]), (HALF, [1])],
        ])
        joint = lottery_to_joint(lot)
        assert len(joint.entries) == 4
        assert all(lam == Fraction(1, 4) for lam, _ in joint.entries)

    def test_lottery_to_joint_hand_product(self):
        inst = Instance(2, 2, 1)
        lot = lottery_model(inst, [
            [(Fraction(1, 3), [0]), (Fraction(2, 3), [1])],
            [(1, [0])],
        ])
        joint = lottery_to_joint(lot)
        assert joint.entries == (
            (Fraction(1, 3), ((0,), (0,))),
            (Fraction(2, 3), ((1,), (0,))),
        )

    def test_deterministic_voters_single_profile(self):
        inst = Instance(2, 2, 1)
        lot = lottery_model(inst, [[(1, [0])], [(1, [1])]])
        joint = lottery_to_joint(lot)
        assert joint.entries == ((Fraction(1), ((0,), (1,))),)

    def test_budget_guard(self):
        model = cp_model(Instance(1, 5, 1), [["1/2"] * 5])
        with pytest.raises(BudgetError) as exc:
            cp_to_lottery(model, budget=16)
        assert exc.value.count == 32


class TestEnumeration:
    def test_single_unknown_two_profiles(self):
        model = tva_model(Instance(1, 1, 1), [["1/2"]])
        out = list(enumerate_plausible(model))
        assert [(pp.profile, pp.prob) for pp in out] == [
            (((),), HALF),
            (((0,),), HALF),
        ]

    def test_joint_is_identity(self):
        model = joint_model(
            Instance(2, 2, 1), [("1/3", [[0], [0]]), ("2/3", [[1], [1]])]
        )
        out = list(enumerate_plausible(model))
        assert [(pp.prob, pp.profile) for pp in out] == list(model.entries)

    def test_cp_example_profile_probability(self):
        model = cp_model(Instance(1, 3, 1), [["0.9", "0.6", "0.5"]])
        out = list(enumerate_plausible(model))
        assert len(out) == 8
        by_profile = {pp.profile: pp.prob for pp in out}
        assert by_profile[((0, 2),)] == Fraction(9, 50)
        assert sum(by_profile.values()) == 1

    def test_disapprove_branch_first(self):
        model = tva_model(Instance(2, 2, 2), [["1/2", "0"], ["0", "1/2"]])
        profiles = [pp.profile for pp in enumerate_plausible(model)]
        assert profiles == [
            ((), ()), ((), (1,)), ((0,), ()), ((0,), (1,)),
        ]

    def test_lottery_voter_zero_outermost(self):
        inst = Instance(2, 2, 1)
        lot = lottery_model(inst, [
            [(HALF, [0]), (HALF, [1])],
            [(HALF, []), (HALF, [0, 1])],
        ])
        profiles = [pp.profile for pp in enumerate_plausible(lot)]
        assert profiles == [
            ((0,), ()), ((0,), (0, 1)), ((1,), ()), ((1,), (0, 1)),
        ]

    def test_probabilities_sum_to_one_every_kind(self):
        for seed in range(12):
            for kind in ("joint", "lottery", "singleton-lottery", "cp", "3va"):
                model = gen_random(kind, 3, 3, 2, 2, seed)
                total = sum((pp.prob for pp in enumerate_plausible(model)), Fraction(0))
                assert total == 1

    def test_profile_probability_agrees_with_enumeration(self):
        for seed in range(8):
            for kind in ("joint", "lottery", "cp", "3va"):
                model = gen_random(kind, 2, 3, 1, 2, seed)
                for pp in enumerate_plausible(model):
                    assert profile_probability(model, pp.profile) == pp.prob

    def test_implausible_profile_has_zero_probability(self):
        model = cp_model(Instance(1, 2, 1), [["0", "1/2"]])
        assert profile_probability(model, [[0]]) == 0
        joint = joint_model(Instance(1, 2, 1), [(1, [[0]])])
        assert profile_probability(joint, [[1]]) == 0

    def test_budget_error_names_count(self):
        model = tva_model(Instance(1, 5, 1), [["1/2"] * 5])
        with pytest.raises(BudgetError) as exc:
            enumerate_plausible(model, budget=31)
        assert exc.value.count == 32
        assert plausible_count(model) == 32

    def test_first_plausible_matches_enumeration(self):
        for seed in range(8):
            for kind in ("joint", "lottery", "cp", "3va"):
                model = gen_random(kind, 2, 3, 1, 2, seed)
                assert first_plausible(model) == next(iter(enumerate_plausible(model)))

    def test_order_is_reproducible(self):
        model = gen_random("lottery", 3, 3, 1, 2, seed=5)
        assert list(enumerate_plausible(model)) == list(enumerate_plausible(model))


class TestCommutation:
    def test_cp_equals_joint_of_lottery_of_cp(self):
        for seed in range(25):
            model = gen_random("cp", 3, 3, 1, 4, seed)
            direct = {pp.profile: pp.prob for pp in enumerate_plausible(model)}
            converted = lottery_to_joint(cp_to_lottery(model))
            via = {pp.profile: pp.prob for pp in enumerate_plausible(converted)}
            assert direct == via

    def test_unknowns_become_uniform_completions(self):
        model = tva_model(Instance(2, 2, 1), [["1/2", "1/2"], ["1", "1/2"]])
        lot = cp_to_lottery(tva_to_cp(model))
        assert [lam for lam, _ in lot.lotteries[0]] == [Fraction(1, 4)] * 4
        assert [lam for lam, _ in lot.lotteries[1]] == [HALF] * 2
        assert {s for _, s in lot.lotteries[1]} == {(0,), (0, 1)}

    def test_uniform_completions_hold_for_random_models(self):
        for seed in range(15):
            model = gen_random("3va", 3, 3, 1, seed % 9, seed=700 + seed)
            lot = cp_to_lottery(tva_to_cp(model))
            for row, voter in zip(model.probs, lot.lotteries):
                unknowns = sum(1 for p in row if p == HALF)
                assert len(voter) == 2**unknowns
                assert all(lam == Fraction(1, 2**unknowns) for lam, _ in voter)
