import random
from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    CnfFormula,
    Instance,
    exists_nec_axiom,
    exists_nec_jr,
    exists_poss_axiom,
    exists_poss_jr,
    gen_random,
    is_jr,
    is_nec_axiom,
    is_nec_jr,
    is_poss_axiom,
    is_poss_jr,
    joint_model,
    lottery_model,
    cp_model,
    tva_model,
    profile_probability,
    reduce_3sat,
)
from oracles import (
    brute_sat,
    exists_nec_oracle,
    nec_oracle,
    poss_oracle,
    recursive_poss_jr_lottery,
    reference_nec_jr_lottery,
    violation_holds,
)

HALF = Fraction(1, 2)


def _random_models(count, seed, kinds=("joint", "lottery", "cp", "3va"), max_n=4, max_m=4):
    rng = random.Random(seed)
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        k = rng.randint(1, m)
        if kind in ("cp", "3va"):
            degree = rng.randint(0, min(6, n * m))
        else:
            degree = rng.randint(0, 3)
        model = gen_random(kind, n, m, k, degree, seed=seed * 1000 + i)
        w = tuple(sorted(rng.sample(range(m), k)))
        yield model, w


class TestIsPossJr:
    def test_joint_scan(self):
        model = joint_model(
            Instance(2, 2, 1), [(HALF, [[0], [0]]), (HALF, [[1], [1]])]
        )
        result = is_poss_jr(model, (0,))
        assert result.answer is True
        assert result.method == "poly-special-case"
        assert result.witness_profile.profile == ((0,), (0,))

    def test_certain_cp_reduces_to_plain_check(self):
        yes = cp_model(Instance(2, 2, 1), [["1", "0"], ["0", "1"]])
        assert is_poss_jr(yes, (0,)).answer is True
        no = cp_model(Instance(2, 2, 1), [["0", "1"], ["0", "1"]])
        assert is_poss_jr(no, (0,)).answer is False

    def test_witnesses_are_plausible_and_satisfying(self):
        for model, w in _random_models(60, seed=21):
            result = is_poss_jr(model, w)
            if result.answer:
                pp = result.witness_profile
                assert pp is not None and pp.prob > 0
                assert profile_probability(model, pp.profile) == pp.prob
                assert is_jr(model.instance, pp.profile, w)

    def test_matches_enumeration_oracle(self):
        for model, w in _random_models(120, seed=22):
            assert is_poss_jr(model, w).answer == poss_oracle(model, w)
            assert is_poss_jr(model, w, force_enumeration=True).answer == poss_oracle(model, w)

    def test_lottery_search_budget(self):
        model = gen_random("lottery", 4, 3, 3, 3, seed=3)
        # committee of all candidates is JR everywhere, so force misses
        bad = cp_model(Instance(4, 3, 1), [["0", "0", "1"]] * 4)
        from abcu import cp_to_lottery
        lot = cp_to_lottery(bad)
        with pytest.raises(BudgetError):
            is_poss_jr(lot, (0,), budget=2)

    def test_fixing_an_unknown_never_creates_possibility(self):
        rng = random.Random(5)
        for i in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            model = gen_random("3va", n, m, 1, min(3, n * m), seed=100 + i)
            inst = model.instance
            w = tuple(sorted(rng.sample(range(inst.m), inst.k)))
            base = is_poss_jr(model, w).answer
            rows = [list(row) for row in model.probs]
            for i2 in range(inst.n):
                for c in range(inst.m):
                    if rows[i2][c] == HALF:
                        for value in (0, 1):
                            patched = [list(row) for row in rows]
                            patched[i2][c] = Fraction(value)
                            refined = tva_model(inst, patched)
                            if is_poss_jr(refined, w).answer:
                                assert base is True


def _deep_lottery(n, seed, represented_first):
    """Each voter picks {0} or one of {2..5}; ``(0, 1)`` is JR exactly
    when no candidate outside it gets half the voters unrepresented."""
    rng = random.Random(seed)
    lotteries = []
    for _ in range(n):
        other = [2 + rng.randrange(4)]
        sets = [[0], other] if represented_first else [other, [0]]
        lotteries.append([("1/2", sets[0]), ("1/2", sets[1])])
    return lottery_model(Instance(n, 6, 2), lotteries)


def _formula(seed, clauses, num_vars):
    """A seeded random 3-CNF formula, three distinct variables a clause."""
    rng = random.Random(seed)
    return CnfFormula(num_vars, tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(clauses)
    ))


def _overlapping_lotteries(count, seed):
    """Random lotteries whose sets share candidates and mostly avoid the
    committee, so the search backtracks; quotas 1, 2 and 3+ in turn."""
    rng = random.Random(seed)
    for i in range(count):
        quota = 1 + i % 3 + (rng.randint(0, 2) if i % 3 == 2 else 0)
        k = rng.randint(1, 3)
        n = rng.randint((quota - 1) * k + 1, quota * k)
        m = rng.randint(k + 2, k + 5)
        w = tuple(sorted(rng.sample(range(m), k)))
        outside = [c for c in range(m) if c not in w]
        lotteries = []
        for _ in range(n):
            sets = set()
            for _ in range(rng.randint(1, 4)):
                pool = outside if rng.random() < 0.85 else range(m)
                sets.add(tuple(sorted(rng.sample(pool, rng.randint(1, min(3, len(pool)))))))
            lotteries.append([(Fraction(1, len(sets)), s) for s in sets])
        yield lottery_model(Instance(n, m, k), lotteries), w


class TestPossJrLotterySearch:
    def test_matches_recursive_search(self):
        rng = random.Random(61)
        for model, w in _random_models(120, seed=61, kinds=("lottery",), max_n=6, max_m=4):
            assert is_poss_jr(model, w) == recursive_poss_jr_lottery(model, w)
            budget = rng.randint(1, 12)
            try:
                want = recursive_poss_jr_lottery(model, w, budget)
            except BudgetError as exc:
                with pytest.raises(BudgetError) as got:
                    is_poss_jr(model, w, budget=budget)
                assert (got.value.count, got.value.budget) == (exc.count, exc.budget)
            else:
                assert is_poss_jr(model, w, budget=budget) == want

    def test_backtracking_matches_recursive_search(self):
        for seed in range(6):
            model = _deep_lottery(8, seed, represented_first=False)
            assert is_poss_jr(model, (0, 1)) == recursive_poss_jr_lottery(model, (0, 1))

    def test_node_counts_match_recursive_search(self):
        # A remembered dead subtree adds the nodes it took, so the search
        # tries exactly the reference's N nodes: it answers at budget N and
        # raises BudgetError(N, N - 1) one below.
        cases = list(_overlapping_lotteries(240, seed=71))
        gadgets = [_formula(seed, 8 + 2 * (seed % 5), 3 + seed % 4) for seed in range(30)]
        assert {brute_sat(f) for f in gadgets} == {True, False}
        cases += [(model, w) for model, _, w in map(reduce_3sat, gadgets)]
        for model, w in cases:
            want, nodes = recursive_poss_jr_lottery(model, w, count_nodes=True)
            assert is_poss_jr(model, w) == want
            assert is_poss_jr(model, w, budget=nodes) == want
            with pytest.raises(BudgetError) as exc:
                is_poss_jr(model, w, budget=nodes - 1)
            assert (exc.value.count, exc.value.budget) == (nodes, nodes - 1)

    def test_unsatisfiable_gadget_within_default_budget(self):
        # 30 clauses over 4 variables: the search tries 160,827 nodes
        # (counted by the recursive reference), most of them remembered.
        f = _formula(19, 30, 4)
        assert not brute_sat(f)
        model, _, w = reduce_3sat(f)
        assert is_poss_jr(model, w).answer is False
        assert is_poss_jr(model, w, budget=160_827).answer is False
        with pytest.raises(BudgetError) as exc:
            is_poss_jr(model, w, budget=160_826)
        assert (exc.value.count, exc.value.budget) == (160_827, 160_826)

    def test_unsatisfiable_gadget_over_default_budget(self):
        # 60 clauses over 6 variables: the plain search tries more than
        # 2**20 nodes and raises at the first one past the cap.
        f = _formula(1, 60, 6)
        assert not brute_sat(f)
        model, _, w = reduce_3sat(f)
        with pytest.raises(BudgetError) as exc:
            is_poss_jr(model, w)
        assert (exc.value.count, exc.value.budget) == (2**20 + 1, 2**20)

    def test_twelve_hundred_voters(self):
        model = _deep_lottery(1200, seed=1, represented_first=True)
        result = is_poss_jr(model, (0, 1))
        assert result.answer is True
        assert result.witness_profile.profile == ((0,),) * 1200
        assert result.witness_profile.prob == Fraction(1, 2**1200)
        with pytest.raises(BudgetError) as exc:
            is_poss_jr(model, (0, 1), budget=1000)
        assert exc.value.count == 1001

    def test_twelve_hundred_voters_with_backtracking(self):
        model = _deep_lottery(1200, seed=2, represented_first=False)
        result = is_poss_jr(model, (0, 1))
        assert result.answer is True
        assert is_jr(model.instance, result.witness_profile.profile, (0, 1))


class TestExistsPossJr:
    def test_always_yes_with_valid_witness(self):
        for model, _ in _random_models(40, seed=23):
            result = exists_poss_jr(model)
            assert result.answer is True
            w = result.witness_committee
            assert len(w) == model.instance.k
            assert is_jr(model.instance, result.witness_profile.profile, w)

    def test_joint_uses_first_entry(self):
        model = joint_model(
            Instance(2, 2, 1), [(HALF, [[1], [1]]), (HALF, [[0], [0]])]
        )
        result = exists_poss_jr(model)
        assert result.witness_profile.profile == ((1,), (1,))
        assert result.witness_committee == (1,)

    def test_all_unknown_single_candidate(self):
        model = tva_model(Instance(2, 1, 1), [["1/2"], ["1/2"]])
        assert exists_poss_jr(model).witness_committee == (0,)


class TestIsNecJr:
    def test_lottery_single_set_condition(self):
        inst = Instance(2, 2, 1)
        model = lottery_model(inst, [
            [(1, [0])],
            [(HALF, [0, 1]), (HALF, [1])],
        ])
        result = is_nec_jr(model, (0,))
        assert result.answer is True
        assert result.method == "poly-special-case"

    def test_interior_cp_fails_for_proper_subsets(self):
        model = cp_model(Instance(2, 3, 2), [["1/2", "1/3", "2/3"]] * 2)
        result = is_nec_jr(model, (0, 1))
        assert result.answer is False
        pp = result.witness_profile
        assert pp.prob > 0
        assert violation_holds(model.instance, pp.profile, (0, 1), result.witness_violation)

    def test_joint_single_entry_is_plain_check(self):
        inst = Instance(2, 2, 1)
        failing = joint_model(inst, [(1, [[1], [1]])])
        assert is_nec_jr(failing, (0,)).answer is is_jr(inst, ((1,), (1,)), (0,)) is False
        passing = joint_model(inst, [(1, [[0], [0]])])
        assert is_nec_jr(passing, (0,)).answer is is_jr(inst, ((0,), (0,)), (0,)) is True

    def test_matches_enumeration_oracle(self):
        for model, w in _random_models(120, seed=24):
            assert is_nec_jr(model, w).answer == nec_oracle(model, w)
            assert is_nec_jr(model, w, force_enumeration=True).answer == nec_oracle(model, w)

    def test_refutation_witnesses_validate(self):
        for model, w in _random_models(80, seed=25):
            result = is_nec_jr(model, w)
            if not result.answer:
                pp = result.witness_profile
                assert pp is not None and pp.prob > 0
                assert profile_probability(model, pp.profile) == pp.prob
                assert violation_holds(model.instance, pp.profile, w, result.witness_violation)

    def test_lottery_one_pass_matches_reference(self):
        """Whole results, witness profile, violation and tag, against the
        decider that rescans every voter's sets per outside candidate."""
        rng = random.Random(27)
        refuted = 0
        for _ in range(400):
            n, m = rng.randint(1, 8), rng.randint(1, 6)
            inst = Instance(n, m, rng.randint(1, m))
            voters = []
            for _ in range(n):
                sets = list({
                    tuple(sorted(rng.sample(range(m), rng.randint(0, min(3, m)))))
                    for _ in range(rng.randint(1, 4))
                })
                rng.shuffle(sets)
                voters.append([(Fraction(1, len(sets)), s) for s in sets])
            model = lottery_model(inst, voters)
            w = tuple(sorted(rng.sample(range(m), inst.k)))
            result = is_nec_jr(model, w)
            assert result == reference_nec_jr_lottery(model, w)
            refuted += not result.answer
        assert 40 < refuted < 360  # both answers occur often

    def test_necessary_implies_possible(self):
        for model, w in _random_models(80, seed=26):
            if is_nec_jr(model, w).answer:
                assert is_poss_jr(model, w).answer


class TestExistsNecJr:
    def test_singleton_lottery_quota_counting(self):
        inst = Instance(4, 3, 2)
        model = lottery_model(inst, [
            [(HALF, [0]), (HALF, [1])],
            [(1, [0])],
            [(1, [1])],
            [(1, [2])],
        ])
        result = exists_nec_jr(model)
        assert result.answer is True
        assert result.method == "poly-special-case"
        assert result.witness_committee == (0, 1)
        # brute force over all committees and all plausible profiles
        assert exists_nec_oracle(model) == (0, 1)

    def test_singleton_lottery_matches_oracle(self):
        rng = random.Random(9)
        for i in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(1, m)
            model = gen_random("singleton-lottery", n, m, k, 2, seed=500 + i)
            result = exists_nec_jr(model)
            assert result.method == "poly-special-case"
            oracle = exists_nec_oracle(model)
            assert result.answer == (oracle is not None)
            if result.answer:
                assert is_nec_jr(model, result.witness_committee).answer

    def test_interior_matrix_needs_full_committee(self):
        interior = cp_model(Instance(2, 3, 2), [["1/2", "1/3", "2/3"]] * 2)
        result = exists_nec_jr(interior)
        assert result.answer is False
        assert result.method == "poly-special-case"
        full = cp_model(Instance(2, 3, 3), [["1/2", "1/3", "2/3"]] * 2)
        result = exists_nec_jr(full)
        assert result.answer is True
        assert result.witness_committee == (0, 1, 2)

    def test_general_path_matches_oracle(self):
        for i, (model, _) in enumerate(_random_models(60, seed=27)):
            result = exists_nec_jr(model)
            oracle = exists_nec_oracle(model)
            assert result.answer == (oracle is not None)
            if result.answer:
                assert is_nec_jr(model, result.witness_committee).answer
            forced = exists_nec_jr(model, force_enumeration=True)
            assert forced.answer == result.answer

    def test_force_enumeration_overrides_special_case(self):
        model = gen_random("singleton-lottery", 3, 3, 2, 2, seed=77)
        forced = exists_nec_jr(model, force_enumeration=True)
        assert forced.method == "enumeration"
        assert forced.answer == exists_nec_jr(model).answer

    def test_committee_budget(self):
        model = gen_random("joint", 2, 6, 3, 1, seed=1)
        with pytest.raises(BudgetError):
            exists_nec_jr(model, budget=10)


class TestAxiomVariants:
    def test_single_profile_equals_plain_checkers(self):
        inst = Instance(4, 3, 2)
        bloc = joint_model(inst, [(1, [[0, 1]] * 4)])
        assert is_poss_axiom(bloc, (0, 1), "ejr").answer is True
        assert is_poss_axiom(bloc, (0, 2), "ejr").answer is False
        assert is_nec_axiom(bloc, (0, 2), "pjr").answer is False
        refutation = is_nec_axiom(bloc, (0, 2), "ejr")
        assert violation_holds(inst, refutation.witness_profile.profile, (0, 2),
                               refutation.witness_violation)

    def test_impossible_jr_blocks_stronger_axioms(self):
        no = cp_model(Instance(2, 2, 1), [["0", "1"], ["0", "1"]])
        assert is_poss_jr(no, (0,)).answer is False
        assert is_poss_axiom(no, (0,), "ejr").answer is False
        assert is_poss_axiom(no, (0,), "pjr").answer is False

    def test_exists_nec_ejr_bloc(self):
        inst = Instance(4, 3, 2)
        bloc = joint_model(inst, [(1, [[0, 1]] * 4)])
        result = exists_nec_axiom(bloc, "ejr")
        assert result.answer is True
        assert result.witness_committee == (0, 1)

    def test_exists_nec_ejr_all_unknown_pair(self):
        model = tva_model(Instance(2, 2, 1), [["1/2", "1/2"], ["1/2", "1/2"]])
        assert exists_nec_axiom(model, "ejr").answer is False
        # direct enumeration over both committees and all 16 completions
        for w in ((0,), (1,)):
            assert not nec_oracle(model, w, "ejr")

    def test_exists_poss_axiom_enumerates(self):
        inst = Instance(4, 3, 2)
        bloc = joint_model(inst, [(1, [[0, 1]] * 4)])
        result = exists_poss_axiom(bloc, "ejr")
        assert result.answer is True
        assert result.witness_committee == (0, 1)
        assert exists_poss_axiom(bloc, "jr").answer is True

    def test_poss_nec_axiom_oracle_agreement(self):
        for model, w in _random_models(60, seed=28, max_n=3, max_m=3):
            for axiom in ("pjr", "ejr"):
                assert is_poss_axiom(model, w, axiom).answer == poss_oracle(model, w, axiom)
                assert is_nec_axiom(model, w, axiom).answer == nec_oracle(model, w, axiom)
