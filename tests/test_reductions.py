import itertools
import random
from fractions import Fraction

import pytest

from abcu import (
    CnfFormula,
    Graph,
    Instance,
    InputError,
    complementary_slot_pairs,
    gen_random,
    is_poss_jr,
    jr_satisfying_count,
    lottery_to_joint,
    plausible_count,
    reduce_3sat,
    reduce_vc,
    validation_errors,
)
from oracles import brute_sat, vertex_cover_count

# running example: (x1 v x2 v x3)(x1 v x2 v ~x3)(~x3 v ~x2 v x4)(x1 v x2 v x4)
EXAMPLE = CnfFormula(4, ((1, 2, 3), (1, 2, -3), (-3, -2, 4), (1, 2, 4)))


class TestSatGadget:
    def test_example_clash_pairs(self):
        assert complementary_slot_pairs(EXAMPLE) == ((2, 8), (3, 6), (3, 7), (5, 8), (8, 11))

    def test_example_structure(self):
        model, inst, w = reduce_3sat(EXAMPLE)
        assert inst == Instance(4, 19, 2)  # 12 slots + 5 clashes + 2 committee
        assert w == (17, 18)
        assert plausible_count(model) == 3**4
        assert validation_errors(model) == []
        # clash candidates are ids 12..16 in pair order; slot s+1 is id s
        clash = {pair: 12 + i for i, pair in enumerate(complementary_slot_pairs(EXAMPLE))}
        expected = [
            [(0,), (1, clash[(2, 8)]), (2, clash[(3, 6)], clash[(3, 7)])],
            [(3,), (4, clash[(5, 8)]), (5, clash[(3, 6)])],
            [(6, clash[(3, 7)]), (7, clash[(2, 8)], clash[(5, 8)], clash[(8, 11)]), (8,)],
            [(9,), (10, clash[(8, 11)]), (11,)],
        ]
        for voter, sets in zip(model.lotteries, expected):
            assert [s for _, s in voter] == [tuple(sorted(s)) for s in sets]
            assert all(lam == Fraction(1, 3) for lam, _ in voter)

    def test_example_is_possibly_jr(self):
        model, _, w = reduce_3sat(EXAMPLE)
        assert brute_sat(EXAMPLE)
        assert is_poss_jr(model, w).answer is True

    def test_contradiction_is_not(self):
        unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
        assert not brute_sat(unsat)
        model, _, w = reduce_3sat(unsat)
        assert is_poss_jr(model, w).answer is False

    def test_odd_clause_count_rejected(self):
        with pytest.raises(InputError, match="even"):
            reduce_3sat(CnfFormula(1, ((1, 1, 1),)))

    def test_matches_satisfiability_on_small_formulas(self):
        # every two-clause formula over sign patterns of three distinct variables
        patterns = [
            tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
            for signs in itertools.product((True, False), repeat=3)
        ]
        for formula_clauses in itertools.combinations_with_replacement(patterns, 2):
            f = CnfFormula(3, formula_clauses)
            model, _, w = reduce_3sat(f)
            assert is_poss_jr(model, w).answer == brute_sat(f)
        # seeded sample of repeated-literal formulas, where contradictions exist
        rng = random.Random(55)
        literals = (1, -1, 2, -2)
        for _ in range(150):
            clauses = tuple(
                tuple(rng.choice(literals) for _ in range(3)) for _ in range(4)
            )
            f = CnfFormula(2, clauses)
            model, _, w = reduce_3sat(f)
            assert is_poss_jr(model, w).answer == brute_sat(f)

    def test_gadget_also_correct_through_joint_conversion(self):
        unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
        model, _, w = reduce_3sat(unsat)
        joint = lottery_to_joint(model)
        assert is_poss_jr(joint, w).answer is False


class TestVertexCoverGadget:
    CYCLE4 = Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
    K4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
    EDGELESS4 = Graph(4, ())

    def test_cycle_counts_seven_covers(self):
        model, inst, w = reduce_vc(self.CYCLE4)
        assert inst == Instance(4, 6, 2)
        assert w == (4, 5)
        assert jr_satisfying_count(model, w) == (7, 16)
        assert vertex_cover_count(self.CYCLE4) == 7

    def test_complete_graph(self):
        model, _, w = reduce_vc(self.K4)
        assert jr_satisfying_count(model, w) == (5, 16)
        assert vertex_cover_count(self.K4) == 5

    def test_edgeless_graph(self):
        model, _, w = reduce_vc(self.EDGELESS4)
        assert jr_satisfying_count(model, w) == (16, 16)

    def test_one_unknown_per_voter(self):
        model, inst, _ = reduce_vc(self.CYCLE4)
        half = Fraction(1, 2)
        for row in model.probs:
            assert sum(1 for p in row if p == half) == 1
        assert plausible_count(model) == 2**inst.n

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(56)
        for _ in range(40):
            n = rng.choice((2, 4, 6))
            edges = tuple(
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4
            )
            g = Graph(n, edges)
            model, _, w = reduce_vc(g)
            assert jr_satisfying_count(model, w)[0] == vertex_cover_count(g)

    def test_odd_vertex_count_rejected(self):
        with pytest.raises(InputError, match="even"):
            reduce_vc(Graph(3, ((0, 1),)))


class TestStructuredInputs:
    def test_formula_validation(self):
        with pytest.raises(InputError):
            CnfFormula(2, ((1, 2),))
        with pytest.raises(InputError):
            CnfFormula(2, ((1, 2, 0),))
        with pytest.raises(InputError):
            CnfFormula(2, ((1, 2, 3),))

    def test_graph_validation(self):
        with pytest.raises(InputError):
            Graph(2, ((0, 0),))
        with pytest.raises(InputError):
            Graph(2, ((1, 0),))
        with pytest.raises(InputError):
            Graph(2, ((0, 1), (0, 1)))


class TestGenRandom:
    def test_deterministic(self):
        for kind in ("joint", "lottery", "singleton-lottery", "cp", "3va"):
            a = gen_random(kind, 3, 3, 1, 2, seed=7)
            b = gen_random(kind, 3, 3, 1, 2, seed=7)
            assert a == b
            assert validation_errors(a) == []

    def test_degree_zero_is_certain(self):
        for kind in ("joint", "lottery", "singleton-lottery", "cp", "3va"):
            model = gen_random(kind, 3, 3, 1, 0, seed=8)
            assert plausible_count(model) == 1

    def test_infeasible_parameters(self):
        with pytest.raises(InputError):
            gen_random("3va", 2, 2, 1, 5, seed=1)
        with pytest.raises(InputError):
            gen_random("mystery", 2, 2, 1, 0, seed=1)
        with pytest.raises(InputError):
            gen_random("cp", 2, 2, 1, -1, seed=1)
