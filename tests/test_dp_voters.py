"""Differential and contract tests for the JR voter DP (``dp-voters``).

The DP must equal forced enumeration and the brute-force oracle on
Lottery, CandidateProb and ThreeValued models, keep the budget gate of
the enumeration it replaces, and answer models far past the reach of
enumeration.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    Graph,
    Instance,
    axiom_probability,
    cp_model,
    jr_probability,
    jr_satisfying_count,
    lottery_model,
    max_axiom,
    plausible_count,
    reduce_vc,
    tva_model,
)
from abcu.probability import _jr_dp
from oracles import prob_oracle, vertex_cover_count

CP_VALUES = ("0", "1", "1/3", "2/5", "1/2", "3/4", "5/6")
TVA_VALUES = ("0", "1", "1/2")


def _matrix_rows(rng, n, m, values, free_share):
    """Rows of certain entries with about ``free_share`` of them drawn
    from ``values``; the first row, when there are two or more, stays
    certain."""
    rows = []
    for i in range(n):
        row = []
        for _ in range(m):
            if i > 0 and rng.random() < free_share:
                row.append(rng.choice(values))
            else:
                row.append("1" if rng.random() < 0.4 else "0")
        rows.append(row)
    if n > 1:
        rows[0] = ["0"] * m  # a voter who approves nothing
    return rows


def _lottery(rng, inst):
    """Per-voter distributions over distinct sets, the empty set among
    them now and then, with mixed denominators."""
    voters = []
    for _ in range(inst.n):
        size = rng.randint(1, min(4, 2**inst.m))
        sets = set()
        if rng.random() < 0.4:
            sets.add(())
        while len(sets) < size:
            sets.add(tuple(c for c in range(inst.m) if rng.random() < 0.4))
        sets = sorted(sets)
        den = rng.choice((len(sets), 2 * len(sets), 7 * len(sets)))
        cuts = sorted(rng.sample(range(1, den), len(sets) - 1))
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        voters.append([(Fraction(wt, den), s) for wt, s in zip(weights, sets)])
    return lottery_model(inst, voters)


def _random_model(rng, kind, n, m, k, most=2**8):
    """A random model with at most ``most`` plausible profiles, so that
    the oracle can enumerate it."""
    inst = Instance(n, m, k)
    while True:
        if kind == "lottery":
            model = _lottery(rng, inst)
        else:
            values = CP_VALUES if kind == "cp" else TVA_VALUES
            rows = _matrix_rows(rng, n, m, values, rng.choice((0.2, 0.4, 0.7)))
            model = (cp_model if kind == "cp" else tva_model)(inst, rows)
        if plausible_count(model) <= most:
            return model


def _shapes(rng, count):
    """``(n, m, k)`` triples with k = 1, k >= n and single voters among them."""
    fixed = [(1, 3, 1), (1, 4, 2), (3, 4, 3), (2, 5, 4), (5, 4, 1), (4, 4, 4), (6, 5, 2)]
    yield from fixed
    for _ in range(count - len(fixed)):
        m = rng.randint(1, 6)
        yield rng.randint(1, 7), m, rng.randint(1, m)


class TestDifferential:
    @pytest.mark.parametrize("kind", ["lottery", "cp", "3va"])
    def test_equals_enumeration_and_oracle(self, kind):
        rng = random.Random({"lottery": 71, "cp": 72, "3va": 73}[kind])
        dp_used = 0
        for n, m, k in _shapes(rng, 150):
            model = _random_model(rng, kind, n, m, k)
            for w in itertools.combinations(range(m), k):
                forced = jr_probability(model, w, force_enumeration=True)
                got = jr_probability(model, w)
                assert _jr_dp(model, w) == forced.value == prob_oracle(model, w), (model, w)
                assert (got.value, got.counts) == (forced.value, forced.counts)
                assert axiom_probability(model, w, "jr") == got
                dp_used += got.method == "dp-voters"
        assert dp_used >= 100

    def test_three_valued_counts(self):
        rng = random.Random(74)
        for n, m, k in _shapes(rng, 80):
            model = _random_model(rng, "3va", n, m, k)
            for w in itertools.combinations(range(m), k):
                satisfying, total = jr_satisfying_count(model, w)
                assert total == plausible_count(model)
                want = jr_probability(model, w, force_enumeration=True).counts
                assert (satisfying, total) == want

    def test_forced_approval_in_committee_is_represented(self):
        # Voter 0 approves committee member 0 for sure, so only voter 1
        # can form a group; with k = 1 the quota is n = 2.
        inst = Instance(2, 3, 1)
        model = cp_model(inst, [["1", "1/3", "2/3"], ["0", "1/2", "1/2"]])
        result = jr_probability(model, (0,))
        assert result.method == "dp-voters"
        assert result.value == 1 == prob_oracle(model, (0,))
        # Dropping the certainty of voter 0's approval of 0 opens groups.
        model = cp_model(inst, [["1/4", "1/3", "2/3"], ["0", "1/2", "1/2"]])
        assert jr_probability(model, (0,)).value == prob_oracle(model, (0,))

    def test_forced_outside_approvals_reach_the_quota(self):
        # Three unrepresented voters certainly approve 2; the quota is 3.
        inst = Instance(3, 3, 1)
        model = cp_model(inst, [["1/2", "0", "1"]] * 3)
        result = jr_probability(model, (0,))
        assert result.method == "dp-voters"
        assert result.value == prob_oracle(model, (0,)) == 1 - Fraction(1, 8)

    def test_lottery_with_the_empty_set(self):
        inst = Instance(2, 3, 1)
        model = lottery_model(inst, [
            [("1/3", []), ("2/3", [1, 2])],
            [("1/5", []), ("3/5", [2]), ("1/5", [0])],
        ])
        for w in ((0,), (1,), (2,)):
            result = jr_probability(model, w)
            assert result.method == "dp-voters"
            assert result.value == prob_oracle(model, w)

    def test_max_axiom_equals_forced(self):
        rng = random.Random(75)
        for i in range(24):
            kind = ("lottery", "cp", "3va")[i % 3]
            m = rng.randint(2, 5)
            model = _random_model(rng, kind, rng.randint(2, 5), m, rng.randint(1, m))
            assert max_axiom(model, "jr") == max_axiom(model, "jr", force_enumeration=True)


class TestVertexCoverGadget:
    def test_counts_equal_brute_force(self):
        rng = random.Random(76)
        for n in (2, 4, 4, 6, 6, 8, 8, 10):
            edges = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35)
            graph = Graph(n, edges)
            model, _, w = reduce_vc(graph)
            assert jr_probability(model, w).method == "dp-voters"
            assert jr_satisfying_count(model, w) == (vertex_cover_count(graph), 2**n)


def _interior_cp(rng, n, m, interior):
    rows = [["1" if rng.random() < 0.4 else "0" for _ in range(m)] for _ in range(n)]
    for i, c in rng.sample([(i, c) for i in range(n) for c in range(m)], interior):
        rows[i][c] = "2/5"
    return rows


class TestBudgetContract:
    def test_default_budget_names_profile_count(self):
        model = cp_model(Instance(8, 8, 4), _interior_cp(random.Random(3), 8, 8, 24))
        for force in (False, True):
            with pytest.raises(BudgetError) as exc:
                jr_probability(model, (0, 1, 2, 3), force_enumeration=force)
            assert (exc.value.count, exc.value.budget) == (2**24, 2**20)

    def test_small_budget(self):
        model = tva_model(Instance(2, 3, 1), [["1/2"] * 3] * 2)
        with pytest.raises(BudgetError) as exc:
            jr_probability(model, (0,), budget=8)
        assert (exc.value.count, exc.value.budget) == (64, 8)
        assert jr_probability(model, (0,), budget=64).method == "dp-voters"

    def test_max_axiom_admits_what_its_check_admits(self):
        model = cp_model(Instance(4, 4, 2), _interior_cp(random.Random(5), 4, 4, 6))
        cap = math.comb(4, 2) * plausible_count(model)
        got = max_axiom(model, "jr", budget=cap)
        assert got == max_axiom(model, "jr", force_enumeration=True, budget=cap)
        with pytest.raises(BudgetError) as exc:
            max_axiom(model, "jr", budget=cap - 1)
        assert exc.value.count == cap


class TestScale:
    def _ladder_model(self, u):
        rng = random.Random(9)
        n = m = 8
        base = [["1" if rng.random() < 0.4 else "0" for _ in range(m)] for _ in range(n)]
        cells = rng.sample([(i, c) for i in range(n) for c in range(m)], n * m)
        rows = [list(row) for row in base]
        for i, c in cells[:u]:
            rows[i][c] = rng.choice(("1/3", "2/5", "3/4", "5/7"))
        return cp_model(Instance(n, m, 4), rows)

    def test_all_interior_8x8_in_under_a_second(self):
        model = self._ladder_model(64)
        assert plausible_count(model) == 2**64
        start = time.perf_counter()
        result = jr_probability(model, (0, 1, 2, 3), budget=2**64)
        assert time.perf_counter() - start < 1.0
        assert result.method == "dp-voters"
        assert 0 <= result.value <= 1

    @pytest.mark.parametrize("u", [4, 8, 16])
    def test_ladder_steps_equal_forced_enumeration(self, u):
        model = self._ladder_model(u)
        w = (0, 1, 2, 3)
        got = jr_probability(model, w, budget=2**64)
        assert got.value == jr_probability(model, w, force_enumeration=True).value
