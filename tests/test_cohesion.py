"""Differential tests for the bitmask PJR/EJR level tests: witnesses
against the frozenset checkers that brute-force voter groups, scan
predicates against the definitions, one-pass scans against per-committee
probabilities, and dense PJR checks that the brute force cannot finish."""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from abcu import (
    Instance,
    axiom_probability,
    cp_model,
    ejr_violation,
    gen_random,
    is_pjr,
    max_axiom,
    pjr_violation,
    profile_probability,
    tva_model,
)
from abcu.axioms import Violation
from abcu.cli import main
from oracles import (
    BRUTE,
    _satisfaction_test,
    brute_pjr,
    reference_ejr_violation,
    reference_pjr_violation,
    reference_profile_probability,
    subset_pjr,
    violation_holds,
)

FINDERS = {
    "pjr": (pjr_violation, reference_pjr_violation),
    "ejr": (ejr_violation, reference_ejr_violation),
}


def _random_case(rng, max_n, max_m, max_k):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    k = rng.randint(1, min(max_k, m))
    density = rng.random()
    prof = tuple(
        tuple(c for c in range(m) if rng.random() < density) for _ in range(n)
    )
    return Instance(n, m, k), prof, tuple(sorted(rng.sample(range(m), k)))


def _clustered_case(rng, max_n, max_m, max_k):
    """Voters cluster on a few popular candidates and the committee is
    drawn from the others first, so violations at every level abound."""
    n = rng.randint(2, max_n)
    m = rng.randint(2, max_m)
    k = rng.randint(1, min(max_k, m))
    popular = rng.sample(range(m), rng.randint(1, m))
    prof = tuple(
        tuple(sorted({c for c in popular if rng.random() < 0.8}
                     | {c for c in range(m) if rng.random() < 0.15}))
        for _ in range(n)
    )
    others = [c for c in range(m) if c not in popular]
    rng.shuffle(others)
    w = tuple(sorted((others + rng.sample(popular, len(popular)))[:k]))
    return Instance(n, m, k), prof, w


def _cases(seed, count, max_n=12, max_m=8, max_k=5):
    rng = random.Random(seed)
    for j in range(count):
        make = _clustered_case if j % 2 else _random_case
        yield make(rng, max_n, max_m, max_k)


class TestWitnesses:
    @pytest.mark.parametrize("axiom", ["pjr", "ejr"])
    def test_equal_to_voter_group_brute_force(self, axiom):
        find, reference = FINDERS[axiom]
        levels = set()
        for inst, prof, w in _cases(11, 3000):
            got = find(inst, prof, w)
            assert got == reference(inst, prof, frozenset(w))
            if got is not None:
                levels.add(got.ell)
                assert violation_holds(inst, prof, w, got)
        assert {1, 2, 3, 4} <= levels

    def test_pjr_group_skips_a_voter_that_breaks_every_s(self):
        # No voter is disjoint from W, so level 1 holds.  At level 2 the
        # quota is 4: voters 0, 2, 3 and 4 approve {0, 1} and meet W only
        # in {3}; voter 1 would add member 4 and is skipped.
        inst = Instance(6, 6, 3)
        prof = ((0, 1, 3), (0, 1, 4), (0, 1, 3), (0, 1, 3), (0, 1, 3), (0, 1, 4))
        w = (3, 4, 5)
        want = Violation("pjr", 2, (0, 2, 3, 4), (0, 1))
        assert pjr_violation(inst, prof, w) == want
        assert reference_pjr_violation(inst, prof, frozenset(w)) == want


class TestScanPredicates:
    @pytest.mark.parametrize("axiom", ["pjr", "ejr"])
    def test_equal_to_definitions(self, axiom):
        failing = 0
        for inst, prof, w in _cases(23, 600, max_n=8, max_m=6, max_k=4):
            holds = _satisfaction_test(inst, frozenset(w), axiom)(prof)
            assert holds == BRUTE[axiom](inst, prof, w)
            failing += not holds
        assert failing > 50

    def test_subset_oracle_equals_brute_pjr(self):
        for inst, prof, w in _cases(29, 400, max_n=8, max_m=6, max_k=4):
            assert subset_pjr(inst, prof, w) == brute_pjr(inst, prof, w)


class TestOnePassScans:
    @pytest.mark.parametrize("axiom", ["pjr", "ejr"])
    def test_max_equals_per_committee_probabilities(self, axiom):
        rng = random.Random(5)
        for j in range(12):
            kind = ("cp", "3va", "lottery", "joint")[j % 4]
            n, m = rng.randint(3, 5), rng.randint(3, 5)
            model = gen_random(kind, n, m, rng.randint(1, m), 4, seed=900 + j)
            inst = model.instance
            committees = list(itertools.combinations(range(inst.m), inst.k))
            values = [
                axiom_probability(model, w, axiom, force_enumeration=True).value
                for w in committees
            ]
            got = max_axiom(model, axiom, force_enumeration=True)
            best = max(values)
            assert got.value == best
            assert got.committee == committees[values.index(best)]
            assert got.ties == values.count(best)


def _dense_profile(n, seed):
    """Every voter approves candidate 7 and each other candidate with
    probability 0.8."""
    rng = random.Random(seed)
    return tuple(
        tuple(sorted({c for c in range(8) if rng.random() < 0.8} | {7}))
        for _ in range(n)
    )


class TestDensePjr:
    @pytest.mark.parametrize("n", [30, 200])
    def test_polynomial_in_n(self, n):
        inst = Instance(n, 8, 4)
        w = (0, 1, 2, 3)
        for seed in range(3):
            prof = _dense_profile(n, seed)
            start = time.perf_counter()
            got = is_pjr(inst, prof, w)
            assert time.perf_counter() - start < 1.0
            assert got == subset_pjr(inst, prof, w)

    @pytest.mark.parametrize("n", [30, 200])
    def test_level_two_witness(self, n):
        # Every voter approves 6, 7 and one committee member, member 0
        # for about 60% of them, so level 1 holds and level 2 fails.
        rng = random.Random(n)
        prof = tuple(
            (0 if rng.random() < 0.6 else rng.randint(1, 3), 6, 7) for _ in range(n)
        )
        inst = Instance(n, 8, 4)
        w = (0, 1, 2, 3)
        start = time.perf_counter()
        got = pjr_violation(inst, prof, w)
        assert time.perf_counter() - start < 1.0
        assert got.ell == 2 and violation_holds(inst, prof, w, got)
        assert not subset_pjr(inst, prof, w)

    def test_cli_check_on_thirty_voters(self, capsys, tmp_path):
        prof = _dense_profile(30, 0)
        doc = tmp_path / "dense.json"
        doc.write_text(json.dumps({
            "format": "abcu/1",
            "instance": {"voters": 30, "candidates": 8, "committee_size": 4},
            "model": {"kind": "joint", "entries": [{"prob": 1, "profile": prof}]},
            "committee": [0, 1, 2, 3],
        }))
        assert main(["check", "pjr", str(doc)]) == 0
        want = subset_pjr(Instance(30, 8, 4), prof, (0, 1, 2, 3))
        assert ("satisfied: yes" if want else "satisfied: no") in capsys.readouterr().out


class TestProfileProbability:
    def test_equals_per_entry_fraction_product(self):
        rng = random.Random(17)
        values = ("0", "1", "1/2", "1/3", "2/5", "5/7")
        for j in range(200):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            inst = Instance(n, m, rng.randint(1, m))
            if j % 2:
                model = tva_model(inst, [[rng.choice(("0", "1", "1/2")) for _ in range(m)]
                                         for _ in range(n)])
            else:
                model = cp_model(inst, [[rng.choice(values) for _ in range(m)]
                                        for _ in range(n)])
            for _ in range(6):
                # Arbitrary profiles, implausible ones included.
                prof = [[c for c in range(m) if rng.random() < 0.5] for _ in range(n)]
                got = profile_probability(model, prof)
                assert got == reference_profile_probability(model, prof)
                assert isinstance(got, Fraction)
