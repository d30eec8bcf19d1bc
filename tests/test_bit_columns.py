"""Single-profile checks and matrix JR witnesses on bit columns: the set
bits of a voter bitset, the EJR/PJR checks on the voters split by
committee part (PJR only where EJR fails), and the matrix JR witnesses
decoded from the row words, each against a reference."""

import random
from fractions import Fraction

import pytest

from abcu import (
    Instance,
    cp_model,
    ejr_violation,
    is_nec_jr,
    is_poss_jr,
    pjr_violation,
    profile_probability,
    tva_model,
)
from abcu.axioms import Violation, _voters
from oracles import (
    reference_ejr_violation,
    reference_nec_jr_matrix,
    reference_pjr_violation,
    reference_poss_jr_matrix,
)


def _reference_voters(bits):
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


class TestVoters:
    def test_edges(self):
        assert _voters(0) == ()
        assert _voters(1) == (0,)
        for k in (1, 2, 7, 8, 9, 63, 64, 65, 3000):
            assert _voters((1 << k) - 1) == tuple(range(k))
            assert _voters(1 << k) == (k,)

    def test_random(self):
        rng = random.Random(3)
        for _ in range(300):
            bits = rng.getrandbits(rng.randint(1, 3000))
            assert _voters(bits) == _reference_voters(bits)
        for density in (0.01, 0.5, 0.99):
            bits = sum(1 << i for i in range(3000) if rng.random() < density)
            assert _voters(bits) == _reference_voters(bits)


def _profile(rng, n, m, density, w=()):
    """Each voter approves a member of ``w`` with probability ``density / 3``
    and any other candidate with probability ``density``."""
    odds = [density / 3 if c in w else density for c in range(m)]
    return tuple(tuple(c for c in range(m) if rng.random() < odds[c]) for _ in range(n))


class TestEjrOnColumns:
    @pytest.mark.parametrize("n", [63, 64, 65, 200, 400])
    def test_matches_reference(self, n):
        rng = random.Random(n)
        found = set()
        for _ in range(12):
            m, k = rng.randint(5, 9), rng.randint(2, 4)
            inst = Instance(n, m, k)
            w = tuple(sorted(rng.sample(range(m), k)))
            prof = _profile(rng, n, m, rng.choice((0.4, 0.6, 0.8, 0.9)), w)
            got = ejr_violation(inst, prof, w)
            assert got == reference_ejr_violation(inst, prof, frozenset(w))
            found.add(None if got is None else got.ell)
        assert None in found and len(found) > 1


class TestPjrAfterEjr:
    def test_matches_reference(self):
        rng = random.Random(5)
        levels = set()
        for _ in range(300):
            n, m = rng.randint(1, 10), rng.randint(1, 6)
            k = rng.randint(1, m)
            inst = Instance(n, m, k)
            prof = _profile(rng, n, m, rng.choice((0.3, 0.5, 0.7)))
            w = tuple(sorted(rng.sample(range(m), k)))
            got = pjr_violation(inst, prof, w)
            assert got == reference_pjr_violation(inst, prof, frozenset(w))
            levels.add(None if got is None else got.ell)
        assert {None, 1, 2} <= levels

    def test_ejr_fails_where_pjr_holds(self):
        # Every voter approves 0 and 1 and one member of W = {2, 3}: each
        # has one member, short of level 2, but together they have both.
        inst = Instance(4, 4, 2)
        prof = ((0, 1, 2), (0, 1, 2), (0, 1, 3), (0, 1, 3))
        w = (2, 3)
        assert ejr_violation(inst, prof, w) == Violation("ejr", 2, (0, 1, 2, 3), (0, 1))
        assert pjr_violation(inst, prof, w) is None
        assert reference_pjr_violation(inst, prof, frozenset(w)) is None

    def test_pjr_fails_above_the_ejr_level(self):
        # Six voters approve 0, 1 and 2; voters 0-2 also approve member 3
        # and voters 3-5 member 4.  EJR fails at level 2 (quota 4), and
        # every 4 of them see both members, so PJR first fails at level 3,
        # where all six see only two of W = {3, 4, 5}.
        inst = Instance(6, 6, 3)
        prof = ((0, 1, 2, 3),) * 3 + ((0, 1, 2, 4),) * 3
        w = (3, 4, 5)
        ejr = ejr_violation(inst, prof, w)
        pjr = pjr_violation(inst, prof, w)
        assert ejr == Violation("ejr", 2, tuple(range(6)), (0, 1))
        assert pjr == Violation("pjr", 3, tuple(range(6)), (0, 1, 2))
        assert pjr == reference_pjr_violation(inst, prof, frozenset(w))


def _matrix(rng, kind, inst, free_rows):
    """A cp or 3va model whose rows mix forced, free and zero entries;
    rows outside ``free_rows`` have no free entry."""
    free = ["1/2"] if kind == "3va" else ["1/3", "1/2", "3/4"]
    rows = []
    for i in range(inst.n):
        values = ["0", "1"] + (free if i in free_rows else [])
        rows.append([rng.choice(values) for _ in range(inst.m)])
    return (cp_model if kind == "cp" else tva_model)(inst, rows)


class TestMatrixWitnessOnMasks:
    @pytest.mark.parametrize("kind", ["cp", "3va"])
    @pytest.mark.parametrize("m", [1, 8, 9, 16, 17, 24])
    def test_touched_voters_only(self, kind, m):
        rng = random.Random(m)
        answers = set()
        for n in (1, 2, 5, 30):
            for _ in range(6):
                k = rng.randint(1, m)
                inst = Instance(n, m, k)
                model = _matrix(rng, kind, inst, set(rng.sample(range(n), rng.randint(0, n))))
                w = tuple(sorted(rng.sample(range(m), k)))
                got = is_poss_jr(model, w)
                assert got == reference_poss_jr_matrix(model, w)
                assert is_nec_jr(model, w) == reference_nec_jr_matrix(model, w)
                answers.add(got.answer)
                if not got.answer:
                    continue
                prof = got.witness_profile.profile
                for i, s in enumerate(prof):
                    row = model.probs[i]
                    forced = {c for c, p in enumerate(row) if p == 1}
                    free = {c for c, p in enumerate(row) if 0 < p < 1}
                    assert s == tuple(sorted(forced | free & set(w)))
                assert got.witness_profile.prob == profile_probability(model, prof)
        assert True in answers

    @pytest.mark.parametrize("kind", ["cp", "3va"])
    def test_committee_without_free_entries(self, kind):
        # The free entries all lie outside W, so no voter is touched and
        # the witness is the first profile, forced approvals alone.
        inst = Instance(3, 9, 2)
        free = "1/2" if kind == "3va" else "2/5"
        rows = [["1", "0"] + [free] * 6 + ["1"], ["0", "1"] + [free] * 7, ["1", "1"] + ["0"] * 7]
        model = (cp_model if kind == "cp" else tva_model)(inst, rows)
        got = is_poss_jr(model, (0, 1))
        assert got.answer
        assert got.witness_profile.profile == ((0, 8), (1,), (0, 1))
        p = Fraction(1, 2) if kind == "3va" else Fraction(3, 5)
        assert got.witness_profile.prob == p ** 13
        assert got == reference_poss_jr_matrix(model, (0, 1))
