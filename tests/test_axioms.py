import random

import pytest
from hypothesis import given, settings, strategies as st

from abcu import (
    Instance,
    InputError,
    approval_profile,
    axiom_violation,
    ejr_violation,
    greedy_jr_committee,
    is_ejr,
    is_jr,
    is_pjr,
    jr_violation,
    pjr_violation,
    satisfies,
)
from oracles import BRUTE, brute_jr, random_profile, violation_holds

# the running example: 4 voters, candidates a=0 b=1 c=2, committee size 2
INST = Instance(4, 3, 2)
SPLIT = approval_profile([[0], [0], [1], [1]], INST)
BLOC = approval_profile([[0, 1]] * 4, INST)


class TestJR:
    def test_missed_quota_group(self):
        violation = jr_violation(INST, SPLIT, (0, 2))
        assert violation is not None
        assert violation.common == (1,)
        assert violation.group == (2, 3)
        assert violation_holds(INST, SPLIT, (0, 2), violation)

    def test_both_groups_covered(self):
        assert is_jr(INST, SPLIT, (0, 1))

    def test_empty_profile_always_jr(self):
        prof = approval_profile([[], [], [], []], INST)
        assert is_jr(INST, prof, (0, 1))
        assert is_ejr(INST, prof, (0, 1))

    def test_committee_size_enforced(self):
        with pytest.raises(InputError):
            jr_violation(INST, SPLIT, (0,))


class TestEJR:
    def test_bloc_needs_two_seats(self):
        violation = ejr_violation(INST, BLOC, (0, 2))
        assert violation is not None
        assert violation.ell == 2
        assert violation.common == (0, 1)
        assert violation.group == (0, 1, 2, 3)
        assert violation_holds(INST, BLOC, (0, 2), violation)

    def test_bloc_with_both_seats(self):
        assert is_ejr(INST, BLOC, (0, 1))

    def test_reduces_to_jr_for_thin_groups(self):
        # no group can afford ell >= 2 here, so EJR degenerates to JR
        inst = Instance(2, 3, 2)
        prof = approval_profile([[0], [1]], inst)
        assert is_jr(inst, prof, (0, 1))
        assert is_ejr(inst, prof, (0, 1))


class TestPJR:
    def test_bloc_union_too_small(self):
        violation = pjr_violation(INST, BLOC, (0, 2))
        assert violation is not None
        assert violation.ell == 2
        assert violation_holds(INST, BLOC, (0, 2), violation)

    def test_bloc_with_both_seats(self):
        assert is_pjr(INST, BLOC, (0, 1))


class TestGreedy:
    def test_split_profile(self):
        assert greedy_jr_committee(INST, SPLIT) == (0, 1)

    def test_empty_profile_pads(self):
        prof = approval_profile([[], [], [], []], INST)
        assert greedy_jr_committee(INST, prof) == (0, 1)

    def test_single_winner(self):
        inst = Instance(2, 2, 1)
        prof = approval_profile([[0], [0]], inst)
        assert greedy_jr_committee(inst, prof) == (0,)


# Every single-profile question, on a profile and a committee.
QUESTIONS = [
    jr_violation,
    pjr_violation,
    ejr_violation,
    is_jr,
    is_pjr,
    is_ejr,
    lambda inst, prof, w: axiom_violation(inst, prof, w, "jr"),
    lambda inst, prof, w: axiom_violation(inst, prof, w, "pjr"),
    lambda inst, prof, w: satisfies(inst, prof, w, "ejr"),
    lambda inst, prof, w: greedy_jr_committee(inst, prof),
]


class TestProfileInput:
    """The single-profile questions read a profile of ``n`` sets of ids
    in ``0..m-1`` as it is, and refuse any other with the error that
    ``approval_profile`` raises for it."""

    @pytest.mark.parametrize("prof", [
        ((0,),),                   # too few sets
        ((1,), (1,), (1,)),        # too many
        ((-1,), (-1,)),            # negative, -m..-1
        ((-3,), ()),
        ((-7,), ()),               # below -2m
        ((3,), ()),                # out of range, m..2m-1
        ((5,), ()),
        ((6,), ()),                # from 2m on
        (("a",), ()),              # not an integer
        (((0,),), ()),
        ((1.0,), ()),
    ])
    def test_malformed_profiles(self, prof):
        inst = Instance(2, 3, 1)
        with pytest.raises(InputError) as want:
            approval_profile(prof, inst)
        for ask in QUESTIONS:
            with pytest.raises(InputError) as got:
                ask(inst, prof, (0,))
            assert str(got.value) == str(want.value)

    def test_plain_profiles_as_their_canonical_forms(self):
        # Lists of unsorted ids that may repeat, and an iterator of sets.
        rng = random.Random(62)
        for _ in range(300):
            m = rng.randint(1, 6)
            inst = Instance(rng.randint(1, 7), m, rng.randint(1, m))
            w = tuple(rng.sample(range(m), inst.k))
            prof = [[rng.randrange(m) for _ in range(rng.randint(0, 6))] for _ in range(inst.n)]
            canon = approval_profile(prof, inst)
            for ask in QUESTIONS:
                want = ask(inst, canon, w)
                assert ask(inst, prof, w) == want
                assert ask(inst, iter(map(tuple, prof)), w) == want

    def test_a_repeated_id_joins_the_pjr_group(self):
        # Voter 1 approves candidate 5 twice: it is one approval, and the
        # voter belongs to the witness group.
        inst = Instance(5, 6, 2)
        prof = ((), (1, 5, 1), (5,), (0, 3, 3, 4, 2, 4), (5, 3))
        want = pjr_violation(inst, approval_profile(prof, inst), (0, 2))
        assert want.group == (1, 2, 4)
        assert pjr_violation(inst, prof, (0, 2)) == want

    def test_bool_ids_read_as_0_and_1(self):
        inst = Instance(2, 3, 1)
        for ask in QUESTIONS:
            assert ask(inst, ((True,), (1,)), (0,)) == ask(inst, ((1,), (1,)), (0,))

    def test_one_shot_sets(self):
        # Read once as they are when valid; when the read fails, they are
        # used up, so they are refused rather than read again as empty.
        inst = Instance(2, 3, 1)
        for ask in QUESTIONS:
            assert ask(inst, (iter([1]), iter([2, 1])), (0,)) == ask(inst, ((1,), (1, 2)), (0,))
            with pytest.raises(InputError, match="approval set 0 is an iterator"):
                ask(inst, (iter([1]), iter([1, 5])), (0,))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="an id in -2m..-m-1 reads as a list index, as candidate id + 2m")
    @pytest.mark.parametrize("prof", [((-4,), ()), ((-6,), ())])
    def test_ids_from_minus_2m_to_minus_m_minus_1(self, prof):
        inst = Instance(2, 3, 1)
        for ask in QUESTIONS:
            try:
                ask(inst, prof, (0,))
            except InputError:
                continue
            raise AssertionError(f"{prof} was read")


def _random_cases(count, seed, max_n=5, max_m=5, max_k=3):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        k = rng.randint(1, min(m, max_k))
        inst = Instance(n, m, k)
        prof = approval_profile(random_profile(rng, inst), inst)
        w = tuple(sorted(rng.sample(range(m), k)))
        yield inst, prof, w


class TestAgainstBruteForce:
    def test_all_axioms_match_definitions(self):
        for inst, prof, w in _random_cases(150, seed=11):
            assert is_jr(inst, prof, w) == brute_jr(inst, prof, w)
            assert is_pjr(inst, prof, w) == BRUTE["pjr"](inst, prof, w)
            assert is_ejr(inst, prof, w) == BRUTE["ejr"](inst, prof, w)

    def test_implication_chain(self):
        for inst, prof, w in _random_cases(200, seed=12):
            ejr, pjr, jr = is_ejr(inst, prof, w), is_pjr(inst, prof, w), is_jr(inst, prof, w)
            if ejr:
                assert pjr
            if pjr:
                assert jr

    def test_violations_revalidate(self):
        for inst, prof, w in _random_cases(150, seed=13):
            for finder in (jr_violation, pjr_violation, ejr_violation):
                violation = finder(inst, prof, w)
                if violation is not None:
                    assert violation_holds(inst, prof, w, violation)

    def test_greedy_always_jr(self):
        for inst, prof, _ in _random_cases(200, seed=14):
            w = greedy_jr_committee(inst, prof)
            assert len(w) == inst.k
            assert is_jr(inst, prof, w)


@st.composite
def small_election(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, m))
    inst = Instance(n, m, k)
    prof = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, m - 1))))) for _ in range(n)
    )
    w = tuple(sorted(draw(st.permutations(range(m)))[:k]))
    return inst, prof, w


@settings(max_examples=60, deadline=None)
@given(small_election())
def test_chain_property(case):
    inst, prof, w = case
    assert not (is_ejr(inst, prof, w) and not is_pjr(inst, prof, w))
    assert not (is_pjr(inst, prof, w) and not is_jr(inst, prof, w))
    assert is_jr(inst, prof, w) == brute_jr(inst, prof, w)
