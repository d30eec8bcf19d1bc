import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from abcu import (
    Instance,
    InputError,
    approval_profile,
    approval_set,
    committee,
    meets_threshold,
    min_group_size,
    parse_probability,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestInstance:
    def test_valid(self):
        inst = Instance(4, 3, 2)
        assert (inst.n, inst.m, inst.k) == (4, 3, 2)

    @pytest.mark.parametrize("n,m,k", [(0, 3, 2), (4, 0, 1), (4, 3, 0), (4, 3, 4)])
    def test_invalid(self, n, m, k):
        with pytest.raises(InputError):
            Instance(n, m, k)


class TestThreshold:
    def test_examples(self):
        assert meets_threshold(2, 1, Instance(4, 9, 2)) is True
        assert meets_threshold(3, 2, Instance(4, 9, 2)) is False
        # 2 >= 3/2 holds exactly even though 3/2 is not an integer
        assert meets_threshold(2, 1, Instance(3, 9, 2)) is True

    def test_degenerate_k_at_least_n(self):
        # quota below one voter: every nonempty group qualifies
        inst = Instance(2, 5, 4)
        assert meets_threshold(1, 1, inst)
        assert not meets_threshold(0, 1, inst)

    def test_bad_ell(self):
        with pytest.raises(InputError):
            meets_threshold(1, 0, Instance(2, 2, 1))

    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 15),
        st.integers(1, 6),
    )
    def test_monotone_in_size_antitone_in_ell(self, n, k, size, ell):
        inst = Instance(n, 12, k)
        if meets_threshold(size, ell, inst):
            assert meets_threshold(size + 1, ell, inst)
        if ell > 1 and meets_threshold(size, ell, inst):
            assert meets_threshold(size, ell - 1, inst)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 5))
    def test_min_group_size_is_tight(self, n, k, ell):
        inst = Instance(n, 12, k)
        size = min_group_size(ell, inst)
        assert meets_threshold(size, ell, inst)
        assert not meets_threshold(size - 1, ell, inst)


class TestApprovalSet:
    def test_canonicalize(self):
        assert approval_set([2, 0, 2]) == (0, 2)
        assert approval_set([]) == ()
        with pytest.raises(InputError):
            approval_set([5], m=3)
        with pytest.raises(InputError):
            approval_set([-1])

    @given(st.lists(st.integers(0, 9)), st.lists(st.integers(0, 9)))
    def test_equality_is_set_equality(self, a, b):
        ca, cb = approval_set(a), approval_set(b)
        assert (ca == cb) == (set(a) == set(b))
        assert (set(ca) <= set(cb)) == (set(a) <= set(b))

    def test_profile_length_checked(self):
        inst = Instance(2, 3, 1)
        assert approval_profile([[2, 1], []], inst) == ((1, 2), ())
        with pytest.raises(InputError):
            approval_profile([[0]], inst)

    def test_committee_size_checked(self):
        inst = Instance(2, 3, 2)
        assert committee([2, 0], inst) == (0, 2)
        with pytest.raises(InputError):
            committee([0], inst)
        assert committee([1], inst, size=1) == (1,)

    @pytest.mark.parametrize("members,bad", [
        (["x", 1, "3/2", 3], "'x'"), ([1, None, 2], "None"), ([0, [1]], "[1]"),
        ([True, "a"], "True"), (iter([2, "b", 1]), "'b'"),
    ])
    def test_unsortable_members_name_the_first_non_integer(self, members, bad):
        with pytest.raises(InputError, match=rf"^candidate id {re.escape(bad)} is not an integer$"):
            approval_set(members, 4)

    def test_unsortable_members_raise_alike_under_every_hash_seed(self):
        # Sorting a set of strings and ints fails on whichever pair the
        # hash order compares first; the error names input order instead.
        code = (
            "from abcu import Instance, lottery_model\n"
            "try:\n"
            "    lottery_model(Instance(2, 4, 1), [[(1, [0])], [(1, ['x', 1, '3/2', 3, 'y'])]])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        outputs = {
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)).stdout
            for seed in ("1", "2")
        }
        assert outputs == {"InputError candidate id 'x' is not an integer\n"}


class TestProbability:
    def test_decimal_and_fraction_agree(self):
        assert parse_probability("0.6") == Fraction(3, 5)
        assert parse_probability("1/2") == Fraction(1, 2)
        assert parse_probability(1) == 1
        assert parse_probability(Fraction(9, 50)) == Fraction(9, 50)

    def test_rejects_floats_and_out_of_range(self):
        with pytest.raises(InputError):
            parse_probability(0.6)
        with pytest.raises(InputError):
            parse_probability("3/2")
        with pytest.raises(InputError):
            parse_probability("-1/2")
        with pytest.raises(InputError):
            parse_probability("zero")
        with pytest.raises(InputError):
            parse_probability(True)

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=50),
        st.fractions(min_value=0, max_value=1, max_denominator=50),
    )
    def test_arithmetic_is_exact_and_closed(self, a, b):
        assert a * b == Fraction(a.numerator * b.numerator, a.denominator * b.denominator)
        assert 0 <= a * b <= 1
        total = a + b
        assert total == Fraction(
            a.numerator * b.denominator + b.numerator * a.denominator,
            a.denominator * b.denominator,
        )
