"""Differential tests for the per-distinct-value passes over documents.

A matrix model classifies its entries once (``codes``: one byte per
entry, 0, ``FORCED`` or ``FREE``) and derives every matrix view from
it.  These tests compare every view with the views built as before,
from rows classified entry by entry (``oracles.reference_matrix_views``),
on parsed and hand-built matrices of int and ``Fraction`` entries,
shared and unshared objects, out-of-range hand-built entries, widths
m = 1, 8, 9 and 17, single rows, all-zero rows and all-free rows.

A Lottery model is validated in whole-model passes, per distinct
probability object and per distinct tuple of a voter's probabilities,
and read voter by voter only when that pass refuses.  These tests pin
that the errors are the per-voter loop's on lotteries with one defect
each: a sum that is off, a duplicate set, a zero, negative, float or
string probability, an empty voter, a wrong voter count.

The writer type-checks each approval-set object once per depth, by
identity, and a conversion to a lottery shares one ``Fraction`` per
distinct weight and denominator; both are pinned against their plain
forms.
"""

import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest

from abcu import (
    CandidateProbModel,
    InputError,
    Instance,
    LotteryModel,
    cp_model,
    cp_to_lottery,
    exists_nec_jr,
    lottery_model,
    tva_model,
    tva_to_cp,
    validation_errors,
)
from abcu.decide import POLY
from abcu.io import _dumps, document_for, emit_document, parse_document
from abcu.uncertainty import FORCED, FREE, _lotteries_ok, _lottery_errors
from oracles import (
    reference_all_interior,
    reference_cp_to_lottery,
    reference_matrix_views,
    reference_split_row,
)

VIEWS = ("split_rows", "columns", "row_words", "column_products", "profile_count", "first")
WIDTHS = (1, 8, 9, 17)
RAW = ("0", "1", 0, 1, "1/2", "1/3", "2/3", "3/4", "0.25", "2/4", "5/6")


def _reference_codes(model):
    codes = bytearray()
    for row in model.probs:
        forced, free = reference_split_row(row)
        line = bytearray(len(row))
        for c in forced:
            line[c] = FORCED
        for c, _, _ in free:
            line[c] = FREE
        codes += line
    return bytes(codes)


def _assert_views(model):
    want = reference_matrix_views(model)
    assert model.codes == _reference_codes(model)
    for name in VIEWS:
        assert getattr(model, name) == want[name], name


def _raw_rows(rng, n, m, shape):
    if shape == "zero":
        return [[rng.choice((0, "0"))] * m for _ in range(n)]
    if shape == "free":
        return [[rng.choice(RAW[4:]) for _ in range(m)] for _ in range(n)]
    return [[rng.choice(RAW) for _ in range(m)] for _ in range(n)]


def _random_raw(rng):
    m = rng.choice(WIDTHS)
    n = rng.choice((1, 2, 5, 13))
    shape = rng.choice(("mixed", "mixed", "zero", "free"))
    rows = _raw_rows(rng, n, m, shape)
    if shape == "mixed" and n > 1:
        rows[0] = [0] * m  # an all-zero row
        rows[-1] = [rng.choice(RAW[4:]) for _ in range(m)]  # an all-free row
    return Instance(n, m, rng.randint(1, m)), rows


class TestMatrixViews:
    def test_parsed_matrices(self):
        rng = random.Random(2901)
        for _ in range(120):
            inst, rows = _random_raw(rng)
            model = cp_model(inst, rows)
            _assert_views(model)
            parsed = parse_document(emit_document(document_for(model))).model
            _assert_views(parsed)
            # Every raw value, int or string, is classified through the memo.
            assert "codes" in vars(model) and "codes" in vars(parsed)

    def test_three_valued_matrices(self):
        rng = random.Random(2902)
        for _ in range(60):
            m = rng.choice(WIDTHS)
            n = rng.choice((1, 3, 9))
            rows = [[rng.choice((0, 1, "0", "1", "1/2", "2/4")) for _ in range(m)] for _ in range(n)]
            model = tva_model(Instance(n, m, 1), rows)
            _assert_views(model)
            cp = tva_to_cp(model)
            assert cp.codes is model.codes
            _assert_views(cp)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
    def test_hand_built_matrices(self, shared):
        rng = random.Random(2903 + shared)
        pool = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), 0, 1]
        for _ in range(120):
            inst, _ = _random_raw(rng)
            if shared:
                rows = tuple(tuple(rng.choice(pool) for _ in range(inst.m)) for _ in range(inst.n))
            else:
                # A fresh object per entry, equal values included.
                rows = tuple(tuple(Fraction(rng.choice((0, 1, 1, 2, 3)), 3) for _ in range(inst.m))
                             for _ in range(inst.n))
            for three_valued in (False, True):
                model = CandidateProbModel(inst, rows, three_valued)
                _assert_views(model)
                _assert_views(tva_to_cp(model))

    def test_constructors_of_fraction_and_mixed_entries(self):
        rng = random.Random(2905)
        half, one = Fraction(1, 2), Fraction(1)
        for _ in range(60):
            inst, _ = _random_raw(rng)
            fractions = [[rng.choice((half, one, Fraction(0), Fraction(2, 5))) for _ in range(inst.m)]
                         for _ in range(inst.n)]
            mixed = [[rng.choice((half, "1/3", 1, 0)) for _ in range(inst.m)] for _ in range(inst.n)]
            for rows in (fractions, mixed):
                _assert_views(cp_model(inst, rows))

    def test_out_of_range_hand_built_entries(self):
        rng = random.Random(2906)
        odd = (Fraction(3, 2), Fraction(-1, 2), 2, -1, Fraction(-3), Fraction(7, 7))
        for _ in range(60):
            inst, _ = _random_raw(rng)
            rows = tuple(tuple(rng.choice(odd + (Fraction(1, 2), 0, 1)) for _ in range(inst.m))
                         for _ in range(inst.n))
            model = CandidateProbModel(inst, rows)
            _assert_views(model)
        row = (Fraction(3, 2), Fraction(-1, 2), 2, Fraction(1), Fraction(0))
        model = CandidateProbModel(Instance(1, 5, 1), (row,))
        assert model.codes == bytes((FREE, FREE, FREE, FORCED, 0))

    def test_views_are_invisible(self):
        model = cp_model(Instance(3, 9, 2), [["1/2"] * 9, [1] * 9, [0] * 8 + ["1/3"]])
        before = (model, hash(model), repr(model), pickle.dumps(model))
        for name in VIEWS:
            getattr(model, name)
        assert (model, hash(model), repr(model), pickle.dumps(model)) == before
        thawed = pickle.loads(pickle.dumps(model))
        assert "codes" not in vars(thawed)
        _assert_views(thawed)

    def test_all_interior_shortcut_is_a_count(self):
        rng = random.Random(2907)
        for _ in range(80):
            m = rng.choice((1, 2, 3, 4))
            n = rng.choice((1, 2, 4))
            rows = [[rng.choice(("1/2", "1/3", "2/3") if rng.random() < 0.8 else (0, 1))
                     for _ in range(m)] for _ in range(n)]
            model = cp_model(Instance(n, m, rng.randint(1, m)), rows)
            result = exists_nec_jr(model)
            if reference_all_interior(model):
                assert result.method == POLY
                assert result.answer == (model.instance.k == m)


# ---------------------------------------------------------------------------
# lottery validation


def _lottery(rng, n, m):
    voters = []
    for _ in range(n):
        size = rng.randint(1, min(4, 2 ** m))
        sets = rng.sample([s for r in range(m + 1) for s in itertools.combinations(range(m), r)],
                          size)
        weights = [rng.randint(1, 3) for _ in sets]
        total = sum(weights)
        voters.append([(f"{w}/{total}", s) for w, s in zip(weights, sets)])
    return lottery_model(Instance(n, m, 1), voters)


def _edited(model, i, voter=None, lotteries=None):
    """``model`` with voter ``i`` replaced, or with other lotteries."""
    if lotteries is None:
        lotteries = model.lotteries[:i] + (tuple(voter),) + model.lotteries[i + 1:]
    return LotteryModel(model.instance, lotteries)


MUTATIONS = {
    "sum": lambda voter: [(Fraction(1, 97), voter[0][1])] + list(voter[1:]),
    "duplicate": lambda voter: [(voter[0][0] / 2, voter[0][1])] * 2 + list(voter[1:]),
    "zero": lambda voter: [(Fraction(0), voter[0][1])] + list(voter[1:]),
    "negative": lambda voter: [(-voter[0][0], voter[0][1])] + list(voter[1:]),
    "float": lambda voter: [(float(voter[0][0]), voter[0][1])] + list(voter[1:]),
    "string": lambda voter: [(str(voter[0][0]), voter[0][1])] + list(voter[1:]),
    "empty": lambda voter: [],
    "int": lambda voter: [(1, voter[0][1])],
}


def _loop(model, check_sets):
    errors = []
    _lottery_errors(model, check_sets, errors)
    return errors


class TestLotteryValidation:
    def test_valid_lotteries_pass_in_bulk(self):
        rng = random.Random(2910)
        for _ in range(60):
            model = _lottery(rng, rng.randint(1, 12), rng.randint(1, 4))
            for check_sets in (False, True):
                assert _lotteries_ok(model, check_sets)
                assert _loop(model, check_sets) == []

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_a_defect_gives_the_loop_errors(self, mutation):
        rng = random.Random(2911)
        for _ in range(40):
            model = _lottery(rng, rng.randint(1, 12), rng.randint(1, 4))
            i = rng.randrange(model.instance.n)
            edited = _edited(model, i, MUTATIONS[mutation](model.lotteries[i]))
            want = _loop(edited, True)
            assert validation_errors(edited) == want
            if want:
                assert not _lotteries_ok(edited, True) and not _lotteries_ok(edited, False)
                assert any(f"voter {i}" in e for e in want)
            else:  # an int probability of 1 is valid, though not in bulk
                assert mutation == "int"

    def test_a_wrong_voter_count(self):
        rng = random.Random(2912)
        model = _lottery(rng, 6, 3)
        for lotteries in (model.lotteries[:-1], model.lotteries + model.lotteries[:1]):
            edited = _edited(model, 0, lotteries=lotteries)
            assert not _lotteries_ok(edited, False)
            assert validation_errors(edited) == _loop(edited, True)
            assert validation_errors(edited)[0].endswith("voter distributions, expected n=6")

    def test_shared_probability_tuples_are_each_summed(self):
        # Voters 0 and 2 share their probability objects; only voter 2's
        # sum is off, so the bulk pass must not settle it by voter 0.
        third, two_thirds = Fraction(1, 3), Fraction(2, 3)
        inst = Instance(3, 2, 1)
        good = ((third, (0,)), (two_thirds, (1,)))
        model = LotteryModel(inst, (good, ((Fraction(1), ()),), good[:1] + ((third, (1,)),)))
        assert validation_errors(model) == _loop(model, True) == [
            "voter 2: set probabilities sum to 2/3, expected 1"]

    def test_unhashable_and_odd_sets_go_to_the_loop(self):
        inst = Instance(2, 2, 1)
        one = Fraction(1)
        for voters in ((((one, [0]),), ((one, ()),)), (((one, (1, 0)),), ((one, (5,)),))):
            model = LotteryModel(inst, voters)
            assert not _lotteries_ok(model, True)
            assert validation_errors(model) == _loop(model, True) != []

    def test_documents(self):
        rng = random.Random(2913)
        model = _lottery(rng, 40, 4)
        data = json.loads(emit_document(document_for(model)))
        voters = data["model"]["voters"]
        voters[20] = [{"prob": "1/97", "set": voters[20][0]["set"]}] + voters[20][1:]
        with pytest.raises(InputError) as exc:
            parse_document(json.dumps(data))
        assert "voter 20: set probabilities sum to" in str(exc.value)


# ---------------------------------------------------------------------------
# conversion and writing


class TestConversionAndWriter:
    def test_cp_to_lottery_shares_its_fractions(self):
        rng = random.Random(2920)
        for _ in range(30):
            inst, rows = _random_raw(rng)
            if inst.m > 9:
                continue
            model = cp_model(inst, rows)
            lottery = cp_to_lottery(model)
            assert lottery == reference_cp_to_lottery(model)
            by_pair = {}
            for (den, table), voter in zip(model.tables, lottery.lotteries):
                for (_, wt), (lam, _) in zip(table, voter):
                    assert by_pair.setdefault((wt, den), lam) is lam
            assert emit_document(document_for(lottery)) == emit_document(
                document_for(reference_cp_to_lottery(model)))

    def test_recurring_set_objects_and_booleans(self):
        s, t = (0, 1), (1,)
        value = {"a": [[s, t], [s, (True,)], [t, s], [(1,), (True,), (False, 1)]],
                 "b": [(s, t), (t, (True,))], "c": [[s], [t]]}
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)
