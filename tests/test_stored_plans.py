"""The scan plan stored on a model of independent voters.

A Lottery, CandidateProb or ThreeValued model builds its voter tables
(``tables``), its plausible-profile count (``profile_count``) and the
inner block of its lanes (``block``) once, on first use, and every scan
of the model reads them.  These tests pin that each is built once per
model object however many questions it is asked; that the stored plan
is invisible to equality, hashing, ``repr``, pickles and the written
document; that ``tva_to_cp`` hands on what is built; that the budget
still applies to every question; that the block keeps the chunk size
it was built with; and that answers on a model asked many questions
equal those on a fresh model and the per-profile references in
``tests/oracles.py``.  They also pin that a possible PJR/EJR question
reads the lanes like every other scan, building the block once however
many committees it is asked about.
"""

import functools
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from abcu import (
    BudgetError,
    CandidateProbModel,
    Instance,
    LotteryModel,
    axiom_probability,
    cp_model,
    cp_to_lottery,
    enumerate_plausible,
    exists_nec_axiom,
    exists_poss_axiom,
    is_nec_axiom,
    is_poss_axiom,
    jr_probability,
    lottery_model,
    max_axiom,
    plausible_count,
    tva_model,
    tva_to_cp,
)
from abcu import decide, optimize, probability, uncertainty
from abcu.decide import _first
from abcu.io import document_for, emit_document, parse_document
from abcu.uncertainty import _lanes
from oracles import (
    reference_decision,
    reference_first,
    reference_max_axiom,
    reference_plausible,
    reference_values_by_enumeration,
)
from test_tree_scan import random_model

AXIOMS = ("jr", "pjr", "ejr")
PLAN = ("tables", "profile_count", "block")


def _examples():
    """A lottery, a cp and a 3va model, each with certain voters (counted
    in ``fixed``) and uncertain ones."""
    inst = Instance(6, 4, 2)
    lottery = lottery_model(inst, [
        [("1/2", [0, 1]), ("1/3", [2]), ("1/6", [])],
        [(1, [1, 3])],
        [("3/4", [0]), ("1/4", [0, 2, 3])],
        [(1, [1, 3])],
        [("1/2", [3]), ("1/2", [1, 2])],
        [(1, [2])],
    ])
    cp = cp_model(inst, [
        ["1/3", 1, 0, "2/5"], [0, 1, 0, 1], [1, 0, "1/2", "1/3"],
        [0, "3/4", 1, 0], [0, 1, 0, 1], ["1/2", 0, 0, "1/2"],
    ])
    tva = tva_model(inst, [
        ["1/2", 1, 0, "1/2"], [0, 1, 0, 1], [1, 0, "1/2", "1/2"],
        [0, "1/2", 1, 0], [0, 1, 0, 1], ["1/2", 0, 0, "1/2"],
    ])
    return [lottery, cp, tva]


KINDS = dict(argvalues=range(3), ids=["lottery", "cp", "3va"])


def _fresh(model):
    """An equal model object that has built nothing."""
    return type(model)(*(getattr(model, f) for f in model.__dataclass_fields__))


def _committees(inst):
    return list(itertools.combinations(range(inst.m), inst.k))


def _read_plan(model):
    for name in PLAN:
        getattr(model, name)


def _ask_everything(model):
    """Every kind of question that scans the profiles, on every committee,
    with its answers in order."""
    answers = []
    for w in _committees(model.instance):
        for axiom in AXIOMS:
            answers.append(axiom_probability(model, w, axiom, force_enumeration=True))
            answers.append(axiom_probability(model, w, axiom))
            for force in (False, True):
                answers.append(is_poss_axiom(model, w, axiom, force_enumeration=force))
                answers.append(is_nec_axiom(model, w, axiom, force_enumeration=force))
    for axiom in AXIOMS:
        answers.append(max_axiom(model, axiom))
        answers.append(max_axiom(model, axiom, force_enumeration=True))
        answers.append(exists_nec_axiom(model, axiom, force_enumeration=True))
    for axiom in ("pjr", "ejr"):
        answers.append(exists_nec_axiom(model, axiom))
        answers.append(exists_poss_axiom(model, axiom))
    answers.append(list(enumerate_plausible(model)))
    answers.append(plausible_count(model))
    return answers


@pytest.fixture
def builds(monkeypatch):
    """Count the table builds (``_row_table`` per matrix row,
    ``_over_common_denominator`` per lottery voter), the block builds and
    the profile-count builds, in every module that scans."""
    counts = Counter()

    def counting(name, func):
        @functools.wraps(func)
        def wrapper(*args):
            counts[name] += 1
            return func(*args)

        return wrapper

    for name in ("_row_table", "_over_common_denominator", "_lane_block"):
        wrapped = counting(name, getattr(uncertainty, name))
        # Wherever the builder is imported, so that no module rebuilds
        # a table behind the stored one.
        for module in (uncertainty, decide, probability, optimize):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    for kind in (LotteryModel, CandidateProbModel):
        prop = functools.cached_property(counting("profile_count", vars(kind)["profile_count"].func))
        prop.__set_name__(kind, "profile_count")
        monkeypatch.setattr(kind, "profile_count", prop)
    return counts


class TestBuiltOnce:
    @pytest.mark.parametrize("which", **KINDS)
    def test_every_question_reads_one_plan(self, builds, which):
        model = _examples()[which]
        n = model.instance.n
        first = _ask_everything(model)
        table_builds = builds["_over_common_denominator"] + builds["_row_table"]
        assert table_builds == n
        assert builds["_lane_block"] == 1 and builds["profile_count"] == 1
        # The lottery voter DP reads the stored tables too.
        w = _committees(model.instance)[0]
        jr_probability(model, w)
        assert _ask_everything(model) == first
        assert builds["_over_common_denominator"] + builds["_row_table"] == n
        assert builds["_lane_block"] == 1 and builds["profile_count"] == 1

    @pytest.mark.parametrize("which", **KINDS)
    def test_each_model_object_builds_its_own(self, builds, which):
        model = _examples()[which]
        twin = _fresh(model)
        for scanned in (model, model, twin):
            axiom_probability(scanned, (0, 1), "pjr")
        assert builds["_lane_block"] == 2 and builds["profile_count"] == 2
        assert model.block is not twin.block and model.block == twin.block

    def test_a_question_builds_only_what_it_reads(self, builds):
        model = _examples()[1]
        plausible_count(model)
        jr_probability(model, (0, 1))
        # The count and the JR voter DP never read the lanes.
        assert "profile_count" in vars(model) and "block" not in vars(model)
        # A possible question scans the lanes: one block for every committee.
        for w in _committees(model.instance):
            for axiom in ("pjr", "ejr"):
                want = reference_decision(model, w, axiom, "poss")
                assert is_poss_axiom(model, w, axiom) == want
        assert builds["_lane_block"] == 1 and builds["profile_count"] == 1
        assert builds["_row_table"] == model.instance.n


def _observed(model):
    return (model, hash(model), repr(model), pickle.dumps(model),
            emit_document(document_for(model, (0, 1))))


class TestInvisible:
    @pytest.mark.parametrize("which", **KINDS)
    def test_same_before_and_after_first_read(self, which):
        model = _examples()[which]
        before = _observed(model)
        _read_plan(model)
        assert all(name in vars(model) for name in PLAN)
        assert _observed(model) == before
        twin = _fresh(model)
        assert model == twin and hash(model) == hash(twin)
        assert not any(name in repr(model) for name in PLAN)
        thawed = pickle.loads(pickle.dumps(model))
        assert set(vars(thawed)) == set(model.__dataclass_fields__)
        assert thawed == model
        assert _ask_everything(thawed) == _ask_everything(model)

    def test_constructors_and_parsing_build_no_plan(self):
        for model in _examples():
            text = emit_document(document_for(model, (0, 1)))
            built = [model, _fresh(model), parse_document(text).model]
            if isinstance(model, CandidateProbModel) and model.three_valued:
                built.append(tva_to_cp(tva_model(model.instance, model.probs)))
            else:
                built.append(cp_to_lottery(tva_model(model.instance, [[0] * 4] * 6)))
            for fresh in built:
                assert not set(PLAN) & set(vars(fresh)), type(fresh)


class TestThreeValuedEmbedding:
    def test_hands_on_what_is_built(self):
        model = _examples()[2]
        bare = tva_to_cp(model)
        assert not set(PLAN) & set(vars(bare))
        model.tables
        partial = tva_to_cp(model)
        assert vars(partial)["tables"] is model.tables
        assert "block" not in vars(partial) and "profile_count" not in vars(partial)
        _read_plan(model)
        cp = tva_to_cp(model)
        for name in PLAN:
            assert vars(cp)[name] is vars(model)[name]
        fresh = CandidateProbModel(model.instance, model.probs)
        for w in _committees(model.instance):
            for axiom in AXIOMS:
                for scanned in (cp, partial, bare):
                    want = axiom_probability(fresh, w, axiom)
                    assert axiom_probability(scanned, w, axiom) == want
                    assert is_nec_axiom(scanned, w, axiom) == is_nec_axiom(fresh, w, axiom)


class TestBudget:
    @pytest.mark.parametrize("which", **KINDS)
    def test_every_question_gates_on_the_stored_count(self, which):
        model = _examples()[which]
        count = plausible_count(model)
        assert count == len(reference_plausible(model)) > 1
        _ask_everything(model)
        cap = count - 1
        questions = [
            lambda m: axiom_probability(m, (0, 1), "pjr", budget=cap),
            lambda m: axiom_probability(m, (0, 1), "ejr", budget=cap),
            lambda m: jr_probability(m, (0, 1), budget=cap, force_enumeration=True),
            lambda m: is_poss_axiom(m, (0, 1), "pjr", budget=cap),
            lambda m: is_nec_axiom(m, (0, 1), "ejr", budget=cap),
            lambda m: is_nec_axiom(m, (0, 1), "jr", budget=cap, force_enumeration=True),
            lambda m: exists_nec_axiom(m, "pjr", budget=cap),
            lambda m: exists_poss_axiom(m, "ejr", budget=cap),
            lambda m: list(enumerate_plausible(m, budget=cap)),
            lambda m: list(_lanes(m, cap)[1]),
        ]
        for ask in questions:
            for scanned in (model, _fresh(model)):
                with pytest.raises(BudgetError) as err:
                    ask(scanned)
                assert (err.value.count, err.value.budget) == (count, cap)
        # The gate passes again at the count itself.
        assert axiom_probability(model, (0, 1), "pjr", budget=count) == axiom_probability(
            _fresh(model), (0, 1), "pjr")


class TestReusedEqualsFresh:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_models(self, seed):
        rng = random.Random(700 + seed)
        for _ in range(25):
            model = random_model(rng, max_n=5, max_m=4)
            inst = model.instance
            committees = _committees(inst)
            for rounds in range(2):
                for axiom in AXIOMS:
                    want = reference_values_by_enumeration(model, committees, axiom)
                    got = [axiom_probability(model, w, axiom, force_enumeration=True).value
                           for w in committees]
                    assert got == want
                    if axiom != "jr":
                        assert [axiom_probability(model, w, axiom).value
                                for w in committees] == want
                    best = max_axiom(model, axiom, force_enumeration=True)
                    assert (best.committee, best.value, best.ties) == reference_max_axiom(
                        model, axiom)
                for w, axiom, holds in itertools.product(committees, AXIOMS, (True, False)):
                    wset = frozenset(w)
                    want = reference_first(model, wset, axiom, holds)
                    assert _first(model, wset, axiom, holds, None) == want
                    assert _first(_fresh(model), wset, axiom, holds, None) == want
            assert _ask_everything(model) == _ask_everything(_fresh(model))


class TestChunkSize:
    def test_block_keeps_the_size_it_was_built_with(self, monkeypatch):
        rng = random.Random(31)
        seen = 0
        while seen < 10:
            monkeypatch.setattr(uncertainty, "LANE_CHUNK", 2)
            model = random_model(rng, max_n=6, max_m=4)
            sizes = [len(t) for _, t in model.tables if len(t) > 1]
            if len(sizes) < 3:
                continue
            seen += 1
            small = [count for count, *_ in _lanes(model, None)[1]]
            assert len(small) > 1 and max(small) <= max(2, sizes[-1])
            monkeypatch.setattr(uncertainty, "LANE_CHUNK", 1 << 12)
            assert [count for count, *_ in _lanes(model, None)[1]] == small
            twin = _fresh(model)
            assert [count for count, *_ in _lanes(twin, None)[1]] == [plausible_count(model)]
            for w in _committees(model.instance):
                for axiom in AXIOMS:
                    want = reference_values_by_enumeration(model, [w], axiom)
                    for scanned in (model, twin):
                        got = axiom_probability(scanned, w, axiom, force_enumeration=True)
                        assert [got.value] == want
                    for holds in (True, False):
                        want_first = reference_first(model, frozenset(w), axiom, holds)
                        assert _first(model, frozenset(w), axiom, holds, None) == want_first

    def test_outer_chunks_leave_the_block_as_built(self, monkeypatch):
        monkeypatch.setattr(uncertainty, "LANE_CHUNK", 2)
        model = tva_model(Instance(4, 3, 1), [["1/2", 1, 0], [0, "1/2", 1], [1, 0, "1/2"],
                                              ["1/2", 0, "1/2"]])
        denom, size, lanes, planes, fixed, outer = model.block
        kept = [col[:] for col in lanes]
        assert len(outer) == 3 and size == 4
        for chunk in _lanes(model, None)[1]:
            assert chunk[1] is not lanes
        assert lanes == kept and model.block[2] is lanes


def test_hand_built_models_share_the_plan():
    """A model built by its dataclass constructor, without validation,
    reads the same plan as one built by the checked constructor."""
    inst = Instance(2, 2, 1)
    half = Fraction(1, 2)
    built = [
        (LotteryModel(inst, (((half, (0,)), (half, (1,))), ((Fraction(1), (0, 1)),))),
         lottery_model(inst, [[(half, [0]), (half, [1])], [(1, [0, 1])]])),
        (CandidateProbModel(inst, ((half, Fraction(1)), (Fraction(0), half)), True),
         tva_model(inst, [["1/2", 1], [0, "1/2"]])),
    ]
    for hand, checked in built:
        _read_plan(hand)
        assert hand.tables == checked.tables and hand.block == checked.block
        assert hand.profile_count == checked.profile_count == len(reference_plausible(checked))
