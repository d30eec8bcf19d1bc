"""The entry classification stored on a matrix model.

A CandidateProb model, three-valued or not, classifies its entries once
(``codes``, built by ``uncertainty._codes``): the constructors as they
parse, a model built by hand on first use.  Every view, the classified
rows (``split_rows``) among them, is derived from it.  These tests pin
that the rows equal a classification entry by entry
(``oracles.reference_split_row``), that a model object classifies its
entries once however many questions it is asked, and that the stored
views are invisible to equality, hashing, ``repr``, the written
document and pickling.  The distinct entry objects that validation
checks (``entry_values``) are pinned the same way.
"""

import itertools
import pickle
from fractions import Fraction

import pytest

from abcu import (
    CandidateProbModel,
    Instance,
    cp_model,
    cp_to_lottery,
    enumerate_plausible,
    exists_nec_jr,
    exists_poss_jr,
    first_plausible,
    gen_random,
    is_nec_jr,
    is_poss_jr,
    jr_probability,
    max_axiom,
    plausible_count,
    profile_probability,
    tva_model,
    tva_to_cp,
    validation_errors,
)
from abcu import uncertainty
from abcu.decide import ENUM
from abcu.io import document_for, emit_document, parse_document
from abcu.probability import DP_VOTERS
from abcu.uncertainty import _distinct_entries
from oracles import reference_split_row
from test_document_path import _matrix_models

HALF = Fraction(1, 2)


def _fresh(model):
    return CandidateProbModel(model.instance, model.probs, model.three_valued)


class TestStoredEqualsFresh:
    def test_random_models(self):
        for model in _matrix_models(200, seed=91):
            assert model.split_rows == [reference_split_row(row) for row in model.probs]

    def test_rows_without_free_entries(self):
        model = cp_model(Instance(3, 3, 1), [[0, 1, 0], [1, 1, 1], [0, 0, 0]])
        assert model.split_rows == [([1], []), ([0, 1, 2], []), ([], [])]

    def test_hand_built_out_of_range_entries(self):
        row = (Fraction(3, 2), Fraction(-1, 2), HALF, Fraction(1), Fraction(0))
        for three_valued in (False, True):
            model = CandidateProbModel(Instance(2, 5, 1), (row, row), three_valued)
            assert model.split_rows == [reference_split_row(row)] * 2
            assert model.split_rows[0] == ([3], [(0, 3, 2), (1, -1, 2), (2, 1, 2)])

    def test_three_valued_embedding_hands_the_rows_on(self):
        model = tva_model(Instance(2, 3, 1), [["1/2", 1, 0], [0, "1/2", "1/2"]])
        cp = tva_to_cp(model)
        assert cp.codes is model.codes
        assert cp.split_rows == _fresh(cp).split_rows == model.split_rows
        assert vars(cp)["entry_values"] is vars(model)["entry_values"]


def _ids(values):
    return sorted(map(id, values))


class TestEntryValues:
    """``entry_values``: the distinct entry objects by identity, kept by
    the constructors as they parse and computed on first read
    otherwise."""

    def test_constructors_keep_the_distinct_entries(self):
        models = list(_matrix_models(200, seed=92))
        models += [gen_random(kind, 30, 6, 2, 50, seed=s) for kind in ("cp", "3va")
                   for s in range(5)]
        models.append(cp_model(Instance(2, 2, 1), [[HALF, "1/2"], [HALF, Fraction(1, 2)]]))
        for model in models:
            assert "entry_values" in vars(model)
            assert _ids(model.entry_values) == _ids(_distinct_entries(model.probs))

    def test_parsed_documents_keep_the_distinct_entries(self):
        for model in _matrix_models(60, seed=93):
            parsed = parse_document(emit_document(document_for(model))).model
            assert _ids(parsed.entry_values) == _ids(_distinct_entries(parsed.probs))
            assert len(parsed.entry_values) == len(set(parsed.entry_values))

    def test_hand_built_models_compute_it_on_first_read(self):
        model = _fresh(_interesting_models()[0])
        assert "entry_values" not in vars(model)
        assert _ids(model.entry_values) == _ids(_distinct_entries(model.probs))

    @pytest.mark.parametrize("three_valued", [False, True], ids=["cp", "3va"])
    def test_each_bad_entry_of_a_hand_built_model_is_named(self, three_valued):
        rows = ((0.5, HALF, Fraction(3, 2)), ("1/2", Fraction(1), Fraction(-1, 2)),
                (HALF, 0.5, Fraction(3, 2)))
        model = CandidateProbModel(Instance(3, 3, 1), rows, three_valued)
        errors = validation_errors(model)
        assert [e.split(":")[0] for e in errors] == [
            "entry (0, 0)", "entry (0, 2)", "entry (1, 0)", "entry (1, 2)", "entry (2, 1)",
            "entry (2, 2)",
        ]
        assert errors[0] == "entry (0, 0): 0.5 is not an exact probability"
        assert errors[2] == "entry (1, 0): '1/2' is not an exact probability"
        assert errors[1].endswith("3/2 not in {0, 1/2, 1}" if three_valued
                                  else "probability 3/2 not in [0, 1]")


def _interesting_models():
    """Small cp and 3va models whose queries take every matrix path:
    possible-JR witnesses, necessary-JR refutations, the voter DP and
    the committee scan of ``exists_nec_jr``."""
    inst = Instance(4, 4, 2)
    cp_rows = [["1/3", 1, 0, "2/5"], [0, "1/2", "3/4", 0], [1, 0, "1/2", "1/3"], [0, 0, "1/2", 1]]
    tva_rows = [["1/2", 1, 0, "1/2"], [0, "1/2", "1/2", 0], [1, 0, "1/2", "1/2"], [0, 0, "1/2", 1]]
    return [cp_model(inst, cp_rows), tva_model(inst, tva_rows)]


@pytest.fixture
def code_builds(monkeypatch):
    """Count the builds of ``codes``: the calls of ``uncertainty._codes``,
    by the constructors and by the view."""
    calls = []
    codes = uncertainty._codes

    def counting(distinct, keys):
        calls.append(distinct)
        return codes(distinct, keys)

    monkeypatch.setattr(uncertainty, "_codes", counting)
    return calls


class TestOncePerModel:
    @pytest.mark.parametrize("which", [0, 1], ids=["cp", "3va"])
    def test_every_question_reads_one_classification(self, code_builds, which):
        model = _interesting_models()[which]
        inst = model.instance
        committees = list(itertools.combinations(range(inst.m), inst.k))
        # The constructors keep the raw entries; none classifies them.
        assert len(code_builds) == 0
        # is_poss_jr classifies on its first read of the codes, and builds
        # and prices its witness from them.
        poss = [is_poss_jr(model, w) for w in committees]
        assert any(r.answer for r in poss)
        assert len(code_builds) == 1
        nec = [is_nec_jr(model, w) for w in committees]
        assert any(not r.answer for r in nec)
        # max_axiom takes every committee's JR path, the voter DP included.
        assert DP_VOTERS in {jr_probability(model, w).method for w in committees}
        max_axiom(model, "jr")
        # exists_nec_jr falls back to a scan over the committees.
        assert exists_nec_jr(model).method == ENUM
        exists_poss_jr(model)
        plausible_count(model)
        first_plausible(model)
        cp_to_lottery(model)
        for pp in enumerate_plausible(model):
            assert profile_probability(model, pp.profile) == pp.prob
        assert len(code_builds) == 1

    def test_each_model_object_classifies_its_own_rows(self, code_builds):
        model = _interesting_models()[0]
        twin = _fresh(model)
        plausible_count(model)
        plausible_count(model)
        plausible_count(twin)
        plausible_count(twin)
        # Each model object on its first use.
        assert len(code_builds) == 2
        assert twin.codes == model.codes

    def test_embedding_a_three_valued_model_classifies_once(self, code_builds):
        model = _fresh(_interesting_models()[1])
        code_builds.clear()
        plausible_count(model)
        lottery = cp_to_lottery(tva_to_cp(model))
        assert len(code_builds) == 1
        bare = _fresh(model)
        assert tva_to_cp(bare).codes is bare.codes
        assert lottery == cp_to_lottery(_fresh(model))


class TestInvisible:
    def _observed(self, model):
        return (
            model, hash(model), repr(model),
            emit_document(document_for(model, (0, 1))),
            pickle.loads(pickle.dumps(model)),
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["cp", "3va"])
    def test_entry_values_are_invisible(self, which):
        model = _interesting_models()[which]
        assert "entry_values" in vars(model)
        fresh = _fresh(model)
        assert self._observed(model) == self._observed(fresh)
        assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
        thawed = pickle.loads(pickle.dumps(model))
        assert "entry_values" not in vars(thawed) and "entry_values" not in repr(model)
        assert set(thawed.entry_values) == set(model.entry_values)

    @pytest.mark.parametrize("which", [0, 1], ids=["cp", "3va"])
    def test_same_before_and_after_first_read(self, which):
        model = _interesting_models()[which]
        assert "split_rows" not in vars(model)
        before = self._observed(model)
        model.split_rows
        after = self._observed(model)
        assert before == after
        assert after[0] == _fresh(model) and hash(after[0]) == hash(_fresh(model))
        assert after[4].split_rows == model.split_rows
        assert after[4].three_valued is model.three_valued is bool(which)
        assert "split_rows" not in repr(model) and "codes" not in repr(model)
