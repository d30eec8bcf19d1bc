"""The per-kind contract of the three model classes and their one pickle rule.

Every model kind answers ``profile_count``, ``first``, ``profile_at(p)``,
``lanes`` and ``three_valued`` itself.  These tests pin that
``profile_at`` decodes every profile of the enumeration, on every kind,
with voters of a single set and across lane chunks, where the
first-witness scan (``decide._first``) adds the chunk offsets; and that
after questions that build every view a kind has, a pickle holds the
dataclass fields alone, equality, hashing, ``repr`` and the written
document are unchanged, and ``tva_to_cp`` hands on every view.
"""

import functools
import itertools
import pickle
import random

import pytest

from abcu import (
    CandidateProbModel,
    Instance,
    axiom_probability,
    cp_model,
    enumerate_plausible,
    first_plausible,
    is_nec_axiom,
    is_poss_axiom,
    lottery_model,
    max_axiom,
    plausible_count,
    tva_model,
    tva_to_cp,
)
from abcu.decide import _first
from abcu.io import document_for, emit_document, parse_document
from abcu.uncertainty import LANE_CHUNK
from oracles import reference_first, reference_plausible
from test_lanes import random_any, random_joint
from test_stored_plans import _examples

AXIOMS = ("jr", "pjr", "ejr")


def _decoded(model):
    return [model.profile_at(p) for p in range(model.profile_count)]


def _chunked():
    """A lottery, a cp and a 3va model of 2^13 profiles, two lane chunks,
    with single-set voters among the others.  Committee (1,) is violated
    only when every voter approves candidate 0: the last profile."""
    inst = Instance(15, 2, 1)
    either, zero = [("1/2", [1]), ("1/2", [0])], [(1, [0])]
    lottery = lottery_model(inst, [zero] + [either] * 6 + [zero] + [either] * 7)
    rows = [[1, 0]] + [["1/2", 0]] * 6 + [[1, 0]] + [["1/2", 0]] * 7
    return [lottery, cp_model(inst, rows), tva_model(inst, rows)]


class TestProfileAt:
    def test_random_models_of_every_kind(self):
        rng = random.Random(27)
        for _ in range(300):
            model = random_any(rng)
            want = reference_plausible(model)
            assert _decoded(model) == list(enumerate_plausible(model)) == want
            assert model.first == first_plausible(model) == want[0]
            assert model.profile_count == plausible_count(model) == len(want)

    @pytest.mark.parametrize("which", range(3), ids=["lottery", "cp", "3va"])
    def test_across_lane_chunks(self, which):
        model = _chunked()[which]
        assert model.profile_count == 2 * LANE_CHUNK
        assert _decoded(model) == list(enumerate_plausible(model)) == reference_plausible(model)
        for w in itertools.combinations(range(2), 1):
            for axiom in AXIOMS:
                for holds in (True, False):
                    want = reference_first(model, frozenset(w), axiom, holds)
                    assert _first(model, frozenset(w), axiom, holds, None) == want
        last = model.profile_at(model.profile_count - 1)
        assert is_nec_axiom(model, (1,), "pjr").witness_profile == last
        assert all(s == (0,) for s in last.profile)

    def test_three_valued_only_on_a_tagged_matrix(self):
        joint = random_joint(random.Random(3), Instance(3, 3, 1), 5)
        lottery, cp, tva = _examples()
        assert [m.three_valued for m in (joint, lottery, cp, tva)] == [False, False, False, True]


def _models():
    """Constructor-built and parsed models of every kind, each fresh."""
    built = [*_examples(), random_joint(random.Random(28), Instance(6, 4, 2), 12)]
    return built + [parse_document(emit_document(document_for(m))).model for m in built]


IDS = [f"{how}-{kind}" for how in ("built", "parsed") for kind in ("lottery", "cp", "3va", "joint")]


@functools.cache
def _views(kind):
    """Every view the class builds on first use."""
    return {name for cls in kind.__mro__ for name, attr in vars(cls).items()
            if isinstance(attr, functools.cached_property)}


def _ask(model):
    """JR, PJR and EJR questions of every mode, which build every view."""
    inst = model.instance
    answers = []
    for w in itertools.combinations(range(inst.m), inst.k):
        for axiom in AXIOMS:
            answers.append(is_poss_axiom(model, w, axiom))
            answers.append(is_nec_axiom(model, w, axiom))
            answers.append(axiom_probability(model, w, axiom))
    answers.extend(max_axiom(model, axiom) for axiom in AXIOMS)
    return answers


def _observed(model):
    return hash(model), repr(model), emit_document(document_for(model, (0, 1)))


def _fields(model):
    return set(model.__dataclass_fields__)


class TestPickleRule:
    @pytest.mark.parametrize("which", range(8), ids=IDS)
    def test_state_holds_the_fields_only(self, which):
        model = _models()[which]
        twin = type(model)(*(getattr(model, f) for f in model.__dataclass_fields__))
        before = _observed(model)
        answers = _ask(model)
        assert _views(type(model)) <= set(vars(model))
        assert set(model.__getstate__()) == _fields(model)
        assert _observed(model) == before and model == twin
        thawed = pickle.loads(pickle.dumps(model))
        assert set(vars(thawed)) == _fields(model)
        assert thawed == model and _observed(thawed) == before
        assert _ask(thawed) == answers

    @pytest.mark.parametrize("which", [2, 6], ids=["built", "parsed"])
    def test_tva_to_cp_carries_every_view(self, which):
        model = _models()[which]
        assert model.three_valued
        _ask(model)
        cp = tva_to_cp(model)
        views = {name: value for name, value in vars(model).items() if name not in _fields(model)}
        assert set(views) == _views(CandidateProbModel)
        for name, value in views.items():
            assert vars(cp)[name] is value
        assert not cp.three_valued and set(cp.__getstate__()) == _fields(cp)
        assert _ask(cp) == _ask(CandidateProbModel(model.instance, model.probs))
