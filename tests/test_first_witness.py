"""Differential tests for the deciders' first-witness scan.

``decide._first`` returns the first plausible profile, in enumeration
order, that satisfies or violates an axiom for a committee: the lowest
set bit of a chunk's lane mask, decoded to a Joint entry or to
mixed-radix digits over the voter tables.  Every decider reads it.  These tests compare it,
and the public ``DecisionResult``s built on it (answer, method, witness
profile and probability, violation, committee), with the per-profile
scan ``tests/oracles.py::reference_first`` over every committee of small
random models, with chunks of one profile up to the default size.
"""

import itertools
import random

import pytest

from abcu import (
    BudgetError,
    JointModel,
    exists_nec_axiom,
    exists_nec_jr,
    exists_poss_axiom,
    is_nec_axiom,
    is_nec_jr,
    is_poss_axiom,
    is_poss_jr,
    plausible_count,
)
from abcu import decide, uncertainty
from abcu.decide import _first
from oracles import reference_decision, reference_exists, reference_first
from test_lanes import random_any

AXIOMS = ("jr", "pjr", "ejr")
CHUNKS = (1, 2, 3, 5, 8, uncertainty.LANE_CHUNK)


def _models(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        model = random_any(rng, max_n=6, max_m=5)
        inst = model.instance
        yield model, list(itertools.combinations(range(inst.m), inst.k))


@pytest.mark.parametrize("bound", CHUNKS)
def test_first_matches_the_per_profile_scan(monkeypatch, bound):
    monkeypatch.setattr(uncertainty, "LANE_CHUNK", bound)
    for model, committees in _models(bound, 30):
        for w, axiom, holds in itertools.product(committees, AXIOMS, (True, False)):
            wset = frozenset(w)
            want = reference_first(model, wset, axiom, holds)
            assert _first(model, wset, axiom, holds, None) == want, (w, axiom, holds)


@pytest.mark.parametrize("bound", CHUNKS)
def test_public_decisions(monkeypatch, bound):
    """Forced deciders on every model, and the unforced PJR/EJR deciders
    and existence questions, which scan the same lanes, all give the
    reference's first witness."""
    monkeypatch.setattr(uncertainty, "LANE_CHUNK", bound)
    for model, committees in _models(100 + bound, 20):
        for w, axiom in itertools.product(committees, AXIOMS):
            poss = reference_decision(model, w, axiom, "poss")
            nec = reference_decision(model, w, axiom, "nec")
            assert is_poss_axiom(model, w, axiom, force_enumeration=True) == poss
            assert is_nec_axiom(model, w, axiom, force_enumeration=True) == nec
            if axiom == "jr":
                assert is_poss_jr(model, w, force_enumeration=True) == poss
                assert is_nec_jr(model, w, force_enumeration=True) == nec
            else:
                assert is_poss_axiom(model, w, axiom) == poss
                assert is_nec_axiom(model, w, axiom) == nec
        for axiom in ("pjr", "ejr"):
            nec = reference_exists(model, axiom, "nec")
            assert exists_nec_axiom(model, axiom, force_enumeration=True) == nec
            assert exists_nec_axiom(model, axiom) == nec
            assert exists_poss_axiom(model, axiom) == reference_exists(model, axiom, "poss")


def test_existence_budget_counts_profiles():
    """Over budget, both existence questions name the plausible-profile
    count, on a Joint model and on independent voters."""
    rng = random.Random(7)
    seen = set()
    while len(seen) < 2:
        model, committees = next(_models(rng.randrange(10**6), 1))
        count = plausible_count(model)
        if count <= len(committees):
            continue
        seen.add(isinstance(model, JointModel))
        for axiom in ("pjr", "ejr"):
            with pytest.raises(BudgetError) as err:
                exists_nec_axiom(model, axiom, budget=count - 1, force_enumeration=True)
            assert err.value.count == count
            with pytest.raises(BudgetError) as err:
                exists_poss_axiom(model, axiom, budget=count - 1)
            assert err.value.count == count


def test_forced_exists_nec_jr_reads_first(monkeypatch):
    """Under ``force_enumeration``, ``exists_nec_jr`` asks ``_first`` for
    a violating profile of each committee in lexicographic order, up to
    the first that has none, and answers as the per-profile reference.
    It builds no violation for the committees that fail."""
    asked = []
    first = decide._first
    monkeypatch.setattr(
        decide, "_first", lambda *args: asked.append(args[1:4]) or first(*args)
    )
    found = []
    monkeypatch.setattr(decide, "_COMMITTEE_FINDERS", {
        axiom: lambda *args, finder=finder: found.append(args) or finder(*args)
        for axiom, finder in decide._COMMITTEE_FINDERS.items()
    })
    failed = 0
    for model, committees in _models(9, 30):
        asked.clear()
        want = reference_exists(model, "jr", "nec")
        assert exists_nec_jr(model, force_enumeration=True) == want
        scanned = committees[:committees.index(want.witness_committee) + 1] if want.answer \
            else committees
        assert asked == [(frozenset(w), "jr", False) for w in scanned]
        failed += len(scanned) - want.answer
    assert failed > 0 and found == []
