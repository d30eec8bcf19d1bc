"""Differential tests for the single-pass document path: the direct
document writer against ``json.dumps``, the integer row classification
against the ``Fraction``-comparison references in ``oracles``, and the
parse-once memo."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from abcu import (
    CandidateProbModel,
    Graph,
    Instance,
    JointModel,
    LotteryModel,
    cp_model,
    cp_to_lottery,
    exists_nec_jr,
    first_plausible,
    gen_random,
    is_nec_jr,
    is_poss_jr,
    joint_model,
    lottery_model,
    lottery_to_joint,
    plausible_count,
    reduce_3sat,
    reduce_vc,
    tva_model,
    tva_to_cp,
)
from abcu import model as model_module
from abcu.cli import _decision_payload, _machine_value
from abcu.decide import POLY, DecisionResult
from abcu.io import (
    _dumps,
    document_for,
    emit_document,
    parse_dimacs,
    parse_document,
    parse_edge_list,
)
from abcu.probability import (
    CLOSED_FORM_CERTAIN_W,
    COUNT_K_EQ_N,
    _certain_over_committee,
    _certain_w_value,
    jr_probability,
)
from oracles import (
    reference_all_interior,
    reference_certain_over_committee,
    reference_certain_w_value,
    reference_cp_to_lottery,
    reference_emit_document,
    reference_first_plausible,
    reference_full_committee_counts,
    reference_nec_jr_matrix,
    reference_plausible_count,
    reference_poss_jr_matrix,
    reference_total_unknowns,
)

DOCS = Path(__file__).parent.parent / "docs" / "examples"


def _reference_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the writer

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.text()
)
APPROVAL_SETS = st.lists(st.integers(0, 9), max_size=5).map(lambda xs: tuple(sorted(set(xs))))
VALUES = st.recursive(
    LEAVES | APPROVAL_SETS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(APPROVAL_SETS, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=5)
        # Records that share their keys, as a model's entries do.
        | st.sets(st.text(max_size=4), max_size=3).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, children)),
                                  max_size=4))
        # Lists of such records, as a lottery's voters are.
        | st.sets(st.text(max_size=4), max_size=3).flatmap(
            lambda keys: st.lists(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, children)),
                                           max_size=3), max_size=4))
    ),
    max_leaves=40,
)


class TestWriter:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    @example([(1,), (True,), ((1,), (True,)), ((True,), (1,)), [1, True], (0, False)])
    @example({"é": "snowman ☃", "": [], "a": (), "b": {}, "c": [[]], "d": ((),)})
    @example([-(10**30), 10**30, 0, -1, ((), (0,), ())])
    @example([{"{a}": "x", "b}": (1,)}, {"{a}": "{}", "b}": ()}, {}])
    @example([[{"prob": "1/2", "set": (0, 1)}, {"prob": "1/2", "set": ()}], [{}, {}],
              [{"prob": 1, "set": [0]}, {"prob": None, "set": ((0,),)}]])
    # Voters that share their keys, voters whose keys differ, an empty
    # voter, a voter with a non-dict entry and a voter that is a tuple.
    @example([[{"prob": "1/2", "set": (0,)}],
              [{"prob": "1/2", "set": (0,)}, {"prob": "1", "set": ()}]])
    @example([[{"a": 1}, {"a": (2,)}], [{"b": 2}]])
    @example([[{"a": 1}], [], [{"a": 1}]])
    @example([[{"a": 1}], [{"a": 2}, 3]])
    @example([[{"a": 1}], ({"a": 2},)])
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == _reference_dumps(value)

    def test_a_set_recurring_at_two_depths(self):
        s = (0, 2)
        value = {"a": s, "b": [s, (s, s)], "c": ((s,), s)}
        assert _dumps(value) == _reference_dumps(value)

    def test_one_set_object_recurring_in_a_list(self):
        s, t = (0, 2), (1,)
        for value in ((s, s, s), [s, s, t, s], (t, s, t, (), s, s)):
            assert _dumps(value) == _reference_dumps(value)

    def test_a_true_set_after_an_equal_int_set(self):
        # (True,) == (1,), so only a check by object tells them apart.
        one = (1,)
        for value in ((one, (True,)), [one, one, (True,), one], ((True,), one, (True,))):
            assert _dumps(value) == _reference_dumps(value)

    def test_two_lists_of_sets_at_one_depth(self):
        # The same set objects in two lists at one depth, then a (True,)
        # in the second.
        s, t = (0, 2), (1,)
        value = {"a": (s, t, s), "b": (t, s, (True,)), "c": [(s, t), (t, (True,), s)]}
        assert _dumps(value) == _reference_dumps(value)

    def test_witness_reports(self):
        # Witness profiles decoded from row words share one set object
        # per distinct set, at m = 12 within one halfword, at m = 20
        # across two; a lottery's witness holds its own sets.
        rng = random.Random(41)
        models = []
        for m in (12, 20):
            rows = [[rng.choice(("0", "1", "1/2", "1/3", "0", "0")) for _ in range(m)]
                    for _ in range(400)]
            models.append(cp_model(Instance(400, m, 4), rows))
        models.append(lottery_model(Instance(60, 8, 3), [
            [("1/2", tuple(sorted(rng.sample(range(8), rng.randint(0, 3))))),
             ("1/2", tuple(sorted(rng.sample(range(8), rng.randint(4, 6)))))]
            for _ in range(60)
        ]))
        reports = shared = 0
        for model in models:
            m, k = model.instance.m, model.instance.k
            for w in (tuple(range(k)), tuple(range(m - k, m))):
                for decide in (is_poss_jr, is_nec_jr):
                    payload = _decision_payload(decide(model, w), True)
                    value = _machine_value(payload)
                    assert _dumps(value) == _reference_dumps(value)
                    if "witness_profile" in payload:
                        sets = payload["witness_profile"].profile
                        reports += 1
                        shared += len({*map(id, sets)}) < len(sets)
        assert reports >= 6
        assert shared >= 4


class TestEmitDocument:
    def test_random_models_of_every_kind(self):
        rng = random.Random(71)
        for i in range(60):
            kind = ("joint", "lottery", "singleton-lottery", "cp", "3va")[i % 5]
            n, m = rng.randint(1, 6), rng.randint(1, 5)
            k = rng.randint(1, m)
            degree = rng.randint(0, min(5, n * m)) if kind in ("cp", "3va") else rng.randint(0, 3)
            model = gen_random(kind, n, m, k, degree, seed=7100 + i)
            committee = tuple(sorted(rng.sample(range(m), k))) if i % 2 else None
            size = rng.randint(1, k) if i % 3 == 0 else None
            doc = document_for(model, committee, size)
            assert emit_document(doc) == reference_emit_document(doc)

    def test_gadget_documents(self):
        model, _, w = reduce_3sat(parse_dimacs((DOCS / "formula.cnf").read_text()))
        doc = document_for(model, w)
        assert emit_document(doc) == reference_emit_document(doc)
        model, _, w = reduce_vc(parse_edge_list((DOCS / "graph.edges").read_text()))
        doc = document_for(model, w)
        assert emit_document(doc) == reference_emit_document(doc)

    def test_conversions_of_the_examples(self):
        for path in sorted(DOCS.glob("*.json")):
            doc = parse_document(path.read_text())
            assert emit_document(doc) == reference_emit_document(doc)
            model = doc.model
            if isinstance(model, JointModel):
                continue
            if isinstance(model, CandidateProbModel) and model.three_valued:
                model = tva_to_cp(model)
            lottery = model if isinstance(model, LotteryModel) else cp_to_lottery(model)
            for converted in (lottery, lottery_to_joint(lottery)):
                out = document_for(converted, doc.committee, doc.size)
                assert emit_document(out) == reference_emit_document(out)

    def test_matrix_documents_with_unreduced_entries(self):
        for model in _matrix_models(40, seed=73):
            doc = document_for(model)
            assert emit_document(doc) == reference_emit_document(doc)

    def test_conversions_of_the_size_of_cli_documents(self):
        # A 240-voter matrix with 3 to 5 free entries per row, its lottery
        # and the joint product of a lottery with 7 two-set voters: 128
        # entries of 240 sets.
        rng = random.Random(31)
        inst = Instance(240, 10, 3)
        rows = []
        for _ in range(inst.n):
            free = set(rng.sample(range(inst.m), rng.randint(3, 5)))
            rows.append([f"{rng.randint(1, 5)}/{rng.randint(6, 9)}" if c in free
                         else rng.choice(("0", "1")) for c in range(inst.m)])
        lottery = cp_to_lottery(cp_model(inst, rows))
        singles = [[(1, tuple(sorted(rng.sample(range(inst.m), rng.randint(0, 4)))))]
                   for _ in range(233)]
        doubles = [[("1/3", (0, 4)), ("2/3", (2, 5, 9))] for _ in range(7)]
        product = lottery_to_joint(lottery_model(inst, singles + doubles))
        assert len(product.entries) == 128
        for model in (lottery, product):
            doc = document_for(model, (0, 1, 2), 2)
            assert emit_document(doc) == reference_emit_document(doc)

    def test_vertex_cover_gadget_of_90_vertices(self):
        rng = random.Random(37)
        pairs = itertools.combinations(range(90), 2)
        graph = Graph(90, tuple(e for e in pairs if rng.random() < 0.06))
        model, _, w = reduce_vc(graph)
        doc = document_for(model, w)
        assert emit_document(doc) == reference_emit_document(doc)

    def test_models_built_by_hand(self):
        # Sets that hold True, next to equal sets of ints, at the same
        # position of consecutive entries and repeated as one object;
        # empty sets, profiles and voters; a matrix of unreduced and of
        # equal but distinct Fraction entries.
        inst = Instance(2, 3, 1)
        true_set = (True, 2)
        half = Fraction(1, 2)
        models = [
            LotteryModel(inst, (((half, (1, 2)), (half, true_set)), ((Fraction(1), ()),))),
            LotteryModel(inst, (((Fraction(1), (True,)),), ((Fraction(1), (1,)),))),
            LotteryModel(inst, ((), ((half, (0,)), (half, (0, 1))))),
            JointModel(inst, ((half, ((1, 2), ())), (half, (true_set, ())))),
            JointModel(inst, ((half, (true_set, (0,))), (half, (true_set, (0,))))),
            JointModel(inst, ((Fraction(1), ()),)),
            JointModel(inst, ()),
            CandidateProbModel(inst, ((_unreduced(2, 4), _unreduced(3, 3), Fraction(0)),
                                      (Fraction(1, 2), Fraction(1, 2), _unreduced(0, 5)))),
            CandidateProbModel(inst, ((), ())),
        ]
        for model in models:
            for committee in (None, (True,), (0,)):
                doc = document_for(model, committee)
                assert emit_document(doc) == reference_emit_document(doc)


def _unreduced(num, den):
    """A ``Fraction`` left as ``num/den``, as a model built by hand may
    hold it."""
    f = Fraction(num, den)
    f._numerator, f._denominator = num, den
    return f


# ---------------------------------------------------------------------------
# integer row classification

CP_VALUES = (0, 1, "0", "1", "2/4", "1/3", "0.25", "3/10", "6/9", Fraction(2, 5), "1.0")
TVA_VALUES = (0, 1, "0", "1", "1/2", "2/4", "0.5", Fraction(1, 2))


def _matrix_models(count, seed):
    """Random cp and 3va models with raw entries of every accepted form,
    including unreduced strings and rows with no free entry."""
    rng = random.Random(seed)
    for i in range(count):
        kind = "cp" if i % 2 == 0 else "3va"
        n, m = rng.randint(1, 7), rng.randint(1, 5)
        k = rng.randint(1, m) if i % 5 else min(n, m)
        values = CP_VALUES if kind == "cp" else TVA_VALUES
        certain_share = rng.choice((0.0, 0.5, 0.9, 1.0))
        rows = []
        for _ in range(n):
            if rng.random() < 0.25:
                rows.append([rng.choice((0, 1, "0", "1")) for _ in range(m)])
            else:
                rows.append([
                    rng.choice(values[:4]) if rng.random() < certain_share else rng.choice(values)
                    for _ in range(m)
                ])
        maker = cp_model if kind == "cp" else tva_model
        yield maker(Instance(n, m, k), rows)


def _committees(inst):
    return itertools.combinations(range(inst.m), inst.k)


def _reference_exists_nec_jr(model):
    inst = model.instance
    if reference_all_interior(model):
        if inst.k == inst.m:
            return DecisionResult(True, POLY, witness_committee=tuple(range(inst.m)))
        return DecisionResult(False, POLY)
    for w in _committees(inst):
        if reference_nec_jr_matrix(model, w).answer:
            return DecisionResult(True, "enumeration", witness_committee=w)
    return DecisionResult(False, "enumeration")


class TestIntegerRows:
    def test_conversions_and_first_profile(self):
        for model in _matrix_models(120, seed=81):
            assert cp_to_lottery(model) == reference_cp_to_lottery(model)
            assert first_plausible(model) == reference_first_plausible(model)
            assert plausible_count(model) == reference_plausible_count(model)

    def test_matrix_jr_deciders(self):
        for model in _matrix_models(120, seed=83):
            for w in _committees(model.instance):
                assert is_poss_jr(model, w) == reference_poss_jr_matrix(model, w)
                assert is_nec_jr(model, w) == reference_nec_jr_matrix(model, w)
            assert exists_nec_jr(model) == _reference_exists_nec_jr(model)

    def test_forced_outside_candidate_in_a_violating_group(self):
        # Voters 0-1 dodge the committee {0}; candidate 1 is forced for
        # voter 0 and free for voter 1, so the witness must list it once.
        model = cp_model(Instance(2, 2, 1), [["0", "1"], ["0", "1/2"]])
        result = is_nec_jr(model, (0,))
        assert result == reference_nec_jr_matrix(model, (0,))
        assert result.witness_profile.profile == ((1,), (1,))

    def test_all_interior_shortcut(self):
        model = cp_model(Instance(3, 2, 2), [["1/3", "2/4"]] * 3)
        assert exists_nec_jr(model) == _reference_exists_nec_jr(model)
        model = cp_model(Instance(3, 3, 2), [["1/3", "2/4", "0.9"]] * 3)
        assert exists_nec_jr(model) == _reference_exists_nec_jr(model)

    def test_three_valued_closed_forms(self):
        full = 0
        for model in _matrix_models(160, seed=87):
            if not model.three_valued:
                continue
            inst = model.instance
            assert model.profile_count == 2 ** reference_total_unknowns(model)
            for w in _committees(inst):
                certain = _certain_over_committee(model, w)
                assert certain == reference_certain_over_committee(model, w)
                if certain:
                    assert _certain_w_value(model, w) == reference_certain_w_value(model, w)
                if inst.k == inst.n:
                    # k = n: the voter DP, ungated, with the per-voter counts.
                    got = jr_probability(model, w, budget=0)
                    assert got.method == (CLOSED_FORM_CERTAIN_W if certain else COUNT_K_EQ_N)
                    assert got.counts == reference_full_committee_counts(model, w)
                    full += not certain
        assert full > 0


# ---------------------------------------------------------------------------
# parse once


class TestParseOnce:
    def _count_parses(self, monkeypatch, text):
        seen = []
        real = model_module.parse_probability

        def counting(value):
            seen.append(value)
            return real(value)

        monkeypatch.setattr("abcu.uncertainty.parse_probability", counting)
        return parse_document(text), seen

    def test_each_distinct_value_parsed_once_per_document(self, monkeypatch):
        rng = random.Random(91)
        for kind in ("cp", "3va", "lottery", "joint"):
            model = gen_random(kind, 30, 6, 2, 40 if kind in ("cp", "3va") else 2, seed=9100)
            text = emit_document(document_for(model))
            doc, seen = self._count_parses(monkeypatch, text)
            assert doc.model == model
            assert len(seen) == len(set(seen)), kind
        rows = [[rng.choice(CP_VALUES[:-4]) for _ in range(5)] for _ in range(40)]
        text = json.dumps({
            "format": "abcu/1",
            "instance": {"voters": 40, "candidates": 5, "committee_size": 2},
            "model": {"kind": "candidate-probability", "rows": rows},
        })
        doc, seen = self._count_parses(monkeypatch, text)
        assert sorted(map(repr, seen)) == sorted({repr(v) for row in rows for v in row})

    def test_each_distinct_value_parsed_once_per_constructor_call(self, monkeypatch):
        seen = []
        real = model_module.parse_probability
        monkeypatch.setattr("abcu.uncertainty.parse_probability",
                            lambda value: seen.append(value) or real(value))
        inst = Instance(2, 3, 1)
        half = Fraction(1, 2)
        calls = [
            (lambda: cp_model(inst, [["1/2", 1, "0.5"], ["1/2", 0, "1"]]),
             ["1/2", 1, "0.5", 0, "1"]),
            (lambda: tva_model(inst, [[half, 1, 0], [0, half, "1/2"]]), [1, 0, "1/2"]),
            (lambda: lottery_model(inst, [[("1/2", (0,)), ("1/2", [1])], [(1, {2})]]),
             ["1/2", 1]),
            (lambda: joint_model(inst, [("1/2", [[0], [1]]), ("1/2", [(1,), ()])]), ["1/2"]),
        ]
        for call, parsed in calls:
            seen.clear()
            call()
            assert seen == parsed

    def test_parsed_values_are_shared_and_equal(self):
        text = json.dumps({
            "format": "abcu/1",
            "instance": {"voters": 2, "candidates": 3, "committee_size": 1},
            "model": {"kind": "candidate-probability",
                      "rows": [["2/4", 1, "0.5"], [0, "1", "2/4"]]},
        })
        doc = parse_document(text)
        assert doc.model == cp_model(Instance(2, 3, 1), [[Fraction(1, 2), 1, Fraction(1, 2)],
                                                         [0, 1, Fraction(1, 2)]])
        assert doc.model.probs[0][0] is doc.model.probs[1][2]
