import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from abcu import CnfFormula, Graph, Instance, InputError, gen_random
from abcu.io import (
    Document,
    document_for,
    emit_document,
    parse_dimacs,
    parse_document,
    parse_edge_list,
)

DOCS = Path(__file__).parent.parent / "docs" / "examples"

MINIMAL_JOINT = """
{
  "format": "abcu/1",
  "instance": {"voters": 1, "candidates": 2, "committee_size": 1},
  "model": {"kind": "joint", "entries": [{"prob": 1, "profile": [[0]]}]}
}
"""


class TestParse:
    def test_minimal_joint(self):
        doc = parse_document(MINIMAL_JOINT)
        assert doc.instance == Instance(1, 2, 1)
        assert doc.model.entries == ((Fraction(1), ((0,),)),)
        assert doc.committee is None

    def test_decimal_and_fraction_strings_agree(self):
        a = MINIMAL_JOINT.replace('"prob": 1', '"prob": "0.5"')
        a = json.loads(a)
        a["model"]["entries"].append({"prob": "1/2", "profile": [[1]]})
        doc = parse_document(json.dumps(a))
        lams = [lam for lam, _ in doc.model.entries]
        assert lams == [Fraction(1, 2), Fraction(1, 2)]

    def test_bad_lottery_sum_names_voter(self):
        text = json.dumps({
            "format": "abcu/1",
            "instance": {"voters": 1, "candidates": 2, "committee_size": 1},
            "model": {"kind": "lottery", "voters": [
                [{"prob": "1/2", "set": [0]}, {"prob": "1/3", "set": [1]}],
            ]},
        })
        with pytest.raises(InputError, match="voter 0.*5/6"):
            parse_document(text)

    def test_float_probability_rejected_with_path(self):
        text = MINIMAL_JOINT.replace('"prob": 1', '"prob": 0.5')
        with pytest.raises(InputError, match=r"entries\[0\].prob"):
            parse_document(text)

    def test_unknown_kind(self):
        text = MINIMAL_JOINT.replace('"joint"', '"mystery"')
        with pytest.raises(InputError, match="kind"):
            parse_document(text)

    def test_format_version_checked(self):
        text = MINIMAL_JOINT.replace("abcu/1", "abcu/9")
        with pytest.raises(InputError, match="format"):
            parse_document(text)

    def test_committee_size_checked(self):
        data = json.loads(MINIMAL_JOINT)
        data["committee"] = [0, 1]
        with pytest.raises(InputError, match="size"):
            parse_document(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(InputError, match="JSON"):
            parse_document("{nope")

    def test_missing_key_is_path_precise(self):
        data = json.loads(MINIMAL_JOINT)
        del data["model"]["entries"]
        with pytest.raises(InputError, match="entries"):
            parse_document(json.dumps(data))


class TestRoundTrip:
    def test_fixture_documents(self):
        for path in sorted(DOCS.glob("*.json")):
            text = path.read_text()
            doc = parse_document(text)
            assert emit_document(doc) == text
            assert parse_document(emit_document(doc)) == doc
            kind = json.loads(text)["model"]["kind"]
            assert json.loads(emit_document(doc))["model"]["kind"] == kind
            if kind in ("candidate-probability", "three-valued"):
                assert doc.model.three_valued is (kind == "three-valued")

    def test_random_models_every_kind(self):
        rng = random.Random(61)
        for i in range(40):
            kind = ("joint", "lottery", "singleton-lottery", "cp", "3va")[i % 5]
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(1, m)
            degree = rng.randint(0, min(4, n * m)) if kind in ("cp", "3va") else rng.randint(0, 2)
            model = gen_random(kind, n, m, k, degree, seed=6100 + i)
            committee = tuple(sorted(rng.sample(range(m), k))) if rng.random() < 0.5 else None
            doc = document_for(model, committee)
            assert parse_document(emit_document(doc)) == doc

    def test_size_field_round_trips(self):
        model = gen_random("joint", 2, 3, 2, 0, seed=3)
        doc = Document(model.instance, model, None, 1)
        assert parse_document(emit_document(doc)).size == 1


class TestDimacs:
    def test_example_file(self):
        f = parse_dimacs((DOCS / "formula.cnf").read_text())
        assert f == CnfFormula(4, ((1, 2, 3), (1, 2, -3), (-3, -2, 4), (1, 2, 4)))

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 2 1\n1 -2\n1 0\n")
        assert f.clauses == ((1, -2, 1),)

    def test_errors(self):
        with pytest.raises(InputError, match="problem line"):
            parse_dimacs("1 2 3 0\n")
        with pytest.raises(InputError, match="exactly 3"):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
        with pytest.raises(InputError, match="declares"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")
        with pytest.raises(InputError, match="terminated"):
            parse_dimacs("p cnf 3 1\n1 2 3\n")


class TestEdgeList:
    def test_example_file(self):
        g = parse_edge_list((DOCS / "graph.edges").read_text())
        assert g == Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))

    def test_comments_and_order(self):
        g = parse_edge_list("# a triangle\n3\n2 0\n0 1 # inline\n1 2\n")
        assert g == Graph(3, ((0, 1), (0, 2), (1, 2)))

    def test_errors(self):
        with pytest.raises(InputError, match="vertex count"):
            parse_edge_list("0 1\n")
        with pytest.raises(InputError, match="loop"):
            parse_edge_list("2\n1 1\n")
        with pytest.raises(InputError, match="bad graph line"):
            parse_edge_list("2\nx y\n")


# Hostile probability values and the message each gets, as recorded
# before probabilities were memoised: the memo must not change them.
HOSTILE = (
    ([1], "cannot parse probability [1]: argument should be a string or a Rational instance"),
    ({"p": 1}, "cannot parse probability {'p': 1}: argument should be a string or a Rational instance"),
    (None, "cannot parse probability None: argument should be a string or a Rational instance"),
    (True, "not a probability: True"),
    (0.25, 'non-integral number 0.25 is inexact; quote it as a string like "0.6"'),
    (-1, "probability -1 outside [0, 1]"),
    ("2", "probability 2 outside [0, 1]"),
    ("1/0", "cannot parse probability '1/0': Fraction(1, 0)"),
    ("abc", "cannot parse probability 'abc': Invalid literal for Fraction: 'abc'"),
)


def hostile_documents(value):
    """The value in a matrix row, a lottery ``prob`` and a joint ``prob``,
    each after an entry that parsed, with the path the error must name."""
    inst = {"voters": 2, "candidates": 2, "committee_size": 1}
    return {
        "model.rows[1][1]": {
            "format": "abcu/1", "instance": inst, "committee": [0],
            "model": {"kind": "candidate-probability", "rows": [["1/2", 1], [0, value]]},
        },
        "model.voters[1][1].prob": {
            "format": "abcu/1", "instance": inst, "committee": [0],
            "model": {"kind": "lottery", "voters": [
                [{"prob": 1, "set": [0]}],
                [{"prob": "1/2", "set": [1]}, {"prob": value, "set": [0]}],
            ]},
        },
        "model.entries[1].prob": {
            "format": "abcu/1", "committee": [0],
            "instance": {"voters": 1, "candidates": 2, "committee_size": 1},
            "model": {"kind": "joint", "entries": [
                {"prob": "1/2", "profile": [[0]]}, {"prob": value, "profile": [[1]]},
            ]},
        },
    }


class TestHostileProbabilities:
    @pytest.mark.parametrize("value, message", HOSTILE, ids=[json.dumps(v) for v, _ in HOSTILE])
    def test_message_unchanged_in_every_position(self, value, message):
        for path, data in hostile_documents(value).items():
            with pytest.raises(InputError) as info:
                parse_document(json.dumps(data))
            assert str(info.value) == f"{path}: {message}"

    def test_three_valued_entry_outside_the_three_values(self):
        text = json.dumps({
            "format": "abcu/1",
            "instance": {"voters": 2, "candidates": 2, "committee_size": 1},
            "model": {"kind": "three-valued", "rows": [["1/2", 1], [0, "1/3"]]},
        })
        with pytest.raises(InputError) as info:
            parse_document(text)
        assert str(info.value) == "entry (1, 1): value 1/3 not in {0, 1/2, 1}"

    def test_hand_built_matrix_out_of_range(self):
        from abcu import CandidateProbModel, validation_errors

        model = CandidateProbModel(Instance(1, 2, 1), ((Fraction(3, 2), Fraction(1, 2)),))
        assert validation_errors(model) == ["entry (0, 0): probability 3/2 not in [0, 1]"]
        row = (Fraction(3, 2), Fraction(-1, 2), Fraction(1, 2))
        assert validation_errors(CandidateProbModel(Instance(1, 3, 1), (row,))) == [
            "entry (0, 0): probability 3/2 not in [0, 1]",
            "entry (0, 1): probability -1/2 not in [0, 1]",
        ]
        assert validation_errors(CandidateProbModel(Instance(1, 3, 1), (row,), True)) == [
            "entry (0, 0): value 3/2 not in {0, 1/2, 1}",
            "entry (0, 1): value -1/2 not in {0, 1/2, 1}",
        ]
