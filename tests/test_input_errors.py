"""Input errors on paths that the other tests do not reach.

Each fault is an :class:`InputError` whose message names it.  On the
command line that is exit status 2, nothing on standard output and one
``error:`` line on standard error, so no traceback.  A negative budget
is one of them: every budget read rejects it, before any gate counts.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from abcu import (
    CandidateProbModel,
    CnfFormula,
    Graph,
    Instance,
    InputError,
    JointModel,
    LotteryModel,
    axiom_probability,
    exists_nec_axiom,
    exists_poss_axiom,
    is_nec_axiom,
    is_poss_axiom,
    is_poss_jr,
    lottery_model,
    max_axiom,
    min_group_size,
    profile_probability,
    satisfies,
    tva_model,
    validation_errors,
)
from abcu.axioms import _require_axiom
from abcu.cli import main
from abcu.io import parse_document
from abcu.model import BudgetError, _check_budget, resolve_budget

DOCS = Path(__file__).parent.parent / "docs" / "examples"
ONE = Fraction(1)

BASE = {
    "format": "abcu/1",
    "instance": {"voters": 1, "candidates": 2, "committee_size": 1},
    "model": {"kind": "joint", "entries": [{"prob": 1, "profile": [[0]]}]},
}


def _edit(path: tuple, value) -> str:
    """``BASE`` as JSON text with the entry at ``path`` set to ``value``."""
    data = json.loads(json.dumps(BASE))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(data)


def _error_line(capsys, *argv) -> str:
    """Run the CLI, assert exit 2 with one error line and no report, and
    return the message."""
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
    assert "Traceback" not in out.err
    return out.err[len("error: "):-1]


DOCUMENTS = {
    "not an object": ("[1, 2]", "document must be a JSON object"),
    "instance not an object": (_edit(("instance",), 5), "instance: expected an object, got int"),
    "voters not an integer": (
        _edit(("instance", "voters"), "1"), "instance.voters: expected an integer, got '1'"),
    "committee not a list": (_edit(("committee",), 0), "committee: expected a list, got 0"),
    "entries not a list": (_edit(("model", "entries"), {}), "model.entries: expected a list"),
    "voters not a list": (
        _edit(("model",), {"kind": "lottery", "voters": 3}), "model.voters: expected a list"),
    "rows not a list": (
        _edit(("model",), {"kind": "candidate-probability", "rows": "x"}),
        "model.rows: expected a list of rows"),
    "profile not a list": (
        _edit(("model", "entries", 0, "profile"), 3),
        "model.entries[0].profile: expected a list of approval sets"),
    "voter not a list": (
        _edit(("model",), {"kind": "lottery", "voters": [7]}),
        "model.voters[0]: expected a list of weighted approval sets"),
    "row not a list": (
        _edit(("model",), {"kind": "three-valued", "rows": [7]}),
        "model.rows[0]: expected a list of probabilities"),
    "joint with no entries": (_edit(("model", "entries"), []), "no profiles listed"),
    "lottery voter count": (
        _edit(("model",), {"kind": "lottery", "voters": [[{"prob": 1, "set": [0]}]] * 2}),
        "2 voter distributions, expected n=1"),
    "empty distribution": (
        _edit(("model",), {"kind": "lottery", "voters": [[]]}), "voter 0: empty distribution"),
    "matrix row length": (
        _edit(("model",), {"kind": "candidate-probability", "rows": [["1/2"]]}),
        "row 0: has 1 entries, expected m=2"),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_fault(capsys, tmp_path, name):
    text, message = DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert _error_line(capsys, "prob", "jr", str(path)) == message
    with pytest.raises(InputError) as exc:
        parse_document(text)
    assert str(exc.value) == message


GADGETS = {
    "bad problem line": ("3sat", "p cnf x y\n1 2 3 0\n", "bad problem line 'p cnf x y'"),
    "not a cnf problem line": (
        "3sat", "p dnf 1 1\n", "bad problem line 'p dnf 1 1', expected 'p cnf <vars> <clauses>'"),
    "bad literal": ("3sat", "p cnf 3 1\n1 a 3 0\n", "bad literal 'a'"),
    "no variables": ("3sat", "p cnf 0 0\n", "formula needs at least one variable, got 0"),
    "no clauses": ("3sat", "p cnf 1 0\n", "formula has no clauses"),
    "bad edge line": ("vc", "3\n0 1 2\n", "bad edge line [0, 1, 2], expected two vertex ids"),
    "no vertices": ("vc", "0\n", "graph needs at least one vertex, got 0"),
}


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_gadget_input_fault(capsys, tmp_path, name):
    gadget, text, message = GADGETS[name]
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert _error_line(capsys, "reduce", gadget, str(path)) == message


def test_sizejr_needs_a_size(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_edit(("committee",), [0]))
    message = _error_line(capsys, "sizejr", str(path))
    assert message == "sizejr needs --size or a 'size' entry in the document"


class TestLibrary:
    def test_unknown_axiom(self):
        message = "unknown axiom 'xjr', expected one of ('jr', 'pjr', 'ejr')"
        with pytest.raises(InputError) as exc:
            _require_axiom("xjr")
        assert str(exc.value) == message
        with pytest.raises(InputError) as exc:
            satisfies(Instance(1, 2, 1), [[0]], [0], "xjr")
        assert str(exc.value) == message

    def test_unknown_axiom_before_the_budget(self):
        # 256 plausible profiles over a budget of 1: every question names
        # the unknown axiom before any gate counts.
        model = tva_model(Instance(4, 2, 1), [["1/2", "1/2"]] * 4)
        questions = [
            lambda axiom: max_axiom(model, axiom, budget=1),
            lambda axiom: axiom_probability(model, (0,), axiom, budget=1),
            lambda axiom: is_poss_axiom(model, (0,), axiom, budget=1),
            lambda axiom: is_nec_axiom(model, (0,), axiom, budget=1),
            lambda axiom: exists_poss_axiom(model, axiom, budget=1),
            lambda axiom: exists_nec_axiom(model, axiom, budget=1),
        ]
        for ask in questions:
            with pytest.raises(InputError, match="^unknown axiom 'xyz'"):
                ask("xyz")
            with pytest.raises(BudgetError):
                ask("ejr")

    def test_hand_built_models(self):
        inst = Instance(1, 2, 1)
        assert validation_errors(JointModel(inst, ())) == ["no profiles listed"]
        assert validation_errors(JointModel(inst, ((ONE, ((0,), (1,))),))) == [
            "entry 0: profile has 2 sets, expected n=1"
        ]
        two = ((ONE, (0,)),), ((ONE, (1,)),)
        assert validation_errors(LotteryModel(inst, two)) == [
            "2 voter distributions, expected n=1"
        ]
        assert validation_errors(LotteryModel(inst, ((),))) == ["voter 0: empty distribution"]
        assert validation_errors(CandidateProbModel(inst, ((ONE,),))) == [
            "row 0: has 1 entries, expected m=2"
        ]

    def test_not_a_model(self):
        with pytest.raises(InputError, match="^not an uncertainty model: 'model'$"):
            validation_errors("model")
        with pytest.raises(InputError) as exc:
            validation_errors(Instance(1, 2, 1))
        assert str(exc.value) == "not an uncertainty model: Instance(n=1, m=2, k=1)"

    def test_implausible_lottery_profile_has_probability_zero(self):
        model = lottery_model(Instance(2, 2, 1), [[(1, [0])], [("1/2", [0]), ("1/2", [1])]])
        assert profile_probability(model, [[1], [0]]) == 0
        assert profile_probability(model, [[0], [1]]) == Fraction(1, 2)

    def test_ell_must_be_positive(self):
        with pytest.raises(InputError) as exc:
            min_group_size(0, Instance(2, 2, 1))
        assert str(exc.value) == "cohesiveness level ell=0 must be positive"

    def test_gadget_constructors(self):
        with pytest.raises(InputError, match="^formula needs at least one variable, got 0$"):
            CnfFormula(0, ((1, 2, 3),))
        with pytest.raises(InputError, match="^formula has no clauses$"):
            CnfFormula(3, ())
        with pytest.raises(InputError, match="^graph needs at least one vertex, got 0$"):
            Graph(0, ())


NEGATIVE = "the budget must be at least 0, not -1"


class TestNegativeBudget:
    """Every budget read rejects a negative budget as an input error,
    whichever gate reads it first, so no gate reports a count against it."""

    def test_resolve_budget(self):
        assert resolve_budget(None) == 2**20
        assert resolve_budget(0) == 0
        with pytest.raises(InputError) as exc:
            resolve_budget(-1)
        assert str(exc.value) == NEGATIVE
        with pytest.raises(InputError, match=NEGATIVE):
            _check_budget(0, -1)

    @pytest.mark.parametrize("first_is_jr", [True, False])
    def test_lottery_possible_jr(self, first_is_jr):
        # Whether or not the first profile is JR, the search reads the
        # budget before it tries a node.
        second = [(1, [1])] if first_is_jr else [("1/2", [1]), ("1/2", [0])]
        model = lottery_model(Instance(2, 2, 1), [[(1, [1])], second])
        committee = (1,) if first_is_jr else (0,)
        with pytest.raises(InputError, match=NEGATIVE):
            is_poss_jr(model, committee, budget=-1)

    def test_gated_questions(self):
        model = lottery_model(Instance(2, 2, 1), [[(1, [0])], [("1/2", [0, 1]), ("1/2", [1])]])
        for ask in (
            lambda b: axiom_probability(model, (0,), "pjr", budget=b),
            lambda b: axiom_probability(model, (0,), "jr", budget=b),
            lambda b: is_nec_axiom(model, (0,), "ejr", budget=b),
            lambda b: exists_nec_axiom(model, "jr", budget=b),
            lambda b: max_axiom(model, "jr", budget=b),
        ):
            with pytest.raises(InputError, match=NEGATIVE):
                ask(-1)
            with pytest.raises(BudgetError):
                ask(0)

    def test_budget_zero_still_answers_ungated_questions(self):
        model = lottery_model(Instance(2, 2, 1), [[(1, [0])], [("1/2", [0, 1]), ("1/2", [1])]])
        assert is_nec_axiom(model, (0,), "jr", budget=0).answer

    def test_cli_exit_status(self, capsys):
        for argv in (
            ("decide", "poss", "jr", str(DOCS / "lottery.json")),
            ("prob", "pjr", str(DOCS / "candidate-probability.json")),
            ("max", "jr", str(DOCS / "three-valued.json")),
        ):
            assert _error_line(capsys, *argv, "--budget", "-1") == NEGATIVE
        code = main(["decide", "poss", "jr", str(DOCS / "lottery.json"), "--budget", "0"])
        assert code == 3
        assert capsys.readouterr().err == (
            "budget exceeded: enumeration of 1 objects exceeds the budget of 0\n"
        )

    def test_cli_refuses_before_any_gate(self, capsys):
        # These questions read no budget on these documents, yet the
        # command line refuses a negative one all the same.
        for argv in (
            ("decide", "nec", "jr", str(DOCS / "lottery.json")),
            ("decide", "poss", "jr", str(DOCS / "joint.json")),
            ("exists", "poss-jr", str(DOCS / "joint.json")),
            ("decide", "poss", "jr", str(DOCS / "candidate-probability.json")),
        ):
            assert main(list(argv)) == 0
            capsys.readouterr()
            assert _error_line(capsys, *argv, "--budget", "-1") == NEGATIVE
