import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abcu.cli import main
from abcu.io import parse_document
from abcu.uncertainty import JointModel
from test_io import HOSTILE, hostile_documents

DOCS = Path(__file__).parent.parent / "docs" / "examples"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def bloc_doc(tmp_path):
    """A certain profile: four voters all approving {0, 1}, k = 2."""
    text = json.dumps({
        "format": "abcu/1",
        "instance": {"voters": 4, "candidates": 3, "committee_size": 2},
        "model": {"kind": "joint",
                  "entries": [{"prob": 1, "profile": [[0, 1]] * 4}]},
        "committee": [0, 2],
    })
    path = tmp_path / "bloc.json"
    path.write_text(text)
    return path


class TestReports:
    def test_prob_jr_counting_example(self, capsys):
        code, out, _ = run(capsys, "prob", "jr", str(DOCS / "three-valued.json"))
        assert code == 0
        assert "3/4" in out
        assert "count-k-eq-n" in out

    def test_machine_report_is_json_with_exact_fractions(self, capsys):
        code, out, _ = run(capsys, "prob", "jr", "--output", "machine",
                           str(DOCS / "three-valued.json"))
        assert code == 0
        report = json.loads(out)
        assert report["probability"] == "3/4"
        assert report["method"] == "count-k-eq-n"
        assert report["satisfying"] == 6
        assert report["total"] == 8

    def test_machine_reports_are_byte_stable(self, capsys):
        outputs = set()
        for _ in range(2):
            for args in (
                ("prob", "jr", str(DOCS / "three-valued.json")),
                ("decide", "nec", "jr", "--witness", str(DOCS / "candidate-probability.json")),
                ("exists", "nec-jr", str(DOCS / "lottery.json")),
                ("max", "jr", str(DOCS / "joint.json")),
            ):
                code, out, _ = run(capsys, *args, "--output", "machine")
                assert code == 0
                outputs.add((args, out))
        assert len(outputs) == 4

    def test_decide_nec_witness_shows_refutation(self, capsys):
        code, out, _ = run(capsys, "decide", "nec", "jr", "--witness",
                           "--output", "machine", str(DOCS / "candidate-probability.json"))
        assert code == 0
        report = json.loads(out)
        assert report["answer"] is False
        assert report["witness_profile"]["prob"].count("/") == 1
        assert report["witness_violation"]["axiom"] == "jr"

    def test_decide_poss_on_gadget_document(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce", "3sat", str(DOCS / "formula.cnf"))
        assert code == 0
        gadget = tmp_path / "gadget.json"
        gadget.write_text(out)
        code, out, _ = run(capsys, "decide", "poss", "jr", str(gadget))
        assert code == 0
        assert "answer: yes" in out

    def test_decide_poss_on_a_deep_lottery(self, capsys, tmp_path):
        voters = [[{"prob": "1/2", "set": [2 + i % 4]}, {"prob": "1/2", "set": [0]}]
                  for i in range(1200)]
        doc = tmp_path / "deep.json"
        doc.write_text(json.dumps({
            "format": "abcu/1",
            "instance": {"voters": 1200, "candidates": 6, "committee_size": 2},
            "model": {"kind": "lottery", "voters": voters},
            "committee": [0, 1],
        }))
        code, out, err = run(capsys, "decide", "poss", "jr", str(doc))
        assert code == 0
        assert "answer: yes" in out
        assert "Traceback" not in err

    def test_reduce_vc_then_count(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce", "vc", str(DOCS / "graph.edges"))
        assert code == 0
        doc = tmp_path / "vc.json"
        doc.write_text(out)
        code, out, _ = run(capsys, "count", str(doc))
        assert code == 0
        assert "satisfying: 7" in out
        assert "total: 16" in out
        assert "7/16" in out

    def test_check_and_witness(self, capsys, bloc_doc):
        code, out, _ = run(capsys, "check", "jr", str(bloc_doc))
        assert code == 0
        assert "satisfied: yes" in out
        code, out, _ = run(capsys, "check", "ejr", "--witness",
                           "--output", "machine", str(bloc_doc))
        assert code == 0
        report = json.loads(out)
        assert report["satisfied"] is False
        assert report["witness_violation"]["ell"] == 2

    def test_sizejr(self, capsys, bloc_doc):
        code, out, _ = run(capsys, "sizejr", "--size", "1", str(bloc_doc))
        assert code == 0
        assert "answer: yes" in out
        assert "[0]" in out

    def test_exists(self, capsys):
        code, out, _ = run(capsys, "exists", "nec-jr", str(DOCS / "lottery.json"))
        assert code == 0
        assert "answer: yes" in out
        code, out, _ = run(capsys, "exists", "poss-jr", str(DOCS / "joint.json"))
        assert code == 0
        assert "answer: yes" in out

    def test_max_matches_library(self, capsys):
        from abcu import max_axiom

        doc = parse_document((DOCS / "three-valued.json").read_text())
        expected = max_axiom(doc.model, "jr")
        code, out, _ = run(capsys, "max", "jr", "--output", "machine",
                           str(DOCS / "three-valued.json"))
        assert code == 0
        report = json.loads(out)
        assert report["committee"] == list(expected.committee)
        assert report["value"] == f"{expected.value.numerator}/{expected.value.denominator}"
        assert report["ties"] == expected.ties


class TestMachineReportBytes:
    """Machine reports carry exactly the bytes of
    ``json.dumps(report, indent=2, sort_keys=True)``, for every shape."""

    @pytest.fixture
    def docs(self, capsys, tmp_path, bloc_doc):
        bad = json.loads((DOCS / "lottery.json").read_text())
        bad["model"]["voters"][1][0]["prob"] = "1/3"
        bad["model"]["voters"][0][0]["prob"] = "\u00bd"
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        code, out, _ = run(capsys, "reduce", "vc", str(DOCS / "graph.edges"))
        assert code == 0
        (tmp_path / "vc.json").write_text(out)
        paths = {name: str(DOCS / f"{name}.json") for name in (
            "candidate-probability", "joint", "lottery", "three-valued")}
        paths.update(bad=str(tmp_path / "bad.json"), vc=str(tmp_path / "vc.json"),
                     bloc=str(bloc_doc))
        return paths

    CALLS = (
        ("validate", "bad"),
        ("validate", "lottery"),
        ("decide", "nec", "jr", "--witness", "candidate-probability"),
        ("decide", "poss", "jr", "--witness", "candidate-probability"),
        ("decide", "nec", "ejr", "--witness", "lottery"),
        ("prob", "jr", "three-valued"),
        ("prob", "pjr", "lottery"),
        ("prob", "jr", "candidate-probability"),
        ("count", "vc"),
        ("max", "ejr", "joint"),
        ("max", "jr", "three-valued"),
        ("exists", "nec-jr", "--witness", "lottery"),
        ("exists", "poss-jr", "joint"),
        ("sizejr", "--size", "1", "bloc"),
        ("check", "ejr", "--witness", "bloc"),
        ("check", "jr", "bloc"),
    )

    def test_equal_to_json_dumps(self, capsys, docs):
        keys = set()
        for call in self.CALLS:
            *argv, name = call
            code, out, _ = run(capsys, *argv, "--output", "machine", docs[name])
            assert code == (2 if name == "bad" else 0), call
            report = json.loads(out)
            assert out == json.dumps(report, indent=2, sort_keys=True) + "\n", call
            keys.update(report)
        # Every report field, nested witnesses and error lists included.
        assert keys >= {
            "answer", "axiom", "committee", "errors", "method", "probability", "satisfied",
            "satisfying", "size", "ties", "total", "valid", "value", "witness_profile",
            "witness_violation",
        }
        _, out, _ = run(capsys, "validate", "--output", "machine", docs["bad"])
        assert "\\u00bd" in out


class TestDocumentCommands:
    def test_validate_good(self, capsys):
        code, out, _ = run(capsys, "validate", str(DOCS / "lottery.json"))
        assert code == 0
        assert "valid: yes" in out

    def test_validate_bad_reports_and_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads((DOCS / "lottery.json").read_text())
        data["model"]["voters"][1][0]["prob"] = "1/3"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", bad.as_posix())
        assert code == 2
        assert "valid: no" in out
        assert "voter 1" in out

    def test_convert_to_lottery(self, capsys, tmp_path):
        code, out, _ = run(capsys, "convert", "to-lottery",
                           str(DOCS / "candidate-probability.json"))
        assert code == 0
        doc = parse_document(out)
        table = {s: lam for lam, s in doc.model.lotteries[0]}
        assert str(table[(0, 2)]) == "9/50"

    def test_convert_round_trips_joint(self, capsys):
        code, out, _ = run(capsys, "convert", "to-joint", str(DOCS / "joint.json"))
        assert code == 0
        assert parse_document(out).model == parse_document(
            (DOCS / "joint.json").read_text()).model

    @pytest.mark.parametrize("source", ["lottery", "candidate-probability"])
    def test_convert_to_joint_keeps_probabilities(self, capsys, tmp_path, source):
        path = DOCS / f"{source}.json"
        code, out, _ = run(capsys, "convert", "to-joint", str(path))
        assert code == 0
        assert isinstance(parse_document(out).model, JointModel)
        converted = tmp_path / "joint.json"
        converted.write_text(out)
        for axiom in ("jr", "pjr"):
            reports = []
            for file in (path, converted):
                code, report, _ = run(capsys, "prob", axiom, "--output", "machine", str(file))
                assert code == 0
                reports.append(json.loads(report)["probability"])
            assert reports[0] == reports[1], axiom

    def test_convert_joint_to_lottery_is_refused(self, capsys):
        code, out, err = run(capsys, "convert", "to-lottery", str(DOCS / "joint.json"))
        assert code == 2
        assert out == ""
        assert err == "error: a joint model has no lottery representation in general\n"

    def test_gen_is_deterministic_and_valid(self, capsys):
        args = ("gen", "--kind", "3va", "--voters", "3", "--candidates", "3",
                "--committee-size", "2", "--uncertainty", "3", "--seed", "5")
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert first == second
        parse_document(first)


class TestExitCodes:
    def test_input_error_is_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, _, err = run(capsys, "prob", "jr", str(missing))
        assert code == 2
        assert "error" in err

    def test_committee_required(self, capsys, tmp_path):
        data = json.loads((DOCS / "joint.json").read_text())
        del data["committee"]
        doc = tmp_path / "nocommittee.json"
        doc.write_text(json.dumps(data))
        code, _, err = run(capsys, "prob", "jr", str(doc))
        assert code == 2
        assert "committee" in err

    def test_budget_exceeded_is_3(self, capsys):
        code, _, err = run(capsys, "prob", "jr", "--budget", "4",
                           str(DOCS / "candidate-probability.json"))
        assert code == 3
        assert "budget" in err

    def test_count_rejects_non_three_valued(self, capsys):
        code, _, err = run(capsys, "count", str(DOCS / "joint.json"))
        assert code == 2
        assert "three-valued" in err

    def test_seed_belongs_to_gen_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prob", "jr", str(DOCS / "three-valued.json"), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        code, out, _ = run(capsys, "gen", "--kind", "cp", "--voters", "2", "--candidates", "3",
                           "--committee-size", "1", "--uncertainty", "2", "--seed", "3")
        assert code == 0
        parse_document(out)


class TestHostileFiles:
    """Inputs that once escaped as tracebacks with exit 1."""

    def _one_error_line(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_non_utf8_document(self, capsys, tmp_path):
        doc = tmp_path / "latin1.json"
        doc.write_bytes('{"format": "abcu/1", "note": "café"}'.encode("latin-1"))
        err = self._one_error_line(capsys, "prob", "jr", str(doc))
        assert "not UTF-8" in err
        code, out, _ = run(capsys, "validate", str(doc), "--output", "machine")
        assert code == 2
        assert json.loads(out)["valid"] is False

    @pytest.mark.parametrize("gadget, name", [("3sat", "formula.cnf"), ("vc", "graph.edges")])
    def test_non_utf8_cnf_and_edge_list(self, capsys, tmp_path, gadget, name):
        path = tmp_path / name
        path.write_bytes((DOCS / name).read_bytes() + b"c \xff\xfe\n")
        err = self._one_error_line(capsys, "reduce", gadget, str(path))
        assert "not UTF-8" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 200000)
        err = self._one_error_line(capsys, "decide", "poss", "jr", str(doc))
        assert "not valid JSON" in err

    def test_integer_too_long_to_convert(self, capsys, tmp_path):
        doc = tmp_path / "long.json"
        doc.write_text('{"format": "abcu/1", "size": ' + "7" * 5000 + "}")
        err = self._one_error_line(capsys, "prob", "jr", str(doc))
        assert "not valid JSON" in err

    @pytest.mark.parametrize("value", ["1e999999", "1e5000", "1E-5000", "0.5e+1001"])
    def test_huge_decimal_exponent(self, capsys, tmp_path, value):
        data = json.loads((DOCS / "candidate-probability.json").read_text())
        data["model"]["rows"][0][0] = value
        doc = tmp_path / "exponent.json"
        doc.write_text(json.dumps(data))
        err = self._one_error_line(capsys, "prob", "jr", str(doc))
        assert err == (f"error: model.rows[0][0]: cannot parse probability {value!r}: "
                       "decimal exponent above 1000 in magnitude\n")

    @pytest.mark.parametrize("argv", [
        ["prob", "jr", "--output", "machine"],
        ["prob", "jr"],
        ["decide", "nec", "jr", "--witness", "--output", "machine"],
        ["max", "jr", "--output", "machine"],
        ["convert", "to-lottery"],
    ])
    def test_result_too_long_to_write(self, capsys, tmp_path, argv):
        # Each entry has a 2,502-digit denominator, so every probability
        # of a profile has one of more than 4,300 digits.
        value = "0." + "0" * 2500 + "1"
        doc = tmp_path / "long.json"
        doc.write_text(json.dumps({
            "format": "abcu/1",
            "instance": {"voters": 2, "candidates": 2, "committee_size": 1},
            "model": {"kind": "candidate-probability", "rows": [[value, value]] * 2},
            "committee": [0],
        }))
        limit = sys.get_int_max_str_digits()
        err = self._one_error_line(capsys, *argv, str(doc))
        assert err == (f"error: cannot write an exact number longer than {limit} digits, "
                       "the interpreter's limit for converting an integer to text\n")
        assert sys.get_int_max_str_digits() == limit

    def test_out_of_range_probability_is_named_as_written(self, capsys, tmp_path):
        data = json.loads((DOCS / "candidate-probability.json").read_text())
        data["model"]["rows"][0][0] = "1e1000"
        doc = tmp_path / "exponent.json"
        doc.write_text(json.dumps(data))
        err = self._one_error_line(capsys, "prob", "jr", str(doc))
        assert err == "error: model.rows[0][0]: probability 1e1000 outside [0, 1]\n"


class TestHostileProbabilities:
    @pytest.mark.parametrize("value, message", HOSTILE, ids=[json.dumps(v) for v, _ in HOSTILE])
    def test_exit_2_with_the_recorded_message(self, capsys, tmp_path, value, message):
        for path, data in hostile_documents(value).items():
            doc = tmp_path / "hostile.json"
            doc.write_text(json.dumps(data))
            code, out, err = run(capsys, "validate", str(doc), "--output", "machine")
            assert code == 2
            assert json.loads(out) == {"valid": False, "errors": f"{path}: {message}".split("; ")}
            assert err == ""
            code, out, err = run(capsys, "decide", "poss", "jr", str(doc))
            assert code == 2
            assert out == ""
            assert err == f"error: {path}: {message}\n"


class TestParserReuse:
    CALLS = (
        ("decide", "nec", "jr", "--witness", "--output", "machine", "--budget", "64",
         str(DOCS / "candidate-probability.json")),
        ("validate", str(DOCS / "lottery.json")),
        ("prob", "jr", "--force-enumeration", "--output", "machine", str(DOCS / "three-valued.json")),
        ("prob", "jr", "--output", "machine", str(DOCS / "three-valued.json")),
        ("gen", "--kind", "cp", "--voters", "2", "--candidates", "3", "--committee-size", "1",
         "--uncertainty", "2", "--seed", "4"),
        ("gen", "--kind", "cp", "--voters", "2", "--candidates", "3", "--committee-size", "1"),
        ("sizejr", "--size", "1", str(DOCS / "joint.json")),
        ("decide", "nec", "jr", "--output", "machine", str(DOCS / "candidate-probability.json")),
        ("prob", "jr", "--budget", "4", str(DOCS / "candidate-probability.json")),
        ("max", "jr", str(DOCS / "joint.json")),
    )

    def test_consecutive_calls_match_fresh_processes(self, capsys):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for argv in self.CALLS:
            code, out, err = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "abcu", *argv],
                capture_output=True, text=True, env=env,
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
