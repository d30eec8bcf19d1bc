"""The whole-document reader and the one-pass constructors.

``io._sweep`` reads a document in one pass over the whole of it and
hands every document it cannot take to the per-entry reader
(``io._read``), which names the first bad entry's path.  These tests pin
that the two readers agree on seeded mutations of emitted documents of
every kind, that a valid document never reaches the per-entry reader,
and that the one-pass helpers (the memoised probability parser and the
approval-set canonicaliser) give what their per-value counterparts
give, error messages included.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from abcu import (
    InputError,
    Instance,
    approval_profile,
    approval_set,
    cp_model,
    gen_random,
    joint_model,
    lottery_model,
    tva_model,
)
from abcu import io as io_module
from abcu import uncertainty
from abcu.io import document_for, emit_document, parse_document
from abcu.model import _approval_sets
from abcu.uncertainty import _ProbabilityParser

KINDS = ("cp", "3va", "lottery", "joint")
# JSON values that a valid document never holds where a probability or
# a candidate id goes, with the in-range strings and ints beside them.
ODD_VALUES = (True, False, 1.0, 0.0, 0.5, "1e999999", 10**30, None, "1/0", "x", [], {})


def _outcome(text):
    try:
        return parse_document(text).model
    except InputError as exc:
        return f"InputError: {exc}"


def _documents():
    """Emitted documents of every kind at 1, 2 and 72 voters, with ``m``."""
    docs = []
    for kind in KINDS:
        for n, m, degree in ((1, 3, 2), (2, 4, 3), (72, 5, 60)):
            if kind in ("lottery", "joint"):
                degree = 3
            model = gen_random(kind, n, m, 2, degree, seed=n * 7 + m)
            docs.append((json.loads(emit_document(document_for(model))), m))
    return docs


def _probability_slots(doc):
    """``(container, key)`` of every probability in ``doc``."""
    model = doc["model"]
    if "rows" in model:
        return [(row, c) for row in model["rows"] for c in range(len(row))]
    if "voters" in model:
        return [(entry, "prob") for voter in model["voters"] for entry in voter]
    return [(entry, "prob") for entry in model["entries"]]


def _sets(doc):
    """``(set,)`` for every approval set in ``doc`` (none in a matrix)."""
    model = doc["model"]
    if "voters" in model:
        return [(entry["set"],) for voter in model["voters"] for entry in voter]
    if "entries" in model:
        return [(s,) for entry in model["entries"] for s in entry["profile"]]
    return []


def _entries(doc):
    """``(entry,)`` for every lottery or joint entry (none in a matrix)."""
    model = doc["model"]
    if "voters" in model:
        return [(entry,) for voter in model["voters"] for entry in voter]
    return [(entry,) for entry in model.get("entries", ())]


def _rows_and_profiles(doc):
    """``(list,)`` for every matrix row and joint profile."""
    model = doc["model"]
    return [(row,) for row in model.get("rows", ())] + [
        (entry["profile"],) for entry in model.get("entries", ())]


def _lists(doc):
    """``(parent, key)`` of every list in the layout: rows, voters, sets
    and profiles."""
    model = doc["model"]
    out = []
    for key in ("rows", "voters", "entries"):
        out += [(model[key], i) for i in range(len(model.get(key, ())))]
    for (entry,) in _entries(doc):
        out += [(entry, key) for key in ("set", "profile") if key in entry]
        out += [(entry["profile"], i) for i in range(len(entry.get("profile", ())))]
    return out


def _mutations(rng, doc, m):
    """Named mutations of ``doc``, each at a seeded position."""

    def edit(change):
        mutated = copy.deepcopy(doc)
        change(mutated)
        return mutated

    def at(pick, change):
        def apply(d):
            slots = pick(d)
            if slots:
                change(*rng.choice(slots))
        return apply

    def certain_as_ints(d):
        # JSON 0 and 1 for the certain probabilities, so that the memo
        # holds the keys 0 and 1 that ``false``, ``true``, ``0.0`` and
        # ``1.0`` equal.
        for c, k in _probability_slots(d):
            if c[k] in ("0", "1"):
                c[k] = int(c[k])

    for value in ODD_VALUES:
        yield f"probability {value!r}", edit(at(_probability_slots,
                                              lambda c, k, v=value: c.__setitem__(k, v)))
        yield f"probability {value!r} among ints", edit(lambda d, v=value: (
            certain_as_ints(d), at(_probability_slots, lambda c, k: c.__setitem__(k, v))(d)))
        yield f"member {value!r}", edit(at(_sets, lambda s, v=value: s.append(v)))
    for name, member in (("negative", -1), ("out of range", m), ("last", m - 1)):
        yield f"member {name}", edit(at(_sets, lambda s, v=member: s.append(v)))
    yield "duplicate member", edit(at(_sets, lambda s: s.extend(s[:1] or [0, 0])))
    yield "unsorted set", edit(at(_sets, lambda s: s.insert(0, m - 1)))
    for key in ("prob", "set", "profile"):
        yield f"missing {key}", edit(at(_entries, lambda e, key=key: e.pop(key, None)))
    yield "extra key", edit(at(_entries, lambda e: e.update(note="x")))
    for value in (5, "row", None, {"prob": 1}):
        yield f"container {value!r}", edit(at(_lists, lambda c, k, v=value: c.__setitem__(k, v)))
    yield "short row or profile", edit(at(_rows_and_profiles, lambda r: r and r.pop()))
    yield "long row or profile", edit(at(_rows_and_profiles, lambda r: r.append(r[-1] if r else [])))
    yield "probability sum", edit(at(_probability_slots, lambda c, k: c.__setitem__(k, "1/7")))


class TestSweepAgreesWithReader:
    def test_seeded_mutations(self, monkeypatch):
        rng = random.Random(2604)
        cases = []
        for doc, m in _documents():
            cases.append(("valid", doc))
            cases += list(_mutations(rng, doc, m))
        texts = [(name, json.dumps(doc)) for name, doc in cases]
        swept = [_outcome(text) for _, text in texts]
        monkeypatch.setattr(io_module, "_sweep", lambda *args: None)
        for (name, text), got in zip(texts, swept):
            assert got == _outcome(text), name
        # Every kind of mutation is refused somewhere, and some are taken.
        assert sum(isinstance(got, str) for got in swept) > len(swept) // 2
        assert sum(not isinstance(got, str) for got in swept) >= 3 * len(KINDS)

    def test_the_error_names_the_first_bad_entry(self):
        doc, _ = _documents()[7]  # a lottery model of 2 voters
        doc["model"]["voters"][1][0]["prob"] = 0.5
        doc["model"]["voters"][0][0]["set"] = [True]
        with pytest.raises(InputError, match=r"^model\.voters\[0\]\[0\]\.set\[0\]: expected an "):
            parse_document(json.dumps(doc))

    def test_a_model_level_error_reads_the_document_once(self, monkeypatch):
        doc, _ = _documents()[8]  # a lottery model of 72 voters
        doc["model"]["voters"][40][0]["prob"] = "1/7"

        def reader(*args):
            raise AssertionError("read entry by entry")

        monkeypatch.setattr(io_module, "_read", reader)
        with pytest.raises(InputError, match=r"^voter 40: set probabilities sum to "):
            parse_document(json.dumps(doc))


class TestValidDocumentsAreSwept:
    @pytest.mark.parametrize("kind", KINDS)
    def test_200_voters(self, monkeypatch, kind):
        degree = {"cp": 800, "3va": 800, "lottery": 3, "joint": 5}[kind]
        model = gen_random(kind, 200, 6, 2, degree, seed=26)
        text = emit_document(document_for(model, (0, 1)))

        def reader(*args):
            raise AssertionError("read entry by entry")

        monkeypatch.setattr(io_module, "_read", reader)
        doc = parse_document(text)
        assert doc.model == model and emit_document(doc) == text


def _error(call):
    try:
        return call()
    except (InputError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestApprovalSets:
    CASES = [
        [],
        [[]],
        [[2, 0, 1], [1, 1], (), {3}],
        [[0, True]],
        [[1], [False]],
        [[1], ["2"]],
        [[0], [1, "a"]],
        [[5], [-1]],
        [[0, 4], [1]],
        [[3], [0, [1]]],
        [[0, 9], 7],
        [[0], 7, [9]],
        [[1.0]],
        [[0], [10**30]],
    ]

    @pytest.mark.parametrize("sets", CASES, ids=range(len(CASES)))
    def test_equals_approval_set_on_each(self, sets):
        want = _error(lambda: [approval_set(s, 4) for s in sets])
        assert _error(lambda: _approval_sets(sets, 4)) == want
        assert _error(lambda: _approval_sets(iter(sets), 4)) == want

    def test_random_sets(self):
        rng = random.Random(5)
        for _ in range(300):
            sets = [[rng.choice([0, 1, 2, 3, 4, -1, True, 2.0, "1"]) if rng.random() < 0.05
                     else rng.randrange(4) for _ in range(rng.randrange(4))]
                    for _ in range(rng.randrange(6))]
            want = _error(lambda: [approval_set(s, 4) for s in sets])
            assert _error(lambda: _approval_sets(sets, 4)) == want


class TestParser:
    def test_a_list_is_parsed_once_per_distinct_value(self, monkeypatch):
        seen = []
        real = uncertainty.parse_probability
        monkeypatch.setattr(uncertainty, "parse_probability",
                            lambda value: seen.append(value) or real(value))
        parse = _ProbabilityParser()
        values = ["1/2", 1, "1/2", "0.5", 1, 0, "1"] * 20
        assert parse.sweep(values) == [real(v) for v in values]
        assert seen == ["1/2", 1, "0.5", 0, "1"]
        assert parse.all(values) == parse.sweep(values) and len(seen) == 5

    @pytest.mark.parametrize("value", [0.5, True, 1.0, [1], False, 0.0])
    def test_odd_values_never_hit_the_memo(self, value):
        parse = _ProbabilityParser()
        assert parse.sweep([1, 0, "1", "0"]) == [1, 0, 1, 0]
        with pytest.raises(InputError) as exc:
            uncertainty.parse_probability(value)
        for call in (lambda: parse(value), lambda: parse.all([1, value])):
            with pytest.raises(InputError) as got:
                call()
            assert str(got.value) == str(exc.value)
        assert parse.sweep([1, value]) is None

    def test_a_failing_value_is_not_kept(self, monkeypatch):
        seen = []
        real = uncertainty.parse_probability
        monkeypatch.setattr(uncertainty, "parse_probability",
                            lambda value: seen.append(value) or real(value))
        parse = _ProbabilityParser()
        for _ in range(2):
            with pytest.raises(InputError, match="outside"):
                parse.sweep(["1/2", "3/2"])
        assert seen == ["1/2", "3/2", "3/2"] and list(parse) == ["1/2"]

    def test_fractions_are_kept(self):
        half = Fraction(1, 2)
        parse = _ProbabilityParser()
        assert parse(half) is half and parse.all([half, "1/2"])[0] is half
        with pytest.raises(InputError, match=r"probability 3/2 outside \[0, 1\]"):
            parse(Fraction(3, 2))


def _constructors():
    inst = Instance(2, 3, 1)
    return {
        "cp": lambda rows: cp_model(inst, rows),
        "3va": lambda rows: tva_model(inst, rows),
        "lottery": lambda voters: lottery_model(inst, voters),
        "joint": lambda entries: joint_model(inst, entries),
    }


class TestConstructorErrors:
    """A malformed constructor call raises the error of the first bad
    item in reading order, as the per-item constructors did."""

    CASES = {
        "cp": [
            [["1/2", 0.5, 1], [2, 0, 1]],
            [["1/2", 1, 0], 5],
            [["x", 1, 0], 5],
            [[0, 1], [1, 0, 1, "3/2"]],
            [[Fraction(3, 2), 1, 0], ["1/2", 1, 0]],
            [[Fraction(1, 2), 1, 0], [Fraction(-1, 2), 1, 0]],
            [[True, 1, 0], [1, 0, 0]],
        ],
        "3va": [
            [["1/3", 1, 0], [1, 0, 0]],
            [[Fraction(1, 2), 1, 0], [None, 0, 0]],
        ],
        "lottery": [
            [[("1/2", [0]), ("1/2", [5])], [(1, [1]), (0.5, [0])]],
            [[("1/2", [0]), ("1/2", [1])], [(1, [1]), (1, [2], 3)]],
            [[(1, [0])], [(1.0, [1])]],
            [[(1, [7])], [(1.0, [1])]],
            [[(1, [0])], 4],
            [[(1, [0]), 4], [(1, [1])]],
            [[(1, [True])], [(1, [1])]],
            [[(1, [0])], [(1, 9)]],
            [[(1, [0])], [("1/2", [1]), ("1/2", [1, 1])]],
        ],
        "joint": [
            [(1, [[0], [1]]), (0.5, [[0]])],
            [("1/2", [[0]]), ("1/2", [[0], [9]])],
            [("1/2", [[0], [9]]), ("1/2", [[0]])],
            [("1/2", [[0], [1]]), ("x", [[0], [9]])],
            [("1/2", [[0], [1]]), ("1/2", 3)],
            [("1/2", [[0], [1]]), 3],
            [("1/2", [[0], [1]], 0)],
            [(1, [[0], ["1"]])],
            [("1/2", [[0], [1]]), ("1/2", [[0], [1]])],
        ],
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_error_in_reading_order(self, kind):
        build = _constructors()[kind]
        for case in self.CASES[kind]:
            got = _error(lambda: build(case))
            assert isinstance(got, str), case
            assert got == _error(lambda: _one_by_one(kind, case)), case


def _one_by_one(kind, items):
    """The item-by-item reading of each constructor, for its errors."""
    inst = Instance(2, 3, 1)
    parse = uncertainty.parse_probability
    if kind in ("cp", "3va"):
        built = tuple(tuple(map(parse, row)) for row in items)
        return uncertainty.validate(uncertainty.CandidateProbModel(inst, built, kind == "3va"))
    if kind == "lottery":
        built = tuple(tuple((parse(lam), approval_set(s, inst.m)) for lam, s in voter)
                      for voter in items)
        return uncertainty.validate(uncertainty.LotteryModel(inst, built))
    built = tuple((parse(lam), approval_profile(prof, inst)) for lam, prof in items)
    return uncertainty.validate(uncertainty.JointModel(inst, built))
