"""Document serialization: the JSON schema plus CNF and graph readers.

One JSON document format covers all four model kinds behind a ``kind``
tag.  Probabilities travel as strings (either a fraction ``"num/den"``
or a decimal like ``"0.6"``, both parsed exactly) or as the JSON
integers 0 and 1.  Non-integral JSON numbers are rejected: binary
floats cannot represent the decimal the author wrote.  See
``docs/schema.md`` for the full schema and one example per kind.

A document is read in whole-document passes (``_sweep``), one per
layout: a matrix's rows all at once; every lottery voter's entries
flattened into one list of probabilities and one of approval sets; every
joint entry with its profile's sets flattened.  Each pass checks the
JSON type of every container and the presence of every key with one
test over the whole list, and parses every probability through one
memoised parser per document (``uncertainty._ProbabilityParser``), so
each distinct raw value is parsed once, by dict lookups with no Python
call per entry.  The parsed values, the flattened sets and each voter's,
entry's or row's length go to the model's constructor as they are.  A
document that a pass refuses (a container of the wrong type, a missing
key, a probability that is no string or exact int or does not parse)
is read again by the per-entry reader (``_read``), to name the first bad
entry's path.  A model-level error (a sum, a duplicate, a length) is
raised by validation after the pass, and reads nothing again.  A parsed
matrix keeps its raw entries and is classified per distinct raw value
on the first read of its codes (``uncertainty._codes``), so a document
that is only validated is never classified; a parsed lottery is
validated per distinct probability object and per distinct tuple of a
voter's probabilities.

Reports and documents are written by ``_dumps`` and ``emit_document``,
which produce exactly the bytes of ``json.dumps(data, indent=2,
sort_keys=True)`` without the standard library's pure-Python indent
encoder, and keep no state between calls.  A report holds str-keyed
dicts, lists, tuples, str, int, bool and None (``_write``).  A document
is one list of pieces, joined once, so no nesting level copies the text
below it again: the header keys go through ``_write`` and the model
through its layout's writer (``_write_model``), which appends one piece
per record, a matrix row, a lottery voter or a joint entry, each one
``%``-template filled in one pass (``_filled``) from texts made once per
distinct value.  A matrix entry's text is made once per distinct object
of ``entry_values`` and a probability's once per distinct object, both
looked up by identity.  Every list of approval sets, a witness profile
or a model's sets, goes through one writer (``_set_texts``): it renders
each distinct set value once, in one pass (``_int_arrays``), and
type-checks a set object unless it is the object one item earlier, or
in a joint model one profile earlier at the same voter, so repeated
sets are not checked again.  When a set is not a tuple of exact ints,
which only a value built by hand holds, the sets are written by
``_write``, as ``json.dumps`` writes them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not, itemgetter
from typing import Collection, Iterable, Iterator, NamedTuple

from .model import (
    _INT_TYPES,
    Committee,
    InputError,
    Instance,
    committee as make_committee,
)
from .reductions import CnfFormula, Graph
from .uncertainty import (
    CandidateProbModel,
    JointModel,
    LotteryModel,
    Model,
    _distinct_entries,
    _joint,
    _lottery,
    _matrix,
    _ProbabilityParser,
    joint_model,
    lottery_model,
    validate,
)

FORMAT = "abcu/1"


@dataclass(frozen=True)
class Document:
    """A parsed input: instance, model, optional committee and query size."""

    instance: Instance
    model: Model
    committee: Committee | None = None
    size: int | None = None


def _fail(path: str, message: str):
    raise InputError(f"{path}: {message}")


def _require(data, key: str, path: str):
    if not isinstance(data, dict):
        _fail(path, f"expected an object, got {type(data).__name__}")
    if key not in data:
        _fail(path, f"missing required key {key!r}")
    return data[key]


def _int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _fraction(value, path: str, parse) -> Fraction:
    if isinstance(value, float):
        _fail(path, f"non-integral number {value!r} is inexact; quote it as a string like \"0.6\"")
    try:
        return parse(value)
    except InputError as exc:
        _fail(path, str(exc))


# The item-type sets that mark a list of strings, of tuples, of lists and
# of dicts; a list holds only exact ints iff its item-type set is within
# _INT_TYPES.
_STR_TYPES = {str}
_TUPLE_TYPES = {tuple}
_LIST_TYPES = {list}
_DICT_TYPES = {dict}
_first = itemgetter(0)
_second = itemgetter(1)


def _int_list(value, path: str) -> list[int]:
    if type(value) is list and {*map(type, value)} <= _INT_TYPES:
        return value
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {value!r}")
    return [_int(x, f"{path}[{j}]") for j, x in enumerate(value)]


def _lists(values: list) -> bool:
    return {*map(type, values)} <= _LIST_TYPES


def _int_lists(values: list) -> bool:
    """Whether ``values`` is a list of lists of exact ints."""
    return _lists(values) and {*map(type, chain.from_iterable(values))} <= _INT_TYPES


def _fields(records: list, *keys: str) -> list[list] | None:
    """For each key, its value in each dict of ``records``; None when
    some item is not a dict or lacks a key."""
    if not {*map(type, records)} <= _DICT_TYPES:
        return None
    try:
        return [list(map(itemgetter(key), records)) for key in keys]
    except KeyError:
        return None


def _sweep(kind: str, data: dict, inst: Instance, parse: _ProbabilityParser) -> Model | None:
    """The model of ``data`` read in one pass over the whole document, or
    None when some container is not of its JSON type, some key is missing
    or some probability does not parse; the per-entry reader then reads
    the document again, to name the first bad entry's path.  A model-level
    error (a sum, a duplicate, a length) is raised here, as that reader
    raises it, by the model's constructor or validation."""
    if kind == "joint":
        fields = _fields(data["entries"], "prob", "profile")
        if fields is None:
            return None
        lams, profiles = fields
        if not (_lists(profiles) and _int_lists(list(chain.from_iterable(profiles)))):
            return None
        lams = _swept(parse, lams)
        return None if lams is None else _joint(inst, lams, profiles)
    if kind == "lottery":
        voters = data["voters"]
        if not _lists(voters):
            return None
        fields = _fields(list(chain.from_iterable(voters)), "prob", "set")
        if fields is None or not _int_lists(fields[1]):
            return None
        lams = _swept(parse, fields[0])
        return None if lams is None else _lottery(inst, lams, fields[1], list(map(len, voters)))
    rows = data["rows"]
    if not _lists(rows):
        return None
    try:
        model = _matrix(inst, rows, kind == "three-valued", parse)
    except InputError:
        return None
    return validate(model)


def _swept(parse: _ProbabilityParser, values: list) -> list[Fraction] | None:
    """``values`` parsed through the memo, or None when some value is
    not a string or an exact int, or does not parse."""
    try:
        return parse.sweep(values)
    except InputError:
        return None


def _parse_model(data, inst: Instance) -> Model:
    kind = _require(data, "kind", "model")
    if kind == "joint":
        key, message = "entries", "expected a list"
    elif kind == "lottery":
        key, message = "voters", "expected a list"
    elif kind in ("candidate-probability", "three-valued"):
        key, message = "rows", "expected a list of rows"
    else:
        _fail("model.kind", f"unknown kind {kind!r}")
    if not isinstance(_require(data, key, "model"), list):
        _fail(f"model.{key}", message)
    parse = _ProbabilityParser()
    model = _sweep(kind, data, inst, parse)
    return _read(kind, data, inst, parse) if model is None else model


def _read(kind: str, data: dict, inst: Instance, parse: _ProbabilityParser) -> Model:
    """The per-entry reader: the model of ``data`` read entry by entry,
    so that an error names the first bad entry's path.  Only a document
    that ``_sweep`` refuses is read here."""
    if kind == "joint":
        built = []
        for r, entry in enumerate(data["entries"]):
            path = f"model.entries[{r}]"
            lam = _fraction(_require(entry, "prob", path), f"{path}.prob", parse)
            prof = _require(entry, "profile", path)
            if not isinstance(prof, list):
                _fail(f"{path}.profile", "expected a list of approval sets")
            built.append((lam, [_int_list(s, f"{path}.profile[{i}]") for i, s in enumerate(prof)]))
        return joint_model(inst, built)
    if kind == "lottery":
        built = []
        for i, voter in enumerate(data["voters"]):
            path = f"model.voters[{i}]"
            if not isinstance(voter, list):
                _fail(path, "expected a list of weighted approval sets")
            built.append([
                (
                    _fraction(_require(entry, "prob", f"{path}[{r}]"), f"{path}[{r}].prob", parse),
                    _int_list(_require(entry, "set", f"{path}[{r}]"), f"{path}[{r}].set"),
                )
                for r, entry in enumerate(voter)
            ])
        return lottery_model(inst, built)
    built = []
    for i, row in enumerate(data["rows"]):
        if not isinstance(row, list):
            _fail(f"model.rows[{i}]", "expected a list of probabilities")
        try:
            built.append(tuple(map(parse, row)))
        except InputError:
            # Read the row again entry by entry for the failing path.
            built.append(tuple(
                _fraction(p, f"model.rows[{i}][{c}]", parse) for c, p in enumerate(row)
            ))
    return validate(CandidateProbModel(inst, tuple(built), kind == "three-valued"))


def parse_document(text: str) -> Document:
    """Parse and validate a document; raises :class:`InputError` with a
    path-precise message on any schema or model violation."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer too long to convert, and
        # RecursionError nesting too deep for the decoder.
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("document must be a JSON object")
    fmt = _require(data, "format", "document")
    if fmt != FORMAT:
        _fail("format", f"unsupported format {fmt!r}, expected {FORMAT!r}")
    inst_data = _require(data, "instance", "document")
    inst = Instance(
        _int(_require(inst_data, "voters", "instance"), "instance.voters"),
        _int(_require(inst_data, "candidates", "instance"), "instance.candidates"),
        _int(_require(inst_data, "committee_size", "instance"), "instance.committee_size"),
    )
    model = _parse_model(_require(data, "model", "document"), inst)
    com = None
    if data.get("committee") is not None:
        com = make_committee(_int_list(data["committee"], "committee"), inst)
    size = None
    if data.get("size") is not None:
        size = _int(data["size"], "size")
    return Document(inst, model, com, size)


def _text(value) -> str:
    """``str(value)`` for a number a report or document holds."""
    return _texts((value,))[0]


def _texts(values: Iterable) -> list[str]:
    """``[str(v) for v in values]`` for the numbers a report or document
    holds.  Python refuses to write an integer longer than
    ``sys.get_int_max_str_digits()`` digits; such a number is an
    :class:`InputError` naming that limit, which is left as it is."""
    try:
        return list(map(str, values))
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        raise InputError(
            f"cannot write an exact number longer than {limit} digits, "
            "the interpreter's limit for converting an integer to text"
        ) from None


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for str-keyed
    dicts, lists, tuples, str, int, bool and None."""
    return _write(value, "\n")


# The line break and indent of each depth of a document: the header keys
# sit at depth 1, the model's keys at 2 and its records (matrix rows,
# lottery voters, joint entries) at 3; a lottery's and a joint model's
# approval sets sit at 5.
_NEWLINES = ["\n" + "  " * depth for depth in range(6)]


class _Array(NamedTuple):
    """The ``%``-templates of a record that holds one JSON array of one
    item a line: with the array empty, and with its items' text, joined
    by ``sep``, in the last ``%s``.  Indexed by whether the array has
    items.  The empty array's template takes that text too, as ``%.0s``,
    which writes none of it."""

    empty: str
    full: str
    sep: str


def _array(newline: str, head: str = "", tail: str = "") -> _Array:
    """The templates of a JSON array at the depth ``newline`` between
    ``head`` and ``tail``."""
    inner = newline + "  "
    return _Array(head + "[]%.0s" + tail, head + "[" + inner + "%s" + newline + "]" + tail,
                  "," + inner)


def _filled(template: _Array, lengths: list[int], texts: list[str],
            *heads: list[str]) -> Iterator[str]:
    """Records that each hold one array: ``texts`` cut into consecutive
    runs of ``lengths``, each run joined and filled, after the record's
    own item of each of ``heads``, into ``template``."""
    runs = map(template.sep.join, map(islice, repeat(iter(texts)), lengths))
    return map(str.__mod__, map(template.__getitem__, map(bool, lengths)), zip(*heads, runs))


def _ints(items, newline: str) -> str:
    """A list or tuple of exact ints as a JSON array at one depth."""
    return _int_arrays((items,), newline)[0]


def _int_arrays(arrays, newline: str) -> list[str]:
    """Each of ``arrays``, lists or tuples of exact ints, as a JSON array
    at the depth ``newline``."""
    members = list(map(int.__repr__, chain.from_iterable(arrays)))
    return list(_filled(_array(newline), list(map(len, arrays)), members))


def _write(value, newline: str) -> str:
    """``value`` rendered at the depth whose line break plus indent is
    ``newline``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return _text(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        types = {*map(type, value)}
        if types <= _INT_TYPES:
            return _ints(value, newline)
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(_items(value, types, inner)) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _write(item, inner)
             for key, item in sorted(value.items())]
        ) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"cannot write {kind.__name__} values into a document")


def _items(values, types: set, newline: str) -> Iterable[str]:
    """Each of ``values``, whose item types are ``types``, rendered at
    the depth ``newline``."""
    if types == _STR_TYPES:
        return map(encode_basestring_ascii, values)
    if types == _TUPLE_TYPES:  # approval sets, such as a witness profile
        return _set_texts(values, 1, newline)
    return [_write(item, newline) for item in values]


_ROW = _array(_NEWLINES[3])  # a matrix row or a lottery voter
_LOTTERY_ENTRY = '{%s"prob": %%s,%s"set": %%s%s}' % (_NEWLINES[5], _NEWLINES[5], _NEWLINES[4])
_JOINT_ENTRY = _array(_NEWLINES[4], '{%s"prob": %%s,%s"profile": ' % (_NEWLINES[4], _NEWLINES[4]),
                      _NEWLINES[3] + "}")


def _quoted(values: Iterable, distinct: Collection) -> list[str]:
    """The JSON string of ``str(v)`` for each of ``values``, written once
    per object of ``distinct``, which holds every distinct object of
    ``values``: a probability that a constructor or a conversion shares
    among entries, or a matrix entry (``entry_values``)."""
    texts = dict(zip(map(id, distinct), map(encode_basestring_ascii, _texts(distinct))))
    return list(map(texts.__getitem__, map(id, values)))


def _set_texts(sets, stride: int, newline: str) -> list[str]:
    """The text of each approval set of ``sets`` at the depth
    ``newline``, rendered once per distinct value.  Each set object is
    type-checked unless it is the object ``stride`` items earlier, such
    as a voter's set in consecutive joint entries; the check is by
    object, not value, since ``(1,) == (True,)``.  When some set is not
    a tuple of exact ints, every set is written by ``_write``, as
    ``json.dumps`` writes it."""
    fresh = list(compress(sets, map(is_not, sets, chain(repeat(None, stride), sets))))
    if {*map(type, fresh)} <= _TUPLE_TYPES and {*map(type, chain.from_iterable(fresh))} <= _INT_TYPES:
        distinct = list(dict.fromkeys(fresh))  # every set's value is some fresh set's
        texts = dict(zip(distinct, _int_arrays(distinct, newline)))
        return list(map(texts.__getitem__, sets))
    return [_write(s, newline) for s in sets]


def _extend_array(out: list[str], items: list[str], newline: str) -> None:
    """Append to ``out`` the JSON array of the texts ``items`` at the
    depth ``newline``, each item a piece of its own."""
    if not items:
        out.append("[]")
        return
    inner = newline + "  "
    out.append("[" + inner)
    out += islice(chain.from_iterable(zip(repeat("," + inner), items)), 1, None)
    out.append(newline + "]")


def _write_model(model: Model, out: list[str]) -> None:
    """Append ``model``'s payload at depth 1 to ``out``, one piece per
    record: a matrix row, a lottery voter or a joint entry, each filled
    into its layout's template from texts written once per distinct
    value."""
    if isinstance(model, JointModel):
        lams = list(map(_first, model.entries))
        profiles = list(map(_second, model.entries))
        sets = _set_texts(list(chain.from_iterable(profiles)), model.instance.n, _NEWLINES[5])
        records = _filled(_JOINT_ENTRY, list(map(len, profiles)), sets,
                          _quoted(lams, _distinct_entries((lams,))))
        out.append('{\n    "entries": ')
        _extend_array(out, list(records), _NEWLINES[2])
        out.append(',\n    "kind": "joint"\n  }')
        return
    if isinstance(model, LotteryModel):
        entries = list(chain.from_iterable(model.lotteries))
        lams = list(map(_first, entries))
        probs = _quoted(lams, _distinct_entries((lams,)))
        texts = list(map(_LOTTERY_ENTRY.__mod__,
                         zip(probs, _set_texts(list(map(_second, entries)), 1, _NEWLINES[5]))))
        records = _filled(_ROW, list(map(len, model.lotteries)), texts)
        out.append('{\n    "kind": "lottery",\n    "voters": ')
    else:
        kind = "three-valued" if model.three_valued else "candidate-probability"
        texts = _quoted(chain.from_iterable(model.probs), model.entry_values)
        records = _filled(_ROW, list(map(len, model.probs)), texts)
        out.append('{\n    "kind": "%s",\n    "rows": ' % kind)
    _extend_array(out, list(records), _NEWLINES[2])
    out.append("\n  }")


def emit_document(doc: Document) -> str:
    """Canonical JSON for a document; ``parse_document`` round-trips it.
    The header keys are written by ``_write`` and the model by its
    layout's writer (``_write_model``), into one list joined once."""
    header: dict = {
        "format": FORMAT,
        "instance": {
            "voters": doc.instance.n,
            "candidates": doc.instance.m,
            "committee_size": doc.instance.k,
        },
        "model": None,
    }
    if doc.committee is not None:
        header["committee"] = doc.committee
    if doc.size is not None:
        header["size"] = doc.size
    out: list[str] = []
    for key, value in sorted(header.items()):
        out += ",\n  ", encode_basestring_ascii(key), ": "
        if key == "model":
            _write_model(doc.model, out)
        else:
            out.append(_write(value, "\n  "))
    out[0] = "{\n  "
    out.append("\n}\n")
    return "".join(out)


def document_for(model: Model, committee: Committee | None = None,
                 size: int | None = None) -> Document:
    return Document(model.instance, model, committee, size)


# ---------------------------------------------------------------------------
# CNF and graph inputs


def parse_dimacs(text: str) -> CnfFormula:
    """Read a DIMACS CNF file; every clause must have exactly 3 literals."""
    num_vars = None
    num_clauses = None
    literals: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"bad problem line {line!r}, expected 'p cnf <vars> <clauses>'")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise InputError(f"bad problem line {line!r}") from None
            continue
        for token in line.split():
            try:
                literals.append(int(token))
            except ValueError:
                raise InputError(f"bad literal {token!r}") from None
    if num_vars is None or num_clauses is None:
        raise InputError("missing 'p cnf' problem line")
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if len(current) != 3:
                raise InputError(f"clause {len(clauses)}: expected exactly 3 literals, got {len(current)}")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise InputError("last clause is not terminated by 0")
    if len(clauses) != num_clauses:
        raise InputError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def parse_edge_list(text: str) -> Graph:
    """Read a graph: first data line is the vertex count, then one
    ``u v`` pair per line (0-based).  ``#`` starts a comment."""
    rows: list[list[int]] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InputError(f"bad graph line {line!r}") from None
    if not rows or len(rows[0]) != 1:
        raise InputError("first data line must be the vertex count")
    num_vertices = rows[0][0]
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise InputError(f"bad edge line {row!r}, expected two vertex ids")
        u, v = row
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        edges.append((min(u, v), max(u, v)))
    return Graph(num_vertices, tuple(sorted(edges)))
