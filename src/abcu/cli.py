"""Command-line interface.

One query per invocation.  Exit status 0 means the answer was computed
(and is in the report), 2 means an input error, 3 means an enumeration
budget was exceeded.  ``--output machine`` prints a JSON report with
every probability as an exact ``num/den`` fraction, the method tag and
any requested witness; reports are byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import decide, optimize, probability, reductions
from .axioms import AXIOMS, Violation, axiom_violation
from .io import (
    Document,
    _dumps,
    _text,
    document_for,
    emit_document,
    parse_dimacs,
    parse_document,
    parse_edge_list,
)
from .model import BudgetError, InputError, resolve_budget
from .uncertainty import (
    JointModel,
    LotteryModel,
    PlausibleProfile,
    cp_to_lottery,
    lottery_to_joint,
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_document(path: str) -> Document:
    return parse_document(_read_text(path))


def _need_committee(doc: Document):
    if doc.committee is None:
        raise InputError("this query needs a 'committee' entry in the document")
    return doc.committee


def _certain_profile(doc: Document):
    if doc.model.profile_count != 1:
        raise InputError(
            f"this query needs a certain profile, but the model has "
            f"{doc.model.profile_count} plausible profiles"
        )
    return doc.model.first.profile


def _frac(f: Fraction) -> str:
    return f"{_text(f.numerator)}/{_text(f.denominator)}"


def _machine_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return _frac(value)
    if isinstance(value, Violation):
        return {
            "axiom": value.axiom,
            "ell": value.ell,
            "group": list(value.group),
            "common": list(value.common),
        }
    if isinstance(value, PlausibleProfile):
        # The profile stays a tuple of tuples, so ``_dumps`` writes it
        # through the approval-set writer, each distinct set once.
        return {"profile": value.profile, "prob": _frac(value.prob)}
    if isinstance(value, tuple):
        return [_machine_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _machine_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_machine_value(v) for v in value]
    return value


def _human_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return f"{_text(value)} (approx. {float(value):.6f})"
    if isinstance(value, (Violation, PlausibleProfile, dict, list, tuple)):
        return json.dumps(_machine_value(value))
    return _text(value)


def _render(payload: dict, output: str) -> None:
    if output == "machine":
        print(_dumps(_machine_value(payload)))
    else:
        # Every line is formatted before any is printed, so a value that
        # cannot be written leaves no partial report.
        print("\n".join([f"{key}: {_human_value(value)}" for key, value in payload.items()]))


def _decision_payload(result: decide.DecisionResult, witness: bool) -> dict:
    payload: dict = {"answer": result.answer, "method": result.method}
    if result.witness_committee is not None:
        payload["committee"] = list(result.witness_committee)
    if witness:
        if result.witness_profile is not None:
            payload["witness_profile"] = result.witness_profile
        if result.witness_violation is not None:
            payload["witness_violation"] = result.witness_violation
    return payload


# ---------------------------------------------------------------------------
# command handlers: each returns (payload or document text, exit status)


def cmd_validate(args) -> tuple[dict, int]:
    try:
        _load_document(args.file)
    except InputError as exc:
        return {"valid": False, "errors": str(exc).split("; ")}, 2
    return {"valid": True, "errors": []}, 0


def cmd_convert(args) -> tuple[str, int]:
    doc = _load_document(args.file)
    model = doc.model
    if isinstance(model, JointModel):
        if args.target == "to-lottery":
            raise InputError("a joint model has no lottery representation in general")
    else:
        if not isinstance(model, LotteryModel):
            model = cp_to_lottery(model, args.budget)
        if args.target == "to-joint":
            model = lottery_to_joint(model, args.budget)
    return emit_document(document_for(model, doc.committee, doc.size)), 0


def cmd_check(args) -> tuple[dict, int]:
    doc = _load_document(args.file)
    prof = _certain_profile(doc)
    w = _need_committee(doc)
    violation = axiom_violation(doc.instance, prof, w, args.axiom)
    payload: dict = {"axiom": args.axiom, "satisfied": violation is None}
    if args.witness and violation is not None:
        payload["witness_violation"] = violation
    return payload, 0


def cmd_decide(args) -> tuple[dict, int]:
    doc = _load_document(args.file)
    w = _need_committee(doc)
    ask = decide.is_poss_axiom if args.mode == "poss" else decide.is_nec_axiom
    result = ask(
        doc.model, w, args.axiom, budget=args.budget, force_enumeration=args.force_enumeration
    )
    return _decision_payload(result, args.witness), 0


def cmd_exists(args) -> tuple[dict, int]:
    doc = _load_document(args.file)
    if args.question == "poss-jr":
        result = decide.exists_poss_jr(doc.model)
    else:
        axiom = args.question.split("-", 1)[1]
        result = decide.exists_nec_axiom(
            doc.model, axiom,
            budget=args.budget, force_enumeration=args.force_enumeration,
        )
    return _decision_payload(result, args.witness), 0


def cmd_prob(args) -> tuple[dict, int]:
    doc = _load_document(args.file)
    w = _need_committee(doc)
    result = probability.axiom_probability(
        doc.model, w, args.axiom,
        budget=args.budget, force_enumeration=args.force_enumeration,
    )
    payload: dict = {"axiom": args.axiom, "probability": result.value, "method": result.method}
    if result.counts is not None:
        payload["satisfying"], payload["total"] = result.counts
    return payload, 0


def cmd_count(args) -> tuple[dict, int]:
    doc = _load_document(args.file)
    w = _need_committee(doc)
    satisfying, total = probability.jr_satisfying_count(doc.model, w, budget=args.budget)
    return {"satisfying": satisfying, "total": total,
            "probability": Fraction(satisfying, total)}, 0


def cmd_max(args) -> tuple[dict, int]:
    doc = _load_document(args.file)
    result = optimize.max_axiom(
        doc.model, args.axiom,
        budget=args.budget, force_enumeration=args.force_enumeration,
    )
    return {"axiom": args.axiom, "committee": list(result.committee),
            "value": result.value, "ties": result.ties}, 0


def cmd_sizejr(args) -> tuple[dict, int]:
    doc = _load_document(args.file)
    prof = _certain_profile(doc)
    size = args.size if args.size is not None else doc.size
    if size is None:
        raise InputError("sizejr needs --size or a 'size' entry in the document")
    found, w = optimize.size_jr(doc.instance, prof, size)
    payload: dict = {"answer": found, "size": size}
    if w is not None:
        payload["committee"] = list(w)
    return payload, 0


def cmd_reduce(args) -> tuple[str, int]:
    text = _read_text(args.file)
    if args.gadget == "3sat":
        model, _, w = reductions.reduce_3sat(parse_dimacs(text))
    else:
        model, _, w = reductions.reduce_vc(parse_edge_list(text))
    return emit_document(document_for(model, w)), 0


def cmd_gen(args) -> tuple[str, int]:
    model = reductions.gen_random(
        args.kind, args.voters, args.candidates, args.committee_size,
        args.uncertainty, args.seed,
    )
    return emit_document(document_for(model)), 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: each
    ``parse_args`` call starts from a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=None,
                        help="enumeration cap (profiles/committees; default 2^20)")
    common.add_argument("--force-enumeration", action="store_true",
                        help="skip polynomial special cases, enumerate everything")
    common.add_argument("--witness", action="store_true",
                        help="include witnesses in the report")
    common.add_argument("--output", choices=("human", "machine"), default="human",
                        help="report style")

    parser = argparse.ArgumentParser(
        prog="abcu",
        description="Exact approval-based committee voting under uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a document")
    p.add_argument("file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("convert", parents=[common], help="convert between model kinds")
    p.add_argument("target", choices=("to-lottery", "to-joint"))
    p.add_argument("file")
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("check", parents=[common],
                       help="check an axiom on a certain profile")
    p.add_argument("axiom", choices=AXIOMS)
    p.add_argument("file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("decide", parents=[common],
                       help="possible/necessary satisfaction of a committee")
    p.add_argument("mode", choices=("poss", "nec"))
    p.add_argument("axiom", choices=AXIOMS)
    p.add_argument("file")
    p.set_defaults(handler=cmd_decide)

    p = sub.add_parser("exists", parents=[common],
                       help="existence of a possibly/necessarily satisfying committee")
    p.add_argument("question", choices=("poss-jr", "nec-jr", "nec-pjr", "nec-ejr"))
    p.add_argument("file")
    p.set_defaults(handler=cmd_exists)

    p = sub.add_parser("prob", parents=[common],
                       help="exact satisfaction probability of a committee")
    p.add_argument("axiom", choices=AXIOMS)
    p.add_argument("file")
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("count", parents=[common],
                       help="count satisfying profiles (three-valued models)")
    p.add_argument("file")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("max", parents=[common],
                       help="probability-maximizing committee")
    p.add_argument("axiom", choices=AXIOMS)
    p.add_argument("file")
    p.set_defaults(handler=cmd_max)

    p = sub.add_parser("sizejr", parents=[common],
                       help="JR committee of a given size below k")
    p.add_argument("file")
    p.add_argument("--size", type=int, default=None,
                   help="target committee size (overrides the document)")
    p.set_defaults(handler=cmd_sizejr)

    p = sub.add_parser("reduce", parents=[common],
                       help="build a document from a CNF formula or a graph")
    p.add_argument("gadget", choices=("3sat", "vc"))
    p.add_argument("file")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("gen", parents=[common], help="generate a random model")
    p.add_argument("--kind", required=True, choices=reductions.KINDS)
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--candidates", type=int, required=True)
    p.add_argument("--committee-size", type=int, required=True)
    p.add_argument("--uncertainty", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.set_defaults(handler=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # A negative budget is refused here, whether or not the question
        # would read it, with the library's message.
        if args.budget is not None:
            resolve_budget(args.budget)
        out, status = args.handler(args)
        if isinstance(out, str):
            sys.stdout.write(out)
        else:
            _render(out, args.output)
        return status
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
