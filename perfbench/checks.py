"""Gate checks: compare library outcomes with :mod:`perfbench.oracle`.

Each ``check_*`` returns a function of the query's outcome that returns
an error message, or None when the outcome is right.  Oracle work is
deferred to the first check call, so it never lands in set-up or in the
timed loop.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .oracle import RawModel, mask


class Lazy:
    """A value computed on first use."""

    def __init__(self, fn):
        self._fn = fn

    @functools.cached_property
    def value(self):
        return self._fn()


def _profile_masks(profile) -> tuple[int, ...]:
    return tuple(mask(s) for s in profile)


def witness_problem(raw: RawModel, profile, prob: Fraction, lib=None, model=None) -> str | None:
    """A witness profile must be plausible, and its stated probability
    must equal the oracle's and the library's ``profile_probability``."""
    own = oracle.profile_prob(raw, [list(s) for s in profile])
    if own == 0:
        return "witness profile is not plausible"
    if prob != own:
        return f"witness probability {prob} differs from the oracle's {own}"
    if lib is not None and lib.profile_probability(model, profile) != prob:
        return "witness probability differs from profile_probability"
    return None


def violation_problem(raw: RawModel, profile, w: int, axiom: str, viol) -> str | None:
    if viol is None:
        return "refutation without a violation witness"
    ok = oracle.violation_real(raw.n, raw.k, _profile_masks(profile), w, axiom,
                               viol.ell, viol.group, viol.common)
    if not ok or viol.axiom != axiom:
        return f"reported {viol.axiom} violation is not real"
    return None


def check_value(expected_fn, counts_fn=None):
    """Probability queries: exact value and, for three-valued models, counts."""
    def check(result):
        want = expected_fn()
        if result.value != want:
            return f"probability {result.value} != expected {want}"
        want_counts = counts_fn() if counts_fn else None
        if result.counts != want_counts:
            return f"counts {result.counts} != expected {want_counts}"
        return None
    return check


def three_valued_counts(raw: RawModel, value_fn):
    if raw.kind != "3va":
        return None
    def counts():
        total = oracle.plausible_count(raw)
        return (int(value_fn() * total), total)
    return counts


def check_prob(raw: RawModel, plist: Lazy, w, axiom: str):
    wm = mask(w)
    value = lambda: oracle.probability(raw, *plist.value, wm, axiom)  # noqa: E731
    return check_value(value, three_valued_counts(raw, value))


def check_scan(lib, model, raw: RawModel, plist: Lazy, w, axiom: str, mode: str):
    """Enumeration deciders: the answer and the first witness in scan order."""
    wm = mask(w)

    def check(result):
        plist_, _ = plist.value
        first = oracle.first_matching(raw, plist_, wm, axiom, want=(mode == "poss"))
        expected = (first is not None) if mode == "poss" else (first is None)
        if result.answer != expected:
            return f"answer {result.answer} != expected {expected}"
        if first is None:
            return None
        pp = result.witness_profile
        if pp is None or _profile_masks(pp.profile) != first:
            return "witness is not the first matching profile in scan order"
        problem = witness_problem(raw, pp.profile, pp.prob, lib, model)
        if problem or mode == "poss":
            return problem
        problem = violation_problem(raw, pp.profile, wm, axiom, result.witness_violation)
        if problem or axiom != "pjr":
            return problem
        viol = result.witness_violation
        want = oracle.pjr_first_violation(raw.n, raw.k, raw.m, first, wm)
        if (viol.ell, tuple(viol.common)) != want:
            return f"PJR witness (ell, T) = {(viol.ell, viol.common)} is not the first {want}"
        return None
    return check


def check_exists_nec(raw: RawModel, plist: Lazy, axiom: str):
    def check(result):
        want = oracle.exists_nec(raw, plist.value[0], axiom)
        if result.answer != (want is not None) or result.witness_committee != want:
            return f"exists-nec gave {result.answer, result.witness_committee}, expected {want}"
        return None
    return check


def check_max(raw: RawModel, plist: Lazy, axiom: str):
    def check(result):
        w, value, ties = oracle.max_committee(raw, *plist.value, axiom)
        got = (tuple(result.committee), result.value, result.ties)
        if got != (w, value, ties):
            return f"max gave {got}, expected {(w, value, ties)}"
        return None
    return check


def check_raises(name: str, count: int | None = None):
    def check(result):
        if type(result).__name__ != name:
            return f"expected {name}, got {result!r}"
        if count is not None and getattr(result, "count", None) != count:
            return f"{name} reports count {result.count}, expected {count}"
        return None
    return check


def check_equal(expected_fn, what: str):
    def check(result):
        want = expected_fn()
        if result != want:
            return f"{what} {result!r} != expected {want!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# polynomial JR questions


def judge_jr_decision(raw: RawModel, w, mode: str, answer: bool, witness, violation,
                      lib=None, model=None) -> str | None:
    """Possible/necessary JR: the answer from the oracle's characterisation;
    a poss witness must satisfy JR and a nec refutation must violate it.

    ``witness`` is ``(profile, prob)`` or None; ``violation`` has
    ``axiom``, ``ell``, ``group`` and ``common``.
    """
    wm = mask(w)
    if mode == "poss":
        expected = True if raw.kind == "lottery" else oracle.poss_jr(raw, wm)
    else:
        expected = oracle.nec_jr(raw, wm)
    if answer != expected:
        return f"answer {answer} != expected {expected}"
    needs_witness = answer if mode == "poss" else not answer
    if not needs_witness:
        return None
    if witness is None:
        return "missing witness profile"
    profile, prob = witness
    problem = witness_problem(raw, profile, prob, lib, model)
    if problem:
        return problem
    masks = _profile_masks(profile)
    if mode == "poss":
        if not oracle.jr_ok(raw.n, raw.k, raw.m, masks, wm):
            return "possible-JR witness violates JR"
        return None
    return violation_problem(raw, profile, wm, "jr", violation)


def check_jr_decision(lib, model, raw: RawModel, w, mode: str):
    def check(result):
        pp = result.witness_profile
        witness = None if pp is None else (pp.profile, pp.prob)
        return judge_jr_decision(raw, w, mode, result.answer, witness,
                                 result.witness_violation, lib, model)
    return check


def check_exists_poss_jr(raw: RawModel):
    def check(result):
        first = oracle.first_profile(raw)
        if not result.answer or result.witness_profile is None:
            return "exists-poss-jr must answer yes with a witness"
        if _profile_masks(result.witness_profile.profile) != first:
            return "witness is not the first plausible profile"
        w = result.witness_committee
        if w is None or len(w) != raw.k or not oracle.jr_ok(raw.n, raw.k, raw.m, first, mask(w)):
            return f"committee {w} is not JR on the first plausible profile"
        return None
    return check


def check_exists_nec_jr(raw: RawModel):
    def check(result):
        want = oracle.exists_nec_jr_special(raw)
        got = result.witness_committee if result.answer else None
        if result.answer != (want is not None) or got != want:
            return f"exists-nec-jr gave {result.answer, got}, expected {want}"
        if want is not None and not oracle.nec_jr(raw, mask(want)):
            return f"committee {want} is not necessarily JR"
        return None
    return check


# ---------------------------------------------------------------------------
# CLI reports, parsed from their machine output


def cli_json(result, code: int):
    if result.code != code:
        raise ValueError(f"exit code {result.code}, expected {code}: {result.stderr.strip()}")
    return json.loads(result.stdout)


def check_cli_json(code: int, expected_fn):
    def check(result):
        got = cli_json(result, code)
        want = expected_fn()
        return None if got == want else f"report {got} != expected {want}"
    return check


def check_cli_invalid():
    def check(result):
        got = cli_json(result, 2)
        if got.get("valid") is not False or not got.get("errors"):
            return f"malformed document reported as {got}"
        return None
    return check


def _violation(data):
    if data is None:
        return None
    return _Viol(data["axiom"], data["ell"], tuple(data["group"]), tuple(data["common"]))


@dataclass
class _Viol:
    axiom: str
    ell: int
    group: tuple
    common: tuple


def _witness(data):
    if data is None:
        return None
    return tuple(tuple(s) for s in data["profile"]), Fraction(data["prob"])


def check_cli_decision(raw, w, mode):
    def check(result):
        got = cli_json(result, 0)
        return judge_jr_decision(raw, w, mode, got["answer"],
                                 _witness(got.get("witness_profile")),
                                 _violation(got.get("witness_violation")))
    return check


def check_cli_exists_poss(raw):
    def check(result):
        got = cli_json(result, 0)
        first = oracle.first_profile(raw)
        wit = _witness(got.get("witness_profile"))
        if not got["answer"] or wit is None or tuple(mask(s) for s in wit[0]) != first:
            return "exists poss-jr must answer yes with the first plausible profile"
        problem = witness_problem(raw, wit[0], wit[1])
        if problem:
            return problem
        if not oracle.jr_ok(raw.n, raw.k, raw.m, first, mask(got["committee"])):
            return "committee is not JR on the witness profile"
        return None
    return check


def check_cli_exists_nec(raw):
    def check(result):
        got = cli_json(result, 0)
        want = oracle.exists_nec_jr_special(raw)
        if got["answer"] != (want is not None) or (want and tuple(got["committee"]) != want):
            return f"exists nec-jr gave {got}, expected {want}"
        return None
    return check


def check_cli_prob(raw, value_fn):
    def check(result):
        got = cli_json(result, 0)
        value = value_fn()
        total = oracle.plausible_count(raw)
        want = (f"{value.numerator}/{value.denominator}", int(value * total), total)
        have = (got["probability"], got.get("satisfying"), got.get("total"))
        return None if have == want else f"prob report {have} != expected {want}"
    return check


def check_cli_count(raw, value_fn):
    def check(result):
        got = cli_json(result, 0)
        value = value_fn()
        total = oracle.plausible_count(raw)
        want = {"satisfying": int(value * total), "total": total,
                "probability": f"{value.numerator}/{value.denominator}"}
        return None if got == want else f"count report {got} != expected {want}"
    return check


def check_cli_lottery(raw):
    def check(result):
        got = cli_json(result, 0)
        want = [[(prob, oracle.members(bits)) for bits, prob in dist]
                for dist in oracle.voter_distributions(raw)]
        have = [[(Fraction(e["prob"]), tuple(e["set"])) for e in voter]
                for voter in got["model"]["voters"]]
        if got["model"]["kind"] != "lottery" or have != want:
            return "to-lottery output differs from the expanded rows"
        return None
    return check


def check_cli_joint(raw):
    def check(result):
        got = cli_json(result, 0)
        plist, den = oracle.profiles(raw)
        want = [(Fraction(weight, den), prof) for prof, weight in plist]
        have = [(Fraction(e["prob"]), tuple(mask(s) for s in e["profile"]))
                for e in got["model"]["entries"]]
        if got["model"]["kind"] != "joint" or have != want:
            return "to-joint output differs from the product of the lotteries"
        return None
    return check


def check_cli_gen(kind, tag, n, m, k, uncertainty):
    def check(result):
        got = cli_json(result, 0)
        inst = got["instance"]
        if (inst["voters"], inst["candidates"], inst["committee_size"]) != (n, m, k):
            return f"generated instance {inst} != {(n, m, k)}"
        model = got["model"]
        if model["kind"] != tag:
            return f"generated kind {model['kind']}"
        if kind in ("cp", "3va"):
            interior = sum(1 for row in model["rows"] for p in row if 0 < Fraction(p) < 1)
            if interior != uncertainty or len(model["rows"]) != n:
                return f"generated {interior} uncertain entries, expected {uncertainty}"
        elif len(model["voters"]) != n or any(
                not 1 <= len(v) <= 3 or sum(Fraction(e["prob"]) for e in v) != 1
                for v in model["voters"]):
            return "generated lottery has a malformed voter"
        return None
    return check


def check_cli_3sat(cnf):
    """The gadget's defining property: one voter per clause with three
    equiprobable slot sets, and two slot sets share a candidate iff their
    literals are complementary and in different clauses."""
    def check(result):
        got = cli_json(result, 0)
        n = len(cnf)
        voters = got["model"]["voters"]
        if len(voters) != n or got["instance"]["committee_size"] != n // 2:
            return "3sat gadget has the wrong shape"
        m = got["instance"]["candidates"]
        if got["committee"] != list(range(m - n // 2, m)):
            return "3sat gadget committee is not the last block"
        slots = [(i, j, set(voters[i][j]["set"])) for i in range(n) for j in range(3)]
        if any(e["prob"] != "1/3" for v in voters for e in v) or any(len(v) != 3 for v in voters):
            return "3sat gadget sets are not three equiprobable slots"
        for (i1, j1, s1), (i2, j2, s2) in itertools.combinations(slots, 2):
            clash = i1 != i2 and cnf[i1][j1] == -cnf[i2][j2]
            if bool(s1 & s2) != clash:
                return f"slots ({i1},{j1}) and ({i2},{j2}) share={bool(s1 & s2)}, clash={clash}"
        return None
    return check


def check_cli_vc(n, edges):
    def check(result):
        got = cli_json(result, 0)
        rows = got["model"]["rows"]
        order = sorted(edges)
        k = n // 2
        want = [["0"] * (len(order) + k) for _ in range(n)]
        for idx, (u, v) in enumerate(order):
            want[u][idx] = want[v][idx] = "1"
        for i in range(n):
            want[i][len(order)] = "1/2"
        if [[str(Fraction(p)) for p in row] for row in rows] != want:
            return "vc gadget rows differ from the edge list"
        if got["committee"] != list(range(len(order), len(order) + k)):
            return "vc gadget committee is not the extra block"
        return None
    return check
