"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every comparison is exact (rationals or integers); the only tolerances
are the per-criterion wall-clock bounds.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from abcu import (
    CnfFormula,
    Graph,
    Instance,
    approval_profile,
    cp_model,
    cp_to_lottery,
    enumerate_plausible,
    exists_nec_axiom,
    exists_nec_jr,
    gen_random,
    is_ejr,
    is_jr,
    is_nec_jr,
    is_pjr,
    is_poss_jr,
    jr_probability,
    jr_satisfying_count,
    lottery_to_joint,
    max_axiom,
    reduce_3sat,
    reduce_vc,
    tva_model,
)
from abcu.cli import main as cli_main
from abcu.io import emit_document, parse_document
from oracles import (
    brute_jr,
    brute_sat,
    nec_oracle,
    poss_oracle,
    prob_oracle,
    random_profile,
    vertex_cover_count,
)

DOCS = Path(__file__).parent.parent / "docs" / "examples"
HALF = Fraction(1, 2)


@contextmanager
def criterion(number, name, bound_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] PASS {name} ({elapsed:.2f}s, bound {bound_seconds}s)")
    assert elapsed < bound_seconds, f"criterion {number} took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# shared deterministic model suites (criterion 11 re-checks suites 4-6)


@lru_cache(maxsize=None)
def suite4_models():
    """300 lottery + 300 matrix models with a committee each."""
    cases = []
    rng = random.Random(401)
    for i in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        k = rng.randint(1, m)
        model = gen_random("lottery", n, m, k, rng.randint(0, 2), seed=10_000 + i)
        cases.append((model, tuple(sorted(rng.sample(range(m), k)))))
    for i in range(300):
        kind = "3va" if i % 2 == 0 else "cp"
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        k = rng.randint(1, m)
        degree = rng.randint(0, min(8, n * m))
        model = gen_random(kind, n, m, k, degree, seed=20_000 + i)
        cases.append((model, tuple(sorted(rng.sample(range(m), k)))))
    return tuple(cases)


@lru_cache(maxsize=None)
def suite5_models():
    """200 three-valued models whose committee columns are certain."""
    cases = []
    rng = random.Random(402)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        k = rng.randint(1, m)
        w = tuple(sorted(rng.sample(range(m), k)))
        wset = set(w)
        rows = [
            [
                Fraction(rng.randint(0, 1)) if c in wset
                else rng.choice((Fraction(0), HALF, Fraction(1)))
                for c in range(m)
            ]
            for _ in range(n)
        ]
        cases.append((tva_model(Instance(n, m, k), rows), w))
    return tuple(cases)


@lru_cache(maxsize=None)
def suite6_models():
    """200 three-valued models with k = n <= 4."""
    cases = []
    rng = random.Random(403)
    for i in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(n, 5)
        model = gen_random("3va", n, m, n, rng.randint(0, min(8, n * m)), seed=30_000 + i)
        cases.append((model, tuple(sorted(rng.sample(range(m), n)))))
    return tuple(cases)


# ---------------------------------------------------------------------------


def test_criterion_01_conversion_example():
    with criterion(1, "per-candidate probabilities expand to the worked set lottery", 1):
        model = cp_model(Instance(1, 3, 1), [["0.9", "0.6", "0.5"]])
        lottery = cp_to_lottery(model)
        table = {s: lam for lam, s in lottery.lotteries[0]}
        assert len(table) == 8
        assert table[(0, 2)] == Fraction(9, 50)
        assert sum(table.values(), Fraction(0)) == 1


def test_criterion_02_conversion_commutation():
    with criterion(2, "matrix enumeration commutes with lottery/joint conversion", 30):
        rng = random.Random(404)
        for i in range(200):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(1, m)
            degree = rng.randint(0, min(8, n * m))
            model = gen_random("cp", n, m, k, degree, seed=40_000 + i)
            direct = {pp.profile: pp.prob for pp in enumerate_plausible(model)}
            via = {
                pp.profile: pp.prob
                for pp in enumerate_plausible(lottery_to_joint(cp_to_lottery(model)))
            }
            assert direct == via


def test_criterion_03_axiom_chain_and_brute_force():
    with criterion(3, "axiom chain and definitional brute force on certain profiles", 60):
        rng = random.Random(405)
        for _ in range(500):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            k = rng.randint(1, min(m, 3))
            inst = Instance(n, m, k)
            prof = approval_profile(random_profile(rng, inst), inst)
            for w in itertools.combinations(range(m), k):
                jr = is_jr(inst, prof, w)
                pjr = is_pjr(inst, prof, w)
                ejr = is_ejr(inst, prof, w)
                assert not (ejr and not pjr)
                assert not (pjr and not jr)
                assert jr == brute_jr(inst, prof, w)


def test_criterion_04_decider_oracle_agreement():
    with criterion(4, "possible/necessary deciders match the enumeration oracle", 60):
        from abcu.uncertainty import LotteryModel

        for model, w in suite4_models():
            nec = is_nec_jr(model, w)
            poss = is_poss_jr(model, w)
            assert nec.answer == nec_oracle(model, w)
            assert poss.answer == poss_oracle(model, w)
            assert nec.method == "poly-special-case"
            if not isinstance(model, LotteryModel):
                assert poss.method == "poly-special-case"


def test_criterion_05_closed_form_certain_committee():
    with criterion(5, "certain-committee closed form equals enumeration", 30):
        hand = tva_model(Instance(2, 2, 1), [["0", "1"], ["0", "1/2"]])
        result = jr_probability(hand, (0,))
        assert result.value == HALF
        assert result.method == "closed-form-certain-w"
        for model, w in suite5_models():
            result = jr_probability(model, w)
            assert result.method == "closed-form-certain-w"
            assert result.value == prob_oracle(model, w)


def test_criterion_06_full_committee_counting():
    with criterion(6, "k = n profile counting equals enumeration", 30):
        hand = tva_model(Instance(2, 3, 2), [["1/2", "0", "1/2"], ["0", "1", "1/2"]])
        assert jr_satisfying_count(hand, (0, 1)) == (6, 8)
        assert jr_probability(hand, (0, 1)).value == Fraction(3, 4)
        for model, w in suite6_models():
            count, total = jr_satisfying_count(model, w)
            oracle_value = prob_oracle(model, w)
            assert Fraction(count, total) == oracle_value
            satisfying = sum(
                1 for pp in enumerate_plausible(model)
                if is_jr(model.instance, pp.profile, w)
            )
            assert (count, total) == (satisfying, 2 ** sum(
                1 for row in model.probs for p in row if p == HALF))


def test_criterion_07_singleton_lottery_existence():
    with criterion(7, "singleton-support existence shortcut equals committee scan", 30):
        rng = random.Random(407)
        for i in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 4)
            k = rng.randint(1, m)
            model = gen_random("singleton-lottery", n, m, k, rng.randint(0, 3), seed=50_000 + i)
            result = exists_nec_jr(model)
            assert result.method == "poly-special-case"
            scan = [
                w for w in itertools.combinations(range(m), k)
                if is_nec_jr(model, w).answer
            ]
            assert result.answer == bool(scan)
            if result.answer:
                assert is_nec_jr(model, result.witness_committee).answer


def test_criterion_08_interior_matrices():
    with criterion(8, "strictly interior matrices admit only the full committee", 10):
        rng = random.Random(408)
        for m in range(1, 6):
            for k in range(1, m + 1):
                for trial in range(3):
                    n = rng.randint(1, 4)
                    model = gen_random("cp", n, m, k, n * m, seed=60_000 + 100 * m + 10 * k + trial)
                    assert all(0 < p < 1 for row in model.probs for p in row)
                    result = exists_nec_jr(model)
                    assert result.method == "poly-special-case"
                    assert result.answer == (k == m)


def _clause_universe(variables, distinct_only):
    literals = [v for var in variables for v in (var, -var)]
    if distinct_only:
        return [
            tuple(v if s else -v for v, s in zip(variables, signs))
            for signs in itertools.product((True, False), repeat=len(variables))
        ]
    return list(itertools.combinations_with_replacement(literals, 3))


def test_criterion_09_satisfiability_gadget():
    with criterion(9, "satisfiability gadget: worked example and exhaustive sweep", 60):
        from abcu import complementary_slot_pairs

        example = CnfFormula(4, ((1, 2, 3), (1, 2, -3), (-3, -2, 4), (1, 2, 4)))
        assert complementary_slot_pairs(example) == ((2, 8), (3, 6), (3, 7), (5, 8), (8, 11))
        model, _, w = reduce_3sat(example)
        assert is_poss_jr(model, w).answer is True

        def check(num_vars, clauses):
            f = CnfFormula(num_vars, clauses)
            gadget, _, committee = reduce_3sat(f)
            assert is_poss_jr(gadget, committee).answer == brute_sat(f)

        # all two-clause formulas over every 3-literal clause on 3 variables
        for clauses in itertools.combinations_with_replacement(
                _clause_universe((1, 2, 3), distinct_only=False), 2):
            check(3, clauses)
        # all four-clause formulas over distinct-variable clauses on 3 variables
        for clauses in itertools.combinations_with_replacement(
                _clause_universe((1, 2, 3), distinct_only=True), 4):
            check(3, clauses)
        # all four-clause formulas over every 3-literal clause on 2 variables,
        # where unsatisfiable formulas exist
        unsat_seen = False
        for clauses in itertools.combinations_with_replacement(
                _clause_universe((1, 2), distinct_only=False), 4):
            f = CnfFormula(2, clauses)
            sat = brute_sat(f)
            unsat_seen = unsat_seen or not sat
            gadget, _, committee = reduce_3sat(f)
            assert is_poss_jr(gadget, committee).answer == sat
        assert unsat_seen


def test_criterion_10_vertex_cover_gadget():
    with criterion(10, "vertex-cover gadget counts match brute force", 30):
        cycle4 = Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
        k4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
        graphs = [
            Graph(2, ()),
            Graph(2, ((0, 1),)),
            Graph(4, ()),
            Graph(4, ((0, 1), (1, 2), (2, 3))),          # path
            Graph(4, ((0, 1), (0, 2), (0, 3))),          # star
            cycle4,
            k4,
            Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),  # 6-cycle
            Graph(6, tuple(itertools.combinations(range(6), 2))),        # complete
            Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))),  # two triangles
            Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),          # path
        ]
        model, _, w = reduce_vc(cycle4)
        assert jr_satisfying_count(model, w) == (7, 16)
        model, _, w = reduce_vc(k4)
        assert jr_satisfying_count(model, w) == (5, 16)
        model, _, w = reduce_vc(Graph(4, ()))
        assert jr_satisfying_count(model, w) == (16, 16)
        for g in graphs:
            model, _, w = reduce_vc(g)
            count, total = jr_satisfying_count(model, w)
            assert count == vertex_cover_count(g)
            assert total == 2**g.num_vertices


def test_criterion_11_cross_module_consistency():
    with criterion(11, "probabilities, deciders and maximization agree", 60):
        cases = list(suite4_models()) + list(suite5_models()) + list(suite6_models())
        for model, w in cases:
            value = jr_probability(model, w).value
            assert (value == 1) == is_nec_jr(model, w).answer
            assert (value > 0) == is_poss_jr(model, w).answer
        for model, _ in cases[::10]:
            best = max_axiom(model, "jr")
            assert (best.value == 1) == exists_nec_jr(model).answer
        for model, _ in cases[::100]:
            for axiom in ("pjr", "ejr"):
                best = max_axiom(model, axiom)
                assert (best.value == 1) == exists_nec_axiom(model, axiom).answer


def test_criterion_12_cli_round_trip_and_stability(capsys, tmp_path):
    with criterion(12, "documents round-trip and machine reports are byte-stable", 10):
        for path in sorted(DOCS.glob("*.json")):
            text = path.read_text()
            doc = parse_document(text)
            assert emit_document(doc) == text

        def run(*argv):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            assert code == 0
            return out

        gadget_doc = run("reduce", "vc", str(DOCS / "graph.edges"))
        assert parse_document(gadget_doc).committee == (4, 5)
        vc_path = tmp_path / "vc.json"
        vc_path.write_text(gadget_doc)

        commands = [
            ("prob", "jr", "--output", "machine", str(DOCS / "three-valued.json")),
            ("decide", "nec", "jr", "--witness", "--output", "machine",
             str(DOCS / "candidate-probability.json")),
            ("exists", "nec-jr", "--output", "machine", str(DOCS / "lottery.json")),
            ("max", "ejr", "--output", "machine", str(DOCS / "joint.json")),
            ("count", "--output", "machine", str(vc_path)),
            ("reduce", "3sat", str(DOCS / "formula.cnf")),
        ]
        for args in commands:
            first = run(*args)
            second = run(*args)
            assert first == second
            if "machine" in args:
                json.loads(first)
        report = json.loads(run("count", "--output", "machine", str(vc_path)))
        assert (report["satisfying"], report["total"]) == (7, 16)
