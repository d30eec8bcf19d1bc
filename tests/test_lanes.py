"""Differential tests for the lane scan.

Joint-model probabilities and ``max_axiom``, and every probability and
``max_axiom`` under ``force_enumeration``, test all the plausible
profiles of a chunk at once: ``uncertainty._lanes`` gives one integer
per (voter, candidate) with one bit per profile, and
``axioms._lane_test`` marks the satisfying profiles of a committee with
a few big-integer operations.  These tests compare the lane values, over
every committee, with the per-profile flat scan kept in
``tests/oracles.py`` and, on small models, with the brute force over
voter groups.  They also pin the lanes themselves against the
``Fraction``-product enumerator of ``tests/oracles.py``, the stored
joint lanes, and the memory bound of a forced scan.
"""

import itertools
import math
import pickle
from collections import Counter
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abcu import (
    Instance,
    JointModel,
    LotteryModel,
    MaxResult,
    PlausibleProfile,
    axiom_probability,
    cp_model,
    jr_probability,
    joint_model,
    lottery_model,
    lottery_to_joint,
    max_axiom,
    plausible_count,
    tva_model,
)
from abcu import uncertainty
from abcu.axioms import _at_least
from abcu.io import document_for, emit_document, parse_document
from abcu.probability import JOINT_SCAN, _scan_values
from abcu.uncertainty import _lanes
from oracles import (
    BRUTE,
    reference_max_axiom,
    reference_plausible,
    reference_values_by_enumeration,
)
from test_tree_scan import random_model

AXIOMS = ("jr", "pjr", "ejr")


def _weights(rng, count):
    raw = [rng.randint(1, 5) for _ in range(count)]
    return [Fraction(x, sum(raw)) for x in raw]


def random_joint(rng, inst, count, density=None):
    """A joint model of up to ``count`` distinct profiles; each voter's
    sets are drawn at its own density, so constant voters occur."""
    densities = [rng.random() if density is None else density for _ in range(inst.n)]
    profiles = {
        tuple(tuple(c for c in range(inst.m) if rng.random() < d) for d in densities)
        for _ in range(count)
    }
    profiles = sorted(profiles, key=lambda _: rng.random())
    return joint_model(inst, list(zip(_weights(rng, len(profiles)), profiles)))


def random_any(rng, max_n=7, max_m=6):
    """A joint, lottery, cp or 3va model with ``n <= max_n`` and ``m <= max_m``."""
    if rng.random() < 0.25:
        m = rng.randint(1, max_m)
        inst = Instance(rng.randint(1, max_n), m, rng.randint(1, m))
        return random_joint(rng, inst, rng.randint(1, 40))
    return random_model(rng, max_n=max_n, max_m=max_m)


def _committees(inst):
    return list(itertools.combinations(range(inst.m), inst.k))


def _assert_lanes_match(model):
    committees = _committees(model.instance)
    for axiom in AXIOMS:
        assert _scan_values(model, committees, axiom, None) == (
            reference_values_by_enumeration(model, committees, axiom)
        ), axiom


def _decode(model, lanes):
    """The ``(profile, weight)`` pairs of ``_lanes``, read bit by bit.

    On independent voters, a voter with one table entry has no lanes: its
    set is read from its table, and each chunk's ``fixed`` must count
    those voters per distinct set.  The other voters' lanes come in voter
    order."""
    inst = model.instance
    single = {}
    if not isinstance(model, JointModel):
        for v, (_, table) in enumerate(model.tables):
            if len(table) == 1:
                single[v] = table[0][0]
    varying = [v for v in range(inst.n) if v not in single]
    masks = Counter(sum(1 << c for c in s) for s in single.values())
    denom, chunks = lanes
    out = []
    for count, chunk, (scale, planes), fixed in chunks:
        assert sorted(fixed) == sorted(masks.items())
        assert all(len(col) == len(varying) for col in chunk)
        for p in range(count):
            prof = dict(single)
            for j, v in enumerate(varying):
                prof[v] = tuple(c for c in range(inst.m) if chunk[c][j] >> p & 1)
            out.append((
                tuple(prof[v] for v in range(inst.n)),
                scale * sum((plane >> p & 1) << b for b, plane in planes),
            ))
    return denom, out


class TestAtLeast:
    def test_against_popcount(self):
        rng = random.Random(5)
        for _ in range(400):
            width = rng.choice((1, 7, 64, 300))
            xs = [rng.getrandbits(width) * rng.randint(0, 1) for _ in range(rng.randint(0, 12))]
            for quota in range(1, len(xs) + 3):
                want = sum(
                    1 << p for p in range(width) if sum(x >> p & 1 for x in xs) >= quota
                )
                assert _at_least(xs, quota) == want

    def test_quota_beyond_every_count(self):
        # Disjoint lanes count at most 1 each: a short counter, a larger quota.
        assert _at_least([1, 2, 4, 8, 16], 2) == 0
        assert _at_least([3, 1, 1], 3) == 1
        assert _at_least([3, 1], 3) == 0


def _lane_denominator(model):
    """The denominator of the lanes: the lcm of a Joint model's entry
    denominators, else the product over the voters of the lcm of a
    lottery voter's, or of the product of a matrix row's free entries'."""
    if isinstance(model, JointModel):
        return math.lcm(*(lam.denominator for lam, _ in model.entries))
    if isinstance(model, LotteryModel):
        return math.prod(math.lcm(*(lam.denominator for lam, _ in voter))
                         for voter in model.lotteries)
    return math.prod(p.denominator for row in model.probs for p in row if 0 < p < 1)


def _assert_decodes_to_reference(model):
    denom, pairs = _decode(model, _lanes(model, None))
    assert denom == _lane_denominator(model)
    decoded = [PlausibleProfile(prof, Fraction(wt, denom)) for prof, wt in pairs]
    assert decoded == reference_plausible(model)


class TestLaneForm:
    """``_lanes`` lists the plausible profiles and their weights in
    enumeration order."""

    @pytest.mark.parametrize("seed", range(3))
    def test_decodes_to_the_kernel(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            _assert_decodes_to_reference(random_any(rng))

    @pytest.mark.parametrize("bound", [1, 2, 3, 8])
    def test_small_chunks_decode_to_the_kernel(self, monkeypatch, bound):
        monkeypatch.setattr(uncertainty, "LANE_CHUNK", bound)
        rng = random.Random(bound)
        for _ in range(40):
            model = random_model(rng)
            _assert_decodes_to_reference(model)
            # More only when the last voter with lanes alone has more sets.
            sizes = [len(t) for _, t in model.tables if len(t) > 1]
            largest = max([bound] + sizes[-1:])
            assert all(count <= largest for count, *_ in _lanes(model, None)[1])

    def test_forced_chunks_are_bounded(self):
        # 2^14 plausible profiles, one free entry in each of 14 rows.
        inst = Instance(14, 3, 2)
        model = tva_model(inst, [["1/2", 1, 0]] * 14)
        counts = [count for count, *_ in _lanes(model, None)[1]]
        assert counts == [uncertainty.LANE_CHUNK] * 4
        # Certain voters add no lanes and no profiles: 2^14 still.
        model = tva_model(Instance(40, 3, 2), [["1/2", 1, 0]] * 14 + [[1, 0, 1]] * 26)
        chunks = list(_lanes(model, None)[1])
        assert [count for count, *_ in chunks] == [uncertainty.LANE_CHUNK] * 4
        for _, lanes, _, fixed in chunks:
            assert all(len(col) == 14 for col in lanes)
            assert fixed == [(0b101, 26)]

    def test_budget_error_up_front(self):
        from abcu import BudgetError

        model = tva_model(Instance(4, 2, 1), [["1/2", "1/2"]] * 4)
        with pytest.raises(BudgetError) as err:
            _lanes(model, 255)
        assert err.value.count == 256
        joint = random_joint(random.Random(1), Instance(3, 3, 1), 20)
        with pytest.raises(BudgetError):
            _lanes(joint, 1)


class TestAgainstFlatScan:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_committee(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(50):
            _assert_lanes_match(random_any(rng))

    @pytest.mark.parametrize("seed", range(3))
    def test_public_answers(self, seed):
        rng = random.Random(2000 + seed)
        for _ in range(40):
            model = random_any(rng)
            for w in _committees(model.instance):
                for axiom in AXIOMS:
                    want, = reference_values_by_enumeration(model, [w], axiom)
                    forced = axiom_probability(model, w, axiom, force_enumeration=True)
                    assert forced.value == want
                    if isinstance(model, JointModel):
                        assert axiom_probability(model, w, axiom).value == want
            if isinstance(model, JointModel):
                w = _committees(model.instance)[0]
                assert jr_probability(model, w).method == JOINT_SCAN

    @pytest.mark.parametrize("bound", [1, 2, 5, 16])
    def test_many_chunks(self, monkeypatch, bound):
        monkeypatch.setattr(uncertainty, "LANE_CHUNK", bound)
        rng = random.Random(3000 + bound)
        for _ in range(25):
            _assert_lanes_match(random_model(rng))


@st.composite
def joint_models(draw):
    """A joint model of 1-5 voters and 1-6 candidates over 1-24 distinct
    profiles with weights 1-4."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, m))
    sets = st.lists(st.integers(0, m - 1), unique=True).map(lambda s: tuple(sorted(s)))
    profiles = draw(st.lists(st.tuples(*[sets] * n), min_size=1, max_size=24, unique=True))
    raw = draw(st.lists(st.integers(1, 4), min_size=len(profiles), max_size=len(profiles)))
    entries = [(Fraction(x, sum(raw)), prof) for x, prof in zip(raw, profiles)]
    return joint_model(Instance(n, m, k), entries)


@settings(deadline=None)
@given(joint_models())
def test_joint_lanes_property(model):
    _assert_lanes_match(model)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(3))
    def test_definitions(self, seed):
        rng = random.Random(4000 + seed)
        for _ in range(30):
            model = random_any(rng, max_n=5, max_m=5)
            if plausible_count(model) > 64:
                continue
            inst = model.instance
            plausible = reference_plausible(model)
            committees = _committees(inst)
            for axiom in AXIOMS:
                values = _scan_values(model, committees, axiom, None)
                for w, value in zip(committees, values):
                    assert value == sum(
                        (pp.prob for pp in plausible if BRUTE[axiom](inst, pp.profile, w)),
                        Fraction(0),
                    )


class TestMaxAxiom:
    @pytest.mark.parametrize("seed", range(3))
    def test_committee_value_and_ties(self, seed):
        rng = random.Random(5000 + seed)
        for _ in range(30):
            model = random_any(rng)
            for axiom in AXIOMS:
                want = MaxResult(*reference_max_axiom(model, axiom))
                assert max_axiom(model, axiom, force_enumeration=True) == want
                if isinstance(model, JointModel):
                    assert max_axiom(model, axiom) == want

    def test_joint_jr_over_the_approved_candidates(self):
        # Only candidates 1, 4 and 7 are ever approved: the joint scan
        # tests JR on those alone and answers as the flat scan does.
        rng = random.Random(5100)
        inst = Instance(3, 9, 2)
        for _ in range(20):
            profiles = {
                tuple(tuple(sorted(rng.sample((1, 4, 7), rng.randint(0, 2)))) for _ in range(3))
                for _ in range(rng.randint(1, 5))
            }
            model = joint_model(inst, [(Fraction(1, len(profiles)), p) for p in profiles])
            assert set(model.approved) <= {1, 4, 7}
            assert max_axiom(model, "jr") == MaxResult(*reference_max_axiom(model, "jr"))

    def test_many_ties(self):
        # Every voter approves everything: each committee satisfies every axiom.
        inst = Instance(4, 5, 2)
        joint = joint_model(inst, [(1, [list(range(5))] * 4)])
        for axiom in AXIOMS:
            assert max_axiom(joint, axiom) == MaxResult((0, 1), Fraction(1), 10)
        model = tva_model(inst, [["1/2"] * 5] * 2 + [[0] * 5] * 2)
        for axiom in AXIOMS:
            want = MaxResult(*reference_max_axiom(model, axiom))
            assert want.ties > 1
            assert max_axiom(model, axiom, force_enumeration=True) == want


class TestEdgeCases:
    def test_single_profile(self):
        inst = Instance(3, 4, 2)
        _assert_lanes_match(joint_model(inst, [(1, [[0, 1], [1], [3]])]))
        _assert_lanes_match(cp_model(inst, [[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0]]))

    def test_voters_with_one_set(self):
        inst = Instance(5, 4, 2)
        voters = [[(1, [0, 1])], [(1, [1])], [(1, [])], [(1, [2, 3])]]
        voters.append([(Fraction(1, 3), [0]), (Fraction(2, 3), [2, 3])])
        _assert_lanes_match(lottery_model(inst, voters))
        rng = random.Random(3)
        _assert_lanes_match(random_joint(rng, inst, 30, density=0.0))
        _assert_lanes_match(random_joint(rng, inst, 30, density=1.0))

    @pytest.mark.parametrize("n,m,k", [(5, 4, 1), (4, 4, 4), (3, 5, 4), (2, 3, 3), (1, 3, 2)])
    def test_extreme_committee_sizes(self, n, m, k):
        rng = random.Random(n * 100 + m * 10 + k)
        inst = Instance(n, m, k)
        for _ in range(5):
            _assert_lanes_match(random_joint(rng, inst, 25))
            _assert_lanes_match(tva_model(inst, [
                [rng.choice(("0", "1", "1/2")) for _ in range(m)] for _ in range(n)
            ]))

    def test_pools_smaller_than_the_quota(self):
        # Top level ell = k = 3 needs every voter; most pools hold fewer.
        inst = Instance(6, 5, 3)
        rng = random.Random(8)
        for _ in range(6):
            _assert_lanes_match(random_joint(rng, inst, 40, density=0.8))

    @pytest.mark.parametrize("m", [9, 10, 17])
    def test_many_candidates(self, m):
        rng = random.Random(m)
        inst = Instance(3, m, 2)
        model = random_joint(rng, inst, 25)
        committees = rng.sample(_committees(inst), 8)
        for axiom in AXIOMS:
            assert _scan_values(model, committees, axiom, None) == (
                reference_values_by_enumeration(model, committees, axiom)
            )
        lottery = lottery_model(inst, [
            [(Fraction(1, 2), [0, m - 1]), (Fraction(1, 2), [m - 2])],
            [(1, list(range(m)))],
            [(Fraction(1, 4), []), (Fraction(3, 4), [1, m - 1])],
        ])
        for axiom in AXIOMS:
            assert _scan_values(lottery, committees, axiom, None) == (
                reference_values_by_enumeration(lottery, committees, axiom)
            )

    def test_voter_with_more_than_256_distinct_sets(self):
        rng = random.Random(256)
        inst = Instance(2, 9, 3)
        sets = rng.sample([s for r in range(10) for s in itertools.combinations(range(9), r)], 300)
        profiles = [[list(s), [c for c in range(9) if rng.random() < 0.5]] for s in sets]
        model = joint_model(inst, list(zip(_weights(rng, 300), profiles)))
        assert len({prof[0] for _, prof in model.entries}) == 300
        committees = rng.sample(_committees(inst), 6)
        for axiom in AXIOMS:
            assert _scan_values(model, committees, axiom, None) == (
                reference_values_by_enumeration(model, committees, axiom)
            )

    def test_forced_scan_over_several_chunks(self):
        # 2^13 profiles: two chunks of 2^12.
        rng = random.Random(13)
        inst = Instance(7, 4, 2)
        cells = rng.sample([(i, c) for i in range(7) for c in range(4)], 13)
        rows = [[rng.choice((0, 1)) for _ in range(4)] for _ in range(7)]
        for i, c in cells:
            rows[i][c] = "1/2"
        model = tva_model(inst, rows)
        assert len(list(_lanes(model, None)[1])) == 2
        w = (0, 2)
        for axiom in AXIOMS:
            want, = reference_values_by_enumeration(model, [w], axiom)
            got = axiom_probability(model, w, axiom, force_enumeration=True)
            assert got.value == want
            assert got.counts == (want * 2**13, 2**13)


def _sparse_model(rng, kind, inst, approvable):
    """A ``kind`` model ("joint", "lottery" or "cp") whose voters approve
    candidates of ``approvable`` only; about half of the lottery voters
    and matrix rows have one set, so they are fixed in every chunk."""
    def subset():
        return tuple(c for c in approvable if rng.random() < 0.6)

    if kind == "joint":
        profiles = {tuple(subset() for _ in range(inst.n)) for _ in range(rng.randint(1, 6))}
        return joint_model(inst, list(zip(_weights(rng, len(profiles)), profiles)))
    if kind == "lottery":
        voters = [list({subset() for _ in range(rng.choice((1, 3)))}) for _ in range(inst.n)]
        return lottery_model(inst, [list(zip(_weights(rng, len(sets)), sets)) for sets in voters])
    values = [("0", "1"), ("0", "1", "1/2", "1/3")]
    return cp_model(inst, [
        [rng.choice(row_values) if c in approvable else "0" for c in range(inst.m)]
        for row_values in (rng.choice(values) for _ in range(inst.n))
    ])


class TestUnapprovedCandidates:
    """PJR and EJR lanes search only the candidates that some voter may
    approve, and at level 1 only those outside the committee; members
    that no voter approves, and fixed voters, are where a walk that
    drops a candidate or a member would go wrong."""

    def test_member_in_the_level_2_set(self):
        # Both voters approve {0, 2} in the first profile: level 2 fails
        # on T = {0, 2}, which holds member 0; in the second, level 1
        # fails on candidate 2.  Member 1 and candidate 3 are unapproved.
        inst = Instance(2, 4, 2)
        model = lottery_model(inst, [
            [(1, [0, 2])],
            [(Fraction(1, 2), [0, 2]), (Fraction(1, 2), [2])],
        ])
        assert model.approved == [0, 2]
        for axiom in ("pjr", "ejr"):
            assert axiom_probability(model, (0, 1), axiom, force_enumeration=True).value == 0
            want = MaxResult(*reference_max_axiom(model, axiom))
            assert max_axiom(model, axiom, force_enumeration=True) == want

    @pytest.mark.parametrize("kind", ["joint", "lottery", "cp"])
    def test_against_flat_scan(self, kind):
        rng = random.Random(5200 + len(kind))
        for _ in range(40):
            m = rng.randint(3, 6)
            inst = Instance(rng.randint(2, 5), m, rng.randint(1, min(3, m)))
            approvable = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
            model = _sparse_model(rng, kind, inst, approvable)
            assert set(model.approved) <= set(approvable)
            committees = _committees(inst)
            for axiom in ("pjr", "ejr"):
                want = reference_values_by_enumeration(model, committees, axiom)
                assert _scan_values(model, committees, axiom, None) == want
                got = max_axiom(model, axiom, force_enumeration=True)
                assert got == MaxResult(*reference_max_axiom(model, axiom))


def _joint_example():
    return random_joint(random.Random(21), Instance(4, 5, 2), 30)


class TestStoredJointLanes:
    def _observed(self, model):
        return (
            model, hash(model), repr(model), pickle.dumps(model),
            emit_document(document_for(model, (0, 1))),
        )

    def test_invisible_after_first_read(self):
        model = _joint_example()
        before = self._observed(model)
        model.lanes
        assert "lanes" in vars(model)
        after = self._observed(model)
        assert before == after
        twin = JointModel(model.instance, model.entries)
        assert model == twin and hash(model) == hash(twin)
        thawed = pickle.loads(pickle.dumps(model))
        assert "lanes" not in vars(thawed)
        assert thawed == model and thawed.lanes == model.lanes

    def test_constructors_build_no_lanes(self):
        model = _joint_example()
        text = emit_document(document_for(model))
        inst = Instance(2, 3, 1)
        built = [
            model,
            JointModel(model.instance, model.entries),
            parse_document(text).model,
            lottery_to_joint(lottery_model(inst, [[(Fraction(1, 2), [0]), (Fraction(1, 2), [1])],
                                                  [(1, [2])]])),
        ]
        for joint in built:
            assert "lanes" not in vars(joint)

    def test_built_once_per_model(self, monkeypatch):
        calls = []
        chunk = uncertainty._joint_chunk
        monkeypatch.setattr(
            uncertainty, "_joint_chunk", lambda *args: calls.append(args) or chunk(*args)
        )
        model = _joint_example()
        for w in _committees(model.instance):
            jr_probability(model, w)
            axiom_probability(model, w, "pjr")
            axiom_probability(model, w, "ejr", force_enumeration=True)
        for axiom in AXIOMS:
            max_axiom(model, axiom)
        assert len(calls) == 1
        other = JointModel(model.instance, model.entries)
        jr_probability(other, (0, 1))
        assert len(calls) == 2


class TestMemory:
    def test_forced_jr_scan_of_2_16_profiles(self):
        rng = random.Random(16)
        inst = Instance(8, 6, 3)
        cells = rng.sample([(i, c) for i in range(8) for c in range(6)], 16)
        rows = [[rng.choice((0, 0, 1)) for _ in range(6)] for _ in range(8)]
        for i, c in cells:
            rows[i][c] = "1/2"
        model = tva_model(inst, rows)
        assert plausible_count(model) == 2**16
        tracemalloc.start()
        try:
            result = axiom_probability(model, (0, 1, 2), "jr", force_enumeration=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert result.counts[1] == 2**16
        assert result.value == jr_probability(model, (0, 1, 2)).value
