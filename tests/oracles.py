"""Independent brute-force oracles the solver is validated against.

The axiom oracles work straight from the definitions, scanning all
voter groups, so they share no code path with the checkers under test;
``subset_pjr`` checks PJR by its subset characterisation on sets, for
profiles too large for a scan over voter groups.  The frozenset
checkers that brute-force voter groups are kept as the reference for
the bitmask checkers' witnesses, and the greedy JR committee that
recounts the approval sets at every pick as the reference for the
bitset greedy.
The model-level oracles combine plausible-profile enumeration with the
axiom checkers; they are the reference for every polynomial shortcut.
Because they share ``enumerate_plausible`` with the solver, that
enumerator is itself checked against the plain ``Fraction``-product
enumerators kept here.
The matrix views as they were built before the entry codes (rows
classified entry by entry, then ``axioms._approvers`` and ``_mask`` over
them) are kept as the reference for the views derived from the codes,
and the decoder of one candidate mask at a time by byte tables
(``reference_candidate_sets``) as the reference for the whole-matrix
decoder of row words (``uncertainty._row_sets``).
The ``Fraction``-comparison matrix paths (row expansion, the first
plausible profile, the matrix JR deciders and the three-valued closed
forms) and the ``json.dumps`` document writer are kept verbatim as the
references for their integer-native and direct-writer replacements, and
the lottery necessary-JR decider that rescans every voter per outside
candidate as the reference for its one-pass replacement, and the flat
scans that test one profile at a time (``_satisfaction_test`` over
``enumerate_plausible``) as the reference for the lane scan and for the
deciders' first-witness scan.
"""

import itertools
import json
import math
from fractions import Fraction
from typing import Callable

from abcu import (
    DEFAULT_BUDGET,
    BudgetError,
    JointModel,
    LotteryModel,
    PlausibleProfile,
    enumerate_plausible,
    jr_violation,
    profile_probability,
    satisfies,
)
from abcu.axioms import _COMMITTEE_FINDERS, Violation, _approvers, _Levels, _mask, _View
from abcu.decide import ENUM, POLY, DecisionResult
from abcu.io import FORMAT
from abcu.model import (
    ApprovalSet,
    Instance,
    Profile,
    approval_profile,
    meets_threshold,
    min_group_size,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)


def groups(n):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(n), r)


def brute_jr(inst, prof, w):
    """Justified representation straight from the definition: every
    quota-sized group with a commonly approved candidate has a member
    with an approved committee member."""
    wset = set(w)
    sets = [set(a) for a in prof]
    for group in groups(inst.n):
        if len(group) * inst.k < inst.n:
            continue
        common = set.intersection(*(sets[i] for i in group))
        if not common:
            continue
        if all(not (sets[i] & wset) for i in group):
            return False
    return True


def brute_ejr(inst, prof, w):
    wset = set(w)
    sets = [set(a) for a in prof]
    for ell in range(1, inst.k + 1):
        for group in groups(inst.n):
            if len(group) * inst.k < ell * inst.n:
                continue
            common = set.intersection(*(sets[i] for i in group))
            if len(common) < ell:
                continue
            if all(len(sets[i] & wset) < ell for i in group):
                return False
    return True


def brute_pjr(inst, prof, w):
    wset = set(w)
    sets = [set(a) for a in prof]
    for ell in range(1, inst.k + 1):
        for group in groups(inst.n):
            if len(group) * inst.k < ell * inst.n:
                continue
            common = set.intersection(*(sets[i] for i in group))
            if len(common) < ell:
                continue
            union = set.union(*(sets[i] for i in group))
            if len(union & wset) < ell:
                return False
    return True


BRUTE = {"jr": brute_jr, "pjr": brute_pjr, "ejr": brute_ejr}


def subset_pjr(inst, prof, w):
    """PJR by the subset characterisation, polynomial in n: level ``ell``
    fails iff for some ``ell``-set T of candidates and some (ell - 1)-set
    S of committee members, a quota of voters approve all of T and
    approve no committee member outside S."""
    wset = set(w)
    sets = [set(a) for a in prof]
    for ell in range(1, inst.k + 1):
        for t in itertools.combinations(range(inst.m), ell):
            for s in itertools.combinations(sorted(wset), min(ell - 1, len(wset))):
                inside = sum(1 for a in sets if set(t) <= a and a & wset <= set(s))
                if meets_threshold(inside, ell, inst):
                    return False
    return True


def violation_holds(inst, prof, w, violation):
    """Re-validate a reported violation against the definitions."""
    sets = [set(a) for a in prof]
    wset = set(w)
    group = violation.group
    if not group or len(group) * inst.k < violation.ell * inst.n:
        return False
    common = set(violation.common)
    if len(common) < violation.ell:
        return False
    if not all(common <= sets[i] for i in group):
        return False
    if violation.axiom == "jr":
        return violation.ell == 1 and all(not (sets[i] & wset) for i in group)
    if violation.axiom == "ejr":
        return all(len(sets[i] & wset) < violation.ell for i in group)
    if violation.axiom == "pjr":
        union = set.union(*(sets[i] for i in group))
        return len(union & wset) < violation.ell
    return False


# ---------------------------------------------------------------------------
# reference witness finders: frozensets and a brute force over voter groups


def reference_ejr_violation(inst, prof, wset):
    approved = [frozenset(a) for a in prof]
    in_w = [len(a & wset) for a in approved]
    for ell in range(1, inst.k + 1):
        eligible = [i for i in range(inst.n) if in_w[i] < ell]
        if not meets_threshold(len(eligible), ell, inst):
            continue
        for t in itertools.combinations(range(inst.m), ell):
            tset = frozenset(t)
            group = tuple(i for i in eligible if tset <= approved[i])
            if meets_threshold(len(group), ell, inst):
                return Violation("ejr", ell, group, t)
    return None


def reference_pjr_violation(inst, prof, wset):
    approved = [frozenset(a) for a in prof]
    for ell in range(1, inst.k + 1):
        size = min_group_size(ell, inst)
        if size > inst.n:
            continue
        for t in itertools.combinations(range(inst.m), ell):
            tset = frozenset(t)
            pool = [i for i in range(inst.n) if tset <= approved[i]]
            if len(pool) < size:
                continue
            for group in itertools.combinations(pool, size):
                union = frozenset().union(*(approved[i] for i in group))
                if len(union & wset) < ell:
                    return Violation("pjr", ell, group, t)
    return None


REFERENCE_FINDERS = {"pjr": reference_pjr_violation, "ejr": reference_ejr_violation}


# ---------------------------------------------------------------------------
# model-level oracles: enumeration + the deterministic checkers


def poss_oracle(model, w, axiom="jr"):
    return any(
        satisfies(model.instance, pp.profile, w, axiom)
        for pp in enumerate_plausible(model)
    )


def nec_oracle(model, w, axiom="jr"):
    return all(
        satisfies(model.instance, pp.profile, w, axiom)
        for pp in enumerate_plausible(model)
    )


def prob_oracle(model, w, axiom="jr"):
    return sum(
        (pp.prob for pp in enumerate_plausible(model)
         if satisfies(model.instance, pp.profile, w, axiom)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# per-profile scans: one test per plausible profile


class _PackedSets(dict):
    """Approval set -> packed per-candidate counter increments, built on
    first use: one field per candidate, +1 in each approved candidate's
    field for a set disjoint from the committee, 0 for any other set."""

    __slots__ = ("wset", "width")

    def __init__(self, wset, width):
        super().__init__()
        self.wset = wset
        self.width = width

    def __missing__(self, s):
        packed = 0
        if self.wset.isdisjoint(s):
            for c in s:
                packed |= 1 << (self.width * c)
        self[s] = packed
        return packed


def _jr_test(inst, wset):
    """A predicate equal to ``_jr_violation(inst, prof, wset) is None``.

    Sums the profile's packed sets, so each outside candidate's field
    holds its number of unrepresented approvers (at most ``n``, below
    ``2**(width - 1)``).  A bias of ``2**(width - 1) - quota`` in each
    outside field sets that field's top bit exactly when the count
    reaches the quota, and no field carries into the next.
    """
    width = inst.n.bit_length() + 1
    top = 1 << (width - 1)
    quota = min_group_size(1, inst)
    bias = high = 0
    for c in range(inst.m):
        if c not in wset:
            bias += (top - quota) << (width * c)
            high |= top << (width * c)
    packed = _PackedSets(wset, width)
    lookup = packed.__getitem__
    return lambda prof: not (sum(map(lookup, prof), bias) & high)


# The per-set bit view: (candidate mask, voter bitset) for each distinct
# approval set, and each candidate's approvers.  The level tests read a
# mask only within the committee, so they take it as they take the
# library's split by committee part; the reference scans keep their own.


class _SetMasks(dict):
    """Approval set -> candidate bitmask, built on first use."""

    __slots__ = ()

    def __missing__(self, s: ApprovalSet) -> int:
        mask = self[s] = _mask(s)
        return mask


def _bit_view(inst: Instance) -> Callable[[Profile], _View]:
    """A function from a profile to its bit view, sharing one table of
    set masks across every profile it is given.  The approvers are ORed
    from the voters of each distinct set, which the set masks need
    anyway; on the few-voter profiles enumeration feeds it, that is
    cheaper than :func:`_approvers`."""
    masks = _SetMasks()
    m = inst.m

    def view(prof: Profile) -> _View:
        voters: dict[ApprovalSet, int] = {}
        for i, s in enumerate(prof):
            voters[s] = voters.get(s, 0) | 1 << i
        approvers = [0] * m
        for s, bits in voters.items():
            for c in s:
                approvers[c] |= bits
        return [(masks[s], bits) for s, bits in voters.items()], approvers

    return view


def _satisfaction_test(inst, wset, axiom):
    """A predicate telling whether a profile satisfies ``axiom`` for the
    committee ``wset``: the packed counter test for JR, a level test on
    the profile's bit view for PJR and EJR."""
    if axiom == "jr":
        return _jr_test(inst, wset)
    view = _bit_view(inst)
    levels = _Levels(inst, wset)
    level_test = _Levels.ejr if axiom == "ejr" else _Levels.pjr
    return lambda prof: level_test(levels, view(prof)) is None


def reference_first(model, wset, axiom, holds, budget=None):
    """The first plausible profile, in enumeration order, that satisfies
    (``holds``) or violates ``axiom`` for ``wset``, or None, testing one
    profile at a time: the flat scan ``decide._first`` replaced."""
    plausible = enumerate_plausible(model, budget)
    test = _satisfaction_test(model.instance, wset, axiom)
    return next((pp for pp in plausible if test(pp.profile) == holds), None)


def reference_decision(model, w, axiom, mode, budget=None):
    """``is_poss_axiom`` (``mode`` "poss") or ``is_nec_axiom`` ("nec")
    under ``force_enumeration``, from ``reference_first``."""
    inst = model.instance
    wset = frozenset(w)
    pp = reference_first(model, wset, axiom, mode == "poss", budget)
    if pp is None:
        return DecisionResult(mode == "nec", ENUM)
    if mode == "poss":
        return DecisionResult(True, ENUM, witness_profile=pp)
    return DecisionResult(
        False, ENUM, witness_profile=pp,
        witness_violation=_COMMITTEE_FINDERS[axiom](inst, pp.profile, wset),
    )


def reference_exists(model, axiom, mode, budget=None):
    """``exists_poss_axiom`` ("poss") or ``exists_nec_axiom`` ("nec") by
    ``reference_first`` over every committee in lexicographic order."""
    for w in itertools.combinations(range(model.instance.m), model.instance.k):
        pp = reference_first(model, frozenset(w), axiom, mode == "poss", budget)
        if mode == "poss" and pp is not None:
            return DecisionResult(True, ENUM, witness_committee=w, witness_profile=pp)
        if mode == "nec" and pp is None:
            return DecisionResult(True, ENUM, witness_committee=w)
    return DecisionResult(False, ENUM)


def reference_values_by_enumeration(model, committees, axiom, budget=None):
    """Exact satisfaction probabilities of ``committees`` from one pass
    over the plausible profiles, one profile at a time, summing integer
    weights over the lcm of the probabilities' denominators: the flat
    scan the lane scan replaced."""
    inst = model.instance
    plausible = [pp.prob.as_integer_ratio() + (pp.profile,)
                 for pp in enumerate_plausible(model, budget)]
    denom = math.lcm(*(den for _, den, _ in plausible))
    tests = [_satisfaction_test(inst, frozenset(w), axiom) for w in committees]
    totals = [0] * len(tests)
    for num, den, prof in plausible:
        wt = num * (denom // den)
        for j, holds in enumerate(tests):
            if holds(prof):
                totals[j] += wt
    return [Fraction(total, denom) for total in totals]


def reference_max_axiom(model, axiom, budget=None):
    """``(committee, value, ties)`` of ``max_axiom`` from the per-profile
    flat scan over every committee."""
    inst = model.instance
    committees = list(itertools.combinations(range(inst.m), inst.k))
    values = reference_values_by_enumeration(model, committees, axiom, budget)
    best = max(values)
    return committees[values.index(best)], best, values.count(best)


def exists_nec_oracle(model, axiom="jr"):
    inst = model.instance
    for w in itertools.combinations(range(inst.m), inst.k):
        if nec_oracle(model, w, axiom):
            return w
    return None


# ---------------------------------------------------------------------------
# reference enumerators: one Fraction product per profile


def reference_profile_probability(model, prof):
    """Exact probability of ``prof``, one ``Fraction`` factor per
    matrix entry for CandidateProb models, three-valued or not."""
    prof = approval_profile(prof, model.instance)
    if isinstance(model, (JointModel, LotteryModel)):
        return profile_probability(model, prof)
    lam = ONE
    for row, s in zip(model.probs, prof):
        members = set(s)
        for c, p in enumerate(row):
            lam *= p if c in members else 1 - p
            if lam == 0:
                return Fraction(0)
    return lam


def reference_plausible(model):
    """Every plausible profile in the documented enumeration order, with
    its probability as a product of ``Fraction`` factors."""
    if isinstance(model, JointModel):
        return [PlausibleProfile(prof, lam) for lam, prof in model.entries]
    if isinstance(model, LotteryModel):
        return list(_enumerate_lottery(model))
    return list(_enumerate_matrix(model.instance, model.probs))


def _enumerate_lottery(model):
    for combo in itertools.product(*model.lotteries):
        lam = ONE
        for entry_lam, _ in combo:
            lam *= entry_lam
        yield PlausibleProfile(tuple(s for _, s in combo), lam)


def _free_pairs(rows):
    return [
        (i, c)
        for i, row in enumerate(rows)
        for c, p in enumerate(row)
        if 0 < p < 1
    ]


def _enumerate_matrix(inst, rows):
    forced = [[c for c, p in enumerate(row) if p == 1] for row in rows]
    free = _free_pairs(rows)
    for bits in itertools.product((0, 1), repeat=len(free)):
        lam = ONE
        extra = [[] for _ in range(inst.n)]
        for (i, c), bit in zip(free, bits):
            p = rows[i][c]
            if bit:
                extra[i].append(c)
                lam *= p
            else:
                lam *= 1 - p
        prof = tuple(
            tuple(sorted(forced[i] + extra[i])) for i in range(inst.n)
        )
        yield PlausibleProfile(prof, lam)


def recursive_poss_jr_lottery(model, w, budget=None, count_nodes=False):
    """Possible JR on a lottery by recursive backtracking, one call per
    voter: the reference for the search's witness and node count.  With
    ``count_nodes``, returns ``(result, nodes)``, the sets tried."""
    cap = DEFAULT_BUDGET if budget is None else budget
    inst = model.instance
    wset = frozenset(w)
    counts = [0] * inst.m
    chosen = []
    nodes = 0

    def search(i):
        nonlocal nodes
        if i == inst.n:
            return True
        for _, s in model.lotteries[i]:
            nodes += 1
            if nodes > cap:
                raise BudgetError(nodes, cap)
            bumped = [] if wset & set(s) else list(s)
            dead = False
            for c in bumped:
                counts[c] += 1
                if meets_threshold(counts[c], 1, inst):
                    dead = True
            if not dead:
                chosen.append(s)
                if search(i + 1):
                    return True
                chosen.pop()
            for c in bumped:
                counts[c] -= 1
        return False

    if search(0):
        prof = tuple(chosen)
        result = DecisionResult(
            True, ENUM,
            witness_profile=PlausibleProfile(prof, profile_probability(model, prof)),
        )
    else:
        result = DecisionResult(False, ENUM)
    return (result, nodes) if count_nodes else result


def reference_greedy_jr_committee(inst, prof):
    """The greedy JR committee recounted from the approval sets at every
    pick: the reference for the bitset greedy."""
    chosen = []
    unrepresented = set(range(inst.n))
    while len(chosen) < inst.k:
        counts = [0] * inst.m
        for i in unrepresented:
            for c in prof[i]:
                counts[c] += 1
        for c in chosen:
            counts[c] = -1
        best = max(range(inst.m), key=lambda c: (counts[c], -c))
        if not meets_threshold(counts[best], 1, inst):
            break
        chosen.append(best)
        unrepresented = {i for i in unrepresented if best not in prof[i]}
    for c in range(inst.m):
        if len(chosen) == inst.k:
            break
        if c not in chosen:
            chosen.append(c)
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# combinatorial oracles for the gadget generators


def brute_sat(formula):
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            return True
    return False


def vertex_cover_count(graph):
    count = 0
    for r in range(graph.num_vertices + 1):
        for subset in itertools.combinations(range(graph.num_vertices), r):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                count += 1
    return count


# ---------------------------------------------------------------------------
# small random certain profiles for the axiom suites


def random_profile(rng, inst):
    return tuple(
        tuple(c for c in range(inst.m) if rng.random() < 0.5)
        for _ in range(inst.n)
    )


# ---------------------------------------------------------------------------
# reference matrix paths: one Fraction comparison per entry


def reference_row_lottery(row):
    """One matrix row as a set distribution: free candidates ascending,
    the first outermost, disapprove before approve."""
    forced = [c for c, p in enumerate(row) if p == 1]
    free = [c for c, p in enumerate(row) if 0 < p < 1]
    entries = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        lam = ONE
        members = list(forced)
        for c, bit in zip(free, bits):
            if bit:
                members.append(c)
                lam *= row[c]
            else:
                lam *= 1 - row[c]
        entries.append((lam, tuple(sorted(members))))
    return tuple(entries)


def reference_split_row(row):
    """A matrix row on integers, read entry by entry: its forced
    approvals (``num == den``) and its free entries ``(c, num, den)``
    (any other ``num != 0``), each in ascending candidate order."""
    forced = []
    free = []
    for c, p in enumerate(row):
        num, den = p.numerator, p.denominator
        if num == den:
            forced.append(c)
        elif num:
            free.append((c, num, den))
    return forced, free


def reference_row_width(m):
    """The bits of one row of a row word: ``m`` rounded up to a multiple of 16."""
    return 16 * math.ceil(m / 16)


def reference_row_word(m, masks):
    """The candidate masks of the rows, one per row, as one row word:
    row ``i``'s mask shifted to bit ``i * reference_row_width(m)``."""
    width = reference_row_width(m)
    return sum(mask << i * width for i, mask in enumerate(masks))


def _byte_sets(j):
    """For each byte value, as byte ``j`` of a candidate mask, the
    candidates its set bits stand for, ascending."""
    return tuple(tuple(8 * j + b for b in range(8) if x >> b & 1) for x in range(256))


def reference_candidate_sets(m, masks):
    """The candidates of each mask of ``masks``, ascending, for candidates
    below ``m``, one mask at a time: each byte of a mask is looked up in
    the table of its position (``_byte_sets``) and the pieces are joined,
    lowest first."""
    size = (m + 7) // 8
    tables = [_byte_sets(j) for j in range(size)]
    sets = []
    for mask in masks:
        s = ()
        for j, byte in enumerate(mask.to_bytes(size, "little")):
            s += tables[j][byte]
        sets.append(s)
    return sets


def reference_row_sets(word, n, m):
    """The approval sets of the ``n`` rows of a row word, row by row:
    each row's mask cut out of the word and decoded on its own."""
    width = reference_row_width(m)
    row = (1 << width) - 1
    return tuple(reference_candidate_sets(m, [word >> i * width & row for i in range(n)]))


def reference_matrix_views(model):
    """Every view of a matrix model, built from its rows classified
    entry by entry (``reference_split_row``): the voters per candidate
    by ``axioms._approvers``, the row masks by ``axioms._mask``, placed
    in one row word each by shifts (``reference_row_word``), the column
    products by one loop over the free entries."""
    m = model.instance.m
    rows = [reference_split_row(row) for row in model.probs]
    approve, miss, dens = [1] * m, [1] * m, [1] * m
    for _, free in rows:
        for c, num, den in free:
            approve[c] *= num
            miss[c] *= den - num
            dens[c] *= den
    den = math.prod(dens)
    return {
        "split_rows": rows,
        "columns": (_approvers(m, [forced for forced, _ in rows]),
                    _approvers(m, [[c for c, _, _ in free] for _, free in rows])),
        "row_words": (reference_row_word(m, [_mask(forced) for forced, _ in rows]),
                      reference_row_word(m, [_mask(c for c, _, _ in free) for _, free in rows])),
        "column_products": (approve, miss, den),
        "profile_count": 2 ** sum(len(free) for _, free in rows),
        "first": PlausibleProfile(tuple(tuple(forced) for forced, _ in rows),
                                  Fraction(math.prod(miss), den)),
    }


def reference_cp_to_lottery(model):
    return LotteryModel(model.instance, tuple(reference_row_lottery(row) for row in model.probs))


def reference_plausible_count(model):
    return 2 ** len(_free_pairs(model.probs))


def reference_first_plausible(model):
    """The first profile in enumeration order, without paying for enumeration."""
    rows = model.probs
    prof = tuple(
        tuple(c for c, p in enumerate(row) if p == 1) for row in rows
    )
    lam = ONE
    for row in rows:
        for p in row:
            if 0 < p < 1:
                lam *= 1 - p
    return PlausibleProfile(prof, lam)


def reference_poss_jr_matrix(model, w):
    """Possible JR on a matrix model by the best-case completion."""
    inst = model.instance
    rows = model.probs
    wset = set(w)
    prof = tuple(
        tuple(sorted(
            [c for c in w if row[c] > 0]
            + [c for c, p in enumerate(row) if c not in wset and p == 1]
        ))
        for row in rows
    )
    if jr_violation(inst, prof, w) is None:
        return DecisionResult(
            True, POLY,
            witness_profile=PlausibleProfile(prof, reference_profile_probability(model, prof)),
        )
    return DecisionResult(False, POLY)


def reference_nec_jr_matrix(model, w):
    """Necessary JR on a matrix model by counting committee dodgers."""
    inst = model.instance
    rows = model.probs
    wset = frozenset(w)
    dodgers = [all(rows[i][c] < 1 for c in w) for i in range(inst.n)]
    for c in range(inst.m):
        if c in wset:
            continue
        group = [i for i in range(inst.n) if dodgers[i] and rows[i][c] > 0]
        if meets_threshold(len(group), 1, inst):
            in_group = set(group)
            prof = tuple(
                tuple(sorted(
                    {c2 for c2, p in enumerate(rows[i]) if p == 1}
                    | ({c} if i in in_group else set())
                ))
                for i in range(inst.n)
            )
            return DecisionResult(
                False, POLY,
                witness_profile=PlausibleProfile(prof, reference_profile_probability(model, prof)),
                witness_violation=jr_violation(inst, prof, w),
            )
    return DecisionResult(True, POLY)


def reference_nec_jr_lottery(model, w):
    """Necessary JR on a lottery, one rescan of every voter's sets per
    outside candidate: the reference for the one-pass decider."""
    inst = model.instance
    wset = frozenset(w)
    for c in range(inst.m):
        if c in wset:
            continue
        # A voter can contribute to a violation at c only via one single
        # plausible set that both contains c and avoids the committee.
        culprits = {}
        for i, voter in enumerate(model.lotteries):
            for _, s in voter:
                if c in s and wset.isdisjoint(s):
                    culprits[i] = s
                    break
        if meets_threshold(len(culprits), 1, inst):
            prof = tuple(
                culprits.get(i, model.lotteries[i][0][1]) for i in range(inst.n)
            )
            return DecisionResult(
                False, POLY,
                witness_profile=PlausibleProfile(prof, profile_probability(model, prof)),
                witness_violation=jr_violation(inst, prof, w),
            )
    return DecisionResult(True, POLY)


def reference_all_interior(model):
    """The exists-necessary-JR shortcut's test: every entry strictly interior."""
    return all(0 < p < 1 for row in model.probs for p in row)


def reference_total_unknowns(model):
    return sum(1 for row in model.probs for p in row if p == HALF)


def reference_certain_over_committee(model, w):
    return all(row[c] != HALF for row in model.probs for c in w)


def reference_certain_w_value(model, w):
    inst = model.instance
    rows = model.probs
    unrepresented = [i for i in range(inst.n) if all(rows[i][c] == 0 for c in w)]
    wset = set(w)
    value = Fraction(1)
    for c in range(inst.m):
        if c in wset:
            continue
        n1 = sum(1 for i in unrepresented if rows[i][c] == 1)
        nu = sum(1 for i in unrepresented if rows[i][c] == HALF)
        if meets_threshold(n1, 1, inst):
            return Fraction(0)
        # Smallest number of unknown approvals that pushes the group of
        # certain approvers over the quota (exact ceiling, no division).
        tau = -(-(inst.n - n1 * inst.k) // inst.k)
        violating = sum(math.comb(nu, l) for l in range(tau, nu + 1))
        value *= 1 - Fraction(violating, 2**nu)
    return value


def reference_full_committee_counts(model, w):
    rows = model.probs
    wset = set(w)
    count = 1
    total_exp = 0
    for row in rows:
        x = sum(1 for p in row if p == HALF)
        total_exp += x
        if any(row[c] == 1 for c in w):
            per_voter = 2**x
        else:
            y = sum(1 for c in wset if row[c] == HALF)
            per_voter = (2**y - 1) * 2 ** (x - y)
            if not any(p == 1 for p in row):
                per_voter += 1  # the all-disapprove completion needs nothing
        count *= per_voter
    return count, 2**total_exp


# ---------------------------------------------------------------------------
# reference document writer: the standard library's indent encoder


def _frac_str(f):
    return str(f)


def reference_model_payload(model):
    if isinstance(model, JointModel):
        return {
            "kind": "joint",
            "entries": [
                {"prob": _frac_str(lam), "profile": [list(s) for s in prof]}
                for lam, prof in model.entries
            ],
        }
    if isinstance(model, LotteryModel):
        return {
            "kind": "lottery",
            "voters": [
                [{"prob": _frac_str(lam), "set": list(s)} for lam, s in voter]
                for voter in model.lotteries
            ],
        }
    return {"kind": "three-valued" if model.three_valued else "candidate-probability",
            "rows": [[_frac_str(p) for p in row] for row in model.probs]}


def reference_emit_document(doc):
    """Canonical JSON for a document; ``parse_document`` round-trips it."""
    data: dict = {
        "format": FORMAT,
        "instance": {
            "voters": doc.instance.n,
            "candidates": doc.instance.m,
            "committee_size": doc.instance.k,
        },
        "model": reference_model_payload(doc.model),
    }
    if doc.committee is not None:
        data["committee"] = list(doc.committee)
    if doc.size is not None:
        data["size"] = doc.size
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
