"""Exact solver for approval-based committee voting under uncertainty.

Four uncertainty models over approval ballots (joint, lottery,
candidate-probability, three-valued), deterministic axiom checkers for
JR/PJR/EJR, possible/necessary deciders, exact satisfaction
probabilities, probability-maximizing committee search, and two
hard-instance generators.  All probabilities are exact rationals.
"""

from .axioms import (
    Violation,
    axiom_violation,
    ejr_violation,
    greedy_jr_committee,
    is_ejr,
    is_jr,
    is_pjr,
    jr_violation,
    pjr_violation,
    satisfies,
)
from .decide import (
    DecisionResult,
    exists_nec_axiom,
    exists_nec_jr,
    exists_poss_axiom,
    exists_poss_jr,
    is_nec_axiom,
    is_nec_jr,
    is_poss_axiom,
    is_poss_jr,
)
from .model import (
    DEFAULT_BUDGET,
    ApprovalSet,
    BudgetError,
    Committee,
    InputError,
    Instance,
    Profile,
    approval_profile,
    approval_set,
    committee,
    meets_threshold,
    min_group_size,
    parse_probability,
)
from .optimize import MaxResult, max_axiom, size_jr
from .probability import ProbResult, axiom_probability, jr_probability, jr_satisfying_count
from .reductions import (
    CnfFormula,
    Graph,
    complementary_slot_pairs,
    gen_random,
    reduce_3sat,
    reduce_vc,
)
from .uncertainty import (
    CandidateProbModel,
    JointModel,
    LotteryModel,
    PlausibleProfile,
    cp_model,
    cp_to_lottery,
    enumerate_plausible,
    first_plausible,
    joint_model,
    lottery_model,
    lottery_to_joint,
    plausible_count,
    profile_probability,
    tva_model,
    tva_to_cp,
    validate,
    validation_errors,
)

__version__ = "0.1.0"
