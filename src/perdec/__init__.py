"""Exact decompositions into sums of invariant functions.

Given pairwise commuting transformations T_1..T_n of a finite domain and a
rational-valued f, decide whether f = f_1 + ... + f_n with each f_j
T_j-invariant, and construct the parts or an exact certificate of
impossibility.  Everything is exact rational arithmetic; every positive or
negative answer is verified before it is returned.
"""

from .cohomology import (
    BoundedTransfer,
    ConstrainedObstruction,
    CycleObstruction,
    partial_sum_bound,
    solve_bounded_transfer,
    solve_transfer,
    solve_transfer_constrained,
)
from .core import (
    CommutingSystem,
    Decomposition,
    InternalContractViolation,
    NotCommutingError,
    PreconditionError,
    RangeError,
    RationalFunction,
    VerificationResult,
    as_fraction,
    commute_witness,
    compose,
    delta,
    identity,
    is_invariant,
    power,
    validate_system,
    validate_transform,
    verify_decomposition,
)
from .decomp import decompose_n, decompose_three, decompose_three_report, decompose_two
from .lattice import (
    LatticeWindow,
    lattice_decompose,
    lattice_oracle_decompose,
    mixed_delta_witness,
    z_window_counterexample,
)
from .oracle import DualCertificate, linear_feasibility, oracle_decompose
from .orbits import (
    Partition,
    Relation,
    default_bound,
    find_relation,
    invariance_classes,
    joint_classes,
    prescribed_points,
)
from .star import (
    Candidate,
    SearchReport,
    StarInstance,
    StarViolation,
    check_star,
    check_star_abelian,
    replay_abelian_violation,
    replay_violation,
    search_counterexample,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedTransfer",
    "Candidate",
    "CommutingSystem",
    "ConstrainedObstruction",
    "CycleObstruction",
    "Decomposition",
    "DualCertificate",
    "InternalContractViolation",
    "LatticeWindow",
    "NotCommutingError",
    "Partition",
    "PreconditionError",
    "RangeError",
    "RationalFunction",
    "Relation",
    "SearchReport",
    "StarInstance",
    "StarViolation",
    "VerificationResult",
    "as_fraction",
    "check_star",
    "check_star_abelian",
    "commute_witness",
    "compose",
    "decompose_n",
    "decompose_three",
    "decompose_three_report",
    "decompose_two",
    "default_bound",
    "delta",
    "find_relation",
    "identity",
    "invariance_classes",
    "is_invariant",
    "joint_classes",
    "lattice_decompose",
    "lattice_oracle_decompose",
    "linear_feasibility",
    "mixed_delta_witness",
    "oracle_decompose",
    "partial_sum_bound",
    "power",
    "prescribed_points",
    "replay_abelian_violation",
    "replay_violation",
    "search_counterexample",
    "solve_bounded_transfer",
    "solve_transfer",
    "solve_transfer_constrained",
    "validate_system",
    "validate_transform",
    "verify_decomposition",
    "z_window_counterexample",
]
