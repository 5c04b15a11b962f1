"""Exact-arithmetic rational distance sets on the parabola y = x^2."""

from .rat import Rat, parse_rat
from .pythagorean import (
    RatioPool,
    Triplet,
    build_pool,
    classify_ratio,
    find_ratio_in_interval,
    is_pythagorean_ratio,
    min_hypotenuse,
    nu,
    nu_triplet,
    primitive_triplets,
    ratios_of,
)
from .solver import (
    ExistenceCheck,
    Solution,
    VerifyResult,
    check_distinct,
    check_existence,
    check_general_position,
    complete_psi,
    indices_set,
    psi_from_x,
    solution_from_x,
    solve_x,
    verify_rds,
)

__version__ = "0.1.0"
