"""Typical ranks of real order-3 tensors at the critical semi-tall format.

For 3 <= m <= n and p = (m-1)(n-1)+1 this package decides, where two
decidable criteria apply, whether p x n x m tensors have the plural
typical-rank set {p, p+1}: failure of bit-disjointness of m-1 and n-1, or
a real-divisor count alpha(m, n) below p.  It also certifies individual
tensors as rank p or rank > p by tracking a fully known determinantal
start system to the tensor's kernel pencil and measuring the span of the
truncated Kronecker vectors at the real solutions.
"""

from .certifier import (
    INCONCLUSIVE,
    RANK_GT_P,
    RANK_P,
    ExperimentStats,
    RankCertificate,
    certify,
    global_experiment,
    perturb_experiment,
)
from .classifier import Verdict, bit_disjoint, classify, theorem_table
from .errors import (
    ChartViolationError,
    DegenerateStartError,
    PathError,
    ResourceLimitError,
)
from .polyfactor import (
    alpha_brute,
    alpha_closed,
    conjugation_closed,
    divisor_coefficients,
    divisor_points,
    neg_roots,
    real_divisors,
)
from .recurrence import ConditionReport, lambda_det, lambda_seq, rank_conditions
from .solver import SolveReport, solve_all, start_solutions, track_path
from .tensorcore import (
    Format,
    StartFrame,
    Tensor3,
    fl1,
    fl2,
    load_tensor,
    make_base_tensor,
    make_start_frame,
    mu,
    nu,
    pencil_eval,
    psi,
    save_tensor,
    sigma,
    span_dim,
    tau,
)

__version__ = "0.1.0"

__all__ = [
    "Format", "Tensor3", "StartFrame",
    "fl1", "fl2", "pencil_eval", "psi", "span_dim",
    "sigma", "tau", "mu", "nu",
    "make_base_tensor", "make_start_frame", "save_tensor", "load_tensor",
    "neg_roots", "divisor_coefficients", "conjugation_closed", "real_divisors", "divisor_points",
    "alpha_closed", "alpha_brute",
    "ConditionReport", "lambda_seq", "lambda_det", "rank_conditions",
    "SolveReport", "start_solutions", "track_path", "solve_all",
    "RankCertificate", "ExperimentStats",
    "certify", "perturb_experiment", "global_experiment",
    "RANK_P", "RANK_GT_P", "INCONCLUSIVE",
    "Verdict", "bit_disjoint", "classify", "theorem_table",
    "ChartViolationError", "DegenerateStartError", "PathError", "ResourceLimitError",
]
