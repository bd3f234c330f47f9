"""Numerical workbench for good-lambda and martingale inequalities on finite
tracial matrix algebras.

The package models finite von Neumann algebras as weighted direct sums of
complex matrix blocks, builds structured filtrations and noncommutative
martingales over them, constructs Cuculescu-type projection sequences and
weak maximal operators, and numerically verifies the good-lambda trace
inequalities, the Burkholder-Gundy / transform / Stein / Doob bounds with
explicit constants, tangent-sequence estimates (including the weak-type
counterexample), and sharp reversed-L Schur-multiplier bounds.
"""

from .errors import (
    DomainError,
    NCGLError,
    NumericalInstabilityError,
    NumericalRankError,
    StructureError,
)
from .opalgebra import (
    Interval,
    Operator,
    TracialAlgebra,
    abs_spectral_trace,
    func_calculus,
    min_eigenvalue,
    operator_abs,
    operator_norm,
    proj_meet,
    psd_power,
    psd_sqrt,
    schatten_norm,
    spectral_projection,
    trace,
)
from .filtration import (
    Filtration,
    Martingale,
    ce_oracle,
    cond_exp,
    conditioned_square_function,
    diagonal_p_function,
    make_filtration,
    martingale_from_diffs,
    martingale_from_final,
    rademacher_operator,
    square_function,
    square_functions,
)
from .cuculescu import (
    CorrectedSeq,
    CuculescuSeq,
    WeakMax,
    corrected_p,
    cuculescu_r,
    fubini_identity_gap,
    weak_max,
)
from .goodlambda import (
    MomentReports,
    Triple,
    check_strong_testing,
    check_testing,
    moment_constant,
    verify_core,
    verify_good_hom,
    verify_moment,
    verify_tail,
)
from .applications import (
    BGReports,
    CounterexampleReport,
    EmbeddedInstance,
    bg_embed,
    check_tangent,
    counterexample_pair,
    doob_embed,
    interp_bound,
    refined_doob,
    tangent_counterexample,
    verify_bg,
    verify_dominated,
    verify_dual_doob,
    verify_positive_tangent,
    verify_stein,
    verify_transform,
)
from .schur import (
    Pattern,
    interlace_pattern,
    interlace_t,
    matrix_p_norm,
    reversed_l_pattern,
    schur_multiply,
    schur_norm_lower,
    triangular_pattern,
    triangular_projection,
    verify_reversed_L,
)
from .reports import VerifyReport

__version__ = "0.1.0"
