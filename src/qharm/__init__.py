"""Computable harmonic analysis on n-dimensional non-Archimedean local fields.

Exact scale arithmetic (crowns, balls, characters), the radial Fourier
calculus, the Gelfand-Graev Gamma function, complex-time heat kernels of
the Taibleson operator, sectorial functional calculus, the Vilenkin-style
averaging/maximal machinery on finite quotients, and a spectral solver for
the associated master equation.
"""

from .errors import (
    CancellationError,
    LatticeWindowError,
    PoleError,
    QuadratureError,
    ToleranceError,
    WindowOverflowError,
)
from .field import (
    FieldModel,
    FieldParams,
    QuotientLattice,
    ball_measure,
    brute_sphere_character_integral,
    character,
    character_value,
    fractional_part,
    norm_exponent,
    qpow,
    sphere_character_integral,
    sphere_measure,
)
from .gamma import gamma_qn, gamma_via_integral, reflection_defect
from .kernel import (
    KernelEvalConfig,
    bound_ratio,
    bound_ratios,
    kernel_at_zero,
    kernel_ball_integral,
    kernel_crown_sum,
    kernel_exp_form,
    kernel_l1_norm,
    kernel_profile,
    kernel_series,
)
from .radial import (
    RadialProfile,
    convolve,
    convolve_direct,
    improper_integral,
    lp_norm,
    majorant,
    radial_fourier,
)
from .taibleson import (
    hypersingular_constant,
    levy_khinchin_check,
    taibleson_fourier,
    taibleson_hypersingular,
    taibleson_hypersingular_lattice,
)
from .calculus import (
    SymbolFunction,
    hinf_apply_contour,
    hinf_apply_direct,
    rademacher_ratio,
    semigroup_apply,
    square_function,
)
from .vilenkin import (
    QuotientFunction,
    average_Ai,
    domination_check,
    doob_check,
    group_convolve,
    group_dft,
    lift_profile,
    maximal_M,
)
from .evolution import ForcingSignal, max_regularity_report, solve_master

__version__ = "0.1.0"
