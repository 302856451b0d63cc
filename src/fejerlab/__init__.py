"""Numerical laboratory for Fejér summability on the circle: weighted L1
norms with a spiked weight, exact discrete convolution-operator norms and
their duality, the exact grid maximal function, Hardy-space coefficient
checks, and weighted-L1 polynomial approximation."""

from .circle import (
    CircleGrid,
    KernelSpec,
    PiecewiseConstant,
    SampledFunction,
    fejer_kernel_eval,
    fejer_multiplier,
    fejer_one_sided,
    fourier_window,
    make_grid,
    poisson_extend,
    synthesize,
)
from .spaces import Weight, make_weight
from .operators import (
    LocalizationParams,
    NoQualifyingN,
    OperatorMatrix,
    assemble_operator,
    fejer_blowup,
    localization_params,
    make_bump,
    operator_norm,
)
from .maximal import maximal_function, weight_maximal_ratio
from .hardy import hardy_violation, taylor_fourier_check
from .approx import (
    WitnessReport,
    best_poly_l1w,
    density_curve,
    fejer_error_curve,
    gliding_hump_witness,
)

__version__ = "0.1.0"
