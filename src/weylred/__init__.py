"""Exact Weyl calculus, level-set reduction, and fiberwise quantization.

Layers:

- ``rational`` / ``symbols`` / ``moyal``: exact polynomial phase-space
  algebra over the Gaussian rationals, including the star product and
  star-basis expansions.
- ``geometry``: the two fiber models (``SphereFiber`` for circles and
  2-spheres, the level sets of a radial phi, which holds only its radius
  and grid shape; ``LevelSetModel`` for implicit curves and lines, which
  carries its curve parametrization at its nodes), coarea densities, and
  induced divergences of tangent vector fields.
- ``dint``: the direct-integral decomposition (position and momentum
  sides) and decomposable operators (``assemble_Opd``), through which
  the strong-commutation check runs.
- ``fiber``: midpoint-kernel quantization on sphere fibers, of a symbol
  given by its Fourier transform ``fhat`` or by separable circle terms,
  and on both fiber models the generator J_X, its matrix, and the
  evolution group.
- ``sweep``: semiclassical residual sweeps for separable circle symbols.
- ``config`` / ``report`` / ``cli``: the verification harness.
"""

from .rational import QQi, parse_rational
from .symbols import (
    PolySymbol,
    VectorField,
    angular_momentum,
    momentum_symbol,
    rotation_generator,
    symbol_from_literal,
    xi_norm_squared,
)
from .moyal import (
    SingularSystemError,
    StarExpansion,
    expand_power_in_star_basis,
    moyal_star,
    star_commutator,
)
from .geometry import (
    InvalidSphereFiber,
    LevelSetModel,
    NotTangent,
    OffLevel,
    ScalarHamiltonian,
    SingularPoint,
    TestFunction,
    ambient_JY_apply,
    circle_level_set,
    gram_matrix,
    implicit_curve_level_set,
    induced_divergence,
    jacobian_wedge_norm,
    line_level_set,
    radial_hamiltonian,
    rho,
    sphere2_level_set,
)
from .dint import (
    DecomposableOperator,
    DirectIntegralSection,
    EmptyRange,
    LambdaGrid,
    SingularLevel,
    UnsupportedRange,
    ambient_integral,
    apply_Tx,
    apply_Txi,
    assemble_Opd,
    build_grid,
    coarea_check,
    gaussian_poly_suite,
    slice_integrals,
    strong_commutation_check,
)
from .fiber import (
    FiberFunction,
    FiberOperator,
    PWSymbol,
    PullBackUnavailable,
    SphereFiber,
    StereographicPole,
    evolve_group,
    fiber_JX_apply,
    fiber_JX_matrix,
    kernel_quantize,
    stereo_charts,
)
from .sweep import (
    Profile,
    SeparableCircleSymbol,
    bump_profile,
    default_sweep_pair,
    semiclassical_sweep,
)
from .config import ConfigError, SuiteConfig, config_from_dict, parse_config
from .report import CheckRecord, Report, emit_report, report_to_dict

__version__ = "0.1.0"
