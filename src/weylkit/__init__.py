"""weylkit: an exact-by-construction toolkit for the Weyl correspondence.

Discrete phase-space transforms on finite grids, an exact symbolic layer for
the star product and the Groenewold-Moyal bracket, a lift from polynomial
symbols to phase-space differential generators with a factorization back to
configuration-space operators, kernel-function machinery for the
two-point-function route, and worked symmetry-group examples.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .rational import CRat, I, ONE, ZERO
from .symbols import (
    NCPoly,
    PolySymbol,
    format_ncpoly,
    format_symbol,
    moyal_symbolic,
    nc_matrix,
    nc_normalize,
    parse_symbol,
    poisson_bracket,
    star_symbolic,
    weyl_quantize,
    weyl_symbol,
)
from .diffops import DiffOp
from .lift import (
    SplitResult,
    potential_generator,
    read_off_generator,
    split_test,
    table1_check,
    xi_lift,
    z_conjugate,
)
from .grids import GridSpec, hermite_basis, inner_h, inner_k
from .wigner import (
    parity,
    weyl_wigner,
    weyl_wigner_inv,
    wigner_of_state,
)
from .star import (
    identity_phase,
    moyal_bracket,
    purity_residual,
    star,
    star_adjoint,
    star_twisted_oracle,
    star_unitary_residual,
)
from .factorize import (
    AlphaKernel,
    GaussianAlphaSpec,
    RFunction,
    alpha_kernel_from_A,
    autv_residual,
    kernel_to_R,
    recover_A,
)
from .groups import (
    FactorizationResult,
    GalileiElement,
    HWElement,
    Sp2Params,
    galilei_action,
    galilei_factorize,
    galilei_generators,
    gen_heisenberg_tower,
    hw_action,
    hw_cocycle,
    hw_factorize,
    hw_generators,
    position_representation,
    sp2_generators,
    sp2_symbols,
    time_reversal_check,
    tower_factorization,
)
from ._exclusions import EXCLUSIONS, Exclusion, is_excluded
from .checks import SUITE_NAMES, run_all, run_suite

__all__ = [
    "__version__",
    # exact scalars
    "CRat",
    "ZERO",
    "ONE",
    "I",
    # symbolic layer
    "PolySymbol",
    "NCPoly",
    "nc_normalize",
    "weyl_symbol",
    "weyl_quantize",
    "star_symbolic",
    "moyal_symbolic",
    "poisson_bracket",
    "parse_symbol",
    "format_symbol",
    "format_ncpoly",
    "nc_matrix",
    # differential operators and the generator lift
    "DiffOp",
    "xi_lift",
    "z_conjugate",
    "SplitResult",
    "split_test",
    "read_off_generator",
    "table1_check",
    "potential_generator",
    # grids and transforms
    "GridSpec",
    "hermite_basis",
    "inner_h",
    "inner_k",
    "weyl_wigner",
    "weyl_wigner_inv",
    "parity",
    "wigner_of_state",
    # star product
    "star",
    "star_twisted_oracle",
    "moyal_bracket",
    "identity_phase",
    "star_adjoint",
    "purity_residual",
    "star_unitary_residual",
    # kernel functions and recovery
    "AlphaKernel",
    "RFunction",
    "GaussianAlphaSpec",
    "alpha_kernel_from_A",
    "kernel_to_R",
    "autv_residual",
    "recover_A",
    # symmetry groups
    "HWElement",
    "GalileiElement",
    "Sp2Params",
    "FactorizationResult",
    "position_representation",
    "hw_generators",
    "hw_action",
    "hw_cocycle",
    "hw_factorize",
    "gen_heisenberg_tower",
    "tower_factorization",
    "galilei_generators",
    "galilei_action",
    "galilei_factorize",
    "sp2_symbols",
    "sp2_generators",
    "time_reversal_check",
    # scope registry and check suites
    "Exclusion",
    "EXCLUSIONS",
    "is_excluded",
    "SUITE_NAMES",
    "run_suite",
    "run_all",
]
