"""Analytic invariants of a third-order solvable equation across the
confluence of its singular points.

The unperturbed equation has an irregular point of Poincare rank 1 at the
origin; its Stokes matrices come out of Borel-Laplace resummation and in
closed form.  The perturbation splits the origin into two Fuchsian points
at +-sqrt(eps); at the logarithmic resonances the monodromy matrices and
unfolded Stokes matrices have residue closed forms, and the unfolded Stokes
matrices converge to the Stokes matrices along the resonant sequence
1/sqrt(eps) = nu + 2n.  A Taylor-series ODE-continuation oracle cross-checks
everything through conjugacy invariants.
"""

from .borel import (
    DELTA_DEFAULT,
    TOL_DEFAULT,
    LaplaceQuery,
    asymptotic_remainders,
    jump_coefficient_closed,
    laplace_sum,
    resummed_ode_residual,
    stokes_jump_quadrature,
)
from .confluence import (
    ConfluenceRow,
    ConfluenceTable,
    confluence_table,
    fitted_rate,
    gamma_ratio_probe,
    limit_targets,
)
from .errors import (
    BranchCutError,
    DecayConditionError,
    DivergentIntegralError,
    DoubleRangeError,
    GammaPoleError,
    GuardError,
    MatrixShapeError,
    OrdinaryPointError,
    PathError,
    ResonanceError,
    SingularDirectionError,
    SingularMatrixError,
    SingularPointError,
    StokesUnfoldError,
    ToleranceError,
)
from .gammas import gamma, reciprocal_gamma
from .mat3 import exp_first_row_nilpotent, identity3, max_abs
from .oracle import (
    CompanionSystem,
    MonodromyReport,
    integrate_path,
    numerical_monodromy,
    unperturbed_monodromy,
)
from .paths import Arc, ContourPath, Line, circle, polyline
from .perturbed import (
    ExponentData,
    OffDiagonal,
    PerturbParams,
    ResidueData,
    ResonanceClass,
    SingularPoint,
    characteristic_exponents,
    classify_resonance,
    indicial_roots,
    log_resonant_d_values,
    monodromy_matrices,
    offdiag_solution_quadrature,
    ratio_integral_check,
    residue_numeric_oracle,
    residues,
    unfolded_stokes,
)
from .series import (
    AsymptoticSeries,
    SeriesKind,
    borel_transform_value,
    build_series,
    gevrey_constants,
    ode_residual_coefficients,
)
from .unperturbed import (
    Direction,
    FormalData,
    formal_data,
    formal_monodromy,
    monodromy_origin,
    singular_directions,
    stokes_matrix,
)

__version__ = "0.1.0"
