"""Zeta functions of A-homogeneous functions on lattices.

The package computes sums of phi(omega)^(-s) over nonzero integer vectors
for functions phi satisfying phi(t^A x) = t phi(x), together with the theta
sums, volumes, lattice counts and asymptotic expansions attached to them.
Every numerical result carries an error bar and a rigor tag.
"""

from .asymp import (
    BernoulliReport,
    RemainderReport,
    bernoulli_identity_check,
    remainder_check,
    theta_expansion,
)
from .errors import (
    AzetaError,
    BudgetExceededError,
    DegenerateSystemError,
    DivergenceError,
    DomainError,
    NotPositiveSpectrumError,
    StripError,
)
from .homog import (
    AnisotropicSuperellipse,
    HomogeneousFunction,
    HomogeneousPolynomial,
    PNorm,
    Profile,
    QuadraticForm,
    Scaled,
    evaluate,
    sandwich_smooth,
    unit_ball_membership,
)
from .kernel import Kernel, fourier_transform
from .matflow import (
    GeneratorMatrix,
    polar_decompose,
    solve_lyapunov,
)
from .propsuite import CheckRow, verify_suite
from .theta import (
    BoundedValue,
    jacobi_residual,
    theta_phi,
    theta_star_table,
)
from .volume import (
    CountingScan,
    counting_limit_scan,
    lattice_count,
    volume_exp_integral,
    volume_monte_carlo,
)
from .zeta import (
    MeromorphicValue,
    growth_scan,
    residue_at_alpha,
    xi_full,
    xi_plus,
    zeta_at_zero,
    zeta_continued,
    zeta_direct,
    zeta_negative_integers,
)

__version__ = "0.1.0"

__all__ = [
    "AnisotropicSuperellipse",
    "AzetaError",
    "BernoulliReport",
    "BoundedValue",
    "BudgetExceededError",
    "CheckRow",
    "CountingScan",
    "DegenerateSystemError",
    "DivergenceError",
    "DomainError",
    "GeneratorMatrix",
    "HomogeneousFunction",
    "HomogeneousPolynomial",
    "Kernel",
    "MeromorphicValue",
    "NotPositiveSpectrumError",
    "PNorm",
    "Profile",
    "QuadraticForm",
    "RemainderReport",
    "Scaled",
    "StripError",
    "bernoulli_identity_check",
    "counting_limit_scan",
    "evaluate",
    "fourier_transform",
    "growth_scan",
    "jacobi_residual",
    "lattice_count",
    "polar_decompose",
    "remainder_check",
    "residue_at_alpha",
    "sandwich_smooth",
    "solve_lyapunov",
    "theta_expansion",
    "theta_phi",
    "theta_star_table",
    "unit_ball_membership",
    "verify_suite",
    "volume_exp_integral",
    "volume_monte_carlo",
    "xi_full",
    "xi_plus",
    "zeta_at_zero",
    "zeta_continued",
    "zeta_direct",
    "zeta_negative_integers",
]
