"""thetakit: theta-constant calculus for the two fully general solution
families of the sixth Painleve equation, the algebraic curves they
uniformize, and numerical verification of the whole identity web --
closed differential rings, modular transformation laws, Fuchsian
equations, inversion problems, and Chazy-type connection equations.

The computational core is the characteristic theta series with an affine
argument and affine modulus, summed termwise together with its exact z-
and tau-derivatives (a compiled kernel is used when available; see
``thetakit.KERNEL_BACKEND``).  Everything else -- Weierstrass functions,
jets, solution families, group actions, catalogs of curves -- reduces to
that kernel plus exact rational arithmetic.
"""

from ._series import BACKEND as KERNEL_BACKEND
from .control import TauPoint, as_tau
from .errors import (BranchJumpError, CatalogError, CriticalPointError,
                     CuspProximityError, NewtonError, NonConvergenceError,
                     PoleProximityError, ResonanceError, ThetaKitError)
from .jets import (GeneratorState, Jet, MovingState, dedekind_jet, eta1_jet,
                   jacobi_theta_jet, md_transport_residual, md_transport,
                   generator_ring_rhs, meromorphic_derivative, moving_ring_rhs,
                   theta_jet, thetaprime_jet, vartheta_jet)
from .painleve import (P6Params, PicardIndex, hauptmodul_x, hitchin_y,
                       hitchin_y_original, okamoto, p6_residual, picard_y,
                       qxy_from_curve, wpform_residual)
from .rational import BivarPoly, Poly, RationalFunc
from .thetafuncs import (EllipticConstants, ThetaSpec, dedekind_eta,
                    elliptic_K, elliptic_K_modular, elliptic_constants, eta1,
                    jacobi_theta, theta, theta1_prime, theta_dz, vartheta,
                    weierstrass)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND", "TauPoint", "as_tau",
    "ThetaKitError", "NonConvergenceError", "PoleProximityError",
    "CriticalPointError", "BranchJumpError", "CuspProximityError",
    "NewtonError", "ResonanceError", "CatalogError",
    "Jet", "GeneratorState", "MovingState", "theta_jet", "vartheta_jet",
    "jacobi_theta_jet", "thetaprime_jet", "dedekind_jet", "eta1_jet",
    "generator_ring_rhs", "moving_ring_rhs", "meromorphic_derivative",
    "md_transport", "md_transport_residual",
    "ThetaSpec", "theta", "theta_dz", "jacobi_theta", "vartheta",
    "theta1_prime", "dedekind_eta", "eta1", "weierstrass",
    "EllipticConstants", "elliptic_constants", "elliptic_K",
    "elliptic_K_modular",
    "PicardIndex", "P6Params", "hauptmodul_x", "picard_y", "hitchin_y",
    "hitchin_y_original", "okamoto", "p6_residual", "wpform_residual",
    "qxy_from_curve",
    "Poly", "RationalFunc", "BivarPoly",
    "__version__",
]
