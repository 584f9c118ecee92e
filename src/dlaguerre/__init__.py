"""Numerical laboratory for a jump-deformed Laguerre weight.

The weight w(x) = (1 - zeta*H(x-t)) (x-t)^alpha x^mu e^{-x} on [0, inf)
drives everything here: moments (closed form and quadrature), Hankel
determinants and three-term recurrence data, the auxiliary quantities of
the isomonodromy and ladder-operator descriptions with a full identity
verification battery, and the associated Painleve V Hamiltonian flow with
high-precision integration and residual checks.
"""

__version__ = "0.1.0"

from .errors import (CrossCheckError, DLaguerreError, DegenerateTheta,
                     NoConvergence, PrecisionExhausted, QuadratureFailure,
                     SingularHankel, SingularPanel, SingularRHS,
                     SingularityEncountered, UnsupportedParameters)
from .precision import PrecisionCtx, to_mpf, workprec
from .moments import (MomentTable, TruncSeries, WeightParams,
                      build_moment_table, moment_closed_form, moment_jets,
                      moment_quadrature, moment_series)
from .hankel import (PolyEval, RecurrenceTable, cauchy_transform,
                     dN_kernel, epsilon_eval, hankel_determinant,
                     monic_values, orthopoly_eval, recurrence_coefficients,
                     shifted_hankel_determinant, stieltjes_eval, table_for)
from .semiclassical import (AuxPair, Report, build_lax,
                            ladder_integrals, theta_kappa_from_recurrence,
                            verify_identities)
from .oracle import (FDResult, dN_by_quadrature, delta_by_quadrature,
                     finite_difference, gram_schmidt_recurrence, inner_product)
from .painleve import (HamiltonPoint, PVParams, StepControl, Trajectory,
                       ab_flow_check, evolve, from_hamiltonian,
                       hamilton_rhs, hamiltonian_eval, ode_rhs, pv_residual,
                       rr_rhs, series_init, to_hamiltonian)

__all__ = [name for name in dir() if not name.startswith("_")]
