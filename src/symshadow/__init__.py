"""Symbolic dynamics, pseudo-orbit shadowing, and invariant-measure
approximation on hyperbolic desk-scale systems.

The package certifies mixing behaviour of subshifts of finite type
through dense periodic orbits of every large period, constructs periodic
pseudo-orbits of any prescribed length from homoclinic data and shadows
them into true periodic orbits on concrete hyperbolic systems, and
approximates invariant measures first by periodic measures and then by
maximal-entropy Markov measures on small mixing subshifts.
"""

__version__ = "0.1.0"

from .sft import (CyclicDecomposition, NumericalError, PreconditionError,
                  ReducibleMatrixError, SymbolicCycle, TransitionMatrix,
                  class_period, count_periodic_points, cyclic_decomposition,
                  enumerate_cycles, is_irreducible, is_primitive, perron_data,
                  return_time_set, topological_entropy)
from .shiftspace import ShiftPoint, word_radius
from .dense_periods import (DensePeriodsCertificate, DensePeriodsRefutation,
                            dense_periods_certificate, homoclinic_restricted_certificate,
                            mixing_thresholds)
from .homoclinic import (ExcursionParameters, HomoclinicDatum,
                         PseudoOrbit, build_periodic_pseudo_orbit,
                         compute_excursion_parameters, verify_pseudo_orbit)
from .shadowing import (DensityReport, PeriodicOrbit, density_check,
                        shadow_periodic)
from .systems import (Horseshoe, SftSystem, ToralAutomorphism, cat_map,
                      homoclinic_point, parse_system)
from .measures import (ApproximationResult, BernoulliApproximation,
                       BernoulliProduct, CylinderObservable,
                       FiniteSupportMeasure, FourierMode, LebesgueTorus,
                       MarkovMeasure, TestFamily, approximate_by_periodic,
                       bernoulli_approximation, block_subshift, correlation,
                       cycle_measure, cylinder_family, fourier_family,
                       parry_measure, periodic_measure, weak_star_distance)
