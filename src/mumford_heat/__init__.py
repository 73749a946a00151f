"""Exact spectral analysis and heat flow for diffusion on p-adic Schottky quotients.

The toolkit computes, in exact rational/cyclotomic arithmetic wherever the
mathematics allows it: Kozyrev-wavelet spectra of the nonlocal jump operator
attached to a Schottky group and an invariant measure density, heat-equation
solutions and resolvents of the finite level restriction, cadlag Markov path
samples on the orbit space, and an audit of the transport identities behind
the closed-form eigenvalue series.
"""

from .padic import (Disc, PoleHit, abs_p, ball_character_moment_integral,
                    brute_sphere_decomposition, character_phase, haar_measure,
                    sphere_character_integral, valuation)
from .exactnum import ExactComplex, PhaseSum, PowerSum
from .schottky import (DiscsIntersect, DomainInvalid, FundamentalDomain,
                       GroupWord, MoebiusMap, ReductionDiverged,
                       SchottkyGroup, delta, disc_distance,
                       enumerate_words, moebius_distance_identity_check,
                       reduce_to_domain, region_image, verify_fundamental_domain)
from .measure import (MeasureProfile, RationalFunctionDatum, RootInsideDisc,
                      UnalignedDisc, build_profile, invariance_audit, local_abs,
                      mass)
from .wavelets import (Analysis, Census, InvariantWavelet, LevelFunction,
                       NotAdmissible, Wavelet, admissible_supports,
                       admissible_wavelets, analyze, completeness_census,
                       inner_product, invariant_eval, state_discs, synthesize,
                       wavelet_eval, wavelet_mean)
from .operator import (ChartNotSupported, CoincidentPoints, GeneratorMatrix,
                       LambdaExact, NotLocallyConstant, OperatorConfig,
                       RatioNotConstant, SeriesValue, SpectrumEntry,
                       SpectrumResult, apply_operator,
                       generator_matrix, kernel, lambda_exact,
                       lambda_formula, lambda_transform, spectrum, tail_bound,
                       transformed_config, vladimirov_local_integral,
                       vladimirov_alpha_free_value, wavelet_multiplier, word_census)
from .audit import AuditReport, audit_lemmas
from .heat import (HeatSolution, NumericalBreakdown, PathColumns, PathSample,
                   Reducible,
                   SingularSystem, StationaryReport, TransitionMatrix,
                   ValidationReport, empirical_validation, resolvent_solve,
                   sample_paths, solve_cauchy, spectral_data,
                   stationary_distribution, transition_matrix)
from .config import (ParseError, RunConfig, ValidationError, bundled_fixture,
                     config_from_dict, emit_config, parse_config)

__version__ = "0.1.0"
