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
from .schottky import (DomainInvalid, FundamentalDomain, GroupWord, MoebiusMap,
                       SchottkyGroup, enumerate_words, region_image,
                       verify_fundamental_domain)
from .measure import (MeasureProfile, RationalFunctionDatum, RootInsideDisc,
                      UnalignedDisc, build_profile, local_abs)
from .wavelets import (LevelFunction, NotAdmissible, Wavelet,
                       admissible_supports, admissible_wavelets, inner_product,
                       state_discs, wavelet_eval)
from .operator import (ChartNotSupported, CoincidentPoints, CutoffNotReached,
                       GeneratorMatrix, LambdaExact, NotLocallyConstant,
                       OperatorConfig, RatioNotConstant, SeriesValue,
                       SpectrumEntry, SpectrumResult, apply_operator,
                       generator_matrix, lambda_exact, lambda_formula,
                       lambda_transform, spectrum, tail_bound,
                       transformed_config, vladimirov_local_integral,
                       vladimirov_alpha_free_value, wavelet_multiplier, word_census)
from .audit import AuditReport, audit_lemmas
from .heat import (HeatSolution, NumericalBreakdown, PathColumns, PathSample,
                   SingularSystem, TransitionMatrix, ValidationReport,
                   empirical_validation, resolvent_solve, sample_paths,
                   solve_cauchy, spectral_data, transition_matrix)
from .config import (ParseError, RunConfig, ValidationError, bundled_fixture,
                     config_from_dict, emit_config, parse_config)

__version__ = "0.1.0"
