"""charplab: invariants of quotient rings in prime characteristic.

Exact computation over small finite fields: reduced ideal bases,
colengths, Krull dimension, bracket-power colength series and their
normalized limits, splitting numbers, splitting thresholds, trace-form
discriminants, and a deterministic harness for perturbation experiments
on all of the above.
"""

from .discriminant import (CongruenceReport, FiniteExtensionPresentation,
                           bareiss_determinant, disc_congruence_check,
                           discriminant, mult_matrix, trace_matrix)
from .errors import (CharplabError, InputError, InternalError, LimitError,
                     ParseError, TimeLimitError)
from .field import GF, Field, FieldElement
from .groebner import (GroebnerBasis, IdealHandle, Limits, Staircase,
                       colength, colon, eliminate, frobenius_power,
                       groebner_basis, ideal_equal,
                       intersect, is_squarefree_hypersurface, krull_dim,
                       m_power_in, normal_form, staircase_of,
                       subalgebra_presentation)
from .invariants import (ConvergenceDiagnostic, Estimate, HKRow, HKSeries,
                         NuRow, NuSeries, QuotientPresentation, SplittingRow,
                         SplittingSeries, convergence_diagnostic, ehk_estimate,
                         fpt_estimate, fsig_estimate, hk_length, hk_series,
                         hs_multiplicity, nu_series, parameter_check,
                         splitting_number, splitting_series)
from .jobs import Job, check_expectations, load_job_file, parse_job, run_job
from .orders import (GREVLEX, LEX, MonomialOrder, block_order,
                     order_from_string)
from .perturb import (PerturbationPlan, PerturbationReport, PerturbationRow,
                      SplitMix64, run_experiment, sample_epsilons,
                      stability_threshold)
from .poly import Monomial, Polynomial, Ring, parse_poly
from .report import ReportDocument

__version__ = "0.1.0"

__all__ = [
    "CharplabError", "CongruenceReport", "ConvergenceDiagnostic",
    "Estimate", "Field", "FieldElement", "FiniteExtensionPresentation", "GF",
    "GREVLEX", "GroebnerBasis", "HKRow", "HKSeries", "IdealHandle",
    "InputError", "InternalError", "Job", "LEX", "LimitError", "Limits",
    "Monomial", "MonomialOrder", "NuRow", "NuSeries", "ParseError",
    "PerturbationPlan", "PerturbationReport", "PerturbationRow", "Polynomial",
    "QuotientPresentation", "ReportDocument", "Ring", "SplitMix64",
    "Staircase",
    "SplittingRow", "SplittingSeries", "TimeLimitError",
    "bareiss_determinant",
    "block_order", "check_expectations", "colength", "colon",
    "convergence_diagnostic",
    "disc_congruence_check", "discriminant", "ehk_estimate", "eliminate",
    "fpt_estimate", "frobenius_power", "fsig_estimate", "groebner_basis",
    "hk_length", "hk_series", "hs_multiplicity", "ideal_equal", "intersect",
    "is_squarefree_hypersurface", "krull_dim", "load_job_file", "m_power_in",
    "mult_matrix", "normal_form", "nu_series", "order_from_string",
    "parameter_check", "parse_job",
    "parse_poly", "run_experiment", "run_job", "sample_epsilons",
    "splitting_number", "splitting_series", "stability_threshold",
    "staircase_of",
    "subalgebra_presentation", "trace_matrix",
]
