"""Exact Fuss-Narayana combinatorics with free-probability and random-matrix checks.

Layers, from the inside out:

* :mod:`~fussnarayana.poly` and :mod:`~fussnarayana.series`: exact
  polynomial and truncated-series arithmetic over the rationals.
* :mod:`~fussnarayana.exact`: closed-form Fuss-Catalan and
  Fuss-Narayana counts and the limit moment polynomials.
* :mod:`~fussnarayana.partitions`: noncrossing pair matchings adapted
  to repeated words, counted by an interval recurrence and listed by
  brute enumeration; the combinatorial oracle for the closed forms.
* :mod:`~fussnarayana.freeprob`: Marchenko-Pastur laws, moments of
  their free multiplicative convolutions, S-transform and quadrature
  cross-checks.
* :mod:`~fussnarayana.rmt`: Monte Carlo products of rectangular
  Gaussian matrices converging to those moments.
* :mod:`~fussnarayana.cli`: the ``fussnarayana`` command.
"""

from .exact import (
    binomial,
    fuss_catalan,
    fuss_narayana_number,
    fuss_narayana_poly,
    limit_moment_poly,
    vandermonde_decomposition,
)
from .freeprob import (
    MomentTable,
    MpLaw,
    QuadratureError,
    moments_by_closed_form,
    moments_by_series,
    mp_density,
    quadrature_moments,
    s_transform_check,
)
from .partitions import (
    DEFAULT_BUDGET,
    BudgetError,
    Letter,
    PairPartition,
    WordSpec,
    base_word,
    build_word,
    enumerate_adapted,
    enumerated_moment_poly,
    leg_profile,
    listed_histograms,
    noncrossing_matchings,
    profile_count,
    profile_histogram,
    rotate_cover,
    rotate_cover_inverse,
    verify_product_decomposition,
    verify_shift_identity,
)
from .poly import MultiPoly, format_exact
from .report import Report
from .rmt import (
    DimensionProfile,
    McConfig,
    McResult,
    MomentStat,
    run_experiment,
    sample_product,
    trace_moments,
)
from .series import lagrange_coefficient, solve_functional_equation
from .diagrams import partition_svg, write_partition_svg

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "DEFAULT_BUDGET",
    "DimensionProfile",
    "Letter",
    "McConfig",
    "McResult",
    "MomentStat",
    "MomentTable",
    "MpLaw",
    "MultiPoly",
    "PairPartition",
    "QuadratureError",
    "Report",
    "WordSpec",
    "base_word",
    "binomial",
    "build_word",
    "enumerate_adapted",
    "enumerated_moment_poly",
    "format_exact",
    "fuss_catalan",
    "fuss_narayana_number",
    "fuss_narayana_poly",
    "lagrange_coefficient",
    "leg_profile",
    "limit_moment_poly",
    "listed_histograms",
    "moments_by_closed_form",
    "moments_by_series",
    "mp_density",
    "noncrossing_matchings",
    "partition_svg",
    "profile_count",
    "profile_histogram",
    "quadrature_moments",
    "rotate_cover",
    "rotate_cover_inverse",
    "run_experiment",
    "s_transform_check",
    "sample_product",
    "solve_functional_equation",
    "trace_moments",
    "vandermonde_decomposition",
    "verify_product_decomposition",
    "verify_shift_identity",
    "write_partition_svg",
    "__version__",
]
