"""Tensor normal models: exact sample-size classification and a numerical
maximum likelihood solver.

For dimensions (d_1, ..., d_k) and sample count m the package decides
whether the log-likelihood of the Kronecker-structured Gaussian model is
almost surely bounded, whether a maximizer almost surely exists, and
whether it is almost surely unique; computes the exact sample-count
thresholds where each property switches on, and the dimension of the
invariant-theoretic quotient; and checks the verdicts numerically with a
flip-flop solver on simulated data.
"""

import importlib.util
import sys

from .datum import (
    MAX_FACTORS,
    Datum,
    EmptyInput,
    InvalidDatum,
    TrivialFactor,
    big_r,
    delta,
    g_max,
    index_of_factor,
    normalize,
    z_quantity,
)
from .castling import (
    CastlingTrace,
    NotCastlable,
    castle_step,
    castling_equivalent,
    reduce_to_minimal,
)
from .classify import (
    ClassificationReport,
    MleProfile,
    StabilityClass,
    ThresholdReport,
    classify_closed_form,
    classify_recursive,
    explain,
    git_dimension,
    mle_profile,
    thresholds,
)


def _lazy_module(name: str):
    """The submodule `name`, registered in sys.modules but run only when
    one of its attributes is first read (importlib.util.LazyLoader)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# The solver imports numpy; classify, threshold and scan never touch it, so
# it loads on first use and `import tnm` stays numpy-free.
mle = _lazy_module("mle")


def __getattr__(name: str):
    # reached only for names not bound here: the solver's part of __all__
    if name in __all__:
        return getattr(mle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "MAX_FACTORS",
    "Datum",
    "EmptyInput",
    "InvalidDatum",
    "TrivialFactor",
    "big_r",
    "delta",
    "g_max",
    "index_of_factor",
    "normalize",
    "z_quantity",
    "CastlingTrace",
    "NotCastlable",
    "castle_step",
    "castling_equivalent",
    "reduce_to_minimal",
    "ClassificationReport",
    "MleProfile",
    "StabilityClass",
    "ThresholdReport",
    "classify_closed_form",
    "classify_recursive",
    "explain",
    "git_dimension",
    "mle_profile",
    "thresholds",
    "DEFAULT_MAX_SWEEPS",
    "DEFAULT_TOL",
    "DESK_SCALE_LIMIT",
    "DegenerateStatistic",
    "DeskScaleExceeded",
    "FitReport",
    "FitStatus",
    "KroneckerPrecision",
    "NotPositiveDefinite",
    "SampleSet",
    "ShapeMismatch",
    "TrialResult",
    "VerificationReport",
    "fit_mle",
    "flip_flop_step",
    "gauge_fix",
    "log_likelihood",
    "mode_statistic",
    "sample_from_model",
    "sample_standard",
    "verify_datum",
    "verify_samples",
]
