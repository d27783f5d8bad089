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

from . import castling, classify, datum
from .datum import *
from .castling import *
from .classify import *


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

# The solver's names are written out: reading mle.__all__ would run the lazy
# module and load numpy.
__all__ = [
    *datum.__all__,
    *castling.__all__,
    *classify.__all__,
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
