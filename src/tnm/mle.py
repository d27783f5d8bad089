"""Numerical verification of the classification on simulated tensor data.

The model: m i.i.d. samples Y_s from a centered Gaussian on d_1 x ... x d_k
tensors whose concentration (inverse covariance) matrix is the Kronecker
product Psi_1 (x) ... (x) Psi_k of symmetric positive definite factors.
With n = prod(d_i), the log-likelihood up to an additive constant is

    l_Y(Psi) = (m/2) sum_i (n/d_i) log det Psi_i
               - (1/2) sum_s <Y_s, (Psi_1 (x) ... (x) Psi_k) Y_s>.

Everything acts mode-by-mode on the sample tensors; the n x n Kronecker
matrix is never materialized.  The flip-flop solver maximizes one factor at
a time; whether it converges, splits across restarts, or runs away is the
numerical shadow of the exact stability classification.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .classify import MleProfile, mle_profile
from .datum import Datum

__all__ = [
    "SYMMETRY_RTOL",
    "DEGENERATE_EIG_RTOL",
    "CONDITION_LIMIT",
    "DEFAULT_TOL",
    "DEFAULT_MAX_SWEEPS",
    "GAUGE_AGREEMENT_RTOL",
    "NONUNIQUE_SPREAD_MIN",
    "DIVERGED_TRIAL_FRACTION",
    "DESK_SCALE_LIMIT",
    "NotPositiveDefinite",
    "ShapeMismatch",
    "DegenerateStatistic",
    "DeskScaleExceeded",
    "SampleSet",
    "KroneckerPrecision",
    "FitStatus",
    "FitReport",
    "sample_standard",
    "sample_from_model",
    "log_likelihood",
    "mode_statistic",
    "flip_flop_step",
    "fit_mle",
    "gauge_fix",
    "TrialResult",
    "VerificationReport",
    "verify_datum",
    "verify_samples",
]

SYMMETRY_RTOL = 1e-12         # allowed relative asymmetry of a precision factor
DEGENERATE_EIG_RTOL = 1e-12   # eigenvalue ratio below which a statistic is degenerate
CONDITION_LIMIT = 1e12        # factor condition number that counts as divergence
DEFAULT_TOL = 1e-10           # relative log-likelihood change per sweep at convergence
DEFAULT_MAX_SWEEPS = 10_000
GAUGE_AGREEMENT_RTOL = 1e-6   # per-factor relative Frobenius gap counted as agreement
NONUNIQUE_SPREAD_MIN = 1e-3   # absolute factor gap counted as a non-uniqueness witness
DIVERGED_TRIAL_FRACTION = 0.95
DESK_SCALE_LIMIT = 4096       # largest prod(d_i) verify_datum will simulate

_RIDGE_RTOL = 1e-14           # surrogate-step ridge for a degenerate statistic


class NotPositiveDefinite(ValueError):
    """A matrix that must be positive definite is not."""


class ShapeMismatch(ValueError):
    """Sample data and factor shapes do not fit together."""


class DegenerateStatistic(RuntimeError):
    """A flip-flop block statistic is numerically singular."""


class DeskScaleExceeded(ValueError):
    """The requested simulation is larger than verify_datum supports."""


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True, eq=False)
class SampleSet:
    """m real sample tensors of shape d_1 x ... x d_k, stored flat.

    The flat layout is sample-major, then row-major over the tensor indices
    (the last index a_k varies fastest).  All entries must be finite.
    """

    dims: tuple[int, ...]
    m: int
    data: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "m", int(self.m))
        if not dims or any(d < 1 for d in dims):
            raise ShapeMismatch(f"dimensions must be >= 1, got {dims}")
        if self.m < 1:
            raise ShapeMismatch(f"sample count must be >= 1, got {self.m}")
        data = np.asarray(self.data, dtype=float).ravel()
        expected = self.m * math.prod(dims)
        if data.size != expected:
            raise ShapeMismatch(
                f"data length {data.size} != m * prod(dims) = {expected}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("sample data contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        """Dimension of one sample tensor."""
        return math.prod(self.dims)

    def tensors(self) -> np.ndarray:
        """The data reshaped to (m, d_1, ..., d_k)."""
        return self.data.reshape((self.m, *self.dims))

    # -- JSON round trip ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "m": self.m,
            "field": "real",
            "data": [float(x) for x in self.data],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SampleSet":
        """Inverse of to_json_dict; a malformed document raises ValueError."""
        if not isinstance(doc, dict) or not {"dims", "m", "data"} <= doc.keys():
            raise ValueError("a sample set is a JSON object with keys dims, m and data")
        if doc.get("field", "real") != "real":
            raise ValueError(f"unsupported field {doc.get('field')!r}")
        dims, m, data = doc["dims"], doc["m"], doc["data"]
        if not (isinstance(dims, list) and isinstance(data, list)
                and all(type(v) is int for v in [m, *dims])):
            raise ShapeMismatch("dims must be a list of integers, m an integer, data a list")
        try:
            values = np.asarray(data, float)
        except (TypeError, ValueError):
            raise ValueError("data must be a list of numbers") from None
        if values.ndim != 1:
            raise ShapeMismatch("data must be a flat list of numbers")
        return cls(tuple(dims), m, values)

    def save(self, path) -> None:
        """Write the JSON document; floats survive the round trip exactly."""
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SampleSet":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class KroneckerPrecision:
    """Factors (Psi_1, ..., Psi_k) of a Kronecker-product concentration.

    Each factor must be square, symmetric to within a 1e-12 relative
    tolerance, and positive definite; this is checked on construction.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ShapeMismatch("need at least one factor")
        mats = []
        for idx, f in enumerate(self.factors):
            a = np.asarray(f, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeMismatch(f"factor {idx + 1} is not square: shape {a.shape}")
            scale = float(np.max(np.abs(a))) if a.size else 0.0
            if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * max(scale, 1.0):
                raise ValueError(f"factor {idx + 1} is not symmetric")
            try:
                np.linalg.cholesky(0.5 * (a + a.T))
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(f"factor {idx + 1} is not positive definite")
            mats.append(a)
        object.__setattr__(self, "factors", tuple(mats))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "KroneckerPrecision":
        return cls(tuple(np.eye(int(d)) for d in dims))


class FitStatus(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "max_iterations"
    DEGENERATE_STATISTIC = "degenerate_statistic"


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of one flip-flop run.

    iterations counts full sweeps.  factors is None when the run diverged
    or hit a degenerate statistic.  loglik_history holds the initial value
    plus one entry per completed sweep and is non-decreasing up to 1e-9
    absolute slack per entry.
    """

    status: FitStatus
    loglik: float
    iterations: int
    factors: Optional[KroneckerPrecision]
    loglik_history: tuple[float, ...]


# ---------------------------------------------------------------------------
# mode-wise tensor algebra (private)


def _mode_apply(mat: np.ndarray, tens: np.ndarray, axis: int) -> np.ndarray:
    """Multiply `mat` into `tens` along `axis`."""
    return np.moveaxis(np.tensordot(mat, tens, axes=(1, axis)), 0, axis)


def _apply_all(tens: np.ndarray, mats: Sequence[np.ndarray], skip: int = -1) -> np.ndarray:
    """Apply factor j along tensor axis j+1 for every j != skip (axis 0 is samples)."""
    out = tens
    for j, a in enumerate(mats):
        if j != skip:
            out = _mode_apply(a, out, j + 1)
    return out


def _logdet_chol(a: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(a)))))


def _loglik_arrays(tens: np.ndarray, mats: Sequence[np.ndarray], m: int, n: int) -> float:
    quad = float(np.vdot(tens, _apply_all(tens, mats)))
    logdet = sum((n // a.shape[0]) * _logdet_chol(a) for a in mats)
    return 0.5 * m * logdet - 0.5 * quad


def _mode_statistic_arrays(tens: np.ndarray, mats: Sequence[np.ndarray], j: int) -> np.ndarray:
    """Symmetrized S_j = sum_s M_s^(j) (prod_{i != j} Psi_i) M_s^(j)^T (j zero-based)."""
    m = tens.shape[0]
    d = tens.shape[j + 1]
    w = _apply_all(tens, mats, skip=j)
    a = np.moveaxis(tens, j + 1, 1).reshape(m, d, -1)
    b = np.moveaxis(w, j + 1, 1).reshape(m, d, -1)
    s = np.einsum("sir,sjr->ij", a, b)
    return 0.5 * (s + s.T)


# ---------------------------------------------------------------------------
# sampling


def sample_standard(dims: Sequence[int], m: int, seed=0) -> SampleSet:
    """m tensors with i.i.d. standard normal entries from a seeded generator.

    Identical (dims, m, seed) always produce identical output.
    """
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(m * math.prod(dims))
    return SampleSet(dims, m, data)


def sample_from_model(factors: KroneckerPrecision, m: int, seed=0) -> SampleSet:
    """m samples whose covariance is the inverse of the Kronecker concentration.

    Draws standard normal tensors and applies L_i^{-T} along each mode,
    where Psi_i = L_i L_i^T is the Cholesky factorization.
    """
    dims = factors.dims
    z = np.random.default_rng(seed).standard_normal((m, *dims))
    for j, psi in enumerate(factors.factors):
        li = np.linalg.cholesky(psi)
        z = _mode_apply(np.linalg.inv(li).T, z, j + 1)
    return SampleSet(dims, m, z.ravel())


# ---------------------------------------------------------------------------
# likelihood and flip-flop updates


def _check_compatible(samples: SampleSet, factors: KroneckerPrecision) -> None:
    if samples.dims != factors.dims:
        raise ShapeMismatch(
            f"sample dims {samples.dims} do not match factor dims {factors.dims}"
        )


def log_likelihood(samples: SampleSet, factors: KroneckerPrecision) -> float:
    """Exact log-likelihood (up to its additive constant), mode-by-mode."""
    _check_compatible(samples, factors)
    return _loglik_arrays(samples.tensors(), factors.factors, samples.m, samples.n)


def mode_statistic(samples: SampleSet, factors: KroneckerPrecision, i: int) -> np.ndarray:
    """Block statistic S_i = sum_s M_s^(i) (prod_{j != i} Psi_j) M_s^(i)^T.

    M_s^(i) is the mode-i unfolding of sample s: rows indexed by a_i,
    columns by the remaining indices in their original row-major order.
    The result is symmetrized.  i is 1-based.
    """
    _check_compatible(samples, factors)
    if not 1 <= i <= samples.k:
        raise ValueError(f"factor position must be in 1..{samples.k}, got {i}")
    return _mode_statistic_arrays(samples.tensors(), factors.factors, i - 1)


def _update_block(tens, mats, j, m, n) -> tuple[float, bool]:
    """In-place flip-flop update of block j (zero-based) to (m*n/d_j) * S_j^{-1}.

    Returns the new factor's condition number and whether it ridged: a
    numerically singular statistic certifies an unbounded ascent direction,
    and the update then takes a ridge-regularized surrogate step whose huge
    condition number trips the divergence detector.  A statistic with no
    usable scale at all raises DegenerateStatistic.
    """
    s = _mode_statistic_arrays(tens, mats, j)
    if not np.all(np.isfinite(s)):
        raise DegenerateStatistic(f"block {j + 1} statistic has non-finite entries")
    w, v = np.linalg.eigh(s)
    if w[-1] <= 0.0:
        raise DegenerateStatistic(f"block {j + 1} statistic vanishes")
    ridged = bool(w[0] < DEGENERATE_EIG_RTOL * w[-1])
    if ridged:
        w = np.maximum(w, 0.0) + _RIDGE_RTOL * w[-1]
    scale = m * n // mats[j].shape[0]
    new = (v * (scale / w)) @ v.T
    mats[j] = 0.5 * (new + new.T)
    return float(w[-1] / w[0]), ridged


def _sweep(tens, mats, m, n) -> float:
    """Update blocks 1..k in place; returns the largest new condition number."""
    return max(_update_block(tens, mats, j, m, n)[0] for j in range(len(mats)))


def flip_flop_step(samples: SampleSet, factors: KroneckerPrecision, i: int) -> KroneckerPrecision:
    """Replace factor i by its exact block maximizer (m*n/d_i) * S_i^{-1}.

    Holding the other factors fixed, this maximizes the log-likelihood over
    Psi_i, so the likelihood never decreases.  Raises DegenerateStatistic
    when the smallest eigenvalue of S_i falls below 1e-12 times the largest.
    i is 1-based.
    """
    _check_compatible(samples, factors)
    if not 1 <= i <= samples.k:
        raise ValueError(f"factor position must be in 1..{samples.k}, got {i}")
    mats = list(factors.factors)
    _, ridged = _update_block(samples.tensors(), mats, i - 1, samples.m, samples.n)
    if ridged:
        raise DegenerateStatistic(f"block {i} statistic is numerically singular")
    return KroneckerPrecision(tuple(mats))


def fit_mle(
    samples: SampleSet,
    init: Optional[KroneckerPrecision] = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_SWEEPS,
    divergence_bound: Optional[float] = None,
) -> FitReport:
    """Run flip-flop sweeps (blocks 1..k in order) until a verdict.

    Converged: the relative log-likelihood change over a full sweep drops
    below `tol`.  Diverged: the gain over the initial value exceeds
    `divergence_bound` (default 1e3 * (1 + |l_initial|)) or some factor's
    condition number exceeds 1e12.  MaxIterations: neither after `max_iter`
    sweeps.  DegenerateStatistic: a block statistic had no usable scale;
    reported as a status, not an exception.
    """
    if init is None:
        init = KroneckerPrecision.identity(samples.dims)
    _check_compatible(samples, init)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    tens = samples.tensors()
    m, n = samples.m, samples.n
    mats = [np.array(f) for f in init.factors]

    l_init = _loglik_arrays(tens, mats, m, n)
    bound = divergence_bound if divergence_bound is not None else 1e3 * (1.0 + abs(l_init))
    history = [l_init]

    status, sweep = FitStatus.MAX_ITERATIONS, 0
    for sweep in range(1, max_iter + 1):
        try:
            cond = _sweep(tens, mats, m, n)
        except DegenerateStatistic:
            status = FitStatus.DEGENERATE_STATISTIC
            break
        prev = history[-1]
        loglik = _loglik_arrays(tens, mats, m, n)
        history.append(loglik)
        if not math.isfinite(loglik) or loglik - l_init > bound or cond > CONDITION_LIMIT:
            status = FitStatus.DIVERGED
            break
        if abs(loglik - prev) < tol * (1.0 + abs(prev)):
            status = FitStatus.CONVERGED
            break
    kept = status in (FitStatus.CONVERGED, FitStatus.MAX_ITERATIONS)
    return FitReport(
        status=status,
        loglik=history[-1],
        iterations=sweep,
        factors=KroneckerPrecision(tuple(mats)) if kept else None,
        loglik_history=tuple(history),
    )


def _gauge_fix_arrays(mats: list[np.ndarray]) -> list[np.ndarray]:
    out = [np.array(a) for a in mats]
    carry = 1.0
    for idx in range(1, len(out)):
        d = out[idx].shape[0]
        c = math.exp(_logdet_chol(out[idx]) / d)
        out[idx] /= c
        carry *= c
    out[0] *= carry
    return out


def gauge_fix(factors: KroneckerPrecision) -> KroneckerPrecision:
    """Rescale so det(Psi_i) = 1 for every i >= 2, absorbing the scalars
    into Psi_1.  The Kronecker product, and hence the likelihood, is
    unchanged; the result is a canonical representative of the scaling
    orbit.  Idempotent; a single factor is returned as is."""
    return KroneckerPrecision(tuple(_gauge_fix_arrays(list(factors.factors))))


def _polish_arrays(
    tens: np.ndarray,
    m: int,
    n: int,
    factors: KroneckerPrecision,
    ptol: float = 1e-10,
    max_sweeps: int = 2000,
) -> KroneckerPrecision:
    """Sharpen a converged fit by extra sweeps with a parameter-based stop.

    The likelihood-change rule in fit_mle can halt while slowly contracting
    factor directions still carry a few 1e-6 of error; iterating the (still
    contracting) block updates until the gauge-fixed factors move less than
    `ptol` relative Frobenius per sweep removes that, independently of the
    floating-point resolution of the likelihood.  Best effort: returns the
    last iterate on any numerical trouble.
    """
    mats = [np.array(f) for f in factors.factors]
    prev = _gauge_fix_arrays(mats)
    for _ in range(max_sweeps):
        try:
            _sweep(tens, mats, m, n)
        except DegenerateStatistic:
            break
        fixed = _gauge_fix_arrays(mats)
        change = max(
            float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)
            for a, b in zip(fixed, prev)
        )
        prev = fixed
        if change < ptol:
            break
    return KroneckerPrecision(tuple(prev))


# ---------------------------------------------------------------------------
# verification against the exact classification


@dataclass(frozen=True)
class TrialResult:
    """Restart-level tallies for one simulated data set.

    logliks holds the final log-likelihood of every restart in order.
    The spreads compare converged restarts only: loglik_spread is the
    relative width of their final log-likelihoods, factor_spread_rel /
    factor_spread_abs the largest per-factor Frobenius gap between two
    gauge-fixed restarts (relative resp. absolute).  Before comparison
    each converged fit is polished by extra flip-flop sweeps with a
    parameter-based stop, which sharpens the maximizer location without
    touching the reported fit.  All spreads are 0 when fewer than two
    restarts converged.
    """

    statuses: tuple[str, ...]
    logliks: tuple[float, ...]
    loglik_spread: float
    factor_spread_rel: float
    factor_spread_abs: float

    @property
    def n_converged(self) -> int:
        return sum(s == FitStatus.CONVERGED.value for s in self.statuses)

    @property
    def all_diverged(self) -> bool:
        return all(s == FitStatus.DIVERGED.value for s in self.statuses)

    @property
    def all_converged(self) -> bool:
        return all(s == FitStatus.CONVERGED.value for s in self.statuses)


@dataclass(frozen=True)
class VerificationReport:
    """Numerical tallies compared clause by clause with the prediction.

    bounded_agrees / exists_agrees are the hard checks: convergence
    everywhere when a maximizer should exist, divergence in at least 95%
    of trials when the likelihood should be unbounded.  unique_agrees is
    a hard check only when uniqueness is predicted (gauge-fixed restarts
    must agree to 1e-6 relative Frobenius per factor); when non-uniqueness
    is predicted it is None and nonuniqueness_witness_fraction reports, as
    a diagnostic, the fraction of trials where two restarts ended at least
    1e-3 apart in Frobenius norm.
    """

    datum: Datum
    profile: MleProfile
    trials: tuple[TrialResult, ...]
    bounded_agrees: bool
    exists_agrees: bool
    unique_agrees: Optional[bool]
    nonuniqueness_witness_fraction: Optional[float]

    @property
    def hard_clauses_agree(self) -> bool:
        return self.bounded_agrees and self.exists_agrees and self.unique_agrees is not False

    @property
    def all_degenerate(self) -> bool:
        degen = FitStatus.DEGENERATE_STATISTIC.value
        return all(s == degen for t in self.trials for s in t.statuses)


def _random_init(dims: Sequence[int], rng: np.random.Generator) -> KroneckerPrecision:
    mats = []
    for d in dims:
        a = rng.standard_normal((d, d))
        mats.append(a.T @ a + 1e-2 * np.eye(d))
    return KroneckerPrecision(tuple(mats))


def _factor_gaps(a: KroneckerPrecision, b: KroneckerPrecision) -> tuple[float, float]:
    """Largest per-factor Frobenius gap between two factor tuples: (relative, absolute)."""
    rel = abs_ = 0.0
    for fa, fb in zip(a.factors, b.factors):
        diff = float(np.linalg.norm(fa - fb))
        denom = max(float(np.linalg.norm(fa)), float(np.linalg.norm(fb)), 1e-300)
        rel = max(rel, diff / denom)
        abs_ = max(abs_, diff)
    return rel, abs_


def _run_trial(samples: SampleSet, restarts: int, seed, tol: float) -> TrialResult:
    statuses, logliks, fixed = [], [], []
    for r in range(restarts):
        rng = np.random.default_rng([*seed, r])
        fit = fit_mle(samples, _random_init(samples.dims, rng), tol=tol)
        statuses.append(fit.status.value)
        logliks.append(fit.loglik)
        if fit.status is FitStatus.CONVERGED:
            fixed.append(
                _polish_arrays(samples.tensors(), samples.m, samples.n, fit.factors)
            )

    spread = 0.0
    if len(fixed) >= 2:
        ls = [l for s, l in zip(statuses, logliks) if s == FitStatus.CONVERGED.value]
        spread = (max(ls) - min(ls)) / max(max(abs(l) for l in ls), 1e-300)
    rel = abs_ = 0.0
    for x in range(len(fixed)):
        for y in range(x + 1, len(fixed)):
            r_xy, a_xy = _factor_gaps(fixed[x], fixed[y])
            rel = max(rel, r_xy)
            abs_ = max(abs_, a_xy)
    return TrialResult(
        statuses=tuple(statuses),
        logliks=tuple(logliks),
        loglik_spread=spread,
        factor_spread_rel=rel,
        factor_spread_abs=abs_,
    )


def _verify_trial_task(args) -> TrialResult:
    dims, m, trial, restarts, seed, tol = args
    samples = sample_standard(dims, m, seed=[seed, 101, trial])
    return _run_trial(samples, restarts, (seed, 202, trial), tol)


def _assemble_report(datum: Datum, trials: Sequence[TrialResult]) -> VerificationReport:
    profile = mle_profile(datum)
    trials = tuple(trials)
    if profile.always_unbounded:
        frac = sum(t.all_diverged for t in trials) / len(trials)
        bounded = exists = frac >= DIVERGED_TRIAL_FRACTION
        unique: Optional[bool] = None
        witness = None
    else:
        bounded = exists = all(t.all_converged for t in trials)
        if profile.unique_as:
            unique = bounded and all(t.factor_spread_rel <= GAUGE_AGREEMENT_RTOL for t in trials)
            witness = None
        else:
            unique = None
            witness = sum(t.factor_spread_abs >= NONUNIQUE_SPREAD_MIN for t in trials) / len(trials)
    return VerificationReport(
        datum=datum,
        profile=profile,
        trials=trials,
        bounded_agrees=bounded,
        exists_agrees=exists,
        unique_agrees=unique,
        nonuniqueness_witness_fraction=witness,
    )


def _pool_workers(requested: int, tasks: int) -> int:
    """Pool size: the request capped by CPUs and tasks; 1 means run serially."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def verify_datum(
    datum: Datum,
    trials: int = 20,
    restarts: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> VerificationReport:
    """Simulate standard normal data and test the predicted profile.

    Each trial draws a fresh data set and runs fit_mle from `restarts`
    random positive definite initializations (Psi_i = A_i^T A_i + 0.01 I
    with A_i standard normal, all seeded deterministically from `seed`).
    Requires trials >= 1, restarts >= 2 and prod(d_i) <= 4096; larger
    models raise DeskScaleExceeded.  Trials run in at most `threads` worker
    processes, capped by CPUs and trials; results do not depend on it.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if restarts < 2:
        raise ValueError(f"restarts must be >= 2, got {restarts}")
    if datum.product() > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"prod(dims) = {datum.product()} exceeds the limit {DESK_SCALE_LIMIT}"
        )
    tasks = [(datum.dims, datum.m, t, restarts, seed, tol) for t in range(trials)]
    workers = _pool_workers(threads, trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_trial_task, tasks))
    else:
        results = [_verify_trial_task(t) for t in tasks]
    return _assemble_report(datum, results)


def verify_samples(
    samples: SampleSet,
    restarts: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Like verify_datum, but for one externally supplied data set."""
    if restarts < 2:
        raise ValueError(f"restarts must be >= 2, got {restarts}")
    datum = Datum(samples.dims, samples.m)
    trial = _run_trial(samples, restarts, (seed, 202, 0), tol)
    return _assemble_report(datum, [trial])
