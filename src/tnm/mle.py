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
import logging
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
_POLISH_MAX_SWEEPS = 2000     # polish sweeps per restart before it gives up on ptol

log = logging.getLogger(__name__)


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
# the flip-flop kernel (private)
#
# Every factor is a stack of shape (R, d, d): R factor sets (restarts)
# updated together against one data tensor.  Each operation acts on every
# slice of a stack on its own, so a restart's arithmetic does not depend on
# which other restarts share its stack; the public functions are the R = 1
# case.


class _Unfoldings:
    """The sample tensors, laid out once per block so that no sweep copies them.

    rows[j] holds the samples with axis j moved last, as a matrix with d_j
    columns.  plans[j] lists, for every other block i in order, the split
    (pre, d_i, post) of that layout around axis i.
    """

    def __init__(self, tens: np.ndarray) -> None:
        self.m, self.dims = tens.shape[0], tens.shape[1:]
        self.n = math.prod(self.dims)
        self.rows, self.plans = [], []
        for j, d in enumerate(self.dims):
            self.rows.append(np.ascontiguousarray(np.moveaxis(tens, j + 1, -1)).reshape(-1, d))
            plan, pre = [], self.m
            for i, d_i in enumerate(self.dims):
                if i != j:
                    plan.append((i, pre, d_i, self.m * self.n // (pre * d_i)))
                    pre *= d_i
            self.plans.append(plan)


def _mode_product(a: np.ndarray, x: np.ndarray, pre: int, d: int, post: int) -> np.ndarray:
    """Multiply each matrix of the stack `a` (R, d, d) into its slice of x
    along the axis that splits a slice as (pre, d, post); x is (R, ...) or
    (1, ...), one slice shared by every restart."""
    return a[:, None] @ x.reshape(len(x), pre, d, post)


def _applied(data: _Unfoldings, mats, j: int) -> np.ndarray:
    """(prod_{i != j} Psi_i) applied to the samples in block j's layout, (R or 1, M, d_j)."""
    rows = data.rows[j]
    w = rows[None]
    for i, pre, d, post in data.plans[j]:
        w = _mode_product(mats[i], w, pre, d, post)
    return w.reshape(len(w), *rows.shape)


def _statistic(data: _Unfoldings, mats, j: int) -> np.ndarray:
    """Symmetrized S_j = sum_s M_s^(j) (prod_{i != j} Psi_i) M_s^(j)^T, (R, d_j, d_j)."""
    s = data.rows[j].T @ _applied(data, mats, j)
    if len(s) != len(mats[j]):  # a single block: S does not depend on the factors
        s = np.repeat(s, len(mats[j]), axis=0)
    s += s.transpose(0, 2, 1)
    s *= 0.5
    return s


def _logdet_chol(a: np.ndarray) -> np.ndarray:
    return 2.0 * np.log(np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2)).sum(axis=1)


def _loglik(data: _Unfoldings, mats) -> np.ndarray:
    """Log-likelihood of every restart, evaluated explicitly; the quadratic
    term is tr(Psi_j S_j), taken at the smallest block j."""
    j = data.dims.index(min(data.dims))
    quad = (data.rows[j].T @ _applied(data, mats, j)) * mats[j]
    logdet = sum((data.n // a.shape[-1]) * _logdet_chol(a) for a in mats)
    return 0.5 * data.m * logdet - 0.5 * quad.reshape(len(quad), -1).sum(axis=1)


def _update_block(data: _Unfoldings, mats: list, j: int):
    """Set block j of every restart to its maximizer (m*n/d_j) * S_j^{-1},
    in place, from one batched eigh.

    Restarts whose statistic has no usable scale (non-finite or vanishing)
    are dropped from `mats`.  Returns (ok, cond, ridged, logdet): ok masks
    the restarts kept; the other three cover those only: the new factors'
    condition numbers, whether the step ridged, and log det of the new
    factors.  A numerically singular statistic certifies an unbounded ascent
    direction, and its restart takes a ridge-regularized surrogate step
    whose huge condition number trips the divergence detector.
    """
    # S_j does not depend on Psi_j: it takes Psi_j's place, and its buffer
    # then receives the new factor
    mats[j] = _statistic(data, mats, j)
    ok = np.ones(len(mats[j]), dtype=bool)
    if not math.isfinite(mats[j].sum()):
        ok = np.isfinite(mats[j]).all(axis=(1, 2))
        mats[:] = [a[ok] for a in mats]
    w, v = np.linalg.eigh(mats[j])
    vanishing = w[:, -1] <= 0.0
    if vanishing.any():
        ok[ok] = ~vanishing
        mats[:] = [a[~vanishing] for a in mats]
        w, v = w[~vanishing], v[~vanishing]
    top = w[:, -1:]
    ridged = w[:, 0] < DEGENERATE_EIG_RTOL * top[:, 0]
    if ridged.any():
        w[ridged] = np.maximum(w[ridged], 0.0) + _RIDGE_RTOL * top[ridged]
    scale = data.m * data.n // data.dims[j]
    logdet = data.dims[j] * math.log(scale) - np.log(w).sum(axis=1)
    v *= np.sqrt(scale / w)[:, None, :]
    np.matmul(v, v.transpose(0, 2, 1), out=mats[j])
    return ok, w[:, -1] / w[:, 0], ridged, logdet


def _sweep(data: _Unfoldings, mats: list):
    """One sweep, blocks 1..k in order, of every restart in the stack.

    Updates `mats` in place and drops from it the restarts whose statistic
    lost its scale.  Returns (alive, cond, ridged, logdets): alive masks the
    restarts kept; the others cover those only: the largest new condition
    number, whether any block ridged, and log det Psi_i for every block.
    """
    r = len(mats[0])
    alive = np.ones(r, dtype=bool)
    cond, ridged, logdets = np.zeros(r), np.zeros(r, dtype=bool), []
    for j in range(len(mats)):
        ok, c, rg, ld = _update_block(data, mats, j)
        if len(c) < len(cond):
            alive[alive] = ok
            cond, ridged, logdets = cond[ok], ridged[ok], [x[ok] for x in logdets]
        np.maximum(cond, c, out=cond)
        ridged |= rg
        logdets.append(ld)
    return alive, cond, ridged, logdets


def _fit(data: _Unfoldings, mats: list, tol: float, max_iter: int, divergence_bound=None):
    """Flip-flop every restart of the stack until its own verdict (see fit_mle).

    A restart that stops leaves the stack, so later sweeps cost less.  The
    log-likelihood after a sweep is read off the eigenvalues: with block k
    at its maximizer the quadratic term is exactly m*n, so
    l = (m/2) sum_i (n/d_i) log det Psi_i - m*n/2.  It is evaluated
    explicitly for the initial value and after a sweep that ridged.  The
    entries of `mats` are consumed.  Returns one FitReport per restart.
    """
    r = len(mats[0])
    l_init = _loglik(data, mats)
    if divergence_bound is None:
        bound = 1e3 * (1.0 + np.abs(l_init))
    else:
        bound = np.full(r, float(divergence_bound))
    histories = [[x] for x in l_init.tolist()]
    reports = [None] * r

    def finish(i, status, sweep, pos=None):
        kept = status in (FitStatus.CONVERGED, FitStatus.MAX_ITERATIONS)
        factors = KroneckerPrecision(tuple(a[pos].copy() for a in mats)) if kept else None
        reports[i] = FitReport(status, histories[i][-1], sweep, factors, tuple(histories[i]))

    active, prev = np.arange(r), l_init
    for sweep in range(1, max_iter + 1):
        if not len(active):
            break
        alive, cond, ridged, logdets = _sweep(data, mats)
        if not alive.all():
            for i in active[~alive]:
                finish(i, FitStatus.DEGENERATE_STATISTIC, sweep)
            active, l_init, bound, prev = active[alive], l_init[alive], bound[alive], prev[alive]
        logdet = sum((data.n // d) * ld for d, ld in zip(data.dims, logdets))
        loglik = 0.5 * data.m * logdet - 0.5 * data.m * data.n
        if ridged.any():
            loglik[ridged] = _loglik(data, mats if ridged.all() else [a[ridged] for a in mats])
        for i, x in zip(active.tolist(), loglik.tolist()):
            histories[i].append(x)
        diverged = ~np.isfinite(loglik) | (loglik - l_init > bound) | (cond > CONDITION_LIMIT)
        stop = diverged | (np.abs(loglik - prev) < tol * (1.0 + np.abs(prev)))
        if stop.any():
            for pos in np.flatnonzero(stop):
                status = FitStatus.DIVERGED if diverged[pos] else FitStatus.CONVERGED
                finish(active[pos], status, sweep, pos)
            go = ~stop
            active, l_init, bound, loglik = active[go], l_init[go], bound[go], loglik[go]
            mats[:] = [a[go] for a in mats]
        prev = loglik
    for pos, i in enumerate(active):
        finish(i, FitStatus.MAX_ITERATIONS, max(max_iter, 0), pos)
    return reports


def _frobenius(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).reshape(len(x), -1).sum(axis=1))


def _gauge_fix(mats, logdets=None) -> list[np.ndarray]:
    """Gauge-fixed copies of the stacks: det(Psi_i) = 1 for i >= 2.  The
    log-determinants of the blocks are computed unless given."""
    out = [np.array(a) for a in mats]
    carry = 1.0
    for i, a in enumerate(out[1:], 1):
        c = np.exp((_logdet_chol(a) if logdets is None else logdets[i]) / a.shape[-1])
        a /= c[:, None, None]
        carry = carry * c
    out[0] *= np.reshape(carry, (-1, 1, 1))
    return out


def _polish(data: _Unfoldings, mats: list, ptol: float = 1e-10,
            max_sweeps: int = _POLISH_MAX_SWEEPS):
    """Sharpen converged fits by extra sweeps with a parameter-based stop.

    The likelihood-change rule in fit_mle can halt while slowly contracting
    factor directions still carry a few 1e-6 of error; iterating the (still
    contracting) block updates until the gauge-fixed factors move less than
    `ptol` relative Frobenius per sweep removes that, independently of the
    floating-point resolution of the likelihood.  Each restart stops on its
    own; best effort: a restart whose statistic loses its scale keeps its
    last iterate.  Restarts still moving after `max_sweeps` keep their last
    iterate too, with one warning.  The entries of `mats` are consumed.
    Returns the gauge-fixed factors and the sweeps run, one entry per restart.
    """
    r = len(mats[0])
    fixed, sweeps = [None] * r, [max_sweeps] * r
    active, prev = np.arange(r), _gauge_fix(mats)

    def finish(pos, stacks, sweep):
        fixed[active[pos]] = [a[pos].copy() for a in stacks]
        sweeps[active[pos]] = sweep

    for sweep in range(1, max_sweeps + 1):
        if not len(active):
            break
        alive, _, _, logdets = _sweep(data, mats)
        if not alive.all():
            for pos in np.flatnonzero(~alive):
                finish(pos, prev, sweep)
            active, prev = active[alive], [p[alive] for p in prev]
        new = _gauge_fix(mats, logdets)
        change = np.zeros(len(active))
        for a, b in zip(new, prev):
            norm = np.maximum(_frobenius(b), 1e-300)
            b -= a
            np.maximum(change, _frobenius(b) / norm, out=change)
        done = change < ptol
        if done.any():
            for pos in np.flatnonzero(done):
                finish(pos, new, sweep)
            go = ~done
            active, new = active[go], [a[go] for a in new]
            mats[:] = [a[go] for a in mats]
        prev = new
    if len(active):
        log.warning(
            "polish stopped at its %d-sweep cap on %d of %d restarts (dims %s, m = %d) "
            "before the gauge-fixed factors moved less than %g per sweep; "
            "the factor spreads come from unfinished iterates",
            max_sweeps, len(active), r, "x".join(map(str, data.dims)), data.m, ptol,
        )
    for pos in range(len(active)):
        finish(pos, prev, max_sweeps)
    return fixed, sweeps


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
    z = np.random.default_rng(seed).standard_normal((1, m, *dims))
    pre, n = m, math.prod(dims)
    for d, psi in zip(dims, factors.factors):
        li = np.linalg.cholesky(psi)
        z = _mode_product(np.linalg.inv(li).T[None], z, pre, d, m * n // (pre * d))
        pre *= d
    return SampleSet(dims, m, z.ravel())


# ---------------------------------------------------------------------------
# likelihood and flip-flop updates


def _check_compatible(samples: SampleSet, factors: KroneckerPrecision) -> None:
    if samples.dims != factors.dims:
        raise ShapeMismatch(
            f"sample dims {samples.dims} do not match factor dims {factors.dims}"
        )


def _stack(factors: KroneckerPrecision) -> list[np.ndarray]:
    """The factors as stacks of one restart, (1, d_i, d_i)."""
    return [np.array(f, order="C")[None] for f in factors.factors]


def log_likelihood(samples: SampleSet, factors: KroneckerPrecision) -> float:
    """Exact log-likelihood (up to its additive constant), mode-by-mode."""
    _check_compatible(samples, factors)
    return float(_loglik(_Unfoldings(samples.tensors()), _stack(factors))[0])


def mode_statistic(samples: SampleSet, factors: KroneckerPrecision, i: int) -> np.ndarray:
    """Block statistic S_i = sum_s M_s^(i) (prod_{j != i} Psi_j) M_s^(i)^T.

    M_s^(i) is the mode-i unfolding of sample s: rows indexed by a_i,
    columns by the remaining indices in their original row-major order.
    The result is symmetrized.  i is 1-based.
    """
    _check_compatible(samples, factors)
    if not 1 <= i <= samples.k:
        raise ValueError(f"factor position must be in 1..{samples.k}, got {i}")
    return _statistic(_Unfoldings(samples.tensors()), _stack(factors), i - 1)[0]


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
    mats = _stack(factors)
    ok, _, ridged, _ = _update_block(_Unfoldings(samples.tensors()), mats, i - 1)
    if not ok[0] or ridged[0]:
        raise DegenerateStatistic(f"block {i} statistic is numerically singular")
    return KroneckerPrecision(tuple(a[0] for a in mats))


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
    return _fit(_Unfoldings(samples.tensors()), _stack(init), tol, max_iter, divergence_bound)[0]


def gauge_fix(factors: KroneckerPrecision) -> KroneckerPrecision:
    """Rescale so det(Psi_i) = 1 for every i >= 2, absorbing the scalars
    into Psi_1.  The Kronecker product, and hence the likelihood, is
    unchanged; the result is a canonical representative of the scaling
    orbit.  Idempotent; a single factor is returned as is."""
    return KroneckerPrecision(tuple(a[0] for a in _gauge_fix(_stack(factors))))


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
    restarts converged.  iterations holds every restart's fit sweeps,
    polish_sweeps its polish sweeps (0 unless it converged).
    """

    statuses: tuple[str, ...]
    logliks: tuple[float, ...]
    loglik_spread: float
    factor_spread_rel: float
    factor_spread_abs: float
    iterations: tuple[int, ...] = ()
    polish_sweeps: tuple[int, ...] = ()

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


def _restart_inits(dims: Sequence[int], restarts: int, seed) -> list[np.ndarray]:
    """Seeded random starting points Psi_i = A_i^T A_i + 0.01 I, A_i standard
    normal, as one stack (restarts, d_i, d_i) per factor."""
    starts = []
    for r in range(restarts):
        rng = np.random.default_rng([*seed, r])
        draws = [rng.standard_normal((d, d)) for d in dims]
        starts.append([a.T @ a + 1e-2 * np.eye(len(a)) for a in draws])
    return [np.stack(s) for s in zip(*starts)]


def _trial_fits(samples: SampleSet, restarts: int, seed, tol: float):
    """Fit all restarts of one trial as one stack, then polish the converged ones.

    Returns (fits, polished, polish_sweeps): one FitReport per restart, the
    gauge-fixed polished factors of the converged restarts in order, and
    every restart's polish sweeps (0 unless it converged).
    """
    data = _Unfoldings(samples.tensors())
    fits = _fit(data, _restart_inits(samples.dims, restarts, seed), tol, DEFAULT_MAX_SWEEPS)
    conv = [f.factors.factors for f in fits if f.status is FitStatus.CONVERGED]
    polished, sweeps = _polish(data, [np.stack(fs) for fs in zip(*conv)]) if conv else ([], [])
    sweeps = iter(sweeps)
    polish_sweeps = [next(sweeps) if f.status is FitStatus.CONVERGED else 0 for f in fits]
    return fits, polished, polish_sweeps


def _factor_gaps(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[float, float]:
    """Largest per-factor Frobenius gap between two factor tuples: (relative, absolute)."""
    rel = abs_ = 0.0
    for fa, fb in zip(a, b):
        diff = float(np.linalg.norm(fa - fb))
        denom = max(float(np.linalg.norm(fa)), float(np.linalg.norm(fb)), 1e-300)
        rel = max(rel, diff / denom)
        abs_ = max(abs_, diff)
    return rel, abs_


def _run_trial(samples: SampleSet, restarts: int, seed, tol: float) -> TrialResult:
    fits, fixed, polish_sweeps = _trial_fits(samples, restarts, seed, tol)
    ls = [f.loglik for f in fits if f.status is FitStatus.CONVERGED]
    spread = 0.0
    if len(ls) >= 2:
        spread = (max(ls) - min(ls)) / max(max(abs(l) for l in ls), 1e-300)
    rel = abs_ = 0.0
    for x in range(len(fixed)):
        for y in range(x + 1, len(fixed)):
            r_xy, a_xy = _factor_gaps(fixed[x], fixed[y])
            rel = max(rel, r_xy)
            abs_ = max(abs_, a_xy)
    return TrialResult(
        statuses=tuple(f.status.value for f in fits),
        logliks=tuple(f.loglik for f in fits),
        loglik_spread=spread,
        factor_spread_rel=rel,
        factor_spread_abs=abs_,
        iterations=tuple(f.iterations for f in fits),
        polish_sweeps=tuple(polish_sweeps),
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


def _pool_map(fn, tasks, threads: int, n: int):
    """Yield fn(task) for each of the n `tasks`, in task order.

    Runs serially when _pool_workers(threads, n) is 1, otherwise in one
    process pool that hands each worker about an eighth of its share at a
    time.  `tasks` may be a generator.
    """
    workers = _pool_workers(threads, n)
    if workers == 1:
        yield from map(fn, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, tasks, chunksize=max(1, n // (8 * workers)))


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
    return _assemble_report(datum, _pool_map(_verify_trial_task, tasks, threads, trials))


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
