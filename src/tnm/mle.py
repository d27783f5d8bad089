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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import islice
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
_MOMENT_TOL = 1e-10           # moment-map norm at which refinement stops
_REFINE_MAX_ITER = 500        # refinement iterations per restart before it gives up
_NEWTON_SWITCH = 0.5          # a sweep keeping more of the norm than this switches to Newton
_CG_RTOL = 1e-2               # relative residual at which a Newton direction is accepted
_CG_MAX_ITER = 100            # conjugate-gradient iterations per Newton step
_MAX_HALVINGS = 30            # step halvings before a Newton step gives way to a sweep

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


def _update_block(data: _Unfoldings, mats: list, j: int, roots=None):
    """Set block j of every restart to its maximizer (m*n/d_j) * S_j^{-1},
    in place, from one batched eigh.

    Restarts whose statistic has no usable scale (non-finite or vanishing)
    are dropped from `mats` (and from `roots`).  Returns (ok, cond, ridged,
    logdet, norm): ok masks the restarts kept; the others cover those only:
    the new factors' condition numbers, whether the step ridged, log det of
    the new factors, and, when `roots` is given, block j's moment-map norm
    ||B^T S_j B / (m*n/d_j) - I||_F at the old factor Psi_j = B B^T, with
    B = roots[j]; roots[j] is then replaced by the new factor's root.  A
    numerically singular statistic certifies an unbounded ascent direction,
    and its restart takes a ridge-regularized surrogate step whose huge
    condition number trips the divergence detector.
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
    norm = None
    if roots is not None:
        if not ok.all():
            roots[:] = [a[ok] for a in roots]
        norm = _moment_norm(roots[j].transpose(0, 2, 1) @ mats[j] @ roots[j], scale)
        roots[j] = v  # scaled into the new factor's root just below
    v *= np.sqrt(scale / w)[:, None, :]
    np.matmul(v, v.transpose(0, 2, 1), out=mats[j])
    return ok, w[:, -1] / w[:, 0], ridged, logdet, norm


def _sweep(data: _Unfoldings, mats: list, roots=None):
    """One sweep, blocks 1..k in order, of every restart in the stack.

    Updates `mats` (and `roots`, see _update_block) in place and drops from
    them the restarts whose statistic lost its scale.  Returns (alive, cond,
    ridged, logdets, norm): alive masks the restarts kept; the others cover
    those only: the largest new condition number, whether any block ridged,
    log det Psi_i for every block, and with `roots` the largest block
    moment-map norm met on the way (None without).
    """
    r = len(mats[0])
    alive = np.ones(r, dtype=bool)
    cond, ridged, logdets = np.zeros(r), np.zeros(r, dtype=bool), []
    norm = None if roots is None else np.zeros(r)
    for j in range(len(mats)):
        ok, c, rg, ld, nj = _update_block(data, mats, j, roots)
        if len(c) < len(cond):
            alive[alive] = ok
            cond, ridged, logdets = cond[ok], ridged[ok], [x[ok] for x in logdets]
            if norm is not None:
                norm = norm[ok]
        np.maximum(cond, c, out=cond)
        ridged |= rg
        logdets.append(ld)
        if norm is not None:
            np.maximum(norm, nj, out=norm)
    return alive, cond, ridged, logdets, norm


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
        alive, cond, ridged, logdets, _ = _sweep(data, mats)
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


def _moment_norm(x: np.ndarray, scale: int) -> np.ndarray:
    """||x / scale - I||_F per restart, for a stack x of whitened statistics
    S~ = B^T S B (see below); x is overwritten by x - scale I."""
    x.reshape(len(x), -1)[:, :: x.shape[-1] + 1] -= scale
    return np.sqrt(np.einsum("rij,rij->r", x, x)) / scale


def _gauge_fix(mats) -> list[np.ndarray]:
    """Gauge-fixed copies of the stacks: det(Psi_i) = 1 for i >= 2."""
    out = [np.array(a) for a in mats]
    carry = 1.0
    for a in out[1:]:
        c = np.exp(_logdet_chol(a) / a.shape[-1])
        a /= c[:, None, None]
        carry = carry * c
    out[0] *= np.reshape(carry, (-1, 1, 1))
    return out


# ---------------------------------------------------------------------------
# refinement of converged fits (private)
#
# With Psi_i = B_i B_i^T, the whitened samples Z = (B_1^T (x) ... (x) B_k^T) Y
# have block Grams S~_i = B_i^T S_i B_i.  On the log-factors H_i of
# Psi_i = B_i exp(H_i) B_i^T the negative log-likelihood has, at H = 0,
# gradient g_i = (S~_i - c_i I) / 2 with c_i = m*n/d_i, and Hessian
#   (A V)_i = (V_i S~_i + S~_i V_i) / 4 + (1/2) sum_{j != i} sym(Gram_i(Z, V_j x_j Z)).
# The moment map S~_i / c_i - I is gauge-invariant; it vanishes exactly at a
# maximizer.  The gauge directions (c_i I with sum c_i = 0) lie in the kernel
# of A, and so, at a maximizer that is not unique, do the directions along
# the maximizer set.


def _whiten(data: _Unfoldings, roots) -> np.ndarray:
    """Z = (B_1^T (x) ... (x) B_k^T) Y in the sample layout, (R, m*n/d_k, d_k)."""
    return _applied(data, [b.transpose(0, 2, 1) for b in roots], len(data.dims) - 1) @ roots[-1]


def _per_block(data: _Unfoldings, z: np.ndarray) -> list[np.ndarray]:
    """The whitened samples in every block's layout (see _Unfoldings.rows)."""
    t = z.reshape(len(z), data.m, *data.dims)
    return [np.ascontiguousarray(np.moveaxis(t, j + 2, -1)).reshape(len(z), -1, d)
            for j, d in enumerate(data.dims)]


def _grams(zs) -> list[np.ndarray]:
    out = []
    for z in zs:
        s = z.transpose(0, 2, 1) @ z
        s += s.transpose(0, 2, 1)
        s *= 0.5
        out.append(s)
    return out


def _dot(a, b) -> np.ndarray:
    """Frobenius inner product over all blocks, per restart."""
    return sum((x * y).reshape(len(x), -1).sum(axis=1) for x, y in zip(a, b))


def _hessian_product(data: _Unfoldings, zs, grams, vs) -> list[np.ndarray]:
    """A V at H = 0 (see above), with one mode product per ordered block pair
    and one Gram per block."""
    out = []
    for i, (z, s) in enumerate(zip(zs, grams)):
        p = vs[i] @ s
        cross = None
        for j, pre, d, post in data.plans[i]:
            y = _mode_product(vs[j], z, pre, d, post).reshape(z.shape)
            cross = y if cross is None else cross + y
        if cross is not None:
            p += z.transpose(0, 2, 1) @ cross
        p += p.transpose(0, 2, 1)
        p *= 0.25
        out.append(p)
    return out


def _newton_direction(data: _Unfoldings, zs, grams, res) -> list[np.ndarray]:
    """V with A V = res (= -grad, consumed), by conjugate gradients batched
    over restarts.

    Each restart has its own step lengths and freezes on its own once its
    residual is at most _CG_RTOL times the initial one, or when it meets a
    direction without positive curvature.  Started from 0, the iterates stay
    in the range of A, so kernel directions are left alone.
    """
    x = [np.zeros_like(a) for a in res]
    p = [a.copy() for a in res]
    rr = _dot(res, res)
    target = _CG_RTOL * _CG_RTOL * rr
    live = rr > target
    for _ in range(_CG_MAX_ITER):
        ap = _hessian_product(data, zs, grams, p)
        pap = _dot(p, ap)
        live &= pap > 0.0
        alpha = (np.where(live, rr, 0.0) / np.where(live, pap, 1.0))[:, None, None]
        for a, q, b, aq in zip(x, p, res, ap):
            a += alpha * q
            b -= alpha * aq
        new = _dot(res, res)
        live &= new > target
        if not live.any():
            break
        beta = np.divide(new, rr, out=np.zeros_like(rr), where=live)[:, None, None]
        p = [b + beta * q for b, q in zip(res, p)]
        rr = new
    return x


def _newton(data: _Unfoldings, roots: list):
    """One safeguarded Newton-CG step on the log-factors of every restart.

    Returns (norm, stepped): the moment-map norm max_i ||S~_i / c_i - I||_F
    at the current point, and which restarts took a step.  Restarts whose
    norm is already below _MOMENT_TOL take none.  The step is
    Psi_i <- B_i exp(t V_i) B_i^T with V from _newton_direction, t at most 1
    and at most 1 / ||V||_F (a trust radius in log space), halved until the
    log-likelihood rises.  In the eigenbasis V_i = U_i diag(lambda_i) U_i^T
    the gain is exact and cheap to evaluate for every t:
      l(t) - l(0) = (t/2) sum_i c_i tr V_i - (1/2) sum_e P_e expm1(t Lambda_e),
    with P the squared samples (B_i U_i)^T Y summed over samples and Lambda
    the outer sum of the lambda_i.  A restart that finds no rise in
    _MAX_HALVINGS halvings takes no step.  `roots` is updated in place.
    """
    r, dims = len(roots[0]), data.dims
    scales = [data.m * data.n // d for d in dims]
    zs = _per_block(data, _whiten(data, roots))
    grams = _grams(zs)
    res = [s.copy() for s in grams]
    norm = np.zeros(r)
    for g, c in zip(res, scales):
        np.maximum(norm, _moment_norm(g, c), out=norm)
    stepped = np.zeros(r, dtype=bool)
    go = np.flatnonzero(norm >= _MOMENT_TOL)
    if not len(go):
        return norm, stepped
    zs, grams, res = (_rows(x, go, r) for x in (zs, grams, res))
    for g in res:
        g *= -0.5  # -grad
    vs = _newton_direction(data, zs, grams, res)
    del zs, grams, res  # the line search whitens the samples once more
    lam, vecs = zip(*(np.linalg.eigh(v) for v in vs))
    rot = [b[go] @ u for b, u in zip(roots, vecs)]
    z = _whiten(data, rot).reshape(len(go), data.m, data.n)
    power = np.einsum("rsn,rsn->rn", z, z)
    grid = np.zeros((len(go), 1))
    for w in lam:
        grid = (grid[:, :, None] + w[:, None, :]).reshape(len(go), -1)
    rise = sum(0.5 * c * w.sum(axis=1) for c, w in zip(scales, lam))
    t = 1.0 / np.maximum(1.0, np.sqrt(sum((w * w).sum(axis=1) for w in lam)))
    ok = np.zeros(len(go), dtype=bool)
    for _ in range(_MAX_HALVINGS):
        gain = t * rise - 0.5 * (power * np.expm1(t[:, None] * grid)).sum(axis=1)
        ok |= gain > 0.0
        if ok.all():
            break
        t[~ok] *= 0.5
    for b, u, w in zip(roots, rot, lam):
        b[go[ok]] = u[ok] * np.exp(0.5 * t[ok, None] * w[ok])[:, None, :]
    stepped[go[ok]] = True
    return norm, stepped


def _rows(stacks: list, pos: np.ndarray, n: int) -> list:
    """The rows `pos` of every stack; the stacks themselves when that is all n."""
    return list(stacks) if len(pos) == n else [a[pos] for a in stacks]


def _polish(data: _Unfoldings, mats: list, max_iter: int = _REFINE_MAX_ITER):
    """Refine converged fits until the moment-map norm is below _MOMENT_TOL.

    The likelihood-change rule in fit_mle can halt while slowly contracting
    directions still carry a few 1e-6 of error.  Each iteration of a
    restart is one flip-flop sweep, whose norm is read off the statistics
    the sweep forms anyway, while sweeps cut the norm at least in half;
    after the first sweep that does not, every iteration is a Newton step
    (_newton), or a sweep where that finds no rise.  Each restart decides
    and stops on its own; the gauge fix runs once, at exit.  A restart
    whose statistic loses its scale keeps the factors it came with, and
    one still above the stop after `max_iter` iterations keeps its last
    iterate, with one warning.  The entries of `mats` are consumed.
    Returns the gauge-fixed factors and the iterations run, one entry per
    restart.
    """
    r = len(mats[0])
    start = [a.copy() for a in mats]
    roots = [np.linalg.cholesky(a) for a in mats]
    ends, counts = [None] * r, [0] * r
    active, taken = np.arange(r), np.zeros(r, dtype=int)
    prev, newton = np.full(r, np.inf), np.zeros(r, dtype=bool)

    def finish(pos, factors, count):
        ends[active[pos]], counts[active[pos]] = factors, int(count)

    for _ in range(max_iter):
        if not len(active):
            break
        done, sweep = np.zeros(len(active), dtype=bool), ~newton
        pos = np.flatnonzero(newton)
        if len(pos):
            sub = _rows(roots, pos, len(active))
            norm, stepped = _newton(data, sub)
            done[pos] = norm < _MOMENT_TOL
            sweep[pos] = ~done[pos] & ~stepped
            moved = pos[stepped]
            for a, b, s in zip(mats, roots, sub):
                b[moved] = s[stepped]
                a[moved] = b[moved] @ b[moved].transpose(0, 2, 1)
            taken[moved] += 1
        pos = np.flatnonzero(sweep)
        if len(pos):
            sub, sub_roots = _rows(mats, pos, len(active)), _rows(roots, pos, len(active))
            alive, _, _, _, norm = _sweep(data, sub, sub_roots)
            for i in pos[~alive]:
                finish(i, [a[i] for a in start], taken[i] + 1)
            done[pos[~alive]] = True
            pos = pos[alive]
            if len(pos) == len(active):
                mats, roots = sub, sub_roots
            else:
                for a, b, s, t in zip(mats, roots, sub, sub_roots):
                    a[pos], b[pos] = s, t
            taken[pos] += 1
            done[pos] |= norm < _MOMENT_TOL
            newton[pos] |= norm > _NEWTON_SWITCH * prev[pos]
            prev[pos] = norm
        if done.any():
            for i in np.flatnonzero(done):
                if ends[active[i]] is None:
                    finish(i, [a[i] for a in mats], taken[i])
            go = ~done
            active, taken, prev, newton = active[go], taken[go], prev[go], newton[go]
            mats, roots, start = ([a[go] for a in x] for x in (mats, roots, start))
    if len(active):
        log.warning(
            "refinement stopped at its %d-iteration cap on %d of %d restarts (dims %s, m = %d) "
            "before the moment-map norm fell below %g; the factor spreads come from "
            "unfinished iterates",
            max_iter, len(active), r, "x".join(map(str, data.dims)), data.m, _MOMENT_TOL,
        )
    for i in range(len(active)):
        finish(i, [a[i] for a in mats], taken[i])
    fixed = _gauge_fix([np.stack(fs) for fs in zip(*ends)])
    return [[a[i] for a in fixed] for i in range(r)], counts


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


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


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
    ok, _, ridged, _, _ = _update_block(_Unfoldings(samples.tensors()), mats, i - 1)
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
    _check_tol(tol)
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
    each converged fit is refined until its moment-map norm is below
    1e-10, by flip-flop sweeps and then safeguarded Newton steps, which
    sharpens the maximizer location without touching the reported fit.
    All spreads are 0 when fewer than two restarts converged.  iterations
    holds every restart's fit sweeps, polish_sweeps its refinement
    iterations, sweeps plus Newton steps (at least 1 if it converged, 0
    otherwise).
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
    """Fit all restarts of one trial as one stack, then refine the converged ones.

    Returns (fits, polished, polish_sweeps): one FitReport per restart, the
    gauge-fixed refined factors of the converged restarts in order, and
    every restart's refinement iterations (0 unless it converged).
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


def _run_chunk(fn, chunk: list) -> list:
    return [fn(task) for task in chunk]


def _pool_map(fn, tasks, threads: int, n: int):
    """Yield fn(task) for each of the n `tasks`, in task order.

    Runs serially when _pool_workers(threads, n) is 1, otherwise in one
    process pool that hands each worker about an eighth of its share at a
    time and keeps at most two such chunks per worker in flight, so
    `tasks`, which may be a generator, is drawn only as results are used.
    """
    workers = _pool_workers(threads, n)
    if workers == 1:
        yield from map(fn, tasks)
        return
    tasks, size = iter(tasks), max(1, n // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()

        def submit():
            chunk = list(islice(tasks, size))
            if chunk:
                pending.append(pool.submit(_run_chunk, fn, chunk))

        for _ in range(2 * workers):
            submit()
        try:
            while pending:
                done = pending.popleft().result()
                submit()
                yield from done
        finally:  # a consumer that stops early leaves chunks nobody reads
            for future in pending:
                future.cancel()


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
    Requires trials >= 1, restarts >= 2, a finite tol > 0 and
    prod(d_i) <= 4096; larger models raise DeskScaleExceeded.  Trials run in at most `threads` worker
    processes, capped by CPUs and trials; results do not depend on it.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if restarts < 2:
        raise ValueError(f"restarts must be >= 2, got {restarts}")
    _check_tol(tol)
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
    _check_tol(tol)
    datum = Datum(samples.dims, samples.m)
    trial = _run_trial(samples, restarts, (seed, 202, 0), tol)
    return _assemble_report(datum, [trial])
