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

import itertools
import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .classify import MleProfile, mle_profile
from .datum import Datum
from .pool import _pool_map

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
_STALL_RATIO = 0.9            # a fit sweep gaining more than this of the last gain switches to Newton
_CG_RTOL = 1e-2               # relative residual at which a Newton direction is accepted
_CG_MAX_ITER = 100            # conjugate-gradient iterations per Newton step
_MAX_HALVINGS = 30            # step halvings before a Newton step gives way to a sweep
_CHOLESKY_MIN_DIM = 8         # smallest block updated through Cholesky (see _update_block); eigh /
                              # Cholesky route on 4-restart stacks, us: 36 / 37 at d = 4, 56 / 47
                              # at 8, 146 / 71 at 16, 2008 / 430 at 64 (2-vCPU Xeon, 1 BLAS thread)
_TRI_INV_BASE = 8             # largest block _tri_inv hands to LAPACK inv; 4-restart inverse, us,
                              # base 8 / base 16 / inv of the whole: 161 / 181 / 459 at d = 64,
                              # 57 / 56 / 52 at d = 16 (same machine)
_MAX_DRAW_ENTRIES = 1 << 24   # most sample entries m * prod(d_i) one draw may hold (128 MiB)
_MAX_STACK_ENTRIES = 1 << 27  # most entries restarts * (m * prod(d_i) + sum d_i^2) a trial's stacks
                              # may hold: 4 * (2^24 + 4096^2), so 4 restarts fit every draw allowed

log = logging.getLogger(__name__)


class NotPositiveDefinite(ValueError):
    """A matrix that must be positive definite is not."""


class ShapeMismatch(ValueError):
    """Sample data and factor shapes do not fit together."""


class DegenerateStatistic(RuntimeError):
    """A flip-flop block statistic is numerically singular."""


class DeskScaleExceeded(ValueError):
    """The requested simulation is larger than tnm supports."""


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

    iterations counts full sweeps; once the run has switched to Newton steps
    (see fit_mle), each sweep is preceded by one, and newton_steps counts
    those that were taken.  factors is None when the run diverged or hit a
    degenerate statistic.  loglik_history holds the initial value plus one
    entry per iteration and is non-decreasing up to 1e-9 absolute slack per
    entry.
    """

    status: FitStatus
    loglik: float
    iterations: int
    factors: Optional[KroneckerPrecision]
    loglik_history: tuple[float, ...]
    newton_steps: int = 0


# ---------------------------------------------------------------------------
# the flip-flop kernel (private)
#
# Every factor is a stack of shape (R, d, d): R factor sets (restarts)
# updated together against one data tensor.  Each operation acts on every
# slice of a stack on its own, so a restart's arithmetic does not depend on
# which other restarts share its stack; the public functions are the R = 1
# case.  No kernel function changes how many restarts a stack holds: they
# report per-restart masks, and only _solve retires restarts.


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


def _update_block(data: _Unfoldings, mats: list, j: int, moment: bool = False):
    """Set block j of every restart to its maximizer c_j S_j^{-1}, with
    c_j = m*n/d_j, in place.

    Returns (lost, cond, ridged, logdet, norm), one entry per restart:
    whether its statistic had no usable scale (non-finite or vanishing), the
    new factor's condition number or a bound on it (see _cholesky_route),
    whether the step ridged, log det of the new factor, and with `moment`
    block j's moment-map norm ||B^T S_j B / c_j - I||_F at the factor
    Psi_j = B B^T the update replaces (None without); every root B gives the
    same norm.  A lost restart has all its factors set to I, so the rest of
    the sweep stays finite; the caller retires it.  A numerically singular
    statistic certifies an unbounded ascent direction, and its restart takes
    a ridge-regularized surrogate step whose huge condition number trips the
    divergence detector.

    Blocks with d_j >= _CHOLESKY_MIN_DIM factor S_j = L L^T.  A restart whose
    S_j has no Cholesky factor, or whose condition bound is too large to
    rule out a ridge or a divergence, and every restart of a smaller block,
    takes the eigendecomposition instead (_eigh_route), so every lost,
    ridged and divergence decision is made from the eigenvalues.  Either
    route treats each restart on its own.
    """
    s = _statistic(data, mats, j)
    if not math.isfinite(s.sum()):
        s[~np.isfinite(s).all(axis=(1, 2))] = 0.0  # lost, like a vanishing one
    scale = data.m * data.n // data.dims[j]
    new, lost, cond, ridged, logdet, norm = _maximizer(s, mats[j], scale, moment)
    if np.count_nonzero(lost):
        for a in mats:
            a[lost] = np.eye(a.shape[-1])
    mats[j] = new
    return lost, cond, ridged, logdet, norm


def _maximizer(s: np.ndarray, psi: np.ndarray, scale: int, moment: bool):
    """(new, lost, cond, ridged, logdet, norm) for the stack of statistics s
    (consumed) and the factors psi they replace, routed as _update_block
    describes."""
    if s.shape[-1] < _CHOLESKY_MIN_DIM:
        return _eigh_route(s, psi, scale, moment)
    rows, out = _cholesky_route(s, psi, scale, moment)
    if not len(rows):
        return _eigh_route(s, psi, scale, moment)
    if len(rows) < len(s):
        rest = np.setdiff1d(np.arange(len(s)), rows)
        out = [None if a is None else _scatter(rows, a, rest, b)
               for a, b in zip(out, _eigh_route(s[rest], psi[rest], scale, moment))]
    return out


def _scatter(pos_a, a: np.ndarray, pos_b, b: np.ndarray) -> np.ndarray:
    """One stack with a's rows at positions pos_a and b's at pos_b."""
    out = np.empty((len(a) + len(b), *a.shape[1:]), dtype=a.dtype)
    out[pos_a], out[pos_b] = a, b
    return out


def _eigh_route(s: np.ndarray, psi: np.ndarray, scale: int, moment: bool):
    """The block update of _update_block for every row of the stack s, from
    one batched eigh; s is consumed, psi (the factors being replaced) is
    read only with `moment`.

    Returns (new, lost, cond, ridged, logdet, norm).  A lost row's new
    factor is I, and so is the factor its norm is taken at.  With
    S = V W V^T the norm is ||W^(1/2) V^T psi V W^(1/2) / c - I||_F, so no
    root of psi is needed.
    """
    w, v = np.linalg.eigh(s)
    lost = w[:, -1] <= 0.0
    d = s.shape[-1]
    if np.count_nonzero(lost):
        w[lost], v[lost] = scale, np.eye(d)
        if moment:
            psi = psi.copy()
            psi[lost] = np.eye(d)
    top = w[:, -1:]
    ridged = w[:, 0] < DEGENERATE_EIG_RTOL * top[:, 0]
    if np.count_nonzero(ridged):
        w[ridged] = np.maximum(w[ridged], 0.0) + _RIDGE_RTOL * top[ridged]
    logdet = d * math.log(scale) - np.log(w).sum(axis=1)
    norm = None
    if moment:
        half = np.sqrt(w)
        x = v.transpose(0, 2, 1) @ psi @ v
        x *= half[:, :, None]
        x *= half[:, None, :]
        norm = _moment_norm(x, scale)
    v *= np.sqrt(scale / w)[:, None, :]
    new = np.matmul(v, v.transpose(0, 2, 1), out=s)  # S's buffer takes the new factor
    return new, lost, w[:, -1] / w[:, 0], ridged, logdet, norm


def _cholesky_rows(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, L): the positions of the rows of s that have a Cholesky
    factor, and those factors.  A failing stack is retried row by row, so a
    row's factor does not depend on its stack partners."""
    try:
        return np.arange(len(s)), np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        rows, low = [], []
        for i, a in enumerate(s):
            try:
                low.append(np.linalg.cholesky(a))
            except np.linalg.LinAlgError:
                continue
            rows.append(i)
        return np.array(rows, dtype=int), np.array(low).reshape(-1, *s.shape[1:])


def _cholesky_route(s: np.ndarray, psi: np.ndarray, scale: int, moment: bool):
    """The block update of _update_block through S = L L^T, for the rows of
    the stack s it can take; psi holds the factors being replaced.

    The new factor is c L^{-T} L^{-1}, its log det d log c - 2 sum log
    diag L, and the norm ||L^T psi L / c - I||_F.  L^{-1} comes from
    _tri_inv: blocked inversion by matrix products, with LAPACK inv only on
    diagonal blocks of at most _TRI_INV_BASE rows.  In place of the
    condition number the route reports the bound b = ||S||_F ||S^{-1}||_F,
    which is at least the condition number of S and of the new factor.  A
    row is taken only if it has a Cholesky factor and b < 0.5 /
    DEGENERATE_EIG_RTOL: it then neither ridges nor exceeds
    CONDITION_LIMIT.  Returns (rows, out): the positions taken, and for
    those rows (new, lost, cond, ridged, logdet, norm) as _eigh_route
    returns them (None if no row has a Cholesky factor).
    """
    rows, low = _cholesky_rows(s)
    if not len(rows):
        return rows, None
    if len(rows) < len(s):
        s, psi = s[rows], psi[rows]
    inv = _tri_inv(low)
    new = inv.transpose(0, 2, 1) @ inv  # S^{-1}
    cond = np.sqrt(np.einsum("rij,rij->r", s, s) * np.einsum("rij,rij->r", new, new))
    new *= scale
    diag = np.diagonal(low, axis1=1, axis2=2)
    logdet = s.shape[-1] * math.log(scale) - 2.0 * np.log(diag).sum(axis=1)
    norm = _moment_norm(low.transpose(0, 2, 1) @ psi @ low, scale) if moment else None
    lost, ridged = np.zeros((2, len(rows)), dtype=bool)
    out = [new, lost, cond, ridged, logdet, norm]
    keep = cond < 0.5 / DEGENERATE_EIG_RTOL
    if not keep.all():
        rows, out = rows[keep], [None if x is None else x[keep] for x in out]
    return rows, out


def _tri_inv(low: np.ndarray) -> np.ndarray:
    """Inverses of the stack of lower-triangular matrices low, by 2 x 2
    blocks: [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]],
    recursively, as LAPACK trtri blocks it (Du Croz and Higham, 1992).  When
    d is even, the two diagonal halves of every row are inverted in one call
    on a stack of twice the length.  Blocks of at most _TRI_INV_BASE rows go
    to LAPACK inv, whose row pivoting can leave rounding-level entries above
    the diagonal inside those blocks; every other entry above it is exactly
    0.  Each row's arithmetic is its own."""
    r, d = len(low), low.shape[-1]
    if d <= _TRI_INV_BASE:
        return np.linalg.inv(low)
    h = d // 2
    if d % 2:
        a, c = _tri_inv(low[:, :h, :h]), _tri_inv(low[:, h:, h:])
    else:
        both = _tri_inv(np.concatenate([low[:, :h, :h], low[:, h:, h:]]))
        a, c = both[:r], both[r:]
    out = np.zeros_like(low)
    out[:, :h, :h], out[:, h:, h:] = a, c
    np.negative(c @ low[:, h:, :h] @ a, out=out[:, h:, :h])
    return out


def _sweep(data: _Unfoldings, mats: list, moment: bool = False):
    """One sweep, blocks 1..k in order, of every restart in the stack, in place.

    Returns (lost, cond, ridged, logdets, norm), one entry per restart:
    whether some block lost its statistic's scale (its factors are then I,
    see _update_block), the largest new condition number (or bound on it),
    whether any block ridged, log det Psi_i for every block, and with
    `moment` the largest block moment-map norm met on the way (None
    without).
    """
    r = len(mats[0])
    lost, ridged, cond, logdets = np.zeros(r, dtype=bool), np.zeros(r, dtype=bool), np.zeros(r), []
    norm = np.zeros(r) if moment else None
    for j in range(len(mats)):
        ls, c, rg, ld, nj = _update_block(data, mats, j, moment)
        lost |= ls
        ridged |= rg
        np.maximum(cond, c, out=cond)
        logdets.append(ld)
        if moment:
            np.maximum(norm, nj, out=norm)
    return lost, cond, ridged, logdets, norm


def _moment_norm(x: np.ndarray, scale: int) -> np.ndarray:
    """||x / scale - I||_F per restart, for a stack x of whitened statistics
    S~ = B^T S B or their eigenbasis form W^(1/2) V^T Psi V W^(1/2) (see
    below); x is overwritten by x - scale I."""
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
# Newton steps, for refinement and the fit's slow tail (private)
#
# For any root Psi_i = B_i B_i^T the whitened samples
# Z = (B_1^T (x) ... (x) B_k^T) Y have block Grams S~_i = B_i^T S_i B_i.
# On the log-factors H_i of Psi_i = B_i exp(H_i) B_i^T the negative
# log-likelihood has, at H = 0, gradient g_i = (S~_i - c_i I) / 2 with
# c_i = m*n/d_i, and Hessian
#   (A V)_i = (V_i S~_i + S~_i V_i) / 4 + (1/2) sum_{j != i} sym(Gram_i(Z, V_j x_j Z)).
# The moment map S~_i / c_i - I is gauge-invariant; it vanishes exactly at a
# maximizer.  Its norm does not depend on the root, so a sweep reads it from
# the factorization of S_i its block update forms anyway (with S_i = L L^T
# it is ||L^T Psi_i L / c_i - I||_F, with S_i = V W V^T
# ||W^(1/2) V^T Psi_i V W^(1/2) / c_i - I||_F), and a Newton step takes the
# Cholesky root of the factors it is handed.  The gauge directions (c_i I
# with sum c_i = 0) lie in the kernel of A, and so, at a maximizer that is
# not unique, do the directions along the maximizer set.


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
        if not np.count_nonzero(live):
            break
        beta = np.divide(new, rr, out=np.zeros_like(rr), where=live)[:, None, None]
        p = [b + beta * q for b, q in zip(res, p)]
        rr = new
    return x


def _newton(data: _Unfoldings, mats: list):
    """One safeguarded Newton-CG step on the log-factors of every restart.

    Returns (norm, stepped): the moment-map norm max_i ||S~_i / c_i - I||_F
    at the current point, and which restarts took a step.  Restarts whose
    norm is already below _MOMENT_TOL take none.  With B_i the Cholesky
    root of Psi_i, the step is Psi_i <- B_i exp(t V_i) B_i^T with V from
    _newton_direction, t at most 1 and at most 1 / ||V||_F (a trust radius
    in log space), halved until the log-likelihood rises.  In the
    eigenbasis V_i = U_i diag(lambda_i) U_i^T the gain is exact and cheap to
    evaluate for every t:
      l(t) - l(0) = (t/2) sum_i c_i tr V_i - (1/2) sum_e P_e expm1(t Lambda_e),
    with P the squared samples (B_i U_i)^T Y summed over samples and Lambda
    the outer sum of the lambda_i.  A restart that finds no rise in
    _MAX_HALVINGS halvings takes no step.  The stepped restarts' factors are
    written into `mats`; the others are left as they are, and all are when a
    root or a direction cannot be formed (LinAlgError).
    """
    r, dims = len(mats[0]), data.dims
    scales = [data.m * data.n // d for d in dims]
    roots = [np.linalg.cholesky(a) for a in mats]
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
    if len(go) < r:
        zs, grams, res, roots = ([a[go] for a in x] for x in (zs, grams, res, roots))
    for g in res:
        g *= -0.5  # -grad
    vs = _newton_direction(data, zs, grams, res)
    del zs, grams, res  # the line search whitens the samples once more
    lam, vecs = zip(*(np.linalg.eigh(v) for v in vs))
    rot = [b @ u for b, u in zip(roots, vecs)]
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
    for a, u, w in zip(mats, rot, lam):
        b = u[ok] * np.exp(0.5 * t[ok, None] * w[ok])[:, None, :]
        a[go[ok]] = b @ b.transpose(0, 2, 1)
    stepped[go[ok]] = True
    return norm, stepped


# ---------------------------------------------------------------------------
# the solver loop (private): every restart of a stack, from its fit to its refinement


def _solve(data: _Unfoldings, mats: list, tol: float, max_iter: int, divergence_bound=None,
           refine_iter: int = 0):
    """Fit every restart of the stack until its own verdict (see fit_mle)
    and, with refine_iter > 0, refine each converged fit until its moment-map
    norm is below _MOMENT_TOL.

    A restart's state is plain Python: its phase (fit, refine or done), its
    Newton flag, a count (a fit's Newton steps, a refinement's iterations),
    its log-likelihood history and, once it refines, its last moment-map
    norm.  The stack holds the factors of the restarts not yet done, one row
    each (`rows` names the restart in each row); each iteration hands _newton
    and _sweep the rows that take a step or a sweep, then applies each
    restart's rules to what the calls return for it.

    A fitting restart sweeps until its contraction stalls (from sweep 3 on,
    a sweep gains more than _STALL_RATIO of the gain before it); from then
    on each of its iterations is a safeguarded Newton step (_newton)
    followed by a sweep.  Its log-likelihood after a sweep is read off the
    log determinants the block updates return: with block k at its
    maximizer the quadratic term is exactly m*n, so l = (m/2) sum_i (n/d_i)
    log det Psi_i - m*n/2; it is evaluated explicitly at the start and after
    a sweep that ridged.  The stop, divergence and stall tests read its
    history.  When its fit stops, the FitReport is recorded.  The
    likelihood-change rule can halt while slowly contracting directions
    still carry a few 1e-6 of error, so a converged restart stays in the
    stack and refines: each iteration is a sweep, which reads the norm off
    its block updates (_update_block), while sweeps at least halve the norm,
    and after the first that does not (_NEWTON_SWITCH) a Newton step, or a
    sweep where that finds no rise.  A refining restart whose statistic
    loses its scale ends where its fit ended; one still above the stop after
    refine_iter iterations keeps its last iterate, with one warning.

    Both phases share each _sweep and _newton call; a restart that is done
    leaves the stack, which shrinks, at the start of the next iteration.  A
    Newton step costs several sweeps, so a refining restart due one waits,
    taking neither, until every restart is due one or a fitting restart
    takes one too; waiting changes no restart's arithmetic.  A step that
    cannot be formed (LinAlgError) is not taken, and restarts that shared
    the failed call try one by one.  The entries of `mats` are consumed.
    Returns (reports, refined, iterations), one entry per restart: its
    FitReport, its gauge-fixed refined factors (None unless it refined) and
    its refinement iterations.
    """
    FIT, REFINE, DONE = range(3)
    r = len(mats[0])
    histories = [[x] for x in _loglik(data, mats).tolist()]
    phase, newton, counts, norms = [FIT] * r, [False] * r, [0] * r, [math.inf] * r
    reports, refined = [None] * r, [None] * r
    rows = list(range(r))  # the restart in each row of the stack
    it = capped = 0

    def end_fit(p, status):
        i = rows[p]
        kept = status in (FitStatus.CONVERGED, FitStatus.MAX_ITERATIONS)
        factors = KroneckerPrecision(tuple(a[p].copy() for a in mats)) if kept else None
        reports[i] = FitReport(status, histories[i][-1], it, factors, tuple(histories[i]), counts[i])
        phase[i] = REFINE if status is FitStatus.CONVERGED and refine_iter > 0 else DONE
        newton[i], counts[i] = False, 0

    def end_refine(p, factors=None):
        phase[rows[p]], refined[rows[p]] = DONE, factors or [a[p] for a in mats]

    while True:
        if it >= max_iter:
            for p, i in enumerate(rows):
                if phase[i] == FIT:
                    end_fit(p, FitStatus.MAX_ITERATIONS)
        keep = [p for p, i in enumerate(rows) if phase[i] != DONE]
        if len(keep) < len(rows):
            rows, mats[:] = [rows[p] for p in keep], [a[keep] for a in mats]
        if not rows:
            break
        it += 1
        sweep = [phase[i] == FIT or not newton[i] for i in rows]  # a refining row due a step waits
        due = [p for p, i in enumerate(rows) if newton[i]]
        if len(due) == len(rows) or any(phase[rows[p]] == FIT for p in due):
            taken, groups = {}, [due]
            for g in groups:  # a shared call that fails adds its rows one by one
                sub = [a[g] for a in mats]
                try:
                    norm, stepped = _newton(data, sub)
                except np.linalg.LinAlgError:  # not taken
                    groups.extend([p] for p in g if len(g) > 1)
                    continue
                for a, b in zip(mats, sub):
                    a[g] = b
                taken.update(zip(g, zip(norm.tolist(), stepped.tolist())))
            for p in due:
                i = rows[p]
                norm, stepped = taken.get(p, (math.inf, False))
                counts[i] += stepped
                if phase[i] == REFINE:
                    sweep[p] = not (stepped or norm < _MOMENT_TOL)
                    if norm < _MOMENT_TOL:
                        end_refine(p)
        swept = [p for p, s in enumerate(sweep) if s]
        if swept:
            sub = mats if len(swept) == len(rows) else [a[swept] for a in mats]
            moment = any(phase[rows[p]] == REFINE for p in swept)
            lost, cond, ridged, logdets, norm = _sweep(data, sub, moment)
            if sub is not mats:
                for a, b in zip(mats, sub):
                    a[swept] = b
            lost, cond, ridged = lost.tolist(), cond.tolist(), ridged.tolist()
            norm = norm.tolist() if moment else None
            logdet = sum((data.n // d) * ld for d, ld in zip(data.dims, logdets))
            loglik = 0.5 * data.m * logdet - 0.5 * data.m * data.n
            fix = [q for q, p in enumerate(swept) if ridged[q] and phase[rows[p]] == FIT]
            if fix:
                loglik[fix] = _loglik(data, [a[fix] for a in sub])
            for q, (p, x) in enumerate(zip(swept, loglik.tolist())):
                i = rows[p]
                if phase[i] == REFINE:
                    counts[i] += 1
                    if lost[q] or norm[q] < _MOMENT_TOL:  # a lost one ends where its fit ended
                        end_refine(p, list(reports[i].factors.factors) if lost[q] else None)
                    newton[i] = newton[i] or norm[q] > _NEWTON_SWITCH * norms[i]
                    norms[i] = norm[q]
                    continue
                if lost[q]:
                    end_fit(p, FitStatus.DEGENERATE_STATISTIC)
                    continue
                h = histories[i]
                h.append(x)
                bound = 1e3 * (1.0 + abs(h[0])) if divergence_bound is None else divergence_bound
                if not math.isfinite(x) or x - h[0] > bound or cond[q] > CONDITION_LIMIT:
                    end_fit(p, FitStatus.DIVERGED)
                elif abs(x - h[-2]) < tol * (1.0 + abs(h[-2])):
                    end_fit(p, FitStatus.CONVERGED)
                elif len(h) > 3 and x - h[-2] > _STALL_RATIO * (h[-2] - h[-3]):
                    newton[i] = True
        for p, i in enumerate(rows):
            if phase[i] == REFINE and counts[i] >= refine_iter:
                capped += 1
                end_refine(p)
    conv = [i for i, f in enumerate(refined) if f is not None]
    if capped:
        log.warning(
            "refinement stopped at its %d-iteration cap on %d of %d restarts (dims %s, m = %d) "
            "before the moment-map norm fell below %g; the factor spreads come from "
            "unfinished iterates",
            refine_iter, capped, len(conv), "x".join(map(str, data.dims)), data.m, _MOMENT_TOL,
        )
    if conv:
        fixed = _gauge_fix([np.stack(fs) for fs in zip(*(refined[i] for i in conv))])
        for n, i in enumerate(conv):
            refined[i] = [a[n] for a in fixed]
    return reports, refined, counts


# ---------------------------------------------------------------------------
# sampling


def _check_draw(dims: Sequence[int], m: int) -> None:
    """Refuse, before anything is allocated, a draw of more than
    _MAX_DRAW_ENTRIES sample entries."""
    entries = m * math.prod(dims)
    if entries > _MAX_DRAW_ENTRIES:
        raise DeskScaleExceeded(
            f"m * prod(dims) = {entries} sample entries exceeds the limit {_MAX_DRAW_ENTRIES}"
        )


def _check_restarts(dims: Sequence[int], m: int, restarts: int, tol: float) -> None:
    """Refuse, before anything is allocated, fewer than 2 restarts, a bad tol,
    or restart stacks of more than _MAX_STACK_ENTRIES entries."""
    if restarts < 2:
        raise ValueError(f"restarts must be >= 2, got {restarts}")
    _check_tol(tol)
    entries = restarts * (m * math.prod(dims) + sum(d * d for d in dims))
    if entries > _MAX_STACK_ENTRIES:
        raise DeskScaleExceeded(f"restarts * (m * prod(dims) + sum(d_i^2)) = {entries} "
                                f"stack entries exceeds the limit {_MAX_STACK_ENTRIES}")


def sample_standard(dims: Sequence[int], m: int, seed=0) -> SampleSet:
    """m tensors with i.i.d. standard normal entries from a seeded generator.

    Identical (dims, m, seed) always produce identical output.  More than
    2^24 entries in all raise DeskScaleExceeded.
    """
    dims = tuple(int(d) for d in dims)
    _check_draw(dims, m)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(m * math.prod(dims))
    return SampleSet(dims, m, data)


def sample_from_model(factors: KroneckerPrecision, m: int, seed=0) -> SampleSet:
    """m samples whose covariance is the inverse of the Kronecker concentration.

    Draws standard normal tensors and applies L_i^{-T} along each mode,
    where Psi_i = L_i L_i^T is the Cholesky factorization.  More than 2^24
    entries in all raise DeskScaleExceeded.
    """
    dims = factors.dims
    _check_draw(dims, m)
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
    lost, _, ridged, _, _ = _update_block(_Unfoldings(samples.tensors()), mats, i - 1)
    if lost[0] or ridged[0]:
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

    Flip-flop contracts only linearly.  Once its contraction stalls (from
    sweep 3 on, a sweep gains more than 0.9 of what the sweep before it
    gained), every further iteration is a safeguarded Newton-CG step on the
    log-factors followed by a sweep; a step that finds no rise is not taken.
    Converged: the relative log-likelihood change over an iteration drops
    below `tol`.  Diverged: the gain over the initial value exceeds
    `divergence_bound` (default 1e3 * (1 + |l_initial|)) or some factor's
    condition number exceeds 1e12.  MaxIterations: neither after `max_iter`
    iterations.  DegenerateStatistic: a block statistic had no usable scale;
    reported as a status, not an exception.  A divergence_bound that is NaN
    or not positive raises ValueError.
    """
    if init is None:
        init = KroneckerPrecision.identity(samples.dims)
    _check_compatible(samples, init)
    _check_tol(tol)
    if divergence_bound is not None and not divergence_bound > 0.0:
        raise ValueError(f"divergence_bound must be positive, got {divergence_bound}")
    return _solve(_Unfoldings(samples.tensors()), _stack(init), tol, max_iter, divergence_bound)[0][0]


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
    1e-10, by flip-flop sweeps and then safeguarded Newton steps, in the
    stack its partners may still be fitting in (see _solve); that sharpens
    the maximizer location without touching the reported fit.
    All spreads are 0 when fewer than two restarts converged.  iterations
    holds every restart's fit iterations: sweeps, each preceded by a Newton
    step once its flip-flop contraction stalled (see fit_mle), and
    fit_newton_steps the Newton steps its fit took (0 if it never switched).
    polish_sweeps holds its refinement iterations, sweeps plus Newton steps
    (at least 1 if it converged, 0 otherwise).
    """

    statuses: tuple[str, ...]
    logliks: tuple[float, ...]
    loglik_spread: float
    factor_spread_rel: float
    factor_spread_abs: float
    iterations: tuple[int, ...] = ()
    polish_sweeps: tuple[int, ...] = ()
    fit_newton_steps: tuple[int, ...] = ()

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


def _factor_gaps(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[float, float]:
    """Largest per-factor Frobenius gap between two factor tuples: (relative, absolute)."""
    rel = abs_ = 0.0
    for fa, fb in zip(a, b):
        diff = float(np.linalg.norm(fa - fb))
        denom = max(float(np.linalg.norm(fa)), float(np.linalg.norm(fb)), 1e-300)
        rel = max(rel, diff / denom)
        abs_ = max(abs_, diff)
    return rel, abs_


@np.errstate(all="ignore")
def _run_trial(samples: SampleSet, restarts: int, seed, tol: float) -> TrialResult:
    """Fit, refine and compare the restarts of one data set.  Its inputs are
    checked before it runs, so a ValueError inside it is a solver fault, not
    a usage error: it leaves as a RuntimeError chained to it.  Floating-point
    warnings are off: the kernel turns non-finite and vanishing statistics
    into lost, diverged or degenerate restarts, so they say nothing more."""
    try:
        fits, refined, polish_sweeps = _solve(
            _Unfoldings(samples.tensors()), _restart_inits(samples.dims, restarts, seed), tol,
            DEFAULT_MAX_SWEEPS, refine_iter=_REFINE_MAX_ITER)
        ls = [f.loglik for f in fits if f.status is FitStatus.CONVERGED]
        spread = 0.0
        if len(ls) >= 2:
            spread = (max(ls) - min(ls)) / max(max(abs(l) for l in ls), 1e-300)
        rel = abs_ = 0.0
        for x, y in itertools.combinations([f for f in refined if f is not None], 2):
            r_xy, a_xy = _factor_gaps(x, y)
            rel = max(rel, r_xy)
            abs_ = max(abs_, a_xy)
    except ValueError as exc:
        raise RuntimeError(f"solver fault: {exc}") from exc
    return TrialResult(
        statuses=tuple(f.status.value for f in fits),
        logliks=tuple(f.loglik for f in fits),
        loglik_spread=spread,
        factor_spread_rel=rel,
        factor_spread_abs=abs_,
        iterations=tuple(f.iterations for f in fits),
        polish_sweeps=tuple(polish_sweeps),
        fit_newton_steps=tuple(f.newton_steps for f in fits),
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


def verify_datum(
    datum: Datum,
    trials: int = 20,
    restarts: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> VerificationReport:
    """Simulate standard normal data and test the predicted profile.

    Each trial draws a fresh data set, fits it as fit_mle does from
    `restarts` random positive definite initializations (Psi_i = A_i^T A_i
    + 0.01 I with A_i standard normal, all seeded deterministically from
    `seed`) and refines the converged fits.  Requires trials >= 1,
    restarts >= 2, a finite tol > 0, prod(d_i) <= 4096, m * prod(d_i) <=
    2^24 and restarts * (m * prod(d_i) + sum d_i^2) <= 2^27; larger models
    raise DeskScaleExceeded before anything is drawn.  Trials run in at
    most `threads` worker processes, capped by CPUs and trials; results do
    not depend on it.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if datum.product() > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"prod(dims) = {datum.product()} exceeds the limit {DESK_SCALE_LIMIT}"
        )
    _check_draw(datum.dims, datum.m)
    _check_restarts(datum.dims, datum.m, restarts, tol)
    tasks = [(datum.dims, datum.m, t, restarts, seed, tol) for t in range(trials)]
    return _assemble_report(datum, _pool_map(_verify_trial_task, tasks, threads, trials))


def verify_samples(
    samples: SampleSet,
    restarts: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Like verify_datum, but for one externally supplied data set."""
    _check_restarts(samples.dims, samples.m, restarts, tol)
    datum = Datum(samples.dims, samples.m)
    trial = _run_trial(samples, restarts, (seed, 202, 0), tol)
    return _assemble_report(datum, [trial])
