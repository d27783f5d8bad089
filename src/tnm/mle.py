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

import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

# One BLAS thread, so a reduction's order, and with it every printed float,
# depends on the flags alone.  A process that loaded numpy first keeps its
# own setting; an explicit setting in the environment is kept too.  The
# variables stay set for the rest of the process and its children.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np
from numpy.linalg import _umath_linalg

from .classify import MleProfile, mle_profile
from .datum import Datum, _as_int
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
_HESSIAN_ROW_ENTRIES = 3 << 12  # largest P^2, P = sum d_i^2, whose Hessian _newton_direction assembles;
                              # one direction at _CG_RTOL from a fit's end point, 4 restarts, us, best
                              # of 7, assembled / matrix-free: (3,3;3) 77 / 90, (2,5,5;1) 268 / 527,
                              # (4,4,4;1) 449 / 1071, (7,7;2) 517 / 617, (6,6,6;1) 574 / 933 (P^2 =
                              # 324, 2916, 2304, 9604, 11664), against (8,8;2) 349 / 100, (7,7,7;1)
                              # 805 / 1001 and (8,8,8;1) 1116 / 929 (P^2 = 16384, 21609, 36864)
_HESSIAN_STACK_ENTRIES = 1 << 16  # most entries of one assembled stack; more rows go in groups
_MAX_HALVINGS = 30            # step halvings before a Newton step gives way to a sweep
_CHOLESKY_MIN_DIM = 8         # smallest block updated through Cholesky (see _update_block); eigh /
                              # Cholesky route on 4-restart stacks, us, best of 5: 25 / 25 at d = 4,
                              # 28 / 28 at 5, 34 / 29 at 6, 48 / 32 at 8, 132 / 57 at 16, 1545 / 273
                              # at 64 (2-vCPU Xeon, 1 BLAS thread, LAPACK through its gufuncs;
                              # the routes cross near d = 4-5)
_TRI_INV_BASE = 8             # largest block _tri_inv hands to LAPACK inv; 4-restart inverse,
                              # us, base 8 / base 16 / inv of the whole: 147 / 182 / 393 at d = 64,
                              # 28 / 27 / 26 at d = 16 (same machine)
_MAX_DRAW_ENTRIES = 1 << 24   # most sample entries m * prod(d_i) one draw may hold (128 MiB)
_MAX_STACK_ENTRIES = 1 << 27  # most entries restarts * (m * prod(d_i) + sum d_i^2) a trial's stacks
                              # may hold: 4 * (2^24 + 4096^2), so 4 restarts fit every draw allowed.
                              # The two scratch buffers of _Unfoldings add up to 2 * restarts * m *
                              # prod(d_i) entries to a trial's peak: a (2,16,128;1) trial peaks at
                              # 1.99 MB under tracemalloc, 1.73 MB without them


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


def _shape(dims: Sequence[int], m: int) -> tuple[tuple[int, ...], int]:
    """dims and m as ints, each taken only when integral (int(v) == v) and
    >= 1; anything else raises ShapeMismatch rather than being truncated."""
    dims_int, m_int = tuple(map(_as_int, dims)), _as_int(m)
    if None in dims_int:
        raise ShapeMismatch(f"dimensions must be integers, got {dims!r}")
    if m_int is None:
        raise ShapeMismatch(f"sample count must be an integer, got {m!r}")
    if not dims_int:
        raise ShapeMismatch("need at least one dimension")
    if any(d < 1 for d in dims_int):
        raise ShapeMismatch(f"dimensions must be >= 1, got {dims_int}")
    if m_int < 1:
        raise ShapeMismatch(f"sample count must be >= 1, got {m_int}")
    return dims_int, m_int


def _count(name: str, v: int) -> int:
    """v as an int, taken only when integral (2.0 is 2); anything else
    (2.5, '2') raises ValueError rather than failing later inside range."""
    n = _as_int(v)
    if n is None:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return n


@dataclass(frozen=True, eq=False)
class SampleSet:
    """m real sample tensors of shape d_1 x ... x d_k, stored flat.

    The flat layout is sample-major, then row-major over the tensor indices
    (the last index a_k varies fastest).  All entries must be finite, and
    each dimension and the sample count integral (int(v) == v).
    """

    dims: tuple[int, ...]
    m: int
    data: np.ndarray

    def __post_init__(self) -> None:
        dims, m = _shape(self.dims, self.m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "m", m)
        if np.iscomplexobj(self.data):
            raise ValueError("sample data must be real, got complex entries")
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
        if not all(type(v) in (int, float) for v in data):  # no bool, string or nested list
            raise ValueError("data must be a list of numbers")
        try:
            values = np.asarray(data, float)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("sample data contains non-finite entries") from None
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
            if np.iscomplexobj(f):
                raise ValueError(f"factor {idx + 1} must be real, got complex entries")
            a = np.asarray(f, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeMismatch(f"factor {idx + 1} is not square: shape {a.shape}")
            scale = float(np.max(np.abs(a))) if a.size else 0.0
            if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * max(scale, 1.0):
                raise ValueError(f"factor {idx + 1} is not symmetric")
            try:
                with np.errstate(all="ignore"):  # a failed factorization raises, quietly
                    _cholesky(0.5 * (a + a.T))
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
# Every factor is held as a root T, Psi = T^T T, in a stack of shape
# (R, d, d): R factor sets (restarts) updated together against one data
# tensor.  Roots are taken only where a factor enters (_roots), and Psi is
# formed only where one leaves: a fit's report (_fit), the refined factors
# a trial compares (_run_trial; _refine returns roots) and flip_flop_step.
# Each operation acts on every slice of a stack on its own, so a restart's
# arithmetic does not depend on which other restarts share its stack; the
# public functions are the R = 1 case.  Where a choice of method could
# depend on the stack (the Newton direction's Hessian product,
# _newton_direction), it is made from the dims alone.  No kernel function changes how many
# restarts a stack holds: they report per-restart masks, and only the solver
# loops (_fit, _refine) retire restarts.
#
# LAPACK is called through the gufuncs of numpy.linalg._umath_linalg
# (eigh_lo, cholesky_lo, inv) that numpy.linalg's eigh, cholesky and inv
# call inside checks, casts and an np.errstate that turns LAPACK's failure
# flag into LinAlgError; on the kernel's small stacks that wrapper took as
# long as LAPACK itself.  On the kernel's float64 stacks the results are
# numpy's bit for bit.  A gufunc writes NaN into every entry of an item
# LAPACK could not factor, and the items beside it come out as they do
# alone.  One rule follows: inside the solver loops (_fit, _refine) a
# LAPACK failure is a row outcome, read off that NaN, and does not affect
# the row's stack partners.  A block update tries Cholesky, then eigh, then
# counts the row lost (_maximizer); a Newton step whose direction or
# eigendecomposition is not finite is not taken (_newton).  Only _cholesky
# raises (LinAlgError, where numpy does): it converts factors in and out
# of the kernel (_roots, _gauge_fix, KroneckerPrecision), where a failure
# means bad input or a solver fault.  A failed item also sets numpy's
# invalid flag, so numpy's floating-point errors are ignored (np.errstate)
# once around each solver loop and in each public function that calls the
# kernel outside them, not around every call.  The gufunc names are those
# of numpy 1.24, the declared floor.


def _cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower-triangular L with a = L L^T.  Raises
    LinAlgError if an item failed: its entries are all NaN, and [0, 0] is
    NaN in no other item of a finite input."""
    low = _umath_linalg.cholesky_lo(a)
    if np.count_nonzero(np.isnan(low[..., 0, 0])):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return low


class _Unfoldings:
    """The sample tensors, laid out once per block so that no sweep copies them.

    rows[j] holds the samples with axis j moved last, as a matrix with d_j
    columns.  plans[j] lists, for every other block i in order, the split
    (pre, d_i, post) of that layout around axis i.

    The mode products of _applied and _hessian_product, R * m * n entries
    each, are written into two scratch buffers kept here, so that a sweep
    or a Newton-CG iteration allocates no array of that size: an array
    that large is served by mmap or trimmed back to the system when freed,
    and faulted in page by page when allocated again.  An _applied result
    is therefore valid only until the next _applied or _hessian_product
    call on the same data.  An assembled Hessian is kept in a third
    buffer (hessian), for the same reason.
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
        self._buffers = np.empty((2, 0))
        self._outs = {}
        self._hessian = np.empty(0)

    def hessian(self, size: int) -> np.ndarray:
        """A scratch buffer of `size` entries for an assembled Hessian
        (_assembled_hessian), valid until the next call."""
        if size > len(self._hessian):
            self._hessian = np.empty(size)
        return self._hessian[:size]

    def outs(self, r: int) -> list:
        """For a stack of r restarts: outs(r)[j][s] is the pair of views,
        one into each scratch buffer, shaped (r, pre, d_i, post) as the
        mode product of step s of plans[j] returns it.  The views of each r
        are made once."""
        outs = self._outs.get(r)
        if outs is None:
            size = r * self.m * self.n if len(self.dims) > 1 else 0  # one block: no mode products
            if size > self._buffers.shape[1]:
                self._buffers, self._outs = np.empty((2, size)), {}
            outs = self._outs[r] = [[tuple(b[:size].reshape(r, pre, d, post) for b in self._buffers)
                                     for _, pre, d, post in plan] for plan in self.plans]
        return outs


def _mode_product(a: np.ndarray, x: np.ndarray, pre: int, d: int, post: int,
                  out=None) -> np.ndarray:
    """Multiply each matrix of the stack `a` (R, d, d) into its slice of x
    along the axis that splits a slice as (pre, d, post); x is (R, ...) or
    (1, ...), one slice shared by every restart.  out, if given, is an
    (R, pre, d, post) array that does not overlap x."""
    return np.matmul(a[:, None], x.reshape(len(x), pre, d, post), out=out)


def _applied(data: _Unfoldings, mats, j: int) -> np.ndarray:
    """(prod_{i != j} T_i) applied to the samples in block j's layout, (R or 1, M, d_j),
    written into data's scratch buffers, alternately."""
    rows = data.rows[j]
    w = rows[None]
    for s, ((i, pre, d, post), out) in enumerate(zip(data.plans[j], data.outs(len(mats[0]))[j])):
        w = _mode_product(mats[i], w, pre, d, post, out[s % 2])
    return w.reshape(len(w), *rows.shape)


def _statistic(data: _Unfoldings, mats, j: int) -> np.ndarray:
    """S_j = sum_s M_s^(j) (prod_{i != j} Psi_i) M_s^(j)^T, (R, d_j, d_j): the
    Gram W^T W of the samples W with every other root applied."""
    w = _applied(data, mats, j)
    s = w.transpose(0, 2, 1) @ w
    if len(s) != len(mats[j]):  # a single block: S does not depend on the factors
        s = np.repeat(s, len(mats[j]), axis=0)
    return s


def _loglik(data: _Unfoldings, mats) -> np.ndarray:
    """Log-likelihood of every restart, evaluated explicitly; the quadratic
    term is ||Z||_F^2 for the whitened samples Z (_whiten), and
    log det Psi_i = 2 log |det T_i|."""
    z = _whiten(data, mats)
    quad = np.square(z, out=z).sum(axis=(1, 2))  # einsum's sum would depend on R
    logdet = sum((data.n // a.shape[-1]) * np.linalg.slogdet(a)[1] for a in mats)
    return data.m * logdet - 0.5 * quad


def _update_block(data: _Unfoldings, mats: list, j: int, moment: bool = False):
    """Set block j of every restart to a root of its maximizer c_j S_j^{-1},
    with c_j = m*n/d_j, in place.

    Returns (lost, cond, ridged, logdet, norm), one entry per restart:
    whether its statistic had no usable scale (non-finite, vanishing, or
    not decomposed by LAPACK), the new factor's condition number or a bound
    on it (see _cholesky_route), whether the step ridged, log det of the
    new factor, and with `moment` the moment-map norm
    ||T_j S_j T_j^T / c_j - I||_F at the root T_j the update replaces (None
    without).  A lost restart has all its roots set to I, the replaced one
    too, so the sweep stays finite; the caller retires it.  A numerically
    singular statistic certifies an unbounded ascent direction, and its
    restart takes a ridge-regularized surrogate step whose huge condition
    number trips the divergence detector.

    Each restart's update is its own row outcome, and none raises: a row
    goes through Cholesky, then eigh, then counts as lost (_maximizer).
    Blocks with d_j >= _CHOLESKY_MIN_DIM try S_j = L L^T.  A row whose S_j
    has no Cholesky factor, or too large a condition bound to rule out a
    ridge or a divergence, takes the eigendecomposition, and so does every
    row of a block with c_j < d_j, whose S_j is a Gram of c_j vectors and
    would fail one of the two tests.  A row LAPACK cannot decompose there
    either is lost.  So every lost, ridged and divergence decision is made
    from the eigenvalues, and each restart on its own.
    """
    s = _statistic(data, mats, j)
    if not math.isfinite(s.sum()):
        s[~np.isfinite(s).all(axis=(1, 2))] = 0.0  # lost, like a vanishing one
    scale = data.m * data.n // data.dims[j]
    norm = _moment_norm(mats[j] @ s @ mats[j].transpose(0, 2, 1), scale) if moment else None
    new, lost, cond, ridged, logdet = _maximizer(s, scale)
    if np.count_nonzero(lost):
        for a in mats:
            a[lost] = np.eye(a.shape[-1])
    mats[j] = new
    return lost, cond, ridged, logdet, norm


def _maximizer(s: np.ndarray, scale: int):
    """(new, lost, cond, ridged, logdet) for the stack of statistics s
    (consumed), routed as _update_block describes; new holds the roots of
    the new factors.  The Cholesky route takes the whole stack and names
    the rows it cannot take; the eigh route runs on those rows alone, and
    its results are written over theirs."""
    if s.shape[-1] < _CHOLESKY_MIN_DIM or scale < s.shape[-1]:  # small or of low rank
        return _eigh_route(s, scale)
    *out, rest = _cholesky_route(s, scale)
    if len(rest):
        for a, b in zip(out, _eigh_route(s[rest], scale)):
            a[rest] = b
    return out


def _eigh_route(s: np.ndarray, scale: int):
    """The block update of _update_block for every row of the stack s, from
    one batched eigh, S = V diag(w) V^T; s is consumed.

    Returns (new, lost, cond, ridged, logdet), new holding the roots
    diag(sqrt(c / w)) V^T.  A row is lost when its largest eigenvalue is
    not positive: a vanishing statistic, or one LAPACK could not decompose
    (eigh_lo returns its w NaN).  A lost row's new root is I (V = I, w = c);
    a ridged row's w is the ridged one.
    """
    w, v = _umath_linalg.eigh_lo(s)
    d = s.shape[-1]
    lost = ~(w[:, -1] > 0.0)
    if np.count_nonzero(lost):
        w[lost], v[lost] = scale, np.eye(d)
    top = w[:, -1:]
    ridged = w[:, 0] < DEGENERATE_EIG_RTOL * top[:, 0]
    if np.count_nonzero(ridged):
        w[ridged] = np.maximum(w[ridged], 0.0) + _RIDGE_RTOL * top[ridged]
    logdet = d * math.log(scale) - np.log(w).sum(axis=1)
    new = np.multiply(v.transpose(0, 2, 1), np.sqrt(scale / w)[:, :, None], out=s)  # S's buffer
    return new, lost, w[:, -1] / w[:, 0], ridged, logdet


def _cholesky_route(s: np.ndarray, scale: int):
    """The block update of _update_block through S = L L^T, for the whole
    stack s (read, not consumed): (new, lost, cond, ridged, logdet) as
    _maximizer returns them, plus rest, the positions of the rows the route
    cannot take.  The five outputs of a row in rest are meaningless.

    The new root is sqrt(c) L^{-1}, with L^{-1} from _tri_inv.  In place of
    the condition number the route reports the bound ||S||_F ||L^{-1}||_F^2
    = ||S||_F tr(S^{-1}), which is at least ||S||_F ||S^{-1}||_F and so the
    condition number of S and of the new factor, and at most sqrt(d) times
    that.  A row is taken only if its bound is below 0.5 / DEGENERATE_EIG_RTOL:
    it then neither ridges nor exceeds CONDITION_LIMIT.  The whole stack is
    factored in one call; a row with no Cholesky factor comes back NaN, and
    so does its bound, so it is not taken.
    """
    low = _umath_linalg.cholesky_lo(s)
    new = _tri_inv(low)
    cond = np.sqrt(np.einsum("rij,rij->r", s, s)) * np.einsum("rij,rij->r", new, new)
    new *= math.sqrt(scale)
    diag = np.diagonal(low, axis1=1, axis2=2)
    logdet = s.shape[-1] * math.log(scale) - 2.0 * np.log(diag).sum(axis=1)
    lost, ridged = np.zeros((2, len(s)), dtype=bool)
    rest = np.flatnonzero(~(cond < 0.5 / DEGENERATE_EIG_RTOL))
    return new, lost, cond, ridged, logdet, rest


def _tri_inv(low: np.ndarray) -> np.ndarray:
    """Inverses of the stack of lower-triangular matrices low, by 2 x 2
    blocks: [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]],
    recursively, as LAPACK trtri blocks it (Du Croz and Higham, 1992).  When
    d is even, the two diagonal halves of every row are inverted in one call
    on a stack of twice the length.  Blocks of at most _TRI_INV_BASE rows go
    to LAPACK inv, whose row pivoting can leave rounding-level entries above
    the diagonal inside those blocks; every other entry above it is exactly
    0.  Each row's arithmetic is its own, and a row with a singular base
    block comes back with NaN entries."""
    r, d = len(low), low.shape[-1]
    if d <= _TRI_INV_BASE:
        return _umath_linalg.inv(low)
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
    # the later blocks update block 1's arrays in place
    lost, cond, ridged, ld, norm = _update_block(data, mats, 0, moment)
    logdets = [ld]
    for j in range(1, len(mats)):
        ls, c, rg, ld, nj = _update_block(data, mats, j, moment)
        lost |= ls
        ridged |= rg
        np.maximum(cond, c, out=cond)
        logdets.append(ld)
        if moment:
            np.maximum(norm, nj, out=norm)
    return lost, cond, ridged, logdets, norm


def _moment_norm(x: np.ndarray, scale: int) -> np.ndarray:
    """||x / scale - I||_F per restart for a stack x of whitened statistics,
    which is overwritten by x - scale I."""
    x.reshape(len(x), -1)[:, :: x.shape[-1] + 1] -= scale
    return np.sqrt(np.einsum("rij,rij->r", x, x)) / scale


def _gauge_fix(mats) -> list[np.ndarray]:
    """Gauge-fixed copies of the stacks of factors Psi_i (not roots):
    det(Psi_i) = 1 for i >= 2."""
    out = [np.array(a) for a in mats]
    carry = 1.0
    for a in out[1:]:
        logdet = 2.0 * np.log(np.diagonal(_cholesky(a), axis1=1, axis2=2)).sum(axis=1)
        c = np.exp(logdet / a.shape[-1])
        a /= c[:, None, None]
        carry = carry * c
    out[0] *= np.reshape(carry, (-1, 1, 1))
    return out


# ---------------------------------------------------------------------------
# Newton steps, for refinement and the fit's slow tail (private)
#
# For the roots T_i of the stack, Psi_i = T_i^T T_i, the whitened samples
# Z = (T_1 (x) ... (x) T_k) Y have block Grams S~_i = T_i S_i T_i^T.
# On the log-factors H_i of Psi_i = T_i^T exp(H_i) T_i the negative
# log-likelihood has, at H = 0, gradient g_i = (S~_i - c_i I) / 2 with
# c_i = m*n/d_i, and Hessian
#   (A V)_i = (V_i S~_i + S~_i V_i) / 4 + (1/2) sum_{j != i} sym(Gram_i(Z, V_j x_j Z)).
# The moment map S~_i / c_i - I is gauge-invariant; it vanishes exactly at a
# maximizer.  A sweep forms S~_i from S_i and the root its block update
# replaces (_update_block); a Newton step from the Grams of Z.  Any root
# serves, so both use the roots as the stack holds them.  The gauge
# directions (c_i I with sum c_i = 0) lie in the kernel of A, and so, at a
# maximizer that is not unique, do the directions along the maximizer set.
#
# A direction V is held flat, one row of P = sum d_i^2 entries per restart,
# the blocks V_i one after another, each row-major (_blocks gives the
# per-block views).  On small blocks A is assembled once per Newton step as
# a dense P x P matrix per row (_assembled_hessian), so that a conjugate-
# gradient iteration is one batched matmul rather than a few numpy calls
# per block pair.  Its entries, for block i's (a, a') against block j's
# (b, c), are
#   j = i:   (delta_ab S~_i[c, a'] + S~_i[a, b] delta_ca') / 4,
#   j != i:  (C_ij[a, b, a', c] + C_ij[a, c, a', b]) / 4,
# with C_ij the Gram of Z with axes i and j leading,
# C_ij[a, b, a', c] = sum Z[.. a_i = a .. a_j = b ..] Z[.. a_i = a' .. a_j = c ..].
# On symmetric V it is A, and it is symmetric; every entry is read from a
# Gram entry or a sum of two, the same one for an entry and its transpose.


def _whiten(data: _Unfoldings, roots) -> np.ndarray:
    """Z = (T_1 (x) ... (x) T_k) Y in the sample layout, (R, m*n/d_k, d_k)."""
    return _applied(data, roots, len(data.dims) - 1) @ roots[-1].transpose(0, 2, 1)


def _per_block(data: _Unfoldings, z: np.ndarray) -> list[np.ndarray]:
    """The whitened samples in every block's layout (see _Unfoldings.rows)."""
    t = z.reshape(len(z), data.m, *data.dims)
    return [np.ascontiguousarray(np.moveaxis(t, j + 2, -1)).reshape(len(z), -1, d)
            for j, d in enumerate(data.dims)]


def _grams(zs) -> list[np.ndarray]:
    return [z.transpose(0, 2, 1) @ z for z in zs]


def _blocks(flat: np.ndarray, dims) -> list[np.ndarray]:
    """The per-block views (R, d_i, d_i) of a stack of flat directions (R, P)."""
    out, o = [], 0
    for d in dims:
        out.append(flat[:, o:o + d * d].reshape(len(flat), d, d))
        o += d * d
    return out


def _hessian_product(data: _Unfoldings, zs, grams, vs, out) -> list[np.ndarray]:
    """A V at H = 0 (see above), with one mode product per ordered block pair
    and one Gram per block, written into out (one (R, d_i, d_i) array or
    view per block) and returned.  The cross term of block i is summed in
    data's first scratch buffer, each further mode product written into the
    second."""
    for i, (z, s, p) in enumerate(zip(zs, grams, out)):
        np.matmul(vs[i], s, out=p)
        cross = None
        for (j, pre, d, post), bufs in zip(data.plans[i], data.outs(len(z))[i]):
            if cross is None:
                cross = _mode_product(vs[j], z, pre, d, post, bufs[0]).reshape(z.shape)
            else:
                cross += _mode_product(vs[j], z, pre, d, post, bufs[1]).reshape(z.shape)
        if cross is not None:
            p += z.transpose(0, 2, 1) @ cross
        p += p.transpose(0, 2, 1)
        p *= 0.25
    return out


@functools.lru_cache(maxsize=32)
def _hessian_index(dims: tuple[int, ...]):
    """Where _assembled_hessian reads each entry of A, for blocks of sizes
    dims: (index, pairs, width).  A row's sources are, in order, the Grams
    S~_i (P entries, laid out as a direction), the sums S~_i[a, a] +
    S~_i[a', a'] (P entries, same layout), then for every block pair i < j
    in pairs, as (i, j, axes, offset), C_ij[a, b, a', c] + C_ij[a, c, a', b]
    ((d_i d_j)^2 entries from offset; axes moves axes i and j of the
    whitened samples (R, m, d_1, ..., d_k) last), and a final 0: width
    entries.  index
    holds, for the P * P entries of A in row-major order, the position of
    the source each is (a quarter of)."""
    offs = np.cumsum([0, *(d * d for d in dims)]).tolist()
    p, k = offs[-1], len(dims)
    pairs, width = [], 2 * p
    for i in range(k):
        for j in range(i + 1, k):
            rest = [x + 2 for x in range(k) if x not in (i, j)]
            pairs.append((i, j, (0, 1, *rest, i + 2, j + 2), width))
            width += (dims[i] * dims[j]) ** 2
    zero = width
    index = np.full((p, p), zero, dtype=np.intp)
    for i, d in enumerate(dims):
        a, a2, b, c = np.indices((d,) * 4)  # block row (a, a'), block column (b, c)
        lo, hi = np.minimum(c, a2), np.maximum(c, a2)  # S~[c, a'], read in its upper triangle
        blk = np.where(a == b, offs[i] + lo * d + hi, zero)
        lo, hi = np.minimum(a, b), np.maximum(a, b)  # S~[a, b]
        blk = np.where(c == a2, np.where(a == b, p + offs[i] + a * d + a2, offs[i] + lo * d + hi), blk)
        index[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = blk.reshape(d * d, d * d)
    for i, j, _, o in pairs:
        di, dj = dims[i], dims[j]
        a, a2, b, c = np.indices((di, di, dj, dj))
        blk = (o + ((a * dj + b) * di + a2) * dj + c).reshape(di * di, dj * dj)
        index[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk
        index[offs[j]:offs[j + 1], offs[i]:offs[i + 1]] = blk.T
    return index.ravel(), pairs, width + 1


def _assembled_hessian(data: _Unfoldings, zs, grams: np.ndarray) -> np.ndarray:
    """A (see above) as a dense (R, P, P) stack, in data's hessian buffer,
    from the whitened samples zs (_per_block) and the flat Grams S~_i
    (R, P): one Gram per block pair, then one gather of every entry."""
    r, dims = len(grams), data.dims
    index, pairs, width = _hessian_index(dims)
    p = grams.shape[1]
    src = np.empty((r, width))
    src[:, :p] = grams
    for g, s in zip(_blocks(grams, dims), _blocks(src[:, p:2 * p], dims)):
        diag = np.diagonal(g, axis1=1, axis2=2)
        np.add(diag[:, :, None], diag[:, None, :], out=s)
    t = zs[-1].reshape(r, data.m, *dims)  # the last block's layout is the sample layout
    for i, j, axes, o in pairs:
        di, dj = dims[i], dims[j]
        x = t.transpose(axes).reshape(r, -1, di * dj)
        c = (x.transpose(0, 2, 1) @ x).reshape(r, di, dj, di, dj)
        np.add(c, c.transpose(0, 1, 4, 3, 2), out=src[:, o:o + c[0].size].reshape(c.shape))
    src[:, -1] = 0.0
    src *= 0.25
    a = data.hessian(r * p * p).reshape(r, p * p)
    np.take(src, index, axis=1, out=a, mode="clip")  # "raise" would gather into a copy of out
    return a.reshape(r, p, p)


def _conjugate_gradients(product, x, res, p, ap, eta) -> None:
    """Solve A x = res by conjugate gradients, batched over the rows of the
    flat stacks x (from 0), res (consumed), p (= res) and ap, all updated in
    place; product() writes A p into ap.

    Each row has its own step lengths and freezes on its own once its
    residual is at most eta (its entry) times the initial one, or when it
    meets a direction without positive curvature."""
    tmp = np.empty_like(res)
    rr = np.multiply(res, res, out=tmp).sum(axis=1)
    target = eta * eta * rr
    live = rr > target
    for _ in range(_CG_MAX_ITER):
        product()
        pap = np.multiply(p, ap, out=tmp).sum(axis=1)
        live &= pap > 0.0
        alpha = (np.where(live, rr, 0.0) / np.where(live, pap, 1.0))[:, None]
        x += np.multiply(alpha, p, out=tmp)
        res -= np.multiply(alpha, ap, out=tmp)
        new = np.multiply(res, res, out=tmp).sum(axis=1)
        live &= new > target
        if not np.count_nonzero(live):
            break
        p *= np.divide(new, rr, out=np.zeros_like(rr), where=live)[:, None]
        p += res
        rr = new


def _newton_direction(data: _Unfoldings, zs, grams, res, eta) -> list[np.ndarray]:
    """V with A V = res by conjugate gradients (_conjugate_gradients), each
    row to its own relative residual eta; grams and res (= -grad, consumed)
    are flat (R, P).  Returns V as per-block views (_blocks).

    Started from 0, the iterates stay in the range of A, so kernel
    directions are left alone.  Where a row's A has at most
    _HESSIAN_ROW_ENTRIES entries it is assembled (_assembled_hessian), for
    at most _HESSIAN_STACK_ENTRIES entries of rows at a time; elsewhere
    each product is _hessian_product's.  Either way a row's arithmetic does
    not depend on the rows beside it."""
    dims = data.dims
    x, p, ap = np.zeros_like(res), res.copy(), np.empty_like(res)
    size = res.shape[1] ** 2
    if size > _HESSIAN_ROW_ENTRIES:
        args = (data, zs, _blocks(grams, dims), _blocks(p, dims), _blocks(ap, dims))
        _conjugate_gradients(lambda: _hessian_product(*args), x, res, p, ap, eta)
    else:
        step = _HESSIAN_STACK_ENTRIES // size
        for lo in range(0, len(res), step):
            rows = slice(lo, lo + step)
            a = _assembled_hessian(data, [z[rows] for z in zs], grams[rows])
            pr, apr = p[rows], ap[rows]
            _conjugate_gradients(lambda: np.matmul(a, pr[:, :, None], out=apr[:, :, None]),
                                 x[rows], res[rows], pr, apr, eta[rows])
    return _blocks(x, dims)


def _newton(data: _Unfoldings, mats: list, forcing: bool = False):
    """One safeguarded Newton-CG step on the log-factors of every restart.

    Returns (norm, stepped): the moment-map norm max_i ||S~_i / c_i - I||_F
    at the current point, and which restarts took a step.  Restarts whose
    norm is already below _MOMENT_TOL take none.  The direction V
    (_newton_direction) is solved to the relative residual _CG_RTOL; with
    `forcing` (refinement's steps), a restart at norm `norm` solves it only
    to eta = min(_CG_RTOL, max(norm, 0.1 _MOMENT_TOL / norm)), a forcing
    term (Dembo, Eisenstat and Steihaug, 1982): eta ~ norm keeps Newton's
    quadratic rate, and the floor keeps the error the inexact solve leaves
    in the next norm, about eta * norm, at a tenth of the stop.  The step
    is Psi_i <- T_i^T exp(t V_i) T_i,
    t at most 1 and at most 1 / ||V||_F (a trust radius in log space),
    halved until the log-likelihood rises.  In the eigenbasis V_i = U_i
    diag(lambda_i) U_i^T the gain is exact and cheap to evaluate for every t:
      l(t) - l(0) = (t/2) sum_i c_i tr V_i - (1/2) sum_e P_e expm1(t Lambda_e),
    with P the squared samples (U_i^T T_i) Y summed over samples and Lambda
    the outer sum of the lambda_i.  A restart that finds no rise in
    _MAX_HALVINGS halvings takes no step; so does one whose direction is not
    finite, or whose eigendecomposition LAPACK could not form (eigh_lo
    returns it NaN): its t, and with it its gain, is NaN.  The stepped
    restarts' new roots exp(t Lambda_i / 2) U_i^T T_i are written into
    `mats`; the others are left as they are.
    """
    r, dims = len(mats[0]), data.dims
    scales = [data.m * data.n // d for d in dims]
    zs = _per_block(data, _whiten(data, mats))
    grams = np.concatenate([g.reshape(r, -1) for g in _grams(zs)], axis=1)
    res = grams.copy()
    norm = np.zeros(r)
    for g, c in zip(_blocks(res, dims), scales):
        np.maximum(norm, _moment_norm(g, c), out=norm)
    stepped = np.zeros(r, dtype=bool)
    go = np.flatnonzero(norm >= _MOMENT_TOL)
    if not len(go):
        return norm, stepped
    roots, at = mats, norm
    if len(go) < r:
        zs, roots = ([a[go] for a in x] for x in (zs, roots))
        grams, res, at = grams[go], res[go], norm[go]
    res *= -0.5  # -grad
    eta = np.full(len(go), _CG_RTOL)
    if forcing:
        np.minimum(eta, np.maximum(at, 0.1 * _MOMENT_TOL / at), out=eta)
    vs = _newton_direction(data, zs, grams, res, eta)
    del zs, grams, res  # the line search whitens the samples once more
    finite = np.isfinite(sum(v.sum(axis=(1, 2)) for v in vs))
    lam, vecs = zip(*(_umath_linalg.eigh_lo(v) for v in vs))
    rot = [u.transpose(0, 2, 1) @ b for b, u in zip(roots, vecs)]
    z = _whiten(data, rot).reshape(len(go), data.m, data.n)
    power = np.einsum("rsn,rsn->rn", z, z)
    grid = np.zeros((len(go), 1))
    for w in lam:
        grid = (grid[:, :, None] + w[:, None, :]).reshape(len(go), -1)
    rise = sum(0.5 * c * w.sum(axis=1) for c, w in zip(scales, lam))
    t = 1.0 / np.maximum(1.0, np.sqrt(sum((w * w).sum(axis=1) for w in lam)))
    t[~finite] = np.nan
    ok = np.zeros(len(go), dtype=bool)
    for _ in range(_MAX_HALVINGS):
        gain = t * rise - 0.5 * (power * np.expm1(t[:, None] * grid)).sum(axis=1)
        ok |= gain > 0.0
        if ok.all():
            break
        t[~ok] *= 0.5
    for a, u, w in zip(mats, rot, lam):
        a[go[ok]] = u[ok] * np.exp(0.5 * t[ok, None] * w[ok])[:, :, None]
    stepped[go[ok]] = True
    return norm, stepped


# ---------------------------------------------------------------------------
# the solver loops (private): _fit every restart of a stack, then _refine the converged fits.
# Each keeps its per-restart state in plain Python, holds the roots of the restarts still
# running, and retires a restart at the end of the iteration in which it finishes.


def _on_rows(step, data: _Unfoldings, mats: list, rows: list, *args):
    """step(data, sub, *args) (_sweep or _newton) on the rows `rows` of the
    stack `mats`, with the new roots of sub written back into mats; returns
    step's result."""
    sub = mats if len(rows) == len(mats[0]) else [a[rows] for a in mats]
    out = step(data, sub, *args)
    if sub is not mats:
        for a, b in zip(mats, sub):
            a[rows] = b
    return out


@np.errstate(all="ignore")  # see the kernel's header: LAPACK is quieted once per loop
def _fit(data: _Unfoldings, mats: list, tol: float, max_iter: int, divergence_bound=None):
    """Fit every restart of the stack of roots `mats` (consumed) until its
    own verdict (see fit_mle).  Returns (reports, ends), one entry per
    restart: its FitReport, and for a converged one the roots it ended at
    (None otherwise).

    Every iteration sweeps every row.  A restart takes sweeps only until its
    contraction stalls (from sweep 3 on, a sweep gains more than
    _STALL_RATIO of the gain before it); from then on each of its
    iterations is a safeguarded Newton step followed by a sweep.  Its
    log-likelihood after a sweep is read off the log determinants the block
    updates return: with block k at its maximizer the quadratic term is
    exactly m*n, so l = (m/2) sum_i (n/d_i) log det Psi_i - m*n/2; it is
    evaluated explicitly at the start and after a sweep that ridged.  The
    stop, divergence and stall tests read its history.  Psi_i = T_i^T T_i
    is formed only when a restart's fit ends.
    """
    r = len(mats[0])
    histories = [[x] for x in _loglik(data, mats).tolist()]
    reports, ends, newton, steps = [None] * r, [None] * r, [False] * r, [0] * r
    rows, it = list(range(r)), 0  # the restart in each row of the stack, the iteration

    def end(p, status):
        i = rows[p]
        kept = status in (FitStatus.CONVERGED, FitStatus.MAX_ITERATIONS)
        factors = KroneckerPrecision(tuple(a[p].T @ a[p] for a in mats)) if kept else None
        reports[i] = FitReport(status, histories[i][-1], it, factors, tuple(histories[i]), steps[i])
        ends[i] = [a[p] for a in mats] if status is FitStatus.CONVERGED else None

    while rows:
        if it >= max_iter:
            for p in range(len(rows)):
                end(p, FitStatus.MAX_ITERATIONS)
            break
        it += 1
        due = [p for p, i in enumerate(rows) if newton[i]]
        if due:
            for p, stepped in zip(due, _on_rows(_newton, data, mats, due)[1].tolist()):
                steps[rows[p]] += stepped
        lost, cond, ridged, logdets, _ = _sweep(data, mats)
        logdet = sum((data.n // d) * ld for d, ld in zip(data.dims, logdets))
        loglik = 0.5 * data.m * logdet - 0.5 * data.m * data.n
        if np.count_nonzero(ridged):
            fix = np.flatnonzero(ridged)
            loglik[fix] = _loglik(data, [a[fix] for a in mats])
        for p, (x, ls, c) in enumerate(zip(loglik.tolist(), lost.tolist(), cond.tolist())):
            if ls:
                end(p, FitStatus.DEGENERATE_STATISTIC)
                continue
            h = histories[rows[p]]
            h.append(x)
            bound = 1e3 * (1.0 + abs(h[0])) if divergence_bound is None else divergence_bound
            if not math.isfinite(x) or x - h[0] > bound or c > CONDITION_LIMIT:
                end(p, FitStatus.DIVERGED)
            elif abs(x - h[-2]) < tol * (1.0 + abs(h[-2])):
                end(p, FitStatus.CONVERGED)
            elif len(h) > 3 and x - h[-2] > _STALL_RATIO * (h[-2] - h[-3]):
                newton[rows[p]] = True
        keep = [p for p, i in enumerate(rows) if reports[i] is None]
        if len(keep) < len(rows):
            rows, mats = [rows[p] for p in keep], [a[keep] for a in mats]
    return reports, ends


@np.errstate(all="ignore")
def _refine(data: _Unfoldings, ends: list):
    """Refine every converged fit from the roots it ended at (`ends`, see
    _fit) until its moment-map norm is below _MOMENT_TOL.  Returns (roots,
    iterations), one entry per restart: the roots it refined to (None
    unless it converged) and its refinement iterations.

    The likelihood-change rule can halt while slowly contracting directions
    still carry a few 1e-6 of error.  Each iteration of a restart is a
    sweep, whose block updates return the norm at the roots they replace
    (_update_block), while sweeps at least halve the norm, and after the
    first that does not (_NEWTON_SWITCH) a Newton step, or a sweep where
    that finds no rise.  A Newton step costs several sweeps, so a restart
    due one waits, taking neither, until every restart is due one; waiting
    changes no restart's arithmetic.  A restart whose statistic loses its
    scale ends at the roots its fit ended at, its `ends`; one still above
    the stop after _REFINE_MAX_ITER iterations keeps its last iterate, with
    one warning.
    """
    roots, counts = [None] * len(ends), [0] * len(ends)
    conv = rows = [i for i, e in enumerate(ends) if e is not None]  # the restart in each row
    newton, norms, capped = [False] * len(ends), [math.inf] * len(ends), 0
    mats = [np.stack(a) for a in zip(*(ends[i] for i in rows))]

    def end(p, lost=False):
        roots[rows[p]] = ends[rows[p]] if lost else [a[p] for a in mats]

    while rows:
        swept = [p for p, i in enumerate(rows) if not newton[i]]  # a row due a step waits
        if not swept:
            norm, stepped = _newton(data, mats, True)
            for p, (x, st) in enumerate(zip(norm.tolist(), stepped.tolist())):
                counts[rows[p]] += st
                if x < _MOMENT_TOL:
                    end(p)
                elif not st:
                    swept.append(p)
        if swept:
            lost, _, _, _, norm = _on_rows(_sweep, data, mats, swept, True)
            for p, ls, x in zip(swept, lost.tolist(), norm.tolist()):
                i = rows[p]
                counts[i] += 1
                if ls or x < _MOMENT_TOL:  # a lost one ends where its fit ended
                    end(p, ls)
                newton[i] = newton[i] or x > _NEWTON_SWITCH * norms[i]
                norms[i] = x
        for p, i in enumerate(rows):
            if roots[i] is None and counts[i] >= _REFINE_MAX_ITER:
                capped += 1
                end(p)
        keep = [p for p, i in enumerate(rows) if roots[i] is None]
        if len(keep) < len(rows):
            rows, mats = [rows[p] for p in keep], [a[keep] for a in mats]
    if capped:
        import logging  # loaded only when a warning is logged

        logging.getLogger(__name__).warning(
            "refinement stopped at its %d-iteration cap on %d of %d restarts (dims %s, m = %d) "
            "before the moment-map norm fell below %g; the factor spreads come from "
            "unfinished iterates",
            _REFINE_MAX_ITER, capped, len(conv), "x".join(map(str, data.dims)), data.m, _MOMENT_TOL,
        )
    return roots, counts


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

    Identical (dims, m, seed) always produce identical output.  A shape
    SampleSet would refuse raises ShapeMismatch, and more than 2^24 entries
    in all DeskScaleExceeded, both before anything is drawn.
    """
    dims, m = _shape(dims, m)
    _check_draw(dims, m)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(m * math.prod(dims))
    return SampleSet(dims, m, data)


def sample_from_model(factors: KroneckerPrecision, m: int, seed=0) -> SampleSet:
    """m samples whose covariance is the inverse of the Kronecker concentration.

    Draws standard normal tensors and applies L_i^{-T} along each mode,
    where Psi_i = L_i L_i^T is the Cholesky factorization.  A sample count
    SampleSet would refuse raises ShapeMismatch, and more than 2^24 entries
    in all DeskScaleExceeded, both before anything is drawn.
    """
    dims, m = _shape(factors.dims, m)
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


def _roots(mats) -> list[np.ndarray]:
    """The kernel's form of the factor stacks mats: their roots T = L^T,
    from the Cholesky factorizations Psi = L L^T."""
    return [np.ascontiguousarray(_cholesky(a).swapaxes(-1, -2)) for a in mats]


@np.errstate(all="ignore")
def _stack(factors: KroneckerPrecision) -> list[np.ndarray]:
    """The roots of the factors as stacks of one restart, (1, d_i, d_i)."""
    return _roots([f[None] for f in factors.factors])


def log_likelihood(samples: SampleSet, factors: KroneckerPrecision) -> float:
    """Exact log-likelihood (up to its additive constant), mode-by-mode."""
    _check_compatible(samples, factors)
    return float(_loglik(_Unfoldings(samples.tensors()), _stack(factors))[0])


def mode_statistic(samples: SampleSet, factors: KroneckerPrecision, i: int) -> np.ndarray:
    """Block statistic S_i = sum_s M_s^(i) (prod_{j != i} Psi_j) M_s^(i)^T.

    M_s^(i) is the mode-i unfolding of sample s: rows indexed by a_i,
    columns by the remaining indices in their original row-major order.
    The result is computed as a Gram, so it is symmetric.  i is 1-based.
    """
    _check_compatible(samples, factors)
    if not 1 <= i <= samples.k:
        raise ValueError(f"factor position must be in 1..{samples.k}, got {i}")
    return _statistic(_Unfoldings(samples.tensors()), _stack(factors), i - 1)[0]


@np.errstate(all="ignore")
def flip_flop_step(samples: SampleSet, factors: KroneckerPrecision, i: int) -> KroneckerPrecision:
    """Replace factor i by its exact block maximizer (m*n/d_i) * S_i^{-1}.

    Holding the other factors fixed, this maximizes the log-likelihood over
    Psi_i, so the likelihood never decreases.  Raises DegenerateStatistic
    when the smallest eigenvalue of S_i falls below 1e-12 times the largest,
    or when LAPACK cannot decompose S_i.  i is 1-based.
    """
    _check_compatible(samples, factors)
    if not 1 <= i <= samples.k:
        raise ValueError(f"factor position must be in 1..{samples.k}, got {i}")
    mats = _stack(factors)
    lost, _, ridged, _, _ = _update_block(_Unfoldings(samples.tensors()), mats, i - 1)
    if lost[0] or ridged[0]:
        raise DegenerateStatistic(f"block {i} statistic is numerically singular")
    return KroneckerPrecision(tuple(a[0].T @ a[0] for a in mats))


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
    return _fit(_Unfoldings(samples.tensors()), _stack(init), tol, max_iter, divergence_bound)[0][0]


@np.errstate(all="ignore")
def gauge_fix(factors: KroneckerPrecision) -> KroneckerPrecision:
    """Rescale so det(Psi_i) = 1 for every i >= 2, absorbing the scalars
    into Psi_1.  The Kronecker product, and hence the likelihood, is
    unchanged; the result is a canonical representative of the scaling
    orbit.  Idempotent; a single factor is returned as is."""
    return KroneckerPrecision(tuple(a[0] for a in _gauge_fix([f[None] for f in factors.factors])))


# ---------------------------------------------------------------------------
# verification against the exact classification


@dataclass(frozen=True)
class TrialResult:
    """Restart-level tallies for one simulated data set; the fields, in
    order, are the keys of a trial in `tnm verify --format json`.

    logliks holds the final log-likelihood of every restart in order.
    The spreads compare converged restarts only: loglik_spread is the
    relative width of their final log-likelihoods, factor_spread_rel /
    factor_spread_abs the largest per-factor Frobenius gap between two
    gauge-fixed restarts (relative resp. absolute).  Before comparison
    each converged fit is refined until its moment-map norm is below
    1e-10, by flip-flop sweeps and then safeguarded Newton steps, once
    every restart's fit has ended (see _refine); that sharpens the
    maximizer location without touching the reported fit.
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
    def all_diverged(self) -> bool:
        return all(s == FitStatus.DIVERGED.value for s in self.statuses)

    @property
    def all_converged(self) -> bool:
        return all(s == FitStatus.CONVERGED.value for s in self.statuses)


@dataclass(frozen=True)
class VerificationReport:
    """Numerical tallies compared clause by clause with the prediction; the
    fields, in order, are the keys of `tnm verify --format json`.

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
    """Fit, refine and compare the restarts of one data set.  Where two or
    more converged, their refined roots T_i become one stack Psi_i = T_i^T
    T_i per factor, gauge-fixed together; the factor spreads are the gaps
    between its rows.  Inputs are checked before it runs, so a ValueError
    inside is a solver fault, not a usage error: it leaves as a RuntimeError
    chained to it.  numpy's floating-point errors are ignored, as in the
    solver loops: the kernel turns non-finite and vanishing statistics into
    lost, diverged or degenerate restarts, so they say nothing more."""
    try:
        data = _Unfoldings(samples.tensors())
        fits, ends = _fit(data, _roots(_restart_inits(samples.dims, restarts, seed)), tol,
                          DEFAULT_MAX_SWEEPS)
        roots, polish_sweeps = _refine(data, ends)
        conv = [ts for ts in roots if ts is not None]
        ls = [f.loglik for f in fits if f.status is FitStatus.CONVERGED]
        spread = rel = abs_ = 0.0
        if len(conv) >= 2:
            spread = (max(ls) - min(ls)) / max(max(abs(l) for l in ls), 1e-300)
            fixed = _gauge_fix([np.stack([t.T @ t for t in ts]) for ts in zip(*conv)])
            for x, y in itertools.combinations(zip(*fixed), 2):
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


def _simulated_trial(dims, m: int, restarts: int, seed: int, tol: float, trial: int) -> TrialResult:
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
    `seed`) and refines the converged fits.  Requires integral trials >= 1
    and restarts >= 2 (2.0 is 2), a finite tol > 0, prod(d_i) <= 4096,
    m * prod(d_i) <= 2^24 and restarts * (m * prod(d_i) + sum d_i^2) <=
    2^27; larger models raise DeskScaleExceeded before anything is drawn.  Trials run in at
    most `threads` worker processes, capped by CPUs and trials; results do
    not depend on it.
    """
    trials, restarts = _count("trials", trials), _count("restarts", restarts)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if datum.product() > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"prod(dims) = {datum.product()} exceeds the limit {DESK_SCALE_LIMIT}"
        )
    _check_draw(datum.dims, datum.m)
    _check_restarts(datum.dims, datum.m, restarts, tol)
    trial = functools.partial(_simulated_trial, datum.dims, datum.m, restarts, seed, tol)
    return _assemble_report(datum, _pool_map(trial, range(trials), threads, trials))


def verify_samples(
    samples: SampleSet,
    restarts: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Like verify_datum, but for one externally supplied data set."""
    restarts = _count("restarts", restarts)
    _check_restarts(samples.dims, samples.m, restarts, tol)
    datum = Datum(samples.dims, samples.m)
    trial = _run_trial(samples, restarts, (seed, 202, 0), tol)
    return _assemble_report(datum, [trial])
