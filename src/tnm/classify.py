"""Stability classification of tensor normal model data.

Two independent classifiers decide, for a datum (d_1, ..., d_k; m), whether
generic data make the log-likelihood unbounded (unstable), bounded with a
maximizer but no unique one (polystable, not stable), or bounded with an
almost surely unique maximizer (stable).  One classifier evaluates closed
formulas in the exact invariants R, Delta, g_max; the other walks the
castling recursion.  They agree on every input; `explain` cross-checks them.
Their private cores take plain integers -- the closed form (m, R, g_max,
Delta), the castling endpoint (dims, m, N) -- so `scan` can feed them
invariants it computes once per shape.

On top of the classifiers sit the exact sample-count thresholds (smallest m
making the likelihood bounded / a maximizer exist / the maximizer unique)
and the dimension of the invariant-theoretic quotient for generic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from .castling import CastlingTrace, _partner, _trace, _walk
from .datum import Datum, _big_r, _delta, _g_max, _index, big_r, delta, g_max, normalize

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "StabilityClass",
    "MleProfile",
    "ThresholdReport",
    "ClassificationReport",
    "classify_closed_form",
    "classify_recursive",
    "mle_profile",
    "thresholds",
    "git_dimension",
    "explain",
]


class StabilityClass(Enum):
    """Orbit behaviour of generic data under the model's symmetry group."""

    UNSTABLE = "unstable"
    POLYSTABLE_NOT_STABLE = "polystable_not_stable"
    STABLE = "stable"


def _closed_form(m: int, r: int, g: int, dl: int) -> StabilityClass:
    """The closed-form class from m, R, g_max and Delta."""
    if r < 0:
        return StabilityClass.UNSTABLE
    if r == 0:
        return StabilityClass.STABLE if g == 1 else StabilityClass.POLYSTABLE_NOT_STABLE
    if m == 1:
        return StabilityClass.STABLE if dl >= -1 else StabilityClass.POLYSTABLE_NOT_STABLE
    if r > g * g or g == 1:
        return StabilityClass.STABLE
    return StabilityClass.POLYSTABLE_NOT_STABLE


def classify_closed_form(datum: Datum) -> StabilityClass:
    """Classify via closed formulas in R, Delta and g_max.

    R < 0 is unstable.  R = 0 is stable exactly when g_max = 1.  For R > 0:
    with one sample, stable exactly when Delta >= -1; with m >= 2, stable
    exactly when R > g_max^2 or g_max = 1.
    """
    return _closed_form(datum.m, big_r(datum), g_max(datum), delta(datum))


def _is_exceptional(dims: tuple[int, ...], m: int) -> bool:
    """Normalized data whose generic orbit is closed but never stable
    despite 2*d_k <= N: the shapes (2, d, d; 1) and (d, d; 2) with d >= 2."""
    if m == 1 and len(dims) == 3 and dims[0] == 2 and dims[1] == dims[2] >= 2:
        return True
    if m == 2 and len(dims) == 2 and dims[0] == dims[1] >= 2:
        return True
    return False


def _classify_endpoint(dims: tuple[int, ...], m: int, n: int) -> StabilityClass:
    """Class of the castling walk's endpoint (dims; m), whose partner is n."""
    d_k = dims[-1]
    if d_k > n:
        return StabilityClass.UNSTABLE
    if d_k == n:
        return StabilityClass.STABLE if len(dims) == 1 else StabilityClass.POLYSTABLE_NOT_STABLE
    return StabilityClass.POLYSTABLE_NOT_STABLE if _is_exceptional(dims, m) else StabilityClass.STABLE


def classify_recursive(datum: Datum) -> StabilityClass:
    """Classify the endpoint of the castling walk, no closed formulas.

    The walk castles while the move strictly shrinks the datum (see
    `reduce_to_minimal`); castling preserves the class.  At the endpoint,
    with N = m * d_1 * ... * d_{k-1}:

    * d_k > N: unstable.
    * d_k = N: stable only for a single-dimension datum, else polystable.
    * 2*d_k <= N: stable unless the datum is one of the exceptional shapes
      (2, d, d; 1) or (d, d; 2) with d >= 2, which are polystable.

    The number of castling moves is at most log2(prod d_i).
    """
    norm = normalize(datum)
    steps, n = _walk(norm.dims, norm.m)
    return _classify_endpoint(steps[-1], norm.m, n)


@dataclass(frozen=True)
class MleProfile:
    """Almost-sure behaviour of the likelihood at the given sample count.

    bounded_as / exists_as / unique_as: the log-likelihood is bounded above,
    a maximizer exists, the maximizer is unique -- each almost surely.
    always_unbounded: the likelihood is unbounded for generic data (the
    negation of bounded_as).  The same profile holds over the reals and the
    complex numbers.
    """

    bounded_as: bool
    exists_as: bool
    unique_as: bool
    always_unbounded: bool


_PROFILES = {
    StabilityClass.UNSTABLE: MleProfile(False, False, False, True),
    StabilityClass.POLYSTABLE_NOT_STABLE: MleProfile(True, True, False, False),
    StabilityClass.STABLE: MleProfile(True, True, True, False),
}


def mle_profile(datum: Datum) -> MleProfile:
    """Read the likelihood profile off the stability class.

    Unstable means unbounded likelihood; otherwise a maximizer exists
    almost surely, and it is almost surely unique exactly in the stable
    case.
    """
    return _PROFILES[classify_closed_form(datum)]


@dataclass(frozen=True)
class ThresholdReport:
    """Smallest sample counts with the three almost-sure guarantees.

    mlt_b: likelihood bounded; mlt_e: maximizer exists; mlt_u: maximizer
    unique.  Always mlt_b = mlt_e <= mlt_u.  cor_bounds, present for
    normalized data with k >= 3 dimensions all >= 2, is the exact sandwich
    (ceil(r), ceil(r) + 1) with r = d_k / (d_1 ... d_{k-1}): the first
    entry bounds mlt_b from below, the second bounds mlt_u from above.
    """

    mlt_b: int
    mlt_e: int
    mlt_u: int
    cor_bounds: Optional[tuple[int, int]] = None


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _thresholds(norm: Datum, p: int, z: int, g: int, dl: int) -> ThresholdReport:
    """Thresholds of the normalized dimensions norm.dims, given prod(d_i),
    Z = Z(d_1^2, ..., d_k^2), g_max and Delta at m = norm.m.

    One more sample adds prod(d_i) to R = m * prod(d_i) - Z and to Delta;
    g_max does not depend on m.
    """
    mlt_b = max(1, _ceil_div(z, p))
    m = mlt_b
    while _closed_form(m, m * p - z, g, dl + (m - norm.m) * p) is not StabilityClass.STABLE:
        m += 1
    mlt_u = m

    cor_bounds = None
    if norm.k >= 3:
        # ceil(d_k / (d_1 ... d_{k-1})) = ceil(m * d_k / N), N the castling partner
        lower = _ceil_div(norm.m * norm.dims[-1], _partner(norm.dims, norm.m))
        cor_bounds = (lower, lower + 1)
    return ThresholdReport(mlt_b=mlt_b, mlt_e=mlt_b, mlt_u=mlt_u, cor_bounds=cor_bounds)


def thresholds(dims: Sequence[int]) -> ThresholdReport:
    """Exact sample-count thresholds for the given dimensions.

    Boundedness and existence switch on together at the smallest m with
    R >= 0, which is ceil(Z(d_1^2, ..., d_k^2) / prod(d_i)) clamped to at
    least 1.  Uniqueness is found by incrementing m from there until the
    closed form reports stable; once stable at some m, every larger m is
    stable as well.  Z is computed once for all m.  The dimensions are
    checked once, as Datum(dims, 1).
    """
    norm = normalize(Datum(tuple(dims), 1))
    p = norm.product()
    z = p - _big_r(1, p, norm.dims)  # R = m * prod(d_i) - Z(d_1^2, ..., d_k^2) at m = 1
    return _thresholds(norm, p, z, _g_max(norm.dims), _delta(1, p, norm.dims))


def _quotient_dimension(m: int, r: int, g: int, dl: int) -> Optional[int]:
    """The quotient dimension from m, R, g_max and Delta."""
    if r < 0:
        return None
    if r == 0:
        return 0
    if m == 1 and dl == -2:
        return max(g - 3, 0)
    if m == 2 and r == g * g and r > 1:
        return g
    return dl


def git_dimension(datum: Datum) -> Optional[int]:
    """Dimension of the invariant-theoretic quotient for generic data
    (over the complex numbers); None when the quotient is empty.

    R < 0: empty.  R = 0: a point, dimension 0.  For R > 0 the dimension
    is Delta except for two exceptional families: max(g_max - 3, 0) when
    m = 1 and Delta = -2, and g_max when m = 2 and R = g_max^2 > 1.
    """
    return _quotient_dimension(datum.m, big_r(datum), g_max(datum), delta(datum))


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the library can say about one datum, cross-checked."""

    datum: Datum
    normalized: Datum
    big_r: int
    delta: int
    g_max: int
    z: int
    indices: tuple[Fraction, ...]
    trace: CastlingTrace
    class_closed_form: StabilityClass
    class_recursive: StabilityClass
    classifiers_agree: bool
    profile: MleProfile
    thresholds: ThresholdReport
    git_dimension: Optional[int]

    @property
    def stability(self) -> StabilityClass:
        return self.class_closed_form


def explain(datum: Datum) -> ClassificationReport:
    """Full dossier: invariants, castling trace, both classifications,
    likelihood profile, thresholds and quotient dimension.

    The two classifiers are required to agree; a disagreement is reported
    through the `classifiers_agree` flag and a logged warning, never by
    raising.
    """
    norm = normalize(datum)
    steps, n = _walk(norm.dims, datum.m)
    # the one subset-gcd sum: R = m * prod(d_i) - Z(d_1^2, ..., d_k^2), from
    # the unchecked cores, as the normalized dims come from a valid Datum
    p = norm.product()
    r = _big_r(datum.m, p, norm.dims)
    z = datum.m * p - r
    dl, g = _delta(datum.m, p, norm.dims), _g_max(norm.dims)
    closed = _closed_form(datum.m, r, g, dl)
    recursive = _classify_endpoint(steps[-1], datum.m, n)
    agree = closed is recursive
    if not agree:
        import logging  # loaded only for this warning, which no correct input reaches

        logging.getLogger(__name__).warning(
            "classifier disagreement on %s: closed form says %s, recursion says %s",
            datum, closed.value, recursive.value,
        )
    if norm.dims == (1,):
        indices: tuple[Fraction, ...] = ()
    else:
        indices = tuple(_index(datum.m, p, d) for d in norm.dims)
    return ClassificationReport(
        datum=datum,
        normalized=norm,
        big_r=r,
        delta=dl,
        g_max=g,
        z=z,
        indices=indices,
        trace=_trace(steps, datum.m),
        class_closed_form=closed,
        class_recursive=recursive,
        classifiers_agree=agree,
        profile=_PROFILES[closed],
        thresholds=_thresholds(norm, p, z, g, dl),
        git_dimension=_quotient_dimension(datum.m, r, g, dl),
    )
