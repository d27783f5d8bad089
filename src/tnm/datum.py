"""Exact integer invariants of tensor normal model data.

A datum is a tuple of factor dimensions (d_1, ..., d_k) together with a
sample count m.  The model is the family of centered Gaussians on the
d_1 x ... x d_k tensor space whose concentration matrix is a Kronecker
product of one symmetric positive definite factor per dimension.

Everything here is exact: plain Python integers (arbitrary precision) and
`fractions.Fraction`, never floats.  All derived quantities are invariant
under permuting the dimensions and under dropping dimensions equal to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

__all__ = [
    "MAX_FACTORS",
    "InvalidDatum",
    "EmptyInput",
    "TrivialFactor",
    "Datum",
    "normalize",
    "big_r",
    "delta",
    "g_max",
    "z_quantity",
    "index_of_factor",
]

# The most factor dimensions a datum may have: a contract limit pinned by the
# tests, not a cost bound (the subset-gcd sums below take O(k x distinct
# subset gcds) time).
MAX_FACTORS = 16


class InvalidDatum(ValueError):
    """Dimensions or sample count outside the valid range."""


class EmptyInput(ValueError):
    """An operation that needs at least one value received none."""


class TrivialFactor(ValueError):
    """A per-factor quantity was requested for a dimension-1 factor."""


@dataclass(frozen=True)
class Datum:
    """Factor dimensions plus sample count, validated on construction.

    dims : tuple of ints, each >= 1, at most MAX_FACTORS of them
    m    : sample count, >= 1
    """

    dims: tuple[int, ...]
    m: int = 1

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "m", int(self.m))
        if len(dims) == 0:
            raise InvalidDatum("need at least one dimension")
        if len(dims) > MAX_FACTORS:
            raise InvalidDatum(f"at most {MAX_FACTORS} dimensions supported, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise InvalidDatum(f"dimensions must be >= 1, got {dims}")
        if self.m < 1:
            raise InvalidDatum(f"sample count must be >= 1, got {self.m}")

    @property
    def k(self) -> int:
        """Number of factor dimensions."""
        return len(self.dims)

    def product(self) -> int:
        """Dimension of one sample tensor, prod(d_i)."""
        return math.prod(self.dims)

    def __str__(self) -> str:
        return "({}; {})".format(",".join(str(d) for d in self.dims), self.m)


def normalize(datum: Datum) -> Datum:
    """Canonical form: dimensions sorted ascending with 1-entries dropped.

    An all-ones datum collapses to the single dimension (1,).  The sample
    count is untouched.  Idempotent.
    """
    dims = tuple(sorted(d for d in datum.dims if d > 1))
    if not dims:
        dims = (1,)
    return Datum(dims, datum.m)


def _gcd_subset_sum(values: Sequence[int], power: int) -> int:
    """Inclusion-exclusion sum over nonempty subsets S of (-1)^(|S|+1) * gcd(S)^power.

    Built one value at a time as a map from each distinct subset gcd to its
    signed multiplicity: adding v contributes the subset {v} with sign +1,
    and every earlier subset S joined with v, with gcd(gcd(S), v) and the
    opposite sign.  The cost is O(k x number of distinct subset gcds), which
    never exceeds the 2^k - 1 subsets.
    """
    counts: dict[int, int] = {}
    for v in values:
        new = counts.copy()
        new[v] = new.get(v, 0) + 1
        for g, c in counts.items():
            h = math.gcd(g, v)
            new[h] = new.get(h, 0) - c
        counts = new
    return sum(c * g**power for g, c in counts.items())


def big_r(datum: Datum) -> int:
    """Stability margin of a datum.

    R = m * prod(d_i) - sum over nonempty subsets S of {d_i} of
    (-1)^(|S|+1) * gcd(S)^2.  The log-likelihood of the model is almost
    surely bounded above, and a maximizer almost surely exists, exactly
    when R >= 0.
    """
    return datum.m * datum.product() - _gcd_subset_sum(datum.dims, power=2)


def delta(datum: Datum) -> int:
    """Dimension excess of the sample space over the projective symmetry group.

    Delta = m * prod(d_i) - 1 - sum_i (d_i^2 - 1).  For generic data with
    R > 0 this is the dimension of the invariant-theoretic quotient away
    from a short list of exceptional shapes.
    """
    return _delta(datum.m, datum.product(), datum.dims)


def _delta(m: int, p: int, dims: Sequence[int]) -> int:
    """Delta from m, p = prod(d_i) and the dimensions."""
    return m * p - 1 - sum(d * d - 1 for d in dims)


def g_max(datum: Datum) -> int:
    """Largest pairwise gcd of the dimensions; 1 when there is a single one.

    Invariant under normalization: 1-entries only ever contribute gcd 1.
    """
    dims = datum.dims
    if len(dims) == 1:
        return 1
    return max(math.gcd(a, b) for a, b in combinations(dims, 2))


def z_quantity(values: Iterable[int]) -> int:
    """Number of rationals in [0, 1) whose denominator divides one of `values`.

    Computed by inclusion-exclusion over subset gcds:
    Z = sum over nonempty subsets S of (-1)^(|S|+1) * gcd(S).
    Satisfies R(d; m) = m * prod(d_i) - Z(d_1^2, ..., d_k^2).
    """
    vals = tuple(int(v) for v in values)
    if not vals:
        raise EmptyInput("z_quantity needs at least one value")
    if len(vals) > MAX_FACTORS:
        raise InvalidDatum(f"at most {MAX_FACTORS} values supported, got {len(vals)}")
    if any(v < 1 for v in vals):
        raise InvalidDatum(f"values must be >= 1, got {vals}")
    return _gcd_subset_sum(vals, power=1)


def index_of_factor(datum: Datum, i: int) -> Fraction:
    """Index m * prod(d) / (2 * d_i^2) of the model against factor i (1-based).

    Defined for nontrivial factors only; raises TrivialFactor when d_i = 1.
    The smallest index over the factors belongs to a largest dimension.
    """
    if not 1 <= i <= datum.k:
        raise InvalidDatum(f"factor position must be in 1..{datum.k}, got {i}")
    d_i = datum.dims[i - 1]
    if d_i == 1:
        raise TrivialFactor(f"factor {i} has dimension 1; its index is undefined")
    return _index(datum.m, datum.product(), d_i)


def _index(m: int, p: int, d: int) -> Fraction:
    """The index m * p / (2 * d^2) of a factor of dimension d, p = prod(d_i)."""
    return Fraction(m * p, 2 * d * d)
