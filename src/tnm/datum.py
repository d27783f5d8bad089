"""Exact integer invariants of tensor normal model data.

A datum is a tuple of factor dimensions (d_1, ..., d_k) together with a
sample count m.  The model is the family of centered Gaussians on the
d_1 x ... x d_k tensor space whose concentration matrix is a Kronecker
product of one symmetric positive definite factor per dimension.

Everything here is exact: plain Python integers (arbitrary precision) and
`fractions.Fraction`, never floats.  All derived quantities are invariant
under permuting the dimensions and under dropping dimensions equal to one.

Input is checked once, where it enters, by one of two gates: `_count` for
one count and `_shape` for dimensions with a sample count.  Each takes a
value only when it is integral (2.0 is 2; 2.5, '2' and True are refused,
never truncated) and in range, and raises the exception class its caller
names.  A Datum derived from a Datum -- by `normalize`, a castling move
or the castling trace -- is built by `_derived` without the checks, and
the library's own callers take the invariants of such dimensions from the
private cores (`_big_r`, `_delta`, `_g_max`, `_gcd_subset_sum`), which
check nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # annotations only: `_index` loads fractions
    from fractions import Fraction

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

    Each value is taken by `_shape`: only when integral (an int, a numpy
    integer or 3.0, never a bool), else InvalidDatum.  A Datum derived from
    another one is built by `_derived`, which skips these checks and gives
    a Datum equal to, and hashing like, the checked one.
    """

    dims: tuple[int, ...]
    m: int = 1

    def __post_init__(self) -> None:
        dims, m = _shape(self.dims, self.m, InvalidDatum, MAX_FACTORS)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "m", m)

    @property
    def k(self) -> int:
        """Number of factor dimensions."""
        return len(self.dims)

    def product(self) -> int:
        """Dimension of one sample tensor, prod(d_i)."""
        return math.prod(self.dims)

    def __str__(self) -> str:
        return "({}; {})".format(",".join(str(d) for d in self.dims), self.m)


def _as_int(v) -> int | None:
    """int(v) when v is integral (int(v) == v: an int, a numpy integer, 3.0),
    else None (2.7, '3', NaN, inf, True): a count is never silently truncated.
    A numpy bool is told by its dtype, not by __index__, which differs
    between numpy versions."""
    if isinstance(v, bool) or getattr(getattr(v, "dtype", None), "kind", None) == "b":
        return None
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == v else None


def _count(name: str, v, least: int, error=ValueError, most: int | None = None) -> int:
    """v as an int, taken only when integral (`_as_int`) and >= least, else
    `error`: 2.0 is 2, and 2.5, '2', True and -1 never reach a range, a
    generator or an index.  Given `most`, every refusal says least..most."""
    n = _as_int(v)
    if most is not None and (n is None or not least <= n <= most):
        raise error(f"{name} must be in {least}..{most}, got {v if n is not None else repr(v)}")
    if n is None:
        raise error(f"{name} must be an integer, got {v!r}")
    if n < least:
        raise error(f"{name} must be >= {least}, got {n}")
    return n


def _shape(dims, m, error, most: int | None = None, noun="dimensions") -> tuple[tuple[int, ...], int]:
    """dims and m as ints, each taken only when integral (`_as_int`) and >= 1,
    with 1..`most` dims, else `error`; `noun` names the dims in messages."""
    ints, n = tuple(map(_as_int, dims)), _as_int(m)
    if None in ints:
        raise error(f"{noun} must be integers, got {dims!r}")
    if n is None:
        raise error(f"sample count must be an integer, got {m!r}")
    if not ints:
        raise error("need at least one dimension")
    if most is not None and len(ints) > most:
        raise error(f"at most {most} {noun} supported, got {len(ints)}")
    if any(d < 1 for d in ints):
        raise error(f"{noun} must be >= 1, got {ints}")
    if n < 1:
        raise error(f"sample count must be >= 1, got {n}")
    return ints, n


def _derived(dims: tuple[int, ...], m: int) -> Datum:
    """The Datum (dims; m), built without Datum's checks.

    Only for values derived from a valid Datum by a step that keeps them
    valid -- sorting, dropping 1-entries, a castling move, whose new entry
    N - d_k is positive -- so that the result equals Datum(dims, m): dims a
    tuple of at most MAX_FACTORS ints >= 1, m an int >= 1.  At k = 16 the
    checks cost about 4 us a Datum and this 0.4 us (2-vCPU Xeon).
    """
    datum = object.__new__(Datum)
    object.__setattr__(datum, "dims", dims)
    object.__setattr__(datum, "m", m)
    return datum


def normalize(datum: Datum) -> Datum:
    """Canonical form: dimensions sorted ascending with 1-entries dropped.

    An all-ones datum collapses to the single dimension (1,).  The sample
    count is untouched.  Idempotent.  The result is derived from a valid
    Datum, so it is not checked again.
    """
    return _derived(_normal_dims(datum.dims), datum.m)


def _normal_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """The dimensions sorted ascending with 1-entries dropped; (1,) if none is left."""
    return tuple(sorted(d for d in dims if d > 1)) or (1,)


def _gcd_subset_sum(values: Sequence[int], power: int) -> int:
    """Inclusion-exclusion sum over nonempty subsets S of (-1)^(|S|+1) * gcd(S)^power.

    Built one value at a time by `_gcd_step` as a map from each distinct
    subset gcd to its signed multiplicity, then summed as c * g^power.  The
    cost is O(k x number of distinct subset gcds), which never exceeds the
    2^k - 1 subsets.
    """
    counts: dict[int, int] = {}
    for v in values:
        counts = _gcd_step(counts, v)
    return sum(c * g**power for g, c in counts.items())


def _gcd_step(counts: dict[int, int], v: int) -> dict[int, int]:
    """The subset-gcd map of some values extended by one more value v.

    `counts` maps each distinct subset gcd of the values to its signed
    multiplicity (-1)^(|S|+1) summed over the subsets S; adding v contributes
    the subset {v} with sign +1, and every earlier subset S joined with v,
    with gcd(gcd(S), v) and the opposite sign.  `counts` is not changed.
    `_last_entry_invariants` sums the same identity without building the map.
    """
    new = counts.copy()
    new[v] = new.get(v, 0) + 1
    for g, c in counts.items():
        h = math.gcd(g, v)
        new[h] = new.get(h, 0) - c
    return new


def big_r(datum: Datum) -> int:
    """Stability margin of a datum.

    R = m * prod(d_i) - sum over nonempty subsets S of {d_i} of
    (-1)^(|S|+1) * gcd(S)^2.  The log-likelihood of the model is almost
    surely bounded above, and a maximizer almost surely exists, exactly
    when R >= 0.
    """
    return _big_r(datum.m, datum.product(), datum.dims)


def _big_r(m: int, p: int, dims: Sequence[int]) -> int:
    """R from m, p = prod(d_i) and the dimensions."""
    return m * p - _gcd_subset_sum(dims, power=2)


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
    return _g_max(datum.dims)


def _g_max(dims: Sequence[int]) -> int:
    """g_max of the dimensions `dims`; 1 for fewer than two of them."""
    if len(dims) < 2:
        return 1
    return max(math.gcd(a, b) for a, b in combinations(dims, 2))


def _last_entry_invariants(prefix: tuple[int, ...], lo: int, hi: int, m: int):
    """(dims, prod(d_i), R, Delta, g_max) at m of each dims = prefix + (v,), lo <= v <= hi.

    The prefix's subset-gcd map (built by `_gcd_step`), Z_0 = sum of c * g^2
    over it, product, sum of (d_i^2 - 1) and g_max are computed once.  Each v
    then costs one gcd per distinct prefix gcd: by `_gcd_step`'s identity,
    extending the map by v adds {v: +1} and {gcd(g, v): -c} for each (g, c),
    so Z(d_1^2, ..., d_k^2) = Z_0 + v^2 - sum of c * gcd(g, v)^2, and the
    pairs new to g_max are those with v.
    """
    counts: dict[int, int] = {}
    for d in prefix:
        counts = _gcd_step(counts, d)
    items = tuple(counts.items())
    z0 = sum(c * g * g for g, c in items)
    p0, excess0, gm0 = math.prod(prefix), sum(d * d - 1 for d in prefix), _g_max(prefix)
    for v in range(lo, hi + 1):
        # plain loops: the prefix has few entries and few subset gcds, so a
        # generator or map per shape would cost more than the gcds themselves
        z = z0 + v * v
        for g, c in items:
            h = math.gcd(g, v)
            z -= c * h * h
        gm = gm0
        for d in prefix:
            h = math.gcd(d, v)
            if h > gm:
                gm = h
        p = p0 * v
        yield prefix + (v,), p, m * p - z, m * p - 1 - excess0 - (v * v - 1), gm


def z_quantity(values: Iterable[int]) -> int:
    """Number of rationals in [0, 1) whose denominator divides one of `values`.

    Computed by inclusion-exclusion over subset gcds:
    Z = sum over nonempty subsets S of (-1)^(|S|+1) * gcd(S).
    Satisfies R(d; m) = m * prod(d_i) - Z(d_1^2, ..., d_k^2).  Each value
    is taken only when it is integral, as in Datum.
    """
    values = tuple(values)
    if not values:
        raise EmptyInput("z_quantity needs at least one value")
    return _gcd_subset_sum(_shape(values, 1, InvalidDatum, MAX_FACTORS, "values")[0], power=1)


def index_of_factor(datum: Datum, i: int) -> Fraction:
    """Index m * prod(d) / (2 * d_i^2) of the model against factor i (1-based).

    Defined for nontrivial factors only; raises TrivialFactor when d_i = 1,
    and InvalidDatum for an i that is not integral (1.0 is 1) in 1..k.
    The smallest index over the factors belongs to a largest dimension.
    """
    i = _count("factor position", i, 1, InvalidDatum, datum.k)
    d_i = datum.dims[i - 1]
    if d_i == 1:
        raise TrivialFactor(f"factor {i} has dimension 1; its index is undefined")
    return _index(datum.m, datum.product(), d_i)


def _index(m: int, p: int, d: int) -> Fraction:
    """The index m * p / (2 * d^2) of a factor of dimension d, p = prod(d_i)."""
    # Loaded here: threshold, scan, simulate and verify build no index.  Once
    # loaded, a plain import costs about 0.1 us a call, a `from` import 1.7 us.
    import fractions

    return fractions.Fraction(m * p, 2 * d * d)
