"""Castling moves between model data with the same invariants.

With the dimensions sorted ascending, write N = m * d_1 * ... * d_{k-1} for
the product over all factors except the largest.  Whenever N > d_k the
largest dimension may be traded for N - d_k without changing the stability
margin R, the excess Delta, the pairwise gcd bound g_max, or the stability
classification.  Repeating the move while it strictly shrinks the datum
(N/2 < d_k < N) reaches a minimal representative, which is unique.  N and
the shrink rule live here only: one walk, on normalized dimension tuples and
the sample count, serves `reduce_to_minimal`, the recursive classifier and
`scan`; only the public functions wrap what it visits in `Datum`, through
`datum._derived`: a datum castled from a valid one is valid, so it is not
checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datum import Datum, _derived, _normal_dims, normalize

__all__ = [
    "NotCastlable",
    "CastlingTrace",
    "castle_step",
    "reduce_to_minimal",
    "castling_equivalent",
]


class NotCastlable(ValueError):
    """Castling was requested where N <= d_k, so no move exists."""


def _partner(dims: tuple[int, ...], m: int) -> int:
    """N = m * prod of all dimensions except the largest (dims normalized)."""
    return m * math.prod(dims[:-1])


def castle_step(datum: Datum) -> Datum:
    """One castling move: replace the largest dimension d_k by N - d_k.

    The input is normalized first, the result is normalized before it is
    returned.  The sample count never changes.  Raises NotCastlable when
    N <= d_k.
    """
    cur = normalize(datum)
    dims = _castle_step(cur.dims, cur.m)
    if dims is None:
        n = _partner(cur.dims, cur.m)
        raise NotCastlable(f"no castling move for {cur}: N = {n} <= d_k = {cur.dims[-1]}")
    return _derived(dims, cur.m)


def _castle_step(dims: tuple[int, ...], m: int) -> tuple[int, ...] | None:
    """castle_step on normalized dims at sample count m: the normalized dims
    after the move, or None when N <= d_k and there is no move."""
    n = _partner(dims, m)
    return _castle(dims, n) if n > dims[-1] else None


def _castle(dims: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The castling move on normalized dims whose partner N = n exceeds d_k."""
    return _normal_dims(dims[:-1] + (n - dims[-1],))


def _walk(dims: tuple[int, ...], m: int) -> tuple[list[tuple[int, ...]], int]:
    """The normalized dimension tuples visited by reduce_to_minimal from the
    normalized `dims` at sample count m, and the endpoint's partner N.
    `cli._scan_task` tests the loop's condition before calling it, so that
    a row without a move skips the call."""
    steps = [dims]
    while True:
        n = _partner(dims, m)
        d_k = dims[-1]
        if not d_k < n < 2 * d_k:
            return steps, n
        dims = _castle(dims, n)
        steps.append(dims)


@dataclass(frozen=True)
class CastlingTrace:
    """Chain of data visited while reducing to the minimal representative.

    steps[0] is the normalized input, steps[-1] the minimal datum; each
    consecutive pair is related by one castling move plus normalization,
    and prod(d_i) strictly decreases along the chain.
    """

    steps: tuple[Datum, ...]

    @property
    def minimal(self) -> Datum:
        return self.steps[-1]


def _trace(steps: list[tuple[int, ...]], m: int) -> CastlingTrace:
    """The walk's steps at sample count m, as the reported trace."""
    return CastlingTrace(tuple(_derived(dims, m) for dims in steps))


def reduce_to_minimal(datum: Datum) -> CastlingTrace:
    """Castle while the move strictly shrinks the datum.

    A move shrinks exactly when N/2 < d_k < N (compared as 2*d_k vs N in
    exact integers).  At the end exactly one of d_k > N, d_k = N, or
    2*d_k <= N holds, and no further shrinking move exists.
    """
    norm = normalize(datum)
    return _trace(_walk(norm.dims, norm.m)[0], norm.m)


def castling_equivalent(a: Datum, b: Datum) -> bool:
    """Whether two data share the same minimal representative.

    Sample counts must match; castling never changes m.
    """
    return reduce_to_minimal(a).minimal == reduce_to_minimal(b).minimal
