"""Castling moves between model data with the same invariants.

With the dimensions sorted ascending, write N = m * d_1 * ... * d_{k-1} for
the product over all factors except the largest.  Whenever N > d_k the
largest dimension may be traded for N - d_k without changing the stability
margin R, the excess Delta, the pairwise gcd bound g_max, or the stability
classification.  Repeating the move while it strictly shrinks the datum
(N/2 < d_k < N) reaches a minimal representative, which is unique.  N and
the shrink rule live here only: one walk serves `reduce_to_minimal` and the
recursive classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datum import Datum, normalize

__all__ = [
    "NotCastlable",
    "CastlingTrace",
    "castle_step",
    "reduce_to_minimal",
    "castling_equivalent",
]


class NotCastlable(ValueError):
    """Castling was requested where N <= d_k, so no move exists."""


def _partner(datum: Datum) -> int:
    """N = m * prod of all dimensions except the largest (datum normalized)."""
    return datum.m * math.prod(datum.dims[:-1])


def castle_step(datum: Datum) -> Datum:
    """One castling move: replace the largest dimension d_k by N - d_k.

    The input is normalized first, the result is normalized before it is
    returned.  The sample count never changes.  Raises NotCastlable when
    N <= d_k.
    """
    cur = normalize(datum)
    n = _partner(cur)
    if n <= cur.dims[-1]:
        raise NotCastlable(f"no castling move for {cur}: N = {n} <= d_k = {cur.dims[-1]}")
    return _castle(cur, n)


def _castle(cur: Datum, n: int) -> Datum:
    """The castling move on a normalized datum whose partner N = n exceeds d_k."""
    return normalize(Datum(cur.dims[:-1] + (n - cur.dims[-1],), cur.m))


def _walk(datum: Datum) -> tuple[list[Datum], int]:
    """The data visited by reduce_to_minimal, and the endpoint's partner N."""
    cur = normalize(datum)
    steps = [cur]
    while True:
        n = _partner(cur)
        d_k = cur.dims[-1]
        if not d_k < n < 2 * d_k:
            return steps, n
        cur = _castle(cur, n)
        steps.append(cur)


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


def reduce_to_minimal(datum: Datum) -> CastlingTrace:
    """Castle while the move strictly shrinks the datum.

    A move shrinks exactly when N/2 < d_k < N (compared as 2*d_k vs N in
    exact integers).  At the end exactly one of d_k > N, d_k = N, or
    2*d_k <= N holds, and no further shrinking move exists.
    """
    return CastlingTrace(tuple(_walk(datum)[0]))


def castling_equivalent(a: Datum, b: Datum) -> bool:
    """Whether two data share the same minimal representative.

    Sample counts must match; castling never changes m.
    """
    return reduce_to_minimal(a).minimal == reduce_to_minimal(b).minimal
