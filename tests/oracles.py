"""Independent brute-force oracles for pinning expected values.

Everything here deliberately avoids the library's closed formulas and
mode-wise algebra: fractions are enumerated one by one, thresholds found by
linear search against the recursive classifier, and likelihood quantities
recomputed from the dense n x n Kronecker matrix.  Slow but unarguable.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from tnm import Datum, StabilityClass, classify_recursive


def fraction_count(values) -> int:
    """Count fractions j/L in [0, 1), L = lcm(values), whose reduced
    denominator divides one of `values` -- by direct enumeration."""
    vals = [int(v) for v in values]
    l = math.lcm(*vals)
    j = np.arange(l, dtype=np.int64)
    mask = np.zeros(l, dtype=bool)
    for v in vals:
        mask |= (j * v) % l == 0
    return int(np.count_nonzero(mask))


def subset_gcd_sum_bruteforce(values, power: int) -> int:
    """Sum over nonempty subsets S of (-1)^(|S|+1) * gcd(S)^power, by
    enumerating all 2^k - 1 subsets."""
    total = 0
    for r in range(1, len(values) + 1):
        sign = 1 if r % 2 == 1 else -1
        for combo in combinations(values, r):
            total += sign * math.gcd(*combo) ** power
    return total


def min_m_bounded_search(dims, limit: int = 10_000) -> int:
    """Smallest m whose recursive classification is not unstable."""
    for m in range(1, limit + 1):
        if classify_recursive(Datum(tuple(dims), m)) is not StabilityClass.UNSTABLE:
            return m
    raise AssertionError(f"no bounded sample count below {limit} for {dims}")


def min_m_unique_search(dims, limit: int = 10_000) -> int:
    """Smallest m whose recursive classification is stable."""
    for m in range(1, limit + 1):
        if classify_recursive(Datum(tuple(dims), m)) is StabilityClass.STABLE:
            return m
    raise AssertionError(f"no stable sample count below {limit} for {dims}")


def dense_kron(mats) -> np.ndarray:
    out = np.ones((1, 1))
    for a in mats:
        out = np.kron(out, a)
    return out


def dense_loglik(samples, mats) -> float:
    """Log-likelihood from the materialized Kronecker matrix."""
    big = dense_kron(mats)
    sign, logdet = np.linalg.slogdet(big)
    assert sign > 0
    flat = samples.tensors().reshape(samples.m, -1)
    quad = float(np.einsum("si,ij,sj->", flat, big, flat))
    return 0.5 * samples.m * logdet - 0.5 * quad


def dense_mode_statistic(samples, mats, i: int) -> np.ndarray:
    """Block statistic via explicit unfoldings and a dense Kronecker factor.

    i is 1-based, matching the library convention.
    """
    j = i - 1
    rest = dense_kron([a for idx, a in enumerate(mats) if idx != j])
    d = samples.dims[j]
    s = np.zeros((d, d))
    for t in samples.tensors():
        unfolded = np.moveaxis(t, j, 0).reshape(d, -1)
        s += unfolded @ rest @ unfolded.T
    return s
