"""Exact invariants: frozen example values, identities, brute-force cross-checks."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from tnm import (
    Datum,
    EmptyInput,
    InvalidDatum,
    TrivialFactor,
    big_r,
    delta,
    g_max,
    index_of_factor,
    normalize,
    z_quantity,
)

from tnm.datum import _gcd_subset_sum

from oracles import fraction_count, subset_gcd_sum_bruteforce


# ---------------------------------------------------------------------------
# construction and normalization


def test_datum_validation():
    with pytest.raises(InvalidDatum):
        Datum((), 1)
    with pytest.raises(InvalidDatum):
        Datum((0, 2), 1)
    with pytest.raises(InvalidDatum):
        Datum((-3,), 1)
    with pytest.raises(InvalidDatum):
        Datum((2, 2), 0)
    with pytest.raises(InvalidDatum):
        Datum((2,) * 17, 1)
    assert Datum((2,) * 16, 1).k == 16


def test_normalize_examples():
    assert normalize(Datum((3, 1, 2), 5)) == Datum((2, 3), 5)
    assert normalize(Datum((1, 1), 7)) == Datum((1,), 7)
    assert normalize(Datum((1,), 4)) == Datum((1,), 4)
    assert normalize(Datum((5, 4, 4), 2)) == Datum((4, 4, 5), 2)


def test_normalize_idempotent():
    rng = random.Random(0)
    for _ in range(100):
        k = rng.randint(1, 5)
        d = Datum(tuple(rng.randint(1, 9) for _ in range(k)), rng.randint(1, 4))
        n = normalize(d)
        assert normalize(n) == n
        assert n.m == d.m


# ---------------------------------------------------------------------------
# frozen example values (hand-checked by expanding the defining sums)


def test_big_r_examples():
    assert big_r(Datum((1,), 1)) == 0
    assert big_r(Datum((3, 3), 2)) == 9       # 18 - 9 - 9 + 9
    assert big_r(Datum((2, 2, 3), 1)) == 0    # 12 - 17 + 6 - 1
    assert big_r(Datum((2, 3), 1)) == -6
    assert big_r(Datum((2, 3), 2)) == 0
    assert big_r(Datum((3, 3), 3)) == 18
    assert big_r(Datum((2, 3, 3), 1)) == 6    # 18 - 22 + 11 - 1


def test_delta_examples():
    assert delta(Datum((2, 3, 3), 1)) == -2
    assert delta(Datum((1,), 1)) == 0
    assert delta(Datum((2, 2, 3), 1)) == -3
    assert delta(Datum((3, 4, 5), 1)) == 12


def test_g_max_examples():
    assert g_max(Datum((4, 6, 9), 1)) == 3
    assert g_max(Datum((2, 2, 8), 1)) == 2
    assert g_max(Datum((7,), 3)) == 1
    assert g_max(Datum((1, 6), 2)) == 1
    assert g_max(Datum((2, 3), 1)) == 1


def test_z_examples():
    assert z_quantity([5]) == 5
    assert z_quantity([2, 3]) == 4            # {0, 1/2, 1/3, 2/3}
    assert z_quantity([4, 6]) == 8
    assert z_quantity([1]) == 1
    assert z_quantity([1, 1, 1]) == 1


def test_index_examples():
    assert index_of_factor(Datum((2, 2, 2), 1), 1) == 1
    assert index_of_factor(Datum((2, 3, 3), 1), 3) == 1
    assert index_of_factor(Datum((2,), 4), 1) == 1
    assert index_of_factor(Datum((2, 3), 1), 1) == Fraction(3, 4)
    assert index_of_factor(Datum((2, 3), 1), 2) == Fraction(1, 3)


def test_index_smallest_at_largest_dimension():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randint(2, 4)
        dims = tuple(rng.randint(2, 9) for _ in range(k))
        d = Datum(dims, rng.randint(1, 4))
        vals = [index_of_factor(d, i) for i in range(1, k + 1)]
        assert min(vals) == index_of_factor(d, dims.index(max(dims)) + 1)


def test_index_errors():
    with pytest.raises(TrivialFactor):
        index_of_factor(Datum((1, 3), 2), 1)
    with pytest.raises(InvalidDatum):
        index_of_factor(Datum((2, 3), 1), 0)
    with pytest.raises(InvalidDatum):
        index_of_factor(Datum((2, 3), 1), 3)


def test_z_errors():
    with pytest.raises(EmptyInput):
        z_quantity([])
    with pytest.raises(InvalidDatum):
        z_quantity([3, 0])
    with pytest.raises(InvalidDatum):
        z_quantity([2] * 17)


# ---------------------------------------------------------------------------
# identities and invariances


def test_invariance_under_permutation_and_normalize():
    rng = random.Random(2)
    for _ in range(200):
        k = rng.randint(1, 5)
        dims = [rng.randint(1, 9) for _ in range(k)]
        m = rng.randint(1, 4)
        d = Datum(tuple(dims), m)
        shuffled = dims[:]
        rng.shuffle(shuffled)
        for other in (Datum(tuple(shuffled), m), normalize(d)):
            assert big_r(other) == big_r(d)
            assert delta(other) == delta(d)
            assert g_max(other) == g_max(d)


def test_big_r_linear_in_m():
    for k in range(1, 4):
        for dims in combinations_with_replacement(range(1, 7), k):
            for m in range(1, 6):
                lhs = big_r(Datum(dims, m + 1)) - big_r(Datum(dims, m))
                assert lhs == math.prod(dims)


def test_r_equals_m_prod_minus_z_of_squares():
    # dual route: subset gcds squared versus gcds of squared values
    for k in range(1, 4):
        for dims in combinations_with_replacement(range(1, 7), k):
            z = z_quantity(tuple(d * d for d in dims))
            for m in range(1, 5):
                assert big_r(Datum(dims, m)) == m * math.prod(dims) - z


def test_z_matches_fraction_enumeration():
    for k in range(1, 4):
        for vals in combinations_with_replacement(range(1, 13), k):
            assert z_quantity(vals) == fraction_count(vals)
    # larger inputs, lcm pushed toward 1e5
    for vals in [(32, 81, 25), (97, 89, 11), (64, 729), (100_000,), (4, 4, 64), (36, 25, 16)]:
        assert math.lcm(*vals) <= 100_000
        assert z_quantity(vals) == fraction_count(vals)


def test_z_invariant_under_appending_ones():
    rng = random.Random(3)
    for _ in range(50):
        vals = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 4)))
        assert z_quantity(vals + (1, 1)) == z_quantity(vals)


# ---------------------------------------------------------------------------
# the subset-gcd sum against 2^k enumeration


def _primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _subset_sum_panel():
    rng = random.Random(4)
    panel = []
    for k in range(1, 17):
        panel.append(tuple(rng.randint(1, 60) for _ in range(k)))  # 1-entries, repeats
        panel.append(tuple(rng.randint(2, 10**12) for _ in range(k)))
        base = rng.choice((6, 12, 30, 210))
        panel.append(tuple(base * rng.randint(1, 8) for _ in range(k)))
    panel += [(1,), (1, 1, 1), (7,) * 16, (1,) * 16, (2, 2, 3, 3, 1, 6)]
    for digits in (30, 60, 120, 200, 300) * 2:
        # 30- to 300-digit values sharing big factors, so the gcds are big too
        shared = [rng.randint(10**8, 10**9) for _ in range(3)]
        vals = []
        for _ in range(rng.randint(2, 8)):
            v = math.prod(rng.sample(shared, rng.randint(1, 3)))
            vals.append(v * rng.randint(10 ** (digits - len(str(v))), 10 ** (digits + 1 - len(str(v))) - 1))
        panel.append(tuple(vals))
    # worst case: all 2^16 - 1 subset gcds are distinct
    primes = _primes_up_to(53)
    assert len(primes) == 16
    primorial = math.prod(primes)
    panel.append(tuple(primorial // p for p in primes))
    return panel


def test_gcd_subset_sum_matches_enumeration():
    panel = _subset_sum_panel()
    digits = {len(str(v)) for vals in panel for v in vals}
    assert {30, 300} <= digits
    for vals in panel:
        for power in (1, 2):
            assert _gcd_subset_sum(vals, power) == subset_gcd_sum_bruteforce(vals, power), vals
