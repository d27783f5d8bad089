"""Acceptance suite: the headline guarantees, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every criterion exercises the public API at its stated tolerance; nothing
here is redundant with the unit tests, which pin the same behavior piecewise.
"""

import math
import time
from itertools import combinations_with_replacement

import numpy as np

from tnm import (
    Datum,
    DegenerateStatistic,
    FitStatus,
    KroneckerPrecision,
    big_r,
    castle_step,
    classify_closed_form,
    classify_recursive,
    delta,
    fit_mle,
    flip_flop_step,
    g_max,
    git_dimension,
    log_likelihood,
    mode_statistic,
    normalize,
    sample_standard,
    thresholds,
    verify_datum,
    z_quantity,
)

from oracles import dense_loglik, fraction_count, grid
from threshold_walk import walk


class criterion:
    """Prints one `criterion N PASS/FAIL: desc` line when the block exits."""

    def __init__(self, number, desc):
        self.number = number
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} {verdict}: {self.desc}")
        return False


def random_precision(dims, rng):
    mats = []
    for d in dims:
        a = rng.standard_normal((d, d))
        mats.append(a.T @ a + 0.5 * np.eye(d))
    return KroneckerPrecision(tuple(mats))


def test_criterion_1_classifier_equivalence():
    with criterion(1, "closed-form and recursive classifications agree, k <= 4, dims <= 8, m <= 6"):
        start = time.monotonic()
        for d in grid(4, 8, 6):
            assert classify_closed_form(d) is classify_recursive(d), d
        assert time.monotonic() - start < 30.0


def test_criterion_2_castling_invariance():
    with criterion(2, "castling preserves class, R, Delta, g_max and quotient dimension"):
        for d in grid(4, 8, 6):
            norm = normalize(d)
            if norm.m * math.prod(norm.dims[:-1]) <= norm.dims[-1]:
                continue
            e = castle_step(d)
            assert classify_closed_form(e) is classify_closed_form(d), d
            assert big_r(e) == big_r(d), d
            assert delta(e) == delta(d), d
            assert g_max(e) == g_max(d), d
            assert git_dimension(e) == git_dimension(d), d


def test_criterion_3_counting_identity():
    with criterion(3, "R equals m n minus the fraction count Z of the squared dimensions"):
        for d in grid(3, 6, 4):
            squares = tuple(x * x for x in d.dims)
            assert big_r(d) == d.m * d.product() - z_quantity(squares), d
            if d.m == 1:
                lcm = math.lcm(*squares)
                assert lcm <= 100_000
                assert z_quantity(squares) == fraction_count(squares), d


def test_criterion_4_pinned_values():
    with criterion(4, "pinned examples: Delta, quotient dimensions and thresholds"):
        assert delta(Datum((2, 3, 3), 1)) == -2
        assert git_dimension(Datum((2, 2, 2), 1)) == 0
        assert git_dimension(Datum((2, 5, 5), 1)) == 2
        assert git_dimension(Datum((3, 3), 2)) == 3
        rep = thresholds((2, 2, 8))
        assert (rep.mlt_b, rep.mlt_e, rep.mlt_u) == (2, 2, 3)
        assert rep.cor_bounds == (2, 3)


def test_criterion_5_threshold_sandwich():
    with criterion(5, "thresholds sit between ceil(d_max / prod rest) and that value plus one"):
        for dims in combinations_with_replacement(range(2, 9), 3):
            rep = thresholds(dims)
            low = -(-dims[-1] // math.prod(dims[:-1]))
            assert rep.cor_bounds == (low, low + 1), dims
            assert low <= rep.mlt_b == rep.mlt_e <= rep.mlt_u <= low + 1, dims


def test_criterion_6_unbounded_model_diverges():
    with criterion(6, "one 2x3 sample: at least 19 of 20 seeded fits diverge"):
        start = time.monotonic()
        diverged = 0
        for seed in range(20):
            rep = fit_mle(sample_standard((2, 3), 1, seed=seed))
            diverged += rep.status is FitStatus.DIVERGED
        assert diverged >= 19
        assert time.monotonic() - start < 10.0


def test_criterion_7_unique_mle_recovered():
    with criterion(7, "3x3 with m=3: every restart converges to the same gauge-fixed factors"):
        start = time.monotonic()
        rep = verify_datum(Datum((3, 3), 3), trials=20, restarts=4, seed=0)
        assert all(t.all_converged for t in rep.trials)
        assert all(t.factor_spread_rel <= 1e-6 for t in rep.trials)
        assert all(t.loglik_spread <= 1e-8 for t in rep.trials)
        assert rep.unique_agrees is True and rep.hard_clauses_agree
        assert time.monotonic() - start < 30.0


def test_criterion_8_nonunique_mle_witnessed():
    with criterion(8, "3x3 with m=2: restarts share the optimum but split in parameter space"):
        rep = verify_datum(Datum((3, 3), 2), trials=20, restarts=4, seed=0)
        assert all(t.all_converged for t in rep.trials)
        assert all(t.loglik_spread <= 1e-8 for t in rep.trials)
        witnesses = sum(t.factor_spread_abs >= 1e-3 for t in rep.trials)
        assert witnesses >= 10
        assert rep.hard_clauses_agree


def test_criterion_9_solver_numerics():
    with criterion(9, "ascent, stationarity, gradient and dense-likelihood cross-checks"):
        rng = np.random.default_rng(90)
        dims_pool = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (4,)]

        # every successful block update is an ascent step
        steps = attempts = 0
        while steps < 1000:
            attempts += 1
            assert attempts < 6000
            dims = dims_pool[rng.integers(len(dims_pool))]
            m = int(rng.integers(1, 5))
            samples = sample_standard(dims, m, seed=rng.integers(1 << 30))
            factors = random_precision(dims, rng)
            i = int(rng.integers(1, len(dims) + 1))
            before = log_likelihood(samples, factors)
            try:
                factors = flip_flop_step(samples, factors, i)
            except DegenerateStatistic:
                continue
            after = log_likelihood(samples, factors)
            assert after >= before - 1e-9 * (1.0 + abs(before))
            steps += 1

        # converged endpoints satisfy the stationarity equations
        for dims, m in [((2, 2), 2), ((3, 3), 2), ((3, 3), 3), ((2, 2, 2), 2)]:
            samples = sample_standard(dims, m, seed=7)
            rep = fit_mle(samples, tol=1e-13)
            assert rep.status is FitStatus.CONVERGED
            for i in range(1, len(dims) + 1):
                stat = mode_statistic(samples, rep.factors, i)
                scale = samples.m * samples.n // dims[i - 1]
                resid = stat - scale * np.linalg.inv(rep.factors.factors[i - 1])
                assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(stat), (dims, m, i)

        # analytic directional derivative against a central difference
        h = 1e-5
        fd_pool = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 3, 4), (5,)]
        for point in range(100):
            dims = fd_pool[point % len(fd_pool)]
            m = int(rng.integers(1, 4))
            samples = sample_standard(dims, m, seed=1000 + point)
            factors = random_precision(dims, rng)
            direction = []
            for d in dims:
                a = rng.standard_normal((d, d))
                sym = 0.5 * (a + a.T)
                direction.append(sym / np.linalg.norm(sym))
            analytic = 0.0
            for i, (psi, dmat) in enumerate(zip(factors.factors, direction), start=1):
                stat = mode_statistic(samples, factors, i)
                scale = samples.m * samples.n / dims[i - 1]
                analytic += 0.5 * scale * np.trace(np.linalg.inv(psi) @ dmat)
                analytic -= 0.5 * np.trace(dmat @ stat)
            plus = KroneckerPrecision(
                tuple(p + h * d for p, d in zip(factors.factors, direction))
            )
            minus = KroneckerPrecision(
                tuple(p - h * d for p, d in zip(factors.factors, direction))
            )
            fd = (log_likelihood(samples, plus) - log_likelihood(samples, minus)) / (2 * h)
            assert abs(analytic - fd) <= 1e-4 * (1.0 + abs(analytic)), (dims, m, point)

        # mode-wise likelihood equals the materialized Kronecker formula
        for dims in [(2,), (8, 8), (4, 4, 4), (2, 3, 4), (2, 2, 2, 2, 2, 2)]:
            samples = sample_standard(dims, 3, seed=5)
            factors = random_precision(dims, rng)
            got = log_likelihood(samples, factors)
            want = dense_loglik(samples, factors.factors)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), dims


def test_criterion_10_thresholds_checked_numerically():
    with criterion(10, "fits agree with the profile next to every threshold, so mlt_b = mlt_e"):
        n_shapes, n_data, failures, _ = walk(max_k=3, max_entry=8, max_prod=200, max_mn=4096, trials=1)
        assert (n_shapes, n_data) == (95, 169)
        assert failures == []
