"""Sampling, likelihood evaluation, the flip-flop solver, and verification."""

import dataclasses
import logging
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import tnm.mle
from tnm import (
    Datum,
    DegenerateStatistic,
    DeskScaleExceeded,
    FitStatus,
    KroneckerPrecision,
    NotPositiveDefinite,
    SampleSet,
    ShapeMismatch,
    fit_mle,
    flip_flop_step,
    gauge_fix,
    log_likelihood,
    mode_statistic,
    sample_from_model,
    sample_standard,
    verify_datum,
    verify_samples,
)
from tnm.mle import (
    CONDITION_LIMIT,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    GAUGE_AGREEMENT_RTOL,
    _MAX_DRAW_ENTRIES,
    _MAX_STACK_ENTRIES,
    _MOMENT_TOL,
    _REFINE_MAX_ITER,
    _STALL_RATIO,
    _TRI_INV_BASE,
    TrialResult,
    _assemble_report,
    _check_draw,
    _check_restarts,
    _cholesky_route,
    _eigh_route,
    _fit,
    _gauge_fix,
    _grams,
    _hessian_product,
    _loglik,
    _maximizer,
    _newton,
    _per_block,
    _refine,
    _restart_inits,
    _roots,
    _statistic,
    _sweep,
    _tri_inv,
    _Unfoldings,
    _whiten,
)
from tnm.pool import _pool_map, _pool_workers

from oracles import (
    dense_kron,
    dense_loglik,
    dense_mode_statistic,
    fit_sequential,
    hessian_product,
    polish_sequential,
    refine_sequential,
    whitened_grams,
)
import threshold_walk
from threshold_walk import verdict_digest


def random_precision(dims, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for d in dims:
        a = rng.standard_normal((d, d))
        mats.append(a.T @ a + 0.5 * np.eye(d))
    return KroneckerPrecision(tuple(mats))


# ---------------------------------------------------------------------------
# containers


def test_sampleset_layout():
    s = SampleSet((2, 3), 2, np.arange(12.0))
    t = s.tensors()
    assert t.shape == (2, 2, 3)
    assert t[0, 0, 2] == 2.0
    assert t[1, 0, 2] == 8.0
    assert s.n == 6 and s.k == 2


def test_sampleset_validation():
    with pytest.raises(ShapeMismatch):
        SampleSet((2, 3), 2, np.zeros(11))
    with pytest.raises(ShapeMismatch):
        SampleSet((2, 0), 1, np.zeros(0))
    with pytest.raises(ShapeMismatch):
        SampleSet((), 1, np.zeros(0))
    with pytest.raises(ShapeMismatch):
        SampleSet((2,), 0, np.zeros(0))
    with pytest.raises(ValueError):
        SampleSet((2,), 1, np.array([1.0, np.nan]))


@pytest.mark.parametrize("dims, m", [
    ((2.5, 2), 1), ((2, 2), 1.5), (("2", "2"), 1), ((2, 2), "1"),
    ((math.nan, 2), 1), ((2, 2), math.nan), ((math.inf, 2), 1), ((2, 2), math.inf),
])
def test_sampleset_rejects_non_integral_shape(dims, m):
    with pytest.raises(ShapeMismatch, match="integer"):
        SampleSet(dims, m, np.zeros(4))


def test_sampleset_accepts_integral_shape():
    s = SampleSet((np.int64(2), 2.0), np.int64(1), np.zeros(4))
    assert s.dims == (2, 2) and s.m == 1
    assert all(type(v) is int for v in (*s.dims, s.m))


@pytest.mark.parametrize("dims, m", [
    ((2.5, 2), 1), ((2, 2), 1.5), (("2", "2"), 1), ((2, 2), "1"),
    ((math.nan, 2), 1), ((2, 2), math.nan), ((math.inf, 2), 1), ((2, 2), math.inf),
])
def test_sampling_rejects_non_integral_shape(dims, m, monkeypatch):
    # refused as SampleSet refuses it, before a generator is made: int()
    # would draw a (2, 2) set for (2.5, 2), and numpy fails on m = 1.5
    def no_draw(*args, **kwargs):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(tnm.mle.np.random, "default_rng", no_draw)
    with pytest.raises(ShapeMismatch, match="integer"):
        sample_standard(dims, m)
    if all(isinstance(d, int) for d in dims):
        with pytest.raises(ShapeMismatch, match="integer"):
            sample_from_model(KroneckerPrecision.identity(dims), m)


def test_sampling_accepts_integral_shape():
    a = sample_standard((np.int64(2), 3.0), 2.0, seed=5)
    b = sample_standard((2, 3), 2, seed=5)
    assert a.dims == (2, 3) and a.m == 2 and np.array_equal(a.data, b.data)
    c = sample_from_model(KroneckerPrecision.identity((2, 3)), np.int64(2), seed=5)
    assert c.m == 2 and np.array_equal(c.data, b.data)


def test_verify_counts_must_be_integral():
    # trials and restarts count like shapes: 2.0 is 2, and 2.5 is refused
    # before anything is drawn, not left to fail inside range
    datum, samples = Datum((2, 2), 1), sample_standard((2, 2), 2, seed=3)
    assert verify_datum(datum, trials=2.0, restarts=2.0) == verify_datum(datum, trials=2, restarts=2)
    assert verify_samples(samples, restarts=2.0) == verify_samples(samples, restarts=2)
    for kwargs in ({"trials": 2.5}, {"restarts": 2.5}, {"trials": "2"}, {"restarts": math.nan}):
        with pytest.raises(ValueError, match="integer"):
            verify_datum(datum, **kwargs)
    with pytest.raises(ValueError, match="integer"):
        verify_samples(samples, restarts=2.5)


def test_sampleset_json_round_trip(tmp_path):
    s = sample_standard((2, 3), 4, seed=11)
    path = tmp_path / "samples.json"
    s.save(path)
    back = SampleSet.load(path)
    assert back.dims == s.dims and back.m == s.m
    assert np.array_equal(back.data, s.data)  # bit-exact through JSON


def test_sampleset_rejects_other_fields():
    with pytest.raises(ValueError):
        SampleSet.from_json_dict({"dims": [2], "m": 1, "field": "complex", "data": [0, 0]})


# malformed documents beyond those the CLI test feeds to `tnm verify --data`
@pytest.mark.parametrize("doc", [
    {"m": 1, "data": [0.0, 0.0]},
    {"dims": [2, True], "m": 1, "data": [0.0, 0.0]},
    {"dims": [2], "m": 1, "data": {"a": 0.0}},
    {"dims": [2], "m": 1, "data": [0.0, {}]},
    {"dims": [2], "m": 2, "data": [[0.5, 1.0], [2.0, -1.0]]},
    {"dims": [2, 2], "m": 1, "data": ["1", "2", "3", "4"]},
    {"dims": [2, 2], "m": 1, "data": [True, False, True, True]},
])
def test_sampleset_from_json_rejects_malformed(doc):
    with pytest.raises(ValueError):  # ShapeMismatch is a ValueError
        SampleSet.from_json_dict(doc)


def test_sampleset_from_json_rejects_integer_beyond_float():
    # json reads 10**400 as an int that numpy cannot convert; its
    # OverflowError used to end `tnm verify --data` in a traceback
    with pytest.raises(ValueError):
        SampleSet.from_json_dict({"dims": [2], "m": 1, "data": [1, 10**400]})


def test_precision_validation():
    with pytest.raises(ShapeMismatch):
        KroneckerPrecision(())
    with pytest.raises(ShapeMismatch):
        KroneckerPrecision((np.zeros((2, 3)),))
    with pytest.raises(ValueError):
        KroneckerPrecision((np.array([[1.0, 0.5], [0.0, 1.0]]),))
    with pytest.raises(NotPositiveDefinite):
        KroneckerPrecision((np.diag([1.0, -1.0]),))
    with pytest.raises(NotPositiveDefinite):
        KroneckerPrecision((np.diag([1.0, 0.0]),))


def test_precision_identity():
    p = KroneckerPrecision.identity((2, 3, 4))
    assert p.dims == (2, 3, 4) and p.k == 3 and p.n == 24
    for f, d in zip(p.factors, p.dims):
        assert np.array_equal(f, np.eye(d))


# ---------------------------------------------------------------------------
# sampling


def test_sample_standard_deterministic():
    a = sample_standard((3, 2), 5, seed=7)
    b = sample_standard((3, 2), 5, seed=7)
    c = sample_standard((3, 2), 5, seed=8)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_draws_are_capped_before_allocation():
    # m * prod(d_i) is checked before anything is drawn
    _check_draw((64, 64), _MAX_DRAW_ENTRIES // 4096)
    with pytest.raises(DeskScaleExceeded):
        _check_draw((64, 64), _MAX_DRAW_ENTRIES // 4096 + 1)
    with pytest.raises(DeskScaleExceeded):
        sample_standard((100_000, 100_000), 1000)
    with pytest.raises(DeskScaleExceeded):
        sample_from_model(KroneckerPrecision.identity((2,)), 10**12)


def test_restart_stacks_are_capped_before_allocation(monkeypatch):
    # restarts * (m * prod(d_i) + sum d_i^2) is checked before anything is
    # drawn.  At 4 restarts every draw the other limits admit fits, the
    # largest exactly (4 * (2^24 + 4096^2) = 2^27); 64 restarts of
    # (64,64;4096) passed every check and then died allocating 8 GiB
    _check_restarts((4096,), 4096, 4, DEFAULT_TOL)
    _check_restarts((2, 2), 1, _MAX_STACK_ENTRIES // 12, DEFAULT_TOL)
    with pytest.raises(DeskScaleExceeded):
        _check_restarts((4096,), 4096, 5, DEFAULT_TOL)

    def no_draw(*args, **kwargs):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(tnm.mle, "sample_standard", no_draw)
    with pytest.raises(DeskScaleExceeded):
        verify_datum(Datum((64, 64), 4096), trials=1, restarts=64)
    with pytest.raises(DeskScaleExceeded):
        verify_samples(SampleSet((2, 2), 1, np.ones(4)), restarts=_MAX_STACK_ENTRIES // 12 + 1)


def test_sample_standard_moments():
    s = sample_standard((4,), 25_000, seed=3)
    assert abs(float(s.data.mean())) < 0.02
    assert abs(float(s.data.var()) - 1.0) < 0.02


def test_sample_from_model_identity_is_standard():
    a = sample_from_model(KroneckerPrecision.identity((2, 3)), 4, seed=5)
    b = sample_standard((2, 3), 4, seed=5)
    assert np.array_equal(a.data, b.data)


def test_sample_from_model_covariance():
    # empirical covariance of the flattened samples approaches the inverse
    # of the dense Kronecker concentration
    p = KroneckerPrecision((np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([3.0, 1.0])))
    s = sample_from_model(p, 20_000, seed=9)
    x = s.tensors().reshape(s.m, s.n)
    emp = x.T @ x / s.m
    target = np.linalg.inv(dense_kron(p.factors))
    assert float(np.max(np.abs(emp - target))) < 0.05


# ---------------------------------------------------------------------------
# likelihood


def test_loglik_scalar_formula():
    s = SampleSet((1,), 3, np.array([1.0, 2.0, 3.0]))
    p = KroneckerPrecision((np.array([[0.5]]),))
    expected = 0.5 * 3 * math.log(0.5) - 0.5 * 0.5 * 14.0
    assert log_likelihood(s, p) == pytest.approx(expected, rel=1e-14)


def test_loglik_identity_is_half_norm():
    s = sample_standard((2, 3, 2), 4, seed=1)
    val = log_likelihood(s, KroneckerPrecision.identity(s.dims))
    assert val == pytest.approx(-0.5 * float(s.data @ s.data), rel=1e-13)


def test_loglik_matches_dense_oracle():
    for dims in [(2,), (2, 3), (2, 2, 3), (3, 3)]:
        s = sample_standard(dims, 3, seed=sum(dims))
        p = random_precision(dims, seed=len(dims))
        got = log_likelihood(s, p)
        want = dense_loglik(s, p.factors)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_loglik_gauge_invariance():
    s = sample_standard((2, 3), 2, seed=4)
    p = random_precision((2, 3), seed=2)
    q = KroneckerPrecision((p.factors[0] * 5.0, p.factors[1] / 5.0))
    assert log_likelihood(s, p) == pytest.approx(log_likelihood(s, q), rel=1e-12)


def test_loglik_shape_mismatch():
    s = sample_standard((2, 3), 2, seed=0)
    with pytest.raises(ShapeMismatch):
        log_likelihood(s, KroneckerPrecision.identity((3, 2)))


# ---------------------------------------------------------------------------
# block statistics and single steps


def test_mode_statistic_matches_dense():
    for dims in [(2, 3), (2, 2, 3), (4,)]:
        s = sample_standard(dims, 2, seed=13)
        p = random_precision(dims, seed=17)
        for i in range(1, len(dims) + 1):
            got = mode_statistic(s, p, i)
            want = dense_mode_statistic(s, p.factors, i)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_mode_statistic_single_factor_is_gram():
    s = sample_standard((3,), 5, seed=2)
    got = mode_statistic(s, KroneckerPrecision.identity((3,)), 1)
    y = s.tensors()
    assert np.allclose(got, y.T @ y)


def test_mode_statistic_index_range():
    s = sample_standard((2, 3), 1, seed=0)
    p = KroneckerPrecision.identity((2, 3))
    with pytest.raises(ValueError):
        mode_statistic(s, p, 0)
    with pytest.raises(ValueError):
        mode_statistic(s, p, 3)


def test_flip_flop_step_single_factor_is_classical_mle():
    s = sample_standard((3,), 6, seed=21)
    p = flip_flop_step(s, KroneckerPrecision.identity((3,)), 1)
    y = s.tensors()
    assert np.allclose(p.factors[0], 6 * np.linalg.inv(y.T @ y), rtol=1e-10)


def test_flip_flop_step_identity_sample():
    # one 2x2 sample equal to I: S_1 = Psi_2 = I, so the update is
    # (m n / d_1) I = 2 I
    s = SampleSet((2, 2), 1, np.eye(2).ravel())
    p = flip_flop_step(s, KroneckerPrecision.identity((2, 2)), 1)
    assert np.allclose(p.factors[0], 2.0 * np.eye(2))


def test_flip_flop_step_never_decreases_likelihood():
    s = sample_standard((2, 2, 2), 3, seed=6)
    p = random_precision((2, 2, 2), seed=6)
    before = log_likelihood(s, p)
    for i in (1, 2, 3):
        p = flip_flop_step(s, p, i)
        after = log_likelihood(s, p)
        assert after >= before - 1e-9 * (1.0 + abs(before))
        before = after


@pytest.mark.parametrize("dims,m", [((2, 3, 4), 2), ((3, 3), 3), ((2, 5, 5), 1)])
def test_flip_flop_steps_equal_one_fit_sweep(dims, m):
    # flip_flop_step and fit_mle share one block update; the only difference
    # is that each flip_flop_step takes its input's Cholesky roots and forms
    # its output Psi = T^T T, where the sweep keeps the roots
    s = sample_standard(dims, m, seed=8)
    init = random_precision(dims, seed=8)
    p = init
    for i in range(1, len(dims) + 1):
        p = flip_flop_step(s, p, i)
    rep = fit_mle(s, init, max_iter=1)
    assert rep.factors is not None
    for a, b in zip(p.factors, rep.factors.factors):
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


def test_flip_flop_step_degenerate_raises():
    # a single 2x3 sample has a rank-2 mode-2 statistic
    s = sample_standard((2, 3), 1, seed=0)
    with pytest.raises(DegenerateStatistic):
        flip_flop_step(s, KroneckerPrecision.identity((2, 3)), 2)


# ---------------------------------------------------------------------------
# the full solver


def test_fit_scalar_closed_form():
    s = SampleSet((1,), 2, np.array([0.6, -1.1]))
    rep = fit_mle(s)
    assert rep.status is FitStatus.CONVERGED
    psi = float(rep.factors.factors[0][0, 0])
    assert psi == pytest.approx(2.0 / (0.6**2 + 1.1**2), rel=1e-12)
    assert rep.loglik == pytest.approx(log_likelihood(s, rep.factors), rel=1e-12)


def test_fit_single_factor_closed_form():
    s = sample_standard((3,), 8, seed=30)
    rep = fit_mle(s)
    assert rep.status is FitStatus.CONVERGED
    y = s.tensors()
    assert np.allclose(rep.factors.factors[0], 8 * np.linalg.inv(y.T @ y), rtol=1e-10)
    assert rep.iterations <= 3


def test_fit_unbounded_model_diverges():
    s = sample_standard((2, 3), 1, seed=12)
    rep = fit_mle(s)
    assert rep.status is FitStatus.DIVERGED
    assert rep.factors is None


def test_fit_converges_with_monotone_history():
    s = sample_standard((3, 3), 3, seed=14)
    rep = fit_mle(s)
    assert rep.status is FitStatus.CONVERGED
    hist = rep.loglik_history
    assert len(hist) == rep.iterations + 1
    for a, b in zip(hist, hist[1:]):
        assert b >= a - 1e-9 * (1.0 + abs(a))
    assert rep.loglik == hist[-1]


def test_fit_max_iterations():
    s = sample_standard((3, 3), 3, seed=14)
    rep = fit_mle(s, max_iter=1)
    assert rep.status is FitStatus.MAX_ITERATIONS
    assert rep.iterations == 1
    assert rep.factors is not None


def test_fit_zero_iterations_returns_init():
    s = sample_standard((3, 3), 3, seed=14)
    init = random_precision((3, 3), seed=3)
    rep = fit_mle(s, init, max_iter=0)
    assert rep.status is FitStatus.MAX_ITERATIONS
    assert rep.iterations == 0
    assert rep.loglik_history == (log_likelihood(s, init),)
    assert rep.loglik == rep.loglik_history[0]
    for a, b in zip(rep.factors.factors, init.factors):  # Psi -> Cholesky root T -> T^T T
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


def test_fit_tiny_divergence_bound():
    s = sample_standard((3, 3), 3, seed=14)
    rep = fit_mle(s, divergence_bound=1e-12)
    assert rep.status is FitStatus.DIVERGED


def test_fit_rejects_bad_tol_and_shapes():
    s = sample_standard((2, 2), 2, seed=0)
    with pytest.raises(ValueError):
        fit_mle(s, tol=0.0)
    with pytest.raises(ValueError):
        fit_mle(s, tol=-1e-9)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            fit_mle(s, tol=tol)
        with pytest.raises(ValueError):
            verify_samples(s, tol=tol)
        with pytest.raises(ValueError):
            verify_datum(Datum((2, 2), 2), tol=tol)
    for bound in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            fit_mle(s, divergence_bound=bound)
    with pytest.raises(ShapeMismatch):
        fit_mle(s, init=KroneckerPrecision.identity((2, 3)))


def test_fit_stationarity_at_convergence():
    # at a converged endpoint each block update is a fixed point:
    # S_i = (m n / d_i) Psi_i^{-1} up to the numerical tolerance
    s = sample_standard((2, 2), 2, seed=44)
    rep = fit_mle(s, tol=1e-13)
    assert rep.status is FitStatus.CONVERGED
    for i in (1, 2):
        stat = mode_statistic(s, rep.factors, i)
        scale = s.m * s.n // s.dims[i - 1]
        resid = stat - scale * np.linalg.inv(rep.factors.factors[i - 1])
        assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(stat)


def test_loglik_from_eigenvalues_matches_explicit():
    # after every sweep the log-likelihood is read off the log determinants
    # the block updates return (eigenvalues, or Cholesky diagonals for the
    # 8 x 8 blocks); it must equal the explicit evaluation of the factors
    # the sweep left
    for dims, m in [((3, 3), 3), ((2, 5, 5), 1), ((3, 3), 2), ((2, 3, 4), 2), ((8, 8, 8), 1)]:
        s = sample_standard(dims, m, seed=3)
        init = random_precision(dims, seed=3)
        full = fit_mle(s, init)
        assert full.status is FitStatus.CONVERGED
        for t in range(1, min(full.iterations, 25) + 1):
            rep = fit_mle(s, init, max_iter=t)
            assert rep.loglik_history == full.loglik_history[: t + 1]
            assert rep.loglik == pytest.approx(log_likelihood(s, rep.factors), rel=1e-12)


# ---------------------------------------------------------------------------
# the stacked kernel: all restarts of a trial in one stack


def solve_trial(samples, mats, tol=DEFAULT_TOL):
    """_fit and then _refine on the roots of the restart stack of factors
    `mats`, as verify runs a trial: (FitReports, refined factors or None,
    refinement iterations), one entry per restart."""
    data = _Unfoldings(samples.tensors())
    fits, ends = _fit(data, _roots(mats), tol, DEFAULT_MAX_SWEEPS)
    return (fits, *_refine(data, fits, ends))


def _same_fit(a, b) -> bool:
    """Bitwise equal FitReports (histories compared with NaN equal to NaN)."""
    if (a.status, a.iterations) != (b.status, b.iterations):
        return False
    if not np.array_equal(a.loglik_history, b.loglik_history, equal_nan=True):
        return False
    if a.factors is None or b.factors is None:
        return a.factors is None and b.factors is None
    return all(np.array_equal(x, y) for x, y in zip(a.factors.factors, b.factors.factors))


@pytest.mark.parametrize("dims,m", [
    ((3, 3), 3), ((2, 5, 5), 1), ((4, 4, 4), 1), ((8, 8, 8), 1), ((64, 64), 3), ((2, 2, 8), 1),
    ((2, 2, 3, 3), 1),
])
def test_stacked_restarts_equal_solo_fits(dims, m):
    # a restart's result does not depend on which restarts share its stack:
    # where any restart converges, the fits end at different iterations, so
    # the fit stack shrinks under the restarts still fitting, and the
    # refinement stack holds fits that ended at different iterations.
    # Each restart's FitReport, refined factors and refinement count are
    # bitwise those of the same restart run alone, and its fit is fit_mle's
    samples = sample_standard(dims, m, seed=[0, 101, 0])
    inits = _restart_inits(dims, 4, (0, 202, 0))
    fits, refined, counts = solve_trial(samples, [a.copy() for a in inits])
    if any(f.status is FitStatus.CONVERGED for f in fits):
        assert len({f.iterations for f in fits}) > 1
    for r, fit in enumerate(fits):
        (solo,), (alone,), (n,) = solve_trial(samples, [a[r:r + 1].copy() for a in inits])
        assert _same_fit(fit, solo) and fit.newton_steps == solo.newton_steps
        assert _same_fit(fit, fit_mle(samples, KroneckerPrecision(tuple(a[r] for a in inits))))
        assert counts[r] == n
        if fit.status is FitStatus.CONVERGED:
            assert n >= 1 and all(np.array_equal(x, y) for x, y in zip(refined[r], alone))
        else:
            assert n == 0 and refined[r] is alone is None


def test_mixed_stack_restarts_leave_on_their_own():
    # one restart ridges and diverges in sweep 1, one hits a vanishing
    # statistic, one a statistic that overflows; the others converge and
    # refine as if alone, with 4 x 4 blocks (eigh route) and 8 x 8 and
    # 17 x 17 ones (Cholesky route, the three others falling back to eigh)
    for d in (4, 8, 17):
        s = sample_standard((d, d), 2, seed=5)
        mats = _restart_inits((d, d), 6, (5, 202, 0))
        mats[1][1] = np.diag([1.0] + [1e-30] * (d - 1))
        mats[1][3] = 1e-320 * np.eye(d)
        mats[1][5] = 1e308 * np.eye(d)
        inits = [a.copy() for a in mats]
        with np.errstate(all="ignore"):
            fits, refined, counts = solve_trial(s, mats)
            solos = [fit_mle(s, KroneckerPrecision(tuple(a[r] for a in inits))) for r in range(6)]
            alone = [solve_trial(s, [a[r:r + 1].copy() for a in inits]) for r in range(6)]
        assert [f.status for f in fits] == [
            FitStatus.CONVERGED, FitStatus.DIVERGED, FitStatus.CONVERGED,
            FitStatus.DEGENERATE_STATISTIC, FitStatus.CONVERGED, FitStatus.DEGENERATE_STATISTIC,
        ]
        assert fits[5].iterations == 1
        for fit, solo in zip(fits, solos):
            assert _same_fit(fit, solo)
        for r, (_, (one,), (n,)) in enumerate(alone):
            assert counts[r] == n and (refined[r] is one is None) == (fits[r].factors is None)
            if one is not None:
                assert all(np.array_equal(x, y) for x, y in zip(refined[r], one))


@pytest.mark.parametrize("d", [8, 16, 17, 64, 128])
def test_cholesky_route_matches_eigh_route(d):
    # on well-conditioned statistics the Cholesky route takes every row and
    # agrees with the eigendecomposition: the two routes' roots differ, the
    # factors T^T T they stand for agree; its condition bound is at least
    # the condition number
    rng = np.random.default_rng(d)
    a = rng.standard_normal((3, d, 2 * d))
    s = a @ a.transpose(0, 2, 1)
    rows, (new, lost, cond, ridged, logdet) = _cholesky_route(s.copy(), 2 * d)
    e_new, e_lost, e_cond, e_ridged, e_logdet = _eigh_route(s.copy(), 2 * d)
    new, e_new = new.transpose(0, 2, 1) @ new, e_new.transpose(0, 2, 1) @ e_new
    assert rows.tolist() == [0, 1, 2]
    assert not (lost.any() or ridged.any() or e_lost.any() or e_ridged.any())
    gap = np.linalg.norm(new - e_new, axis=(1, 2)) / np.linalg.norm(e_new, axis=(1, 2))
    assert gap.max() <= 1e-12
    np.testing.assert_allclose(logdet, e_logdet, rtol=1e-12)
    assert np.all(cond >= e_cond * (1.0 - 1e-12))


@pytest.mark.parametrize("cond", [10.0, 1e11])
@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 17, 33, 64, 128])
def test_tri_inv_matches_lapack_inverse(d, cond):
    # a stack of three Cholesky-like factors with condition number cond (the
    # R^T of a QR of U diag(sigma) V^T): the residual ||L X - I||_max stays
    # within a factor 10 of LAPACK inv's, and each row is bitwise its inverse
    # alone.  Above the diagonal, LAPACK inv pivots and may leave rounding in
    # the base blocks; the blocks the recursion builds are exactly 0
    rng = np.random.default_rng(d)
    u, v = np.linalg.qr(rng.standard_normal((2, 3, d, d)))[0]
    a = (u * np.logspace(0, -math.log10(cond), d)) @ v.transpose(0, 2, 1)
    low = np.linalg.qr(a)[1].transpose(0, 2, 1).copy()
    x = _tri_inv(low)
    eye, eps = np.eye(d), np.finfo(float).eps
    got = np.abs(low @ x - eye).max(axis=(1, 2))
    want = np.abs(low @ np.linalg.inv(low) - eye).max(axis=(1, 2))
    assert np.all(got <= 10 * np.maximum(want, eps))
    assert np.all(np.abs(np.triu(x, 1)).max(axis=(1, 2)) <= 8 * eps * np.abs(x).max(axis=(1, 2)))
    if d > _TRI_INV_BASE:
        assert not x[:, : d // 2, d // 2 :].any()
    for r in range(3):
        assert np.array_equal(_tri_inv(low[r : r + 1])[0], x[r])


def test_block_update_decisions_come_from_eigenvalues():
    # one d = 8 stack: a well-conditioned statistic, one with condition
    # number 1e13, an indefinite one and a vanishing one.  Only the first
    # takes the Cholesky route; the lost, ridged and divergence flags are the
    # eigh route's, the other rows are bitwise the eigh route's, and the
    # first row is bitwise the Cholesky route's and its update alone
    d, scale = 8, 16
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    a = rng.standard_normal((d, 2 * d))
    s = np.stack([a @ a.T, (q * np.logspace(0, -13, d)) @ q.T,
                  (q * np.r_[np.ones(d - 1), -1.0]) @ q.T, np.zeros((d, d))])
    rows, chol = _cholesky_route(s.copy(), scale)
    assert rows.tolist() == [0]
    got = _maximizer(s.copy(), scale)
    want = _eigh_route(s.copy(), scale)
    for x, y in zip(got, chol):
        assert np.array_equal(x[:1], y)
    assert got[1].tolist() == want[1].tolist() == [False, False, False, True]  # lost
    assert got[3].tolist() == want[3].tolist() == [False, True, True, False]  # ridged
    diverged = [False, True, True, False]
    assert (got[2] > CONDITION_LIMIT).tolist() == (want[2] > CONDITION_LIMIT).tolist() == diverged
    for x, y in zip(got, want):
        assert np.array_equal(x[1:], y[1:])
    for x, y in zip(got, _maximizer(s[:1].copy(), scale)):
        assert np.array_equal(x[:1], y)
    # a stack in which no row has a Cholesky factor is all eigh's
    for x, y in zip(_maximizer(s[2:].copy(), scale), want):
        assert np.array_equal(x, y[2:])


def test_low_rank_statistic_skips_cholesky(monkeypatch):
    # the d = 128 block of (2,16,128;1) has a statistic of rank at most
    # m*n/d = 32, so its update goes straight to the eigendecomposition; the
    # d = 16 block (rank up to 256) still tries Cholesky.  The attempt it
    # skips would have taken no row, so the update is bitwise the same
    dims, seen = (2, 16, 128), []
    cholesky_rows = tnm.mle._cholesky_rows

    def spy(s):
        seen.append(s.shape[-1])
        return cholesky_rows(s)

    samples = sample_standard(dims, 1, seed=[0, 101, 0])
    data = _Unfoldings(samples.tensors())
    mats = _restart_inits(dims, 4, (0, 202, 0))
    monkeypatch.setattr(tnm.mle, "_cholesky_rows", spy)
    _sweep(data, mats)
    assert seen == [16]
    monkeypatch.undo()
    s, scale = _statistic(data, mats, 2), samples.n // 128
    rows, _ = _cholesky_route(s.copy(), scale)
    assert not len(rows)
    want = _eigh_route(s.copy(), scale)
    for x, y in zip(_maximizer(s.copy(), scale), want):
        assert np.array_equal(x, y)


def test_sweep_writes_large_temporaries_into_scratch_buffers():
    # after a warm-up sweep, a sweep of 4 restarts on (16,16,16;4) writes
    # its mode products into the data's scratch buffers: its allocations
    # peak below one array of R*m*n entries (524,288 bytes; 53,560 measured,
    # against 1,067,696 when each mode product allocated its result)
    dims, m, r = (16, 16, 16), 4, 4
    data = _Unfoldings(sample_standard(dims, m, seed=[0, 101, 0]).tensors())
    mats = _restart_inits(dims, r, (0, 202, 0))
    _sweep(data, mats)
    tracemalloc.start()
    try:
        _sweep(data, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < r * m * math.prod(dims) * 8


PANEL = [((3, 3), 3), ((2, 5, 5), 1), ((3, 3), 2), ((2, 2, 8), 1), ((4, 4, 4), 1), ((8, 8, 8), 1)]


@pytest.mark.parametrize("dims,m", PANEL)
def test_stacked_kernel_matches_sequential_oracle(dims, m):
    # the batched kernel against the one-restart-at-a-time solver with an
    # explicit log-likelihood every sweep, and its refinement against the
    # one-restart refinement; diverged log-likelihoods are only where the
    # runaway tripped, so they are not compared.  The refined factors also
    # stay within the uniqueness tolerance of the old parameter-change
    # polish (at its 2000-sweep cap on (3,3;2) seed 2), score at least the
    # fit's log-likelihood (every refinement step raises it; a fit that took
    # Newton steps already ends at the maximum, where the two agree to the
    # rounding of their evaluation), and meet the stop: their moment-map
    # norm, recomputed independently, is below 1e-10 up to its rounding.
    # Trial seeds 0..7 are every panel trial the benchmark runs
    scales = [m * math.prod(dims) // d for d in dims]
    for seed in range(8):
        samples = sample_standard(dims, m, seed=[seed, 101, 0])
        inits = _restart_inits(dims, 4, (seed, 202, 0))
        fits, polished, counts = solve_trial(samples, [a.copy() for a in inits])
        for r, fit in enumerate(fits):
            status, sweeps, history, factors, steps = fit_sequential(samples, [a[r] for a in inits])
            assert (fit.status, fit.iterations, fit.newton_steps) == (status, sweeps, steps)
            if status is FitStatus.CONVERGED:
                assert fit.loglik == pytest.approx(history[-1], rel=1e-9)
                want, iterations = refine_sequential(samples, factors)
                assert counts[r] == iterations
                old, _ = polish_sequential(samples, factors)
                for got, exp, prior in zip(polished[r], want, old):
                    assert np.allclose(got, exp, rtol=1e-8)
                    assert np.linalg.norm(got - prior) <= GAUGE_AGREEMENT_RTOL * np.linalg.norm(prior)
                refined = polished[r]
                score = log_likelihood(samples, KroneckerPrecision(tuple(refined)))
                if fit.newton_steps:
                    assert score == pytest.approx(fit.loglik, rel=1e-12)
                else:
                    assert score >= fit.loglik
                _, grams = whitened_grams(samples.tensors(), [np.linalg.cholesky(a) for a in refined])
                norm = max(np.linalg.norm(g / c - np.eye(len(g))) for g, c in zip(grams, scales))
                assert norm < 1.01 * _MOMENT_TOL
            else:
                assert counts[r] == 0 and polished[r] is None


@pytest.mark.parametrize("dims,m", PANEL)
def test_fit_tails_end_in_newton_steps(dims, m):
    # plain flip-flop took up to 1476 sweeps on these trials ((3,3;2) seed 2,
    # and 1160 on (2,5,5;1) seed 4); once its contraction stalls a restart
    # takes Newton steps, so no fit needs more than 200 iterations, and the
    # log-likelihood still never falls
    for seed in range(8):
        samples = sample_standard(dims, m, seed=[seed, 101, 0])
        fits, _, _ = solve_trial(samples, _restart_inits(dims, 4, (seed, 202, 0)))
        for fit in fits:
            assert fit.iterations <= 200
            assert 0 <= fit.newton_steps <= fit.iterations
            hist = fit.loglik_history
            assert all(b >= a - 1e-9 * (1.0 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_fit_switch_is_checked_from_sweep_3():
    # started two sweeps before (3,3;2) seed 2's restart 0 switches, the
    # second sweep already gains more than 0.9 of the first; the switch
    # still waits for sweep 3's gain, so the first Newton step precedes
    # sweep 4
    s = sample_standard((3, 3), 2, seed=[2, 101, 0])
    init = KroneckerPrecision(tuple(a[0] for a in _restart_inits((3, 3), 4, (2, 202, 0))))
    first = next(k for k in range(1, 100) if fit_mle(s, init, max_iter=k).newton_steps)
    start = fit_mle(s, init, max_iter=first - 2).factors
    h = fit_mle(s, start, max_iter=2).loglik_history
    assert h[2] - h[1] > _STALL_RATIO * (h[1] - h[0])
    assert [fit_mle(s, start, max_iter=k).newton_steps for k in (3, 4)] == [0, 1]


def test_fit_newton_step_that_cannot_be_formed(monkeypatch, caplog):
    # a Newton step that raises LinAlgError is not taken and no exception
    # leaves the trial: restarts sharing the failed call retry one by one,
    # so a step that fails only in company changes nothing, and a step that
    # always fails leaves plain flip-flop, with its slow tail where the fits
    # took Newton steps ((3,3;2) seed 2), and refinement by sweeps that end
    # at the stop or at the cap, with its one warning.  On (3,3;3) seed 0
    # only refinement takes Newton steps
    newton = tnm.mle._newton

    def never(data, mats):
        raise np.linalg.LinAlgError("not positive definite")

    for dims, m, seed, tail in [((3, 3), 2, 2, True), ((3, 3), 3, 0, False)]:
        s = sample_standard(dims, m, seed=[seed, 101, 0])
        inits = _restart_inits(dims, 4, (seed, 202, 0))
        want, want_refined, want_counts = solve_trial(s, [a.copy() for a in inits])
        assert all(f.status is FitStatus.CONVERGED for f in want)
        assert all(bool(f.newton_steps) is tail for f in want)
        trial = verify_samples(s, restarts=4, seed=seed).trials[0]
        failed = []

        def alone_only(data, mats):
            if len(mats[0]) > 1:
                failed.append(len(mats[0]))
                raise np.linalg.LinAlgError("not positive definite")
            return newton(data, mats)

        with monkeypatch.context() as patch:
            patch.setattr(tnm.mle, "_newton", alone_only)
            assert verify_samples(s, restarts=4, seed=seed).trials[0] == trial
            assert failed
            got, refined, counts = solve_trial(s, [a.copy() for a in inits])
        assert all(_same_fit(a, b) and a.newton_steps == b.newton_steps for a, b in zip(got, want))
        assert counts == want_counts
        for a, b in zip(refined, want_refined):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        caplog.clear()
        with monkeypatch.context() as patch, caplog.at_level(logging.WARNING, logger="tnm.mle"):
            patch.setattr(tnm.mle, "_newton", never)
            plain = verify_samples(s, restarts=4, seed=seed).trials[0]
        assert plain.all_converged and plain.fit_newton_steps == (0, 0, 0, 0)
        assert (min(plain.iterations) > 1000) is tail
        assert all(1 <= c <= _REFINE_MAX_ITER for c in plain.polish_sweeps)
        capped = _REFINE_MAX_ITER in plain.polish_sweeps
        assert len([r for r in caplog.records if r.name == "tnm.mle"]) == capped


def test_trial_reports_sweep_counts():
    # verify reports each restart's fit sweeps as fit_mle counts them alone,
    # and its refinement iterations as the sequential oracle counts them
    s = sample_standard((3, 3), 3, seed=2)
    t = verify_samples(s, restarts=3, seed=0).trials[0]
    inits = _restart_inits((3, 3), 3, (0, 202, 0))
    for r in range(3):
        fit = fit_mle(s, KroneckerPrecision(tuple(a[r] for a in inits)))
        assert fit.status is FitStatus.CONVERGED
        assert t.iterations[r] == fit.iterations
        assert t.polish_sweeps[r] == refine_sequential(s, fit.factors.factors)[1] >= 1
    div = verify_datum(Datum((2, 3), 1), trials=1, restarts=2, seed=1).trials[0]
    assert div.statuses == ("diverged", "diverged")
    assert div.iterations == (1, 1) and div.polish_sweeps == (0, 0)


def _kernel_calls(monkeypatch, dims, m, seed):
    """The rows of each _newton call and the `moment` flag of each _sweep
    call of one verify trial, and its TrialResult."""
    newton, sweep = tnm.mle._newton, tnm.mle._sweep
    newtons, sweeps = [], []

    def counted_newton(data, mats):
        newtons.append(len(mats[0]))
        return newton(data, mats)

    def counted_sweep(data, mats, moment=False):
        sweeps.append(moment)
        return sweep(data, mats, moment)

    with monkeypatch.context() as patch:
        patch.setattr(tnm.mle, "_newton", counted_newton)
        patch.setattr(tnm.mle, "_sweep", counted_sweep)
        trial, = verify_datum(Datum(dims, m), trials=1, restarts=4, seed=seed, threads=1).trials
    return newtons, sweeps, trial


@pytest.mark.parametrize("dims,m,seed,want", [
    ((3, 3), 3, 0, ((3, 10), (48, 2))),
    ((2, 5, 5), 1, 4, ((8, 24), (34, 2))),
])
def test_waiting_rule_batches_kernel_calls(monkeypatch, dims, m, seed, want):
    # restarts end their fits at different iterations; a refining restart
    # due a Newton step waits for the others, so their steps share _newton
    # calls (without the wait, (3,3;3) seed 0 makes 7 calls), and one trial
    # makes these (calls, rows) of _newton and (calls, moment calls) of
    # _sweep.  Fitting rows no longer pay for moment norms: the moment calls
    # are the refinement's alone
    newtons, sweeps, _ = _kernel_calls(monkeypatch, dims, m, seed)
    assert ((len(newtons), sum(newtons)), (len(sweeps), sum(sweeps))) == want


@pytest.mark.parametrize("dims,m,seed", [
    ((3, 3), 3, 0), ((2, 5, 5), 1, 4), ((3, 3), 2, 2), ((4, 4, 4), 1, 1), ((8, 8, 8), 1, 0),
])
def test_fitting_rows_sweep_without_moment_norms(monkeypatch, dims, m, seed):
    # a trial fits every restart before it refines any, so no sweep that
    # holds a fitting row computes moment norms: the flags of its _sweep
    # calls read all False, one call per iteration of its longest fit, then
    # all True (the refinement, which has a converged fit to refine on every
    # one of these trials)
    _, sweeps, trial = _kernel_calls(monkeypatch, dims, m, seed)
    fit = max(trial.iterations)
    assert 0 < fit < len(sweeps) and sweeps == [False] * fit + [True] * (len(sweeps) - fit)


def test_newton_step_safeguards(monkeypatch):
    # far from the maximizer each step stays inside the trust radius and
    # raises the explicit log-likelihood; a direction along which l only
    # falls is refused after the halvings, and refinement then reaches the
    # stop by plain sweeps, at the same maximizer
    s = sample_standard((3, 3), 3, seed=[0, 101, 0])
    data = _Unfoldings(s.tensors())
    mats = _restart_inits((3, 3), 4, (0, 202, 0))

    def loglik():
        return _loglik(data, mats)

    for _ in range(3):
        before = loglik()
        norm, stepped = _newton(data, mats)
        assert stepped.all() and np.all(loglik() > before)
    _, want, _ = solve_trial(s, _restart_inits((3, 3), 4, (0, 202, 0)))
    newton_direction = tnm.mle._newton_direction
    monkeypatch.setattr(tnm.mle, "_newton_direction", lambda *a: [-v for v in newton_direction(*a)])
    kept = [a.copy() for a in mats]
    norm, stepped = _newton(data, mats)
    assert not stepped.any()
    assert all(np.array_equal(a, b) for a, b in zip(mats, kept))
    fits, got, counts = solve_trial(s, _restart_inits((3, 3), 4, (0, 202, 0)))
    assert all(f.status is FitStatus.CONVERGED for f in fits)
    assert max(counts) < _REFINE_MAX_ITER
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def test_polish_restart_that_loses_its_scale_keeps_its_input(monkeypatch):
    # a restart whose block-1 statistic vanishes in its first refinement
    # sweep (its second root is set so small, as the sweep starts, that
    # S_1 underflows to 0) leaves after one iteration with the gauge-fixed
    # factors its fit ended at; its fit and the restarts beside it are
    # bitwise as before.  The sweep finds the restart by the factors
    # T^T T its roots stand for
    base = sample_standard((3, 3), 3, seed=[0, 101, 0])
    s = SampleSet(base.dims, base.m, 1e-20 * base.data)
    inits = _restart_inits((3, 3), 4, (0, 202, 0))
    fits, refined, counts = solve_trial(s, [a.copy() for a in inits])
    assert all(f.status is FitStatus.CONVERGED for f in fits)
    end = fits[2].factors.factors
    sweep = tnm.mle._sweep

    def poisoned(data, mats, moment=False):
        for r in range(len(mats[0])):
            if all(np.array_equal(a[r].T @ a[r], f) for a, f in zip(mats, end)):
                mats[1][r] = 1e-290 * np.eye(3)
        return sweep(data, mats, moment)

    monkeypatch.setattr(tnm.mle, "_sweep", poisoned)
    got_fits, got, got_counts = solve_trial(s, [a.copy() for a in inits])
    assert all(_same_fit(a, b) for a, b in zip(got_fits, fits))
    assert got_counts[2] == 1
    want = _gauge_fix([f[None] for f in end])
    assert all(np.array_equal(x, y[0]) for x, y in zip(got[2], want))
    for r in (0, 1, 3):
        assert got_counts[r] == counts[r] >= 1
        assert all(np.array_equal(x, y) for x, y in zip(got[r], refined[r]))


def _log_step(samples, roots, hs, eps):
    """-l at Psi_i = B_i exp(eps H_i) B_i^T, from the dense Kronecker matrix."""
    mats = []
    for b, h in zip(roots, hs):
        w, u = np.linalg.eigh(eps * h)
        mats.append(b @ (u * np.exp(w)) @ u.T @ b.T)
    return -dense_loglik(samples, mats)


@pytest.mark.parametrize("dims,m", [((2, 3), 2), ((2, 2, 3), 1), ((3, 4), 1), ((2, 3, 2, 2), 1)])
def test_hessian_product_matches_finite_differences(dims, m):
    # at a random point, the whitened Grams give the gradient and the
    # Hessian-vector product of -l on the log-factors; the product is
    # symmetric, agrees with the per-pair oracle, and kills the gauge
    # directions c_i I with sum c_i = 0
    rng = np.random.default_rng(len(dims) + m)
    samples = sample_standard(dims, m, seed=[m, *dims])
    roots = [np.linalg.cholesky(f) for f in random_precision(dims, seed=m).factors]
    data = _Unfoldings(samples.tensors())
    zs = _per_block(data, _whiten(data, [b.T[None] for b in roots]))
    grams = _grams(zs)

    def sym(d):
        a = rng.standard_normal((d, d))
        return a + a.T

    def hess(vs):
        out = [np.empty_like(g) for g in grams]
        return [a[0] for a in _hessian_product(data, zs, grams, [v[None] for v in vs], out)]

    def inner(a, b):
        return sum(float(np.sum(x * y)) for x, y in zip(a, b))

    u, v = [sym(d) for d in dims], [sym(d) for d in dims]
    au, av = hess(u), hess(v)
    assert inner(u, av) == pytest.approx(inner(v, au), rel=1e-12)
    z, want = whitened_grams(samples.tensors(), roots)
    for g, w in zip(grams, want):
        assert np.allclose(g[0], w, rtol=1e-12, atol=1e-12)
    for a, b in zip(av, hessian_product(z, want, v)):
        assert np.allclose(a, b, rtol=1e-11, atol=1e-11)
    eps = 1e-3
    f = [_log_step(samples, roots, v, e) for e in (-eps, 0.0, eps)]
    scales = [samples.m * samples.n // d for d in dims]
    grad = [0.5 * (g[0] - c * np.eye(len(g[0]))) for g, c in zip(grams, scales)]
    assert (f[2] - f[0]) / (2 * eps) == pytest.approx(inner(grad, v), rel=1e-5)
    assert (f[2] - 2 * f[1] + f[0]) / eps**2 == pytest.approx(inner(v, av), rel=1e-5)
    c = rng.standard_normal(len(dims))
    c -= c.mean()
    gauge = hess([ci * np.eye(d) for ci, d in zip(c, dims)])
    scale = max(float(np.linalg.norm(a)) for a in av)
    assert max(float(np.linalg.norm(a)) for a in gauge) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# gauge fixing


def test_gauge_fix_determinants():
    p = random_precision((2, 3, 2), seed=8)
    g = gauge_fix(p)
    for f in g.factors[1:]:
        assert float(np.linalg.det(f)) == pytest.approx(1.0, rel=1e-10)


def test_gauge_fix_preserves_product():
    p = random_precision((2, 3), seed=9)
    g = gauge_fix(p)
    assert np.allclose(dense_kron(p.factors), dense_kron(g.factors), rtol=1e-12)


def test_gauge_fix_idempotent():
    p = random_precision((2, 2, 3), seed=10)
    once = gauge_fix(p)
    twice = gauge_fix(once)
    for a, b in zip(once.factors, twice.factors):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_gauge_fix_single_factor_unchanged():
    p = random_precision((3,), seed=11)
    g = gauge_fix(p)
    assert np.array_equal(g.factors[0], p.factors[0])


# ---------------------------------------------------------------------------
# verification


def test_verify_datum_guards():
    with pytest.raises(DeskScaleExceeded):
        verify_datum(Datum((16, 16, 17), 1))
    with pytest.raises(DeskScaleExceeded):
        verify_datum(Datum((64, 64), 10**9))
    with pytest.raises(ValueError):
        verify_datum(Datum((2,), 2), restarts=1)
    with pytest.raises(ValueError):
        verify_datum(Datum((2,), 2), trials=0)


def test_verify_datum_stable_single_factor():
    rep = verify_datum(Datum((2,), 2), trials=3, restarts=2, seed=1)
    assert rep.bounded_agrees and rep.exists_agrees and rep.unique_agrees
    assert rep.hard_clauses_agree
    assert rep.nonuniqueness_witness_fraction is None
    assert len(rep.trials) == 3


def test_verify_datum_unbounded():
    rep = verify_datum(Datum((2, 3), 1), trials=5, restarts=2, seed=1)
    assert rep.bounded_agrees and rep.exists_agrees
    assert rep.unique_agrees is None
    assert rep.profile.always_unbounded


def test_pool_workers_capped_by_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_workers(64, 1000) == 4
    assert _pool_workers(3, 1000) == 3
    assert _pool_workers(64, 2) == 2
    assert _pool_workers(0, 10) == 1
    assert _pool_workers(-5, 10) == 1
    assert _pool_workers(4, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_workers(8, 8) == 1


def test_pool_map_draws_tasks_as_results_are_used(monkeypatch):
    # two workers, chunks of n // 16 but at most 1024 tasks, at most two
    # chunks per worker in flight: when the first result comes back the
    # task generator has been advanced by at most (4 + 1) chunks, and
    # results keep the task order
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n in (400, 100_000):
        drawn = []

        def tasks():
            for i in range(n):
                drawn.append(i)
                yield -i

        results = _pool_map(abs, tasks(), 2, n)
        assert next(results) == 0
        assert len(drawn) <= (2 * 2 + 1) * min(n // 16, 1024)
        assert list(results) == list(range(1, n))
        assert len(drawn) == n


def test_verify_datum_threads_match_serial():
    a = verify_datum(Datum((2,), 2), trials=3, restarts=2, seed=5, threads=1)
    b = verify_datum(Datum((2,), 2), trials=3, restarts=2, seed=5, threads=2)
    assert a.trials == b.trials
    assert a.hard_clauses_agree == b.hard_clauses_agree


def test_verify_datum_draws_no_task_ahead(monkeypatch):
    # the pool is handed the trial numbers as a range, so nothing is
    # allocated per trial before one runs; a list of task tuples built up
    # front peaked at 12.8 MB for these 10^5 trials
    class Drawn(Exception):
        pass

    def first_draw_raises(fn, tasks, threads, n):
        raise Drawn
        yield

    monkeypatch.setattr(tnm.mle, "_pool_map", first_draw_raises)
    with pytest.raises(Drawn):  # warm-up: first-call imports are not the trials' memory
        verify_datum(Datum((2, 2), 1), trials=1, threads=1)
    tracemalloc.start()
    try:
        with pytest.raises(Drawn):
            verify_datum(Datum((2, 2), 1), trials=10**5, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_polish_cap_warns(caplog, monkeypatch):
    """(3,3;2) at trial seed 2 held the old parameter-change polish at its
    2000-sweep cap on every restart; refinement meets its moment-map stop
    there with no warning.  A cap it cannot meet, one iteration after fits
    that a loose tol stopped early, still warns, once."""
    with caplog.at_level(logging.WARNING, logger="tnm.mle"):
        rep = verify_datum(Datum((3, 3), 2), trials=1, restarts=4, seed=2)
    assert all(1 <= c < _REFINE_MAX_ITER for c in rep.trials[0].polish_sweeps)
    assert not [r for r in caplog.records if r.name == "tnm.mle"]
    monkeypatch.setattr(tnm.mle, "_REFINE_MAX_ITER", 1)
    with caplog.at_level(logging.WARNING, logger="tnm.mle"):
        rep = verify_datum(Datum((3, 3), 2), trials=1, restarts=4, seed=2, tol=1e-3)
    assert rep.trials[0].all_converged
    assert rep.trials[0].polish_sweeps == (1, 1, 1, 1)
    records = [r for r in caplog.records if r.name == "tnm.mle"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    assert "4 of 4 restarts" in records[0].getMessage()


@pytest.mark.parametrize("seed", [0, 5])
def test_refinement_reaches_its_stop_on_ill_conditioned_data(caplog, seed):
    # (10,20;2) sits at the smallest m with a bounded likelihood, and its
    # fits end with factor condition numbers near 1e9.  Stored as matrices
    # Psi, such factors resolve the moment map only to about eps * cond(Psi),
    # above the 1e-10 stop, and refinement ran to its cap (4 of 4 restarts
    # at seed 0, 2 of 4 at seed 5, each trial with a warning).  Stored as
    # roots, every restart meets the stop
    with caplog.at_level(logging.WARNING, logger="tnm.mle"):
        rep = verify_datum(Datum((10, 20), 2), trials=1, restarts=4, seed=seed, threads=1)
    t = rep.trials[0]
    assert t.all_converged
    assert all(1 <= c < _REFINE_MAX_ITER for c in t.polish_sweeps)
    assert not [r for r in caplog.records if r.name == "tnm.mle"]


def test_solver_takes_roots_with_the_numpy_1_cholesky(monkeypatch):
    # the declared floor is numpy 1.24, whose cholesky takes the matrix alone
    # (its `upper` keyword came in numpy 2.0); every public solver path runs
    # with such a cholesky, and a root T is upper triangular with T^T T = Psi
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: cholesky(a))
    p = random_precision((3, 4), seed=1)
    for (t,), f in zip(_roots([f[None] for f in p.factors]), p.factors):
        assert np.array_equal(t, np.triu(t))
        assert np.linalg.norm(t.T @ t - f) <= 1e-13 * np.linalg.norm(f)
    s = sample_standard((3, 4), 2, seed=3)
    log_likelihood(s, p)
    mode_statistic(s, p, 1)
    flip_flop_step(s, p, 2)
    assert fit_mle(s, p).status is FitStatus.CONVERGED
    assert verify_datum(Datum((3, 4), 2), trials=1, restarts=2, seed=0, threads=1).trials[0].all_converged


def test_verify_samples_smoke():
    s = sample_standard((3, 3), 3, seed=2)
    rep = verify_samples(s, restarts=3, seed=0)
    assert rep.datum == Datum((3, 3), 3)
    assert rep.hard_clauses_agree
    assert len(rep.trials) == 1


def trial(statuses, rel=0.0, abs_=0.0):
    return TrialResult(
        statuses=tuple(statuses),
        logliks=tuple(0.0 for _ in statuses),
        loglik_spread=0.0,
        factor_spread_rel=rel,
        factor_spread_abs=abs_,
    )


def test_assemble_report_unbounded_threshold():
    d = Datum((2, 3), 1)
    div = trial(["diverged", "diverged"])
    con = trial(["converged", "converged"])
    ok = _assemble_report(d, [div] * 19 + [con])
    assert ok.bounded_agrees and ok.exists_agrees and ok.unique_agrees is None
    bad = _assemble_report(d, [div] * 18 + [con] * 2)
    assert not bad.bounded_agrees and not bad.hard_clauses_agree


def test_assemble_report_unique_clause():
    d = Datum((3, 3), 3)
    tight = trial(["converged", "converged"], rel=1e-8)
    loose = trial(["converged", "converged"], rel=1e-3)
    stuck = trial(["converged", "max_iterations"])
    good = _assemble_report(d, [tight, tight])
    assert good.unique_agrees is True and good.hard_clauses_agree
    split = _assemble_report(d, [tight, loose])
    assert split.unique_agrees is False and not split.hard_clauses_agree
    incomplete = _assemble_report(d, [tight, stuck])
    assert not incomplete.exists_agrees


def test_assemble_report_witness_fraction():
    d = Datum((3, 3), 2)  # bounded with a positive-dimensional maximizer set
    near = trial(["converged", "converged"], abs_=1e-7)
    far = trial(["converged", "converged"], abs_=0.5)
    rep = _assemble_report(d, [near, far, far, far])
    assert rep.unique_agrees is None
    assert rep.nonuniqueness_witness_fraction == pytest.approx(0.75)
    assert rep.hard_clauses_agree


def test_verify_samples_restart_guard():
    s = sample_standard((2,), 2, seed=0)
    with pytest.raises(ValueError):
        verify_samples(s, restarts=1)


def test_threshold_walk_digests_repeat_and_hold_no_floats(capsys):
    # threshold_walk.py prints only the digests on stdout, so "same verdicts
    # as the parent" is a diff of two runs' stdout
    runs = []
    for _ in range(2):
        assert threshold_walk.main(["--max-k", "2", "--max-entry", "4", "--max-prod", "16", "--trials", "1"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    digests = runs[0].out.splitlines()
    assert len(digests) == 16
    assert all(re.fullmatch(r"\(\d+(, \d+)+\) m=\d+ [0-9a-f]{64}", line) for line in digests)
    assert re.fullmatch(r"walked 6 shapes, 16 data, 0 failures in \d+\.\d s\n", runs[0].err)
    rep = verify_datum(Datum((3, 3), 2), trials=2, restarts=2, seed=0, threads=1)
    floats_moved = dataclasses.replace(
        rep,
        trials=tuple(dataclasses.replace(t, logliks=tuple(x + 1 for x in t.logliks), loglik_spread=0.5,
                                         factor_spread_rel=0.5, factor_spread_abs=0.5)
                     for t in rep.trials),
        nonuniqueness_witness_fraction=0.25,
    )
    assert verdict_digest(floats_moved) == verdict_digest(rep)
    counted = dataclasses.replace(rep.trials[0], iterations=tuple(i + 1 for i in rep.trials[0].iterations))
    assert verdict_digest(dataclasses.replace(rep, trials=(counted, *rep.trials[1:]))) != verdict_digest(rep)
    assert verdict_digest(dataclasses.replace(rep, exists_agrees=not rep.exists_agrees)) != verdict_digest(rep)
