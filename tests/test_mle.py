"""Sampling, likelihood evaluation, the flip-flop solver, and verification."""

import logging
import math
import os

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
    DEFAULT_TOL,
    GAUGE_AGREEMENT_RTOL,
    _MOMENT_TOL,
    _REFINE_MAX_ITER,
    TrialResult,
    _assemble_report,
    _fit,
    _grams,
    _hessian_product,
    _loglik,
    _newton,
    _per_block,
    _polish,
    _pool_map,
    _pool_workers,
    _restart_inits,
    _trial_fits,
    _Unfoldings,
    _whiten,
)

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
])
def test_sampleset_from_json_rejects_malformed(doc):
    with pytest.raises(ValueError):  # ShapeMismatch is a ValueError
        SampleSet.from_json_dict(doc)


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
    # flip_flop_step and fit_mle share one block update, bit for bit
    s = sample_standard(dims, m, seed=8)
    init = random_precision(dims, seed=8)
    p = init
    for i in range(1, len(dims) + 1):
        p = flip_flop_step(s, p, i)
    rep = fit_mle(s, init, max_iter=1)
    assert rep.factors is not None
    for a, b in zip(p.factors, rep.factors.factors):
        assert np.array_equal(a, b)


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
    for a, b in zip(rep.factors.factors, init.factors):
        assert np.array_equal(a, b)


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
    # after every sweep the log-likelihood is read off the block eigenvalues;
    # it must equal the explicit evaluation of the factors the sweep left
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
])
def test_stacked_restarts_equal_solo_fits(dims, m):
    # a restart's result does not depend on which restarts share its stack
    samples = sample_standard(dims, m, seed=[0, 101, 0])
    fits, polished, _ = _trial_fits(samples, 4, (0, 202, 0), DEFAULT_TOL)
    inits = _restart_inits(dims, 4, (0, 202, 0))
    data = _Unfoldings(samples.tensors())
    converged = 0
    for r, fit in enumerate(fits):
        solo = fit_mle(samples, KroneckerPrecision(tuple(a[r] for a in inits)))
        assert _same_fit(fit, solo)
        if fit.status is FitStatus.CONVERGED:
            alone, _ = _polish(data, [a[None].copy() for a in fit.factors.factors])
            assert all(np.array_equal(x, y) for x, y in zip(alone[0], polished[converged]))
            converged += 1


def test_mixed_stack_restarts_leave_on_their_own():
    # one restart ridges and diverges in sweep 1, one hits a vanishing
    # statistic; the others converge as if alone
    s = sample_standard((4, 4), 2, seed=5)
    mats = _restart_inits((4, 4), 5, (5, 202, 0))
    mats[1][1] = np.diag([1.0, 1e-30, 1e-30, 1e-30])
    mats[1][3] = 1e-320 * np.eye(4)
    inits = [a.copy() for a in mats]
    with np.errstate(all="ignore"):
        fits = _fit(_Unfoldings(s.tensors()), mats, DEFAULT_TOL, 10_000)
        solos = [fit_mle(s, KroneckerPrecision(tuple(a[r] for a in inits))) for r in range(5)]
    assert [f.status for f in fits] == [
        FitStatus.CONVERGED, FitStatus.DIVERGED, FitStatus.CONVERGED,
        FitStatus.DEGENERATE_STATISTIC, FitStatus.CONVERGED,
    ]
    for fit, solo in zip(fits, solos):
        assert _same_fit(fit, solo)


PANEL = [((3, 3), 3), ((2, 5, 5), 1), ((3, 3), 2), ((2, 2, 8), 1), ((4, 4, 4), 1), ((8, 8, 8), 1)]


@pytest.mark.parametrize("dims,m", PANEL)
def test_stacked_kernel_matches_sequential_oracle(dims, m):
    # the batched kernel against the one-restart-at-a-time solver with an
    # explicit log-likelihood every sweep, and its refinement against the
    # one-restart refinement; diverged log-likelihoods are only where the
    # runaway tripped, so they are not compared.  The refined factors also
    # stay within the uniqueness tolerance of the old parameter-change
    # polish (at its 2000-sweep cap on (3,3;2) seed 2), score at least the
    # fit's log-likelihood (every refinement step raises it), and meet the
    # stop: their moment-map norm, recomputed independently, is below 1e-10
    # up to its rounding
    scales = [m * math.prod(dims) // d for d in dims]
    for seed in range(4):
        samples = sample_standard(dims, m, seed=[seed, 101, 0])
        fits, polished, counts = _trial_fits(samples, 4, (seed, 202, 0), DEFAULT_TOL)
        inits = _restart_inits(dims, 4, (seed, 202, 0))
        converged = 0
        for r, fit in enumerate(fits):
            status, sweeps, history, factors = fit_sequential(samples, [a[r] for a in inits])
            assert (fit.status, fit.iterations) == (status, sweeps)
            if status is FitStatus.CONVERGED:
                assert fit.loglik == pytest.approx(history[-1], rel=1e-9)
                want, iterations = refine_sequential(samples, factors)
                assert counts[r] == iterations
                old, _ = polish_sequential(samples, factors)
                for got, exp, prior in zip(polished[converged], want, old):
                    assert np.allclose(got, exp, rtol=1e-8)
                    assert np.linalg.norm(got - prior) <= GAUGE_AGREEMENT_RTOL * np.linalg.norm(prior)
                refined = polished[converged]
                assert log_likelihood(samples, KroneckerPrecision(tuple(refined))) >= fit.loglik
                _, grams = whitened_grams(samples.tensors(), [np.linalg.cholesky(a) for a in refined])
                norm = max(np.linalg.norm(g / c - np.eye(len(g))) for g, c in zip(grams, scales))
                assert norm < 1.01 * _MOMENT_TOL
                converged += 1
            else:
                assert counts[r] == 0


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


def test_newton_step_safeguards(monkeypatch):
    # far from the maximizer each step stays inside the trust radius and
    # raises the explicit log-likelihood; a direction along which l only
    # falls is refused after the halvings, and refinement then reaches the
    # stop by plain sweeps, at the same maximizer
    s = sample_standard((3, 3), 3, seed=[0, 101, 0])
    data = _Unfoldings(s.tensors())
    roots = [np.linalg.cholesky(a) for a in _restart_inits((3, 3), 4, (0, 202, 0))]

    def loglik():
        return _loglik(data, [b @ b.transpose(0, 2, 1) for b in roots])

    for _ in range(3):
        before = loglik()
        norm, stepped = _newton(data, roots)
        assert stepped.all() and np.all(loglik() > before)
    fits = _fit(data, _restart_inits((3, 3), 4, (0, 202, 0)), DEFAULT_TOL, 10_000)
    stacks = [np.stack(fs) for fs in zip(*(f.factors.factors for f in fits))]
    want, _ = _polish(data, [a.copy() for a in stacks])
    newton_direction = tnm.mle._newton_direction
    monkeypatch.setattr(tnm.mle, "_newton_direction", lambda *a: [-v for v in newton_direction(*a)])
    kept = [b.copy() for b in roots]
    norm, stepped = _newton(data, roots)
    assert not stepped.any()
    assert all(np.array_equal(a, b) for a, b in zip(roots, kept))
    got, counts = _polish(data, stacks)
    assert max(counts) < _REFINE_MAX_ITER
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


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
    zs = _per_block(data, _whiten(data, [b[None] for b in roots]))
    grams = _grams(zs)

    def sym(d):
        a = rng.standard_normal((d, d))
        return a + a.T

    def hess(vs):
        return [a[0] for a in _hessian_product(data, zs, grams, [v[None] for v in vs])]

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
    # two workers, chunks of n // 16, at most two chunks per worker in
    # flight: when the first result comes back the task generator has been
    # advanced by at most (4 + 1) chunks, and results keep the task order
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    n, drawn = 400, []

    def tasks():
        for i in range(n):
            drawn.append(i)
            yield -i

    results = _pool_map(abs, tasks(), 2, n)
    assert next(results) == 0
    assert len(drawn) <= (2 * 2 + 1) * (n // 16)
    assert list(results) == list(range(1, n))
    assert len(drawn) == n


def test_verify_datum_threads_match_serial():
    a = verify_datum(Datum((2,), 2), trials=3, restarts=2, seed=5, threads=1)
    b = verify_datum(Datum((2,), 2), trials=3, restarts=2, seed=5, threads=2)
    assert a.trials == b.trials
    assert a.hard_clauses_agree == b.hard_clauses_agree


def test_polish_cap_warns(caplog):
    """(3,3;2) at trial seed 2 held the old parameter-change polish at its
    2000-sweep cap on every restart; refinement meets its moment-map stop
    there with no warning.  A cap it cannot meet still warns, once."""
    with caplog.at_level(logging.WARNING, logger="tnm.mle"):
        rep = verify_datum(Datum((3, 3), 2), trials=1, restarts=4, seed=2)
    assert all(1 <= c < _REFINE_MAX_ITER for c in rep.trials[0].polish_sweeps)
    assert not [r for r in caplog.records if r.name == "tnm.mle"]
    s = sample_standard((3, 3), 2, seed=[2, 101, 0])
    data = _Unfoldings(s.tensors())
    fits = _fit(data, _restart_inits((3, 3), 4, (2, 202, 0)), DEFAULT_TOL, 10_000)
    assert all(f.status is FitStatus.CONVERGED for f in fits)
    stacks = [np.stack(fs) for fs in zip(*(f.factors.factors for f in fits))]
    with caplog.at_level(logging.WARNING, logger="tnm.mle"):
        _, counts = _polish(data, stacks, max_iter=1)
    assert counts == [1] * 4
    records = [r for r in caplog.records if r.name == "tnm.mle"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    assert "4 of 4 restarts" in records[0].getMessage()


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
