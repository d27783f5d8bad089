"""Sampling, likelihood evaluation, the flip-flop solver, and verification."""

import dataclasses
import logging
import math
import os
import re
import tracemalloc
import types

import numpy as np
import pytest

import tnm.cli
import tnm.mle
from tnm import (
    Datum,
    DegenerateStatistic,
    DeskScaleExceeded,
    FitStatus,
    InvalidDatum,
    KroneckerPrecision,
    NotPositiveDefinite,
    SampleSet,
    ShapeMismatch,
    castle_step,
    fit_mle,
    flip_flop_step,
    gauge_fix,
    index_of_factor,
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
    _assembled_hessian,
    _blocks,
    _check_draw,
    _check_restarts,
    _cholesky,
    _cholesky_route,
    _eigh_route,
    _factor_gaps,
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
from tnm.castling import _castle_step
from tnm.pool import _pool_map, _pool_workers

from oracles import (
    castle_sample,
    dense_kron,
    dense_loglik,
    dense_mode_statistic,
    exact_moment_norm,
    fit_sequential,
    hessian_product,
    polish_sequential,
    refine_sequential,
    whitened_grams,
)
import reference_ops
import threshold_walk
from reference_ops import PANEL
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
    with pytest.raises(ShapeMismatch, match="^need at least one dimension$"):
        SampleSet((), 1, np.zeros(0))
    with pytest.raises(ShapeMismatch):
        SampleSet((2,), 0, np.zeros(0))
    with pytest.raises(ValueError):
        SampleSet((2,), 1, np.array([1.0, np.nan]))
    # complex data is refused before it is cast, not cut to its real part
    # (numpy's ComplexWarning, an error under this suite's warning filter)
    for data in (np.array([1 + 2j, 3 + 0j]), [1.0, 3 + 0j], np.array([1.0, 3 + 0j], dtype=object)):
        with pytest.raises(ValueError, match="^sample data must be real, got complex entries$"):
            SampleSet((2,), 1, data)
    # so are strings, bools and other objects, which a cast would read as numbers
    for data in (["1", "2.5"], [True, False], np.array([1.0, None], dtype=object)):
        with pytest.raises(ValueError, match="^sample data must be real, got (<U3|bool|object) entries$"):
            SampleSet((2,), 1, data)
    with pytest.raises(ValueError, match="^sample data contains non-finite entries$"):
        SampleSet((2,), 1, [10**400, 1])
    for data in ([1, 2], np.array([1, 2.0], dtype=object), np.array([1, 2], dtype=np.int8)):
        assert SampleSet((2,), 1, data).data.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("dims, m", [
    ((2.5, 2), 1), ((2, 2), 1.5), (("2", "2"), 1), ((2, 2), "1"),
    ((math.nan, 2), 1), ((2, 2), math.nan), ((math.inf, 2), 1), ((2, 2), math.inf),
    ((True, 2), 1), ((2, 2), True), ((np.True_, 2), 1), ((2, 2), np.True_),
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
    ((True, 2), 1), ((2, 2), True), ((np.True_, 2), 1), ((2, 2), np.True_),
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
    for kwargs in ({"trials": 2.5}, {"restarts": 2.5}, {"trials": "2"}, {"restarts": math.nan},
                   {"trials": True}, {"restarts": np.True_}):
        with pytest.raises(ValueError, match="integer"):
            verify_datum(datum, **kwargs)
    with pytest.raises(ValueError, match="integer"):
        verify_samples(samples, restarts=2.5)
    # so does seed, which must also be >= 0: a usage error, not a solver fault
    assert verify_samples(samples, restarts=2, seed=3.0) == verify_samples(samples, restarts=2, seed=3)
    for seed, match in ((2.5, "integer"), ("3", "integer"), (True, "^seed must be an integer, got True$"),
                        (np.True_, "integer"), (-1, "^seed must be >= 0, got -1$")):
        with pytest.raises(ValueError, match=match):
            verify_datum(datum, trials=2, restarts=2, seed=seed)
        with pytest.raises(ValueError, match=match):
            verify_samples(samples, restarts=2, seed=seed)


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
    {"dims": [], "m": 1, "data": []},
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
    with pytest.raises(ValueError, match="^factor 2 must be real, got complex entries$"):
        KroneckerPrecision((np.eye(2), np.array([[2 + 1j, 0], [0, 1]])))
    with pytest.raises(ValueError, match="^factor 1 must be real, got complex entries$"):
        KroneckerPrecision((np.array([[2 + 1j, 0], [0, 1]], dtype=object),))
    for f in ([["1", "0"], ["0", "1"]], np.eye(2, dtype=bool)):
        with pytest.raises(ValueError, match="^factor 1 must be real, got (<U1|bool) entries$"):
            KroneckerPrecision((f,))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^factor 1 contains non-finite entries$"):
            KroneckerPrecision((np.array([[bad, 0], [0, 1.0]]),))
    with pytest.raises(ShapeMismatch, match=r"^factor 2 is not a square matrix: shape \(0, 0\)$"):
        KroneckerPrecision((np.eye(2), np.zeros((0, 0))))
    p = KroneckerPrecision(([[2, 0], [0, 1]], np.array([[1, 0.5], [0.5, 1]], dtype=object)))
    assert [f.tolist() for f in p.factors] == [[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]]


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


def test_flip_flop_step_index_range():
    s = sample_standard((2, 3), 1, seed=0)
    p = KroneckerPrecision.identity((2, 3))
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"factor position must be in 1..2, got {i}"):
            flip_flop_step(s, p, i)


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
    # a bool or a string is no tol: True was read as 1.0, '1e-3' a bare TypeError
    for tol in (math.inf, math.nan, True, np.True_, "1e-3", None):
        with pytest.raises(ValueError):
            fit_mle(s, tol=tol)
        with pytest.raises(ValueError):
            verify_samples(s, tol=tol)
        with pytest.raises(ValueError):
            verify_datum(Datum((2, 2), 2), tol=tol)
    for bound in (math.nan, 0.0, -1.0, True, np.True_, "1e-3"):
        with pytest.raises(ValueError):
            fit_mle(s, divergence_bound=bound)
    assert fit_mle(s, tol=np.float64(1e-3), divergence_bound=np.int64(10**6)).status is FitStatus.CONVERGED
    with pytest.raises(ShapeMismatch):
        fit_mle(s, init=KroneckerPrecision.identity((2, 3)))


_S, _P = sample_standard((2, 3), 2, seed=1), KroneckerPrecision.identity((2, 3))
_POSITION = ("factor position must be in 1..2, got {!r}", "factor position must be in 1..2, got 3", 3)
_SEED = ("seed must be an integer, got {!r}", "seed must be >= 0, got -1", -1)


@pytest.mark.parametrize("call, error, refused, out_of_range, bad", [
    (lambda v: KroneckerPrecision.identity((v, 3)).dims, ShapeMismatch,
     "dimensions must be integers, got ({!r}, 3)", "dimensions must be >= 1, got (0, 3)", 0),
    (lambda v: fit_mle(_S, max_iter=v).iterations, ValueError,
     "max_iter must be an integer, got {!r}", "max_iter must be >= 0, got -1", -1),
    (lambda v: verify_datum(Datum((2, 2), 2), trials=1, restarts=2, threads=v), ValueError,
     "threads must be an integer, got {!r}", "threads must be >= 1, got 0", 0),
    (lambda v: mode_statistic(_S, _P, v).tolist(), ValueError, *_POSITION),
    (lambda v: flip_flop_step(_S, _P, v).factors[1].tolist(), ValueError, *_POSITION),
    (lambda v: index_of_factor(Datum((2, 3), 1), v), InvalidDatum, *_POSITION),
    (lambda v: sample_standard((2, 3), 1, seed=v).data.tolist(), ValueError, *_SEED),
    (lambda v: sample_from_model(_P, 1, seed=v).data.tolist(), ValueError, *_SEED),
], ids=["identity", "max_iter", "threads", "mode_statistic", "flip_flop_step", "index_of_factor",
        "sample_standard", "sample_from_model"])
def test_gated_entry_points_take_integral_values_only(call, error, refused, out_of_range, bad):
    # each truncated 2.5, read True as 1 or ended in a bare TypeError (numpy's,
    # for a seed) before its value went through datum._count or datum._shape
    assert call(2.0) == call(np.int64(2)) == call(2)
    for v in (True, np.True_, 2.5, "2"):
        with pytest.raises(error) as exc:
            call(v)
        assert type(exc.value) is error and str(exc.value) == refused.format(v)
    with pytest.raises(error) as exc:
        call(bad)
    assert type(exc.value) is error and str(exc.value) == out_of_range


def test_sample_seeds_draw_as_numpy_draws():
    # a seed that is no bool, number or string goes to numpy as it is, so
    # the trials' [seed, 101, trial] lists, tuples and SeedSequences draw as
    # they did, and a Generator is drawn from; an integral number draws as
    # its int
    for seed, same in [(7, 7), (np.int64(7), 7), (7.0, 7), ([0, 101, 0], [0, 101, 0]),
                       ((0, 101, 0), [0, 101, 0]), (np.random.SeedSequence(7), 7)]:
        want = np.random.default_rng(same).standard_normal(6)
        assert np.array_equal(sample_standard((2, 3), 1, seed=seed).data, want)
        assert np.array_equal(sample_from_model(_P, 1, seed=seed).data, want)
    gen = np.random.default_rng(7)
    got = [sample_standard((2, 3), 1, seed=gen).data, sample_from_model(_P, 1, seed=gen).data]
    assert np.array_equal(np.concatenate(got), np.random.default_rng(7).standard_normal(12))


def test_factors_are_formed_only_where_a_caller_receives_them(monkeypatch):
    # the solver loops take roots and return roots: a verify trial of
    # (3,3;3) builds no KroneckerPrecision, and fit_mle builds exactly one,
    # for its report, when it converges or stops at max_iter
    built, post_init = [], KroneckerPrecision.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    s = sample_standard((3, 3), 3, seed=0)
    init = KroneckerPrecision.identity(s.dims)
    monkeypatch.setattr(KroneckerPrecision, "__post_init__", counted)
    assert verify_samples(s, restarts=4, seed=0).trials[0].all_converged and built == []
    for max_iter, status in ((DEFAULT_MAX_SWEEPS, FitStatus.CONVERGED), (2, FitStatus.MAX_ITERATIONS)):
        rep = fit_mle(s, init, max_iter=max_iter)
        assert rep.status is status and built == [rep.factors]
        built.clear()


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
    `mats`, as verify runs a trial: (FitReports, the roots each fit ended at
    or None, refined roots or None, refinement iterations), one entry per
    restart."""
    data = _Unfoldings(samples.tensors())
    fits, ends = _fit(data, _roots(mats), tol, DEFAULT_MAX_SWEEPS)
    return (fits, ends, *_refine(data, fits, ends))


def trial_factors(roots):
    """The gauge-fixed factors Psi_i = T_i^T T_i that _run_trial compares,
    formed as it forms them from the refined roots of solve_trial: one
    stack per factor, gauge-fixed together.  One list per restart, None
    where its roots are None."""
    conv = [ts for ts in roots if ts is not None]
    if not conv:
        return list(roots)
    rows = zip(*_gauge_fix([np.stack([t.T @ t for t in ts]) for ts in zip(*conv)]))
    return [None if ts is None else list(next(rows)) for ts in roots]


def _same_report(a, b) -> bool:
    """Bitwise equal FitReports but for their factors (histories compared
    with NaN equal to NaN)."""
    return ((a.status, a.iterations, a.newton_steps) == (b.status, b.iterations, b.newton_steps)
            and np.array_equal(a.loglik_history, b.loglik_history, equal_nan=True))


def _kept(fit, roots) -> bool:
    """fit is a FitReport of _fit, which forms no factors, and roots its end
    roots: a list exactly where it converged or stopped at max_iter."""
    kept = fit.status in (FitStatus.CONVERGED, FitStatus.MAX_ITERATIONS)
    return fit.factors is None and (roots is not None) == kept


def _same_fit(a, ta, b, tb) -> bool:
    """Two restarts of _fit, each a FitReport and its end roots (see
    _kept), are bitwise the same fit: equal reports and equal roots."""
    if not (_same_report(a, b) and _kept(a, ta) and _kept(b, tb)):
        return False
    return ta is None or all(np.array_equal(x, y) for x, y in zip(ta, tb))


def _is_fit_mle(a, ta, rep) -> bool:
    """A restart of _fit, its FitReport a and end roots ta (see _kept), is
    bitwise fit_mle's report rep: equal reports, and rep's factors are the
    T^T T of ta (None where a keeps no roots)."""
    if not (_same_report(a, rep) and _kept(a, ta)):
        return False
    if ta is None:
        return rep.factors is None
    return rep.factors is not None and all(
        np.array_equal(t.T @ t, f) for t, f in zip(ta, rep.factors.factors))


@pytest.mark.parametrize("dims,m", [
    ((3, 3), 3), ((2, 5, 5), 1), ((4, 4, 4), 1), ((8, 8, 8), 1), ((64, 64), 3), ((2, 2, 8), 1),
    ((2, 2, 3, 3), 1),
])
def test_stacked_restarts_equal_solo_fits(dims, m):
    # a restart's result does not depend on which restarts share its stack:
    # where any restart converges, the fits end at different iterations, so
    # the fit stack shrinks under the restarts still fitting, and the
    # refinement stack holds fits that ended at different iterations.
    # Each restart's FitReport, end roots, refined roots and refinement
    # count are bitwise those of the same restart run alone, and its fit is
    # fit_mle's: the same report, with factors T^T T of those end roots
    samples = sample_standard(dims, m, seed=[0, 101, 0])
    inits = _restart_inits(dims, 4, (0, 202, 0))
    fits, ends, refined, counts = solve_trial(samples, [a.copy() for a in inits])
    if any(f.status is FitStatus.CONVERGED for f in fits):
        assert len({f.iterations for f in fits}) > 1
    for r, fit in enumerate(fits):
        (solo,), (end,), (alone,), (n,) = solve_trial(samples, [a[r:r + 1].copy() for a in inits])
        assert _same_fit(fit, ends[r], solo, end)
        rep = fit_mle(samples, KroneckerPrecision(tuple(a[r] for a in inits)))
        assert _is_fit_mle(fit, ends[r], rep)
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
            fits, ends, refined, counts = solve_trial(s, mats)
            solos = [fit_mle(s, KroneckerPrecision(tuple(a[r] for a in inits))) for r in range(6)]
            alone = [solve_trial(s, [a[r:r + 1].copy() for a in inits]) for r in range(6)]
        assert [f.status for f in fits] == [
            FitStatus.CONVERGED, FitStatus.DIVERGED, FitStatus.CONVERGED,
            FitStatus.DEGENERATE_STATISTIC, FitStatus.CONVERGED, FitStatus.DEGENERATE_STATISTIC,
        ]
        assert fits[5].iterations == 1
        for fit, end, solo in zip(fits, ends, solos):
            assert _is_fit_mle(fit, end, solo)
        for r, ((fit,), (end,), (one,), (n,)) in enumerate(alone):
            assert _same_fit(fits[r], ends[r], fit, end)
            assert counts[r] == n and (refined[r] is one is None) == (ends[r] is None)
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
    new, lost, cond, ridged, logdet, rest = _cholesky_route(s.copy(), 2 * d)
    e_new, e_lost, e_cond, e_ridged, e_logdet = _eigh_route(s.copy(), 2 * d)
    new, e_new = new.transpose(0, 2, 1) @ new, e_new.transpose(0, 2, 1) @ e_new
    assert not len(rest)
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


@pytest.mark.parametrize("r", [1, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 64])
def test_lapack_helpers_are_numpy_linalg_bitwise(d, r):
    # _eigh_route, _cholesky and _tri_inv's base case make the gufunc call
    # numpy.linalg's eigh, cholesky and inv make, so on a stack of positive
    # definite matrices and their Cholesky factors, contiguous and as a
    # strided view, every result is bitwise numpy's
    rng = np.random.default_rng(d)
    a = rng.standard_normal((r, d, 2 * d))
    s = a @ a.transpose(0, 2, 1)
    for x, y in zip(tnm.mle._umath_linalg.eigh_lo(s), np.linalg.eigh(s)):
        assert np.array_equal(x, y)
    low = _cholesky(s)
    assert np.array_equal(low, np.linalg.cholesky(s))
    if d <= _TRI_INV_BASE:
        for x in (low, low[:, ::-1, ::-1].swapaxes(1, 2)):
            assert np.array_equal(_tri_inv(x), np.linalg.inv(x))


def test_lapack_helpers_raise_where_numpy_does(monkeypatch):
    # a stack with one indefinite row has no Cholesky factorization, for
    # _cholesky as for numpy: _cholesky, which converts factors in and out of
    # the kernel, is the one helper that raises.  The Cholesky route reads the
    # failure off that row, in one call: it names the row, and takes the
    # other rows bitwise as it takes them without it.  A singular row of
    # _tri_inv comes back NaN, the others as they do alone
    rng = np.random.default_rng(3)
    for d in (4, 8, 17):
        a = rng.standard_normal((3, d, 2 * d))
        s = a @ a.transpose(0, 2, 1)
        s[1, 0, 0] = -1.0
        with np.errstate(all="ignore"):  # the solver loops quiet the failed factorizations
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(s)
            with pytest.raises(np.linalg.LinAlgError, match="Matrix is not positive definite"):
                _cholesky(s)
            *got, rest = _cholesky_route(s.copy(), 2 * d)
            *want, none = _cholesky_route(s[[0, 2]].copy(), 2 * d)
            low = _cholesky(s[[0, 2]])
            low = np.stack([low[0], np.tril(np.ones((d, d))) - np.eye(d), low[1]])
            inv = _tri_inv(low)
        assert rest.tolist() == [1] and not len(none)
        for x, y in zip(got, want):
            assert np.array_equal(x[[0, 2]], y)
        assert np.isnan(inv[1]).any() and np.array_equal(inv[[0, 2]], _tri_inv(low[[0, 2]]))
    # LAPACK's eigh fails on no finite input, so an eigh failure is staged: an
    # eigh_lo that marks the second item of a 3-row stack failed, as the
    # gufunc marks one (NaN in every entry of w and v).  The block update
    # raises nothing: that row is lost, its new root I, and its neighbours
    # come out bitwise as they do alone, in _eigh_route and in one _sweep of
    # (3,4;2), whose blocks both take the eigh route.  flip_flop_step, whose
    # one row fails, raises DegenerateStatistic
    lapack = tnm.mle._umath_linalg

    def staged(fail):
        def eigh_lo(x):
            w, v = lapack.eigh_lo(x)
            w[fail(len(x))] = v[fail(len(x))] = np.nan
            return w, v
        return types.SimpleNamespace(eigh_lo=eigh_lo, cholesky_lo=lapack.cholesky_lo, inv=lapack.inv)

    a = rng.standard_normal((3, 4, 8))
    s = a @ a.transpose(0, 2, 1)
    samples = sample_standard((3, 4), 2, seed=[0, 101, 0])
    data = _Unfoldings(samples.tensors())
    inits = _roots(_restart_inits((3, 4), 3, (0, 202, 0)))
    with np.errstate(all="ignore"):
        alone = [_eigh_route(s[[r]].copy(), 8) for r in (0, 2)]
        solo = []
        for r in (0, 2):
            mats = [x[[r]] for x in inits]
            solo.append((_sweep(data, mats), mats))
        monkeypatch.setattr(tnm.mle, "_umath_linalg", staged(lambda r: [1] if r == 3 else []))
        new, lost, cond, ridged, logdet = _eigh_route(s.copy(), 8)
        mats = [x.copy() for x in inits]
        swept = _sweep(data, mats)
    assert lost.tolist() == [False, True, False] and not ridged.any()
    assert np.array_equal(new[1], np.eye(4)) and cond[1] == 1.0
    for p, want in zip((0, 2), alone):
        for x, y in zip((new, lost, cond, ridged, logdet), want):
            assert np.array_equal(x[p], y[0])
    assert swept[0].tolist() == [False, True, False]
    assert all(np.array_equal(x[1], np.eye(len(x[1]))) for x in mats)
    for p, ((lost_p, cond_p, ridged_p, logdets_p, _), roots) in zip((0, 2), solo):
        assert not lost_p[0] and cond_p[0] == swept[1][p] and ridged_p[0] == swept[2][p]
        assert all(x[p] == y[0] for x, y in zip(swept[3], logdets_p))
        assert all(np.array_equal(x[p], y[0]) for x, y in zip(mats, roots))
    monkeypatch.setattr(tnm.mle, "_umath_linalg", staged(lambda r: slice(None)))
    with pytest.raises(DegenerateStatistic):
        flip_flop_step(samples, KroneckerPrecision.identity((3, 4)), 1)


def test_numpy_has_the_gufuncs_the_lapack_helpers_call():
    # numpy.linalg._umath_linalg is private: the kernel relies on eigh_lo,
    # cholesky_lo and inv being there, as in numpy 1.24 (the declared floor)
    # and since, and on a failed item coming back NaN in every entry with
    # numpy's invalid flag set, while the item beside it comes out as it
    # does alone.  cholesky_lo and inv fail on every indefinite or singular
    # input.  eigh_lo fails on no finite input; on a non-finite one (a
    # Newton direction that is not finite) its result is not finite, and
    # the items beside it come out as they do alone
    lapack = tnm.mle._umath_linalg
    good = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    for x, y in zip(lapack.eigh_lo(good[None]), np.linalg.eigh(good[None])):
        assert np.array_equal(x, y)
    for name, bad in [("cholesky_lo", -good), ("inv", np.zeros((3, 3)))]:
        gufunc = getattr(lapack, name)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                gufunc(np.stack([good, bad]))
        with np.errstate(invalid="ignore"):
            got = gufunc(np.stack([good, bad]))
        assert np.isnan(got[1]).all() and np.array_equal(got[:1], gufunc(good[None]))
    for d in (2, 3):
        for value, pos in [(np.nan, (0, 0)), (np.nan, (0, 1)), (np.inf, (1, 1)), (-np.inf, (1, 0))]:
            bad = good[:d, :d].copy()
            bad[pos] = bad[pos[::-1]] = value
            with np.errstate(all="ignore"):
                got = lapack.eigh_lo(np.stack([good[:d, :d], bad, 2.0 * good[:d, :d]]))
                alone = [lapack.eigh_lo(x[None, :d, :d]) for x in (good, 2.0 * good)]
            for x, y, z in zip(got, *alone):
                assert np.array_equal(x[0], y[0]) and np.array_equal(x[2], z[0])
            assert not all(np.isfinite(x[1]).all() for x in got)


def test_verify_calls_no_numpy_linalg_wrapper(monkeypatch, capsys):
    # the solver reaches LAPACK only through the gufuncs of
    # numpy.linalg._umath_linalg (_cholesky, _eigh_route, _cholesky_route,
    # _tri_inv and _newton call them): a verify run on each datum of the
    # benchmark's verify_panel calls none of numpy.linalg's eigh, cholesky
    # and inv
    calls = []
    for name in ("eigh", "cholesky", "inv"):
        def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    for dims, m in [((3, 3), 3), ((2, 5, 5), 1), ((3, 3), 2), ((2, 2, 8), 1), ((4, 4, 4), 1), ((8, 8, 8), 1)]:
        argv = ["verify", "--dims", ",".join(map(str, dims)), "--samples", str(m), "--trials", "1",
                "--restarts", "4", "--threads", "1", "--format", "json", "--seed", "0"]
        assert tnm.cli.main(argv) == 0
    capsys.readouterr()
    assert calls == []


def test_block_update_decisions_come_from_eigenvalues():
    # d = 8 statistics: two well-conditioned ones (g, h), one with condition
    # number 1e13 (c), an indefinite one (i) and a vanishing one (z), stacked
    # with the rows the Cholesky route cannot take last, first and last, and
    # everywhere.  The route names exactly c, i and z.  Their lost, ridged
    # and divergence flags are the eigh route's, and their outputs bitwise
    # the eigh route's on the whole stack; every other row is bitwise the
    # Cholesky route's and its update alone
    d, scale = 8, 16
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    a, b = rng.standard_normal((2, d, 2 * d))
    g, h = a @ a.T, b @ b.T
    c, i = (q * np.logspace(0, -13, d)) @ q.T, (q * np.r_[np.ones(d - 1), -1.0]) @ q.T
    named = dict(g=g, h=h, c=c, i=i, z=np.zeros((d, d)))
    lost, ridged = {"c": False, "i": False, "z": True}, {"c": True, "i": True, "z": False}  # ridged diverge
    for rows in ("gciz", "ighz", "ciz"):
        s = np.stack([named[x] for x in rows])
        with np.errstate(all="ignore"):  # the solver loops quiet the failed factorizations
            *chol, rest = _cholesky_route(s.copy(), scale)
            got = _maximizer(s.copy(), scale)
            want = _eigh_route(s.copy(), scale)
            alone = [_maximizer(s[[p]].copy(), scale) for p in range(len(s))]
        failed = [p for p, x in enumerate(rows) if x in "ciz"]
        assert rest.tolist() == failed
        assert got[1][failed].tolist() == want[1][failed].tolist() == [lost[rows[p]] for p in failed]
        assert got[3][failed].tolist() == want[3][failed].tolist() == [ridged[rows[p]] for p in failed]
        assert (got[2][failed] > CONDITION_LIMIT).tolist() == [ridged[rows[p]] for p in failed]
        for p in range(len(s)):
            for x, y, one in zip(got, want if p in failed else chol, alone[p]):
                assert np.array_equal(x[p], y[p]) and np.array_equal(x[p], one[0])


def test_low_rank_statistic_skips_cholesky(monkeypatch):
    # the d = 128 block of (2,16,128;1) has a statistic of rank at most
    # m*n/d = 32, so its update goes straight to the eigendecomposition; the
    # d = 16 block (rank up to 256) still tries Cholesky.  The attempt it
    # skips would have taken no row, so the update is bitwise the same
    dims, seen = (2, 16, 128), []
    cholesky_route = tnm.mle._cholesky_route

    def spy(s, scale):
        seen.append(s.shape[-1])
        return cholesky_route(s, scale)

    samples = sample_standard(dims, 1, seed=[0, 101, 0])
    data = _Unfoldings(samples.tensors())
    mats = _restart_inits(dims, 4, (0, 202, 0))
    monkeypatch.setattr(tnm.mle, "_cholesky_route", spy)
    with np.errstate(all="ignore"):  # the solver loops quiet the failed factorizations
        _sweep(data, mats)
        assert seen == [16]
        monkeypatch.undo()
        s, scale = _statistic(data, mats, 2), samples.n // 128
        *_, rest = _cholesky_route(s.copy(), scale)
        assert rest.tolist() == [0, 1, 2, 3]
        want = _eigh_route(s.copy(), scale)
        got = _maximizer(s.copy(), scale)
    for x, y in zip(got, want):
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


@pytest.mark.parametrize("dims,m", PANEL)
def test_stacked_kernel_matches_sequential_oracle(dims, m):
    # the batched kernel against the one-restart-at-a-time solver with an
    # explicit log-likelihood every sweep, and its refinement against the
    # one-restart refinement, both with the kernel's one Newton-CG stop
    # rule (the forcing term); diverged log-likelihoods are only where the
    # runaway tripped, so they are not compared.  The refined factors also
    # stay within the uniqueness tolerance of the old parameter-change
    # polish (at its 2000-sweep cap on (3,3;2) seed 2), score at least the
    # fit's log-likelihood (every refinement step raises it; a fit that took
    # Newton steps already ends at the maximum, where the two agree to the
    # rounding of their evaluation), and meet the stop: their moment-map
    # norm, recomputed independently, is below 1e-10 up to its rounding.
    # The refined factors are those _run_trial forms from the refined roots:
    # their gaps are bitwise the trial's factor spreads.  Trial seeds 0..7
    # are every panel trial the benchmark runs
    scales = [m * math.prod(dims) // d for d in dims]
    for seed in range(8):
        samples = sample_standard(dims, m, seed=[seed, 101, 0])
        inits = _restart_inits(dims, 4, (seed, 202, 0))
        fits, _, roots, counts = solve_trial(samples, [a.copy() for a in inits])
        polished = trial_factors(roots)
        t = verify_samples(samples, restarts=4, seed=seed).trials[0]
        want = _factor_gaps([f for f in polished if f is not None])
        assert (t.factor_spread_rel, t.factor_spread_abs) == want
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


def test_refined_roots_meet_the_stop_exactly():
    # every refined restart of (10,20;2) at trial seeds 0 and 5 and of the
    # panel at seed 0 ends below the stop, with the moment-map norm taken in
    # exact rational arithmetic at the roots _refine returns ((2,2,8;1)
    # diverges, so 28 restarts).  The closest, (3,3;3) restart 3, reads
    # 9.75e-11, 2.5 % below it; on (10,20;2), seed 5 restart 2 reads 8.55e-11
    refined = 0
    for dims, m, seed in [((10, 20), 2, 0), ((10, 20), 2, 5), *((d, m, 0) for d, m in PANEL)]:
        samples = sample_standard(dims, m, seed=[seed, 101, 0])
        _, _, roots, _ = solve_trial(samples, _restart_inits(dims, 4, (seed, 202, 0)))
        for ts in filter(None, roots):
            refined += 1
            assert exact_moment_norm(samples, ts) < _MOMENT_TOL
    assert refined == 28


@pytest.mark.parametrize("dims,m", PANEL)
def test_fit_tails_end_in_newton_steps(dims, m):
    # plain flip-flop took up to 1476 sweeps on these trials ((3,3;2) seed 2,
    # and 1160 on (2,5,5;1) seed 4); once its contraction stalls a restart
    # takes Newton steps, so no fit needs more than 200 iterations, and the
    # log-likelihood still never falls
    for seed in range(8):
        samples = sample_standard(dims, m, seed=[seed, 101, 0])
        fits, _, _, _ = solve_trial(samples, _restart_inits(dims, 4, (seed, 202, 0)))
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
    # a row whose Newton direction is not finite (NaN in one, inf in
    # another) takes no step and keeps its roots, also where LAPACK would
    # return a finite eigendecomposition for it (staged by zeroing the
    # non-finite entries first); every other row of the same _newton call is
    # bitwise what a call without those rows gives, on (3,3;2) and (2,5,5;1)
    # with the Hessian assembled and on (8,8,8;1) with the matrix-free
    # product.  A direction that is never finite is never taken and no
    # exception leaves the trial: it leaves plain flip-flop, with its slow
    # tail where the fits took Newton steps ((3,3;2) seed 2), and refinement
    # by sweeps that end at the stop or at the cap, with its one warning.
    # On (3,3;3) seed 0 only refinement takes Newton steps
    direction, lapack = tnm.mle._newton_direction, tnm.mle._umath_linalg
    finite = types.SimpleNamespace(eigh_lo=lambda v: lapack.eigh_lo(np.nan_to_num(v, posinf=0.0)))

    def broken(*args):
        vs = direction(*args)
        vs[0][1, 0, -1] = np.nan
        vs[-1][3, 0, 0] = np.inf
        return vs

    for dims, m in [((3, 3), 2), ((2, 5, 5), 1), ((8, 8, 8), 1)]:
        data = _Unfoldings(sample_standard(dims, m, seed=[0, 101, 0]).tensors())
        inits = _roots(_restart_inits(dims, 4, (0, 202, 0)))
        rest = [a[[0, 2]] for a in inits]
        want_norm, want_stepped = _newton(data, rest)
        assert want_stepped.all()
        for eigh in (lapack, finite):
            mats = [a.copy() for a in inits]
            with monkeypatch.context() as patch:
                patch.setattr(tnm.mle, "_newton_direction", broken)
                patch.setattr(tnm.mle, "_umath_linalg", eigh)
                norm, stepped = _newton(data, mats)
            assert stepped.tolist() == [True, False, True, False]
            assert np.array_equal(norm[[0, 2]], want_norm)
            for a, b, c in zip(mats, inits, rest):
                assert np.array_equal(a[[1, 3]], b[[1, 3]]) and np.array_equal(a[[0, 2]], c)

    def never(data, zs, grams, res, eta):
        return [np.full((len(res), d, d), np.nan) for d in data.dims]

    for dims, m, seed, tail in [((3, 3), 2, 2, True), ((3, 3), 3, 0, False)]:
        s = sample_standard(dims, m, seed=[seed, 101, 0])
        want, _, _, _ = solve_trial(s, _restart_inits(dims, 4, (seed, 202, 0)))
        assert all(f.status is FitStatus.CONVERGED for f in want)
        assert all(bool(f.newton_steps) is tail for f in want)
        caplog.clear()
        with monkeypatch.context() as patch, caplog.at_level(logging.WARNING, logger="tnm.mle"):
            patch.setattr(tnm.mle, "_newton_direction", never)
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

    def counted_newton(data, mats, *args):
        newtons.append(len(mats[0]))
        return newton(data, mats, *args)

    def counted_sweep(data, mats, moment=False):
        sweeps.append(moment)
        return sweep(data, mats, moment)

    with monkeypatch.context() as patch:
        patch.setattr(tnm.mle, "_newton", counted_newton)
        patch.setattr(tnm.mle, "_sweep", counted_sweep)
        trial, = verify_datum(Datum(dims, m), trials=1, restarts=4, seed=seed, threads=1).trials
    return newtons, sweeps, trial


@pytest.mark.parametrize("dims,m,seed,want", [
    ((3, 3), 3, 0, ((2, 8), (48, 2))),
    ((2, 5, 5), 1, 4, ((8, 24), (33, 1))),
])
def test_waiting_rule_batches_kernel_calls(monkeypatch, dims, m, seed, want):
    # restarts end their fits at different iterations; a refining restart
    # due a Newton step waits for the others, so their steps share _newton
    # calls, and one trial makes these (calls, rows) of _newton and (calls,
    # moment calls) of _sweep.  Fitting rows no longer pay for moment norms:
    # the moment calls are the refinement's alone
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
    # stop by plain sweeps, at the same maximizer.  Both Hessian products
    # hold to this: the assembled one, which (3,3;3) takes, and the
    # matrix-free one, with no row assembled
    s = sample_standard((3, 3), 3, seed=[0, 101, 0])
    data = _Unfoldings(s.tensors())
    newton_direction = tnm.mle._newton_direction
    for entries in (tnm.mle._HESSIAN_ROW_ENTRIES, 0):
        monkeypatch.setattr(tnm.mle, "_HESSIAN_ROW_ENTRIES", entries)
        mats = _restart_inits((3, 3), 4, (0, 202, 0))
        for _ in range(3):
            before = _loglik(data, mats)
            norm, stepped = _newton(data, mats)
            assert stepped.all() and np.all(_loglik(data, mats) > before)
        _, _, want, _ = solve_trial(s, _restart_inits((3, 3), 4, (0, 202, 0)))
        with monkeypatch.context() as patch:
            patch.setattr(tnm.mle, "_newton_direction", lambda *a: [-v for v in newton_direction(*a)])
            kept = [a.copy() for a in mats]
            norm, stepped = _newton(data, mats)
            assert not stepped.any()
            assert all(np.array_equal(a, b) for a, b in zip(mats, kept))
            fits, _, got, counts = solve_trial(s, _restart_inits((3, 3), 4, (0, 202, 0)))
        assert all(f.status is FitStatus.CONVERGED for f in fits)
        assert max(counts) < _REFINE_MAX_ITER
        for g, w in zip(trial_factors(got), trial_factors(want)):
            for a, b in zip(g, w):
                assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def _direction_inputs(dims, m, r):
    """The data, whitened samples, flat Grams and flat -grad of _newton's
    direction at the starting roots of trial seed 0's first r restarts."""
    data = _Unfoldings(sample_standard(dims, m, seed=[0, 101, 0]).tensors())
    zs = _per_block(data, _whiten(data, _roots(_restart_inits(dims, r, (0, 202, 0)))))
    grams = np.concatenate([g.reshape(r, -1) for g in _grams(zs)], axis=1)
    res = grams.copy()
    for g, d in zip(_blocks(res, dims), dims):
        g[:, range(d), range(d)] -= data.m * data.n // d
    return data, zs, grams, -0.5 * res


@pytest.mark.parametrize("dims,m", [
    ((5,), 3), ((2, 3), 2), ((2, 5, 5), 1), ((4, 4, 4), 1), ((2, 3, 2, 2), 1),
])
def test_assembled_hessian_matches_the_product(dims, m):
    # the Hessian assembled once per Newton step is symmetric and, applied
    # to random symmetric directions, gives the per-pair oracle's product to
    # rounding (largest relative gap measured: 9.0e-16, on (4,4,4;1));
    # assembled for a subset of the rows, each row is bitwise the same
    rng = np.random.default_rng(len(dims))
    data, zs, grams, _ = _direction_inputs(dims, m, 3)
    roots = _roots(_restart_inits(dims, 3, (0, 202, 0)))
    a = _assembled_hessian(data, zs, grams).copy()
    assert np.array_equal(a, a.transpose(0, 2, 1))
    assert np.array_equal(_assembled_hessian(data, [z[[2, 0]] for z in zs], grams[[2, 0]]), a[[2, 0]])
    tens = sample_standard(dims, m, seed=[0, 101, 0]).tensors()
    for r in range(3):
        z, want = whitened_grams(tens, [t[r].T for t in roots])
        vs = [x + x.T for x in (rng.standard_normal((d, d)) for d in dims)]
        got = _blocks((a[r] @ np.concatenate([v.ravel() for v in vs]))[None], dims)
        for x, y in zip(got, hessian_product(z, want, vs)):
            assert np.abs(x[0] - y).max() <= 1e-14 * np.abs(y).max()


def test_newton_direction_takes_one_product_per_row_size(monkeypatch):
    # a row of P = sum d_i^2 entries has its Hessian assembled when P^2 is
    # at most _HESSIAN_ROW_ENTRIES ((4,4,4;1), 2,304), in groups of rows of
    # at most _HESSIAN_STACK_ENTRIES entries; (8,8,8;1) rows (P^2 = 36,864)
    # take the matrix-free product, and nothing is assembled.  Either way a
    # row's direction is bitwise what it is alone.  Each product's
    # directions meet the relative residual 1e-2, and they agree up to the
    # rounding that CG amplifies at these starting points
    calls = []

    def spy(name):
        product = getattr(tnm.mle, name)

        def counted(data, zs, *args):
            calls.append((name, len(zs[0])))
            return product(data, zs, *args)
        return counted

    for name in ("_assembled_hessian", "_hessian_product"):
        monkeypatch.setattr(tnm.mle, name, spy(name))

    def direction(data, zs, grams, res, rows):
        args = [z[rows] for z in zs], grams[rows], res[rows].copy(), np.full(len(rows), 1e-2)
        vs = tnm.mle._newton_direction(data, *args)
        return np.concatenate([v.reshape(len(rows), -1) for v in vs], axis=1)

    for dims, path in [((4, 4, 4), "_assembled_hessian"), ((8, 8, 8), "_hessian_product")]:
        data, zs, grams, res = _direction_inputs(dims, 1, 4)
        monkeypatch.setattr(tnm.mle, "_HESSIAN_STACK_ENTRIES", 2 * grams.shape[1] ** 2)
        calls.clear()
        stack = direction(data, zs, grams, res, [0, 1, 2, 3])
        if path == "_assembled_hessian":
            assert calls == [(path, 2), (path, 2)]  # two groups of two rows
        else:
            assert calls and set(calls) == {(path, 4)}
        for r in range(4):
            assert np.array_equal(direction(data, zs, grams, res, [r])[0], stack[r])
        with monkeypatch.context() as patch:
            patch.setattr(tnm.mle, "_HESSIAN_ROW_ENTRIES", 0 if path == "_assembled_hessian" else 1 << 40)
            other = direction(data, zs, grams, res, [0, 1, 2, 3])
        a = _assembled_hessian(data, zs, grams)
        for x in (stack, other):
            gap = np.linalg.norm(np.einsum("rij,rj->ri", a, x) - res, axis=1)
            assert np.all(gap <= 1e-2 * np.linalg.norm(res, axis=1))
        assert np.abs(other - stack).max() <= 1e-5 * np.abs(stack).max()  # 3.5e-7 measured


def test_polish_restart_that_loses_its_scale_keeps_its_input(monkeypatch):
    # a restart whose block-1 statistic vanishes in its first refinement
    # sweep (its second root is set so small, as the sweep starts, that
    # S_1 underflows to 0) leaves after one iteration with the roots its
    # fit ended at, bitwise; its fit and the restarts beside it are bitwise
    # as before.  The sweep finds the restart by those roots
    base = sample_standard((3, 3), 3, seed=[0, 101, 0])
    s = SampleSet(base.dims, base.m, 1e-20 * base.data)
    inits = _restart_inits((3, 3), 4, (0, 202, 0))
    fits, ends, refined, counts = solve_trial(s, [a.copy() for a in inits])
    assert all(f.status is FitStatus.CONVERGED for f in fits)
    sweep = tnm.mle._sweep

    def poisoned(data, mats, moment=False):
        for r in range(len(mats[0])):
            if all(np.array_equal(a[r], t) for a, t in zip(mats, ends[2])):
                mats[1][r] = 1e-290 * np.eye(3)
        return sweep(data, mats, moment)

    monkeypatch.setattr(tnm.mle, "_sweep", poisoned)
    got_fits, got_ends, got, got_counts = solve_trial(s, [a.copy() for a in inits])
    assert all(map(_same_fit, got_fits, got_ends, fits, ends))
    assert got_counts[2] == 1
    assert all(np.array_equal(x, y) for x, y in zip(got[2], ends[2]))
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
    # the declared floor is numpy 1.24: its numpy.linalg._umath_linalg has
    # eigh_lo, cholesky_lo and inv, each taking the matrix alone, but no
    # cholesky_up (numpy 2.0, behind cholesky's `upper` keyword); every
    # public solver path runs with only those gufuncs, and a root T is upper
    # triangular with T^T T = Psi
    lapack = tnm.mle._umath_linalg
    numpy_1 = types.SimpleNamespace(eigh_lo=lambda a: lapack.eigh_lo(a),
                                    cholesky_lo=lambda a: lapack.cholesky_lo(a),
                                    inv=lambda a: lapack.inv(a))
    monkeypatch.setattr(tnm.mle, "_umath_linalg", numpy_1)
    p = random_precision((3, 4), seed=1)
    for (t,), f in zip(_roots([f[None] for f in p.factors]), p.factors):
        assert np.array_equal(t, np.triu(t))
        assert np.linalg.norm(t.T @ t - f) <= 1e-13 * np.linalg.norm(f)
    s = sample_standard((3, 4), 2, seed=3)
    log_likelihood(s, p)
    mode_statistic(s, p, 1)
    flip_flop_step(s, p, 2)
    assert fit_mle(s, p).status is FitStatus.CONVERGED
    gauge_fix(p)
    assert verify_datum(Datum((3, 4), 2), trials=1, restarts=2, seed=0, threads=1).trials[0].all_converged
    verify_datum(Datum((8, 8), 2), trials=1, restarts=2, seed=0, threads=1)  # the Cholesky route and LAPACK inv


def test_verify_samples_smoke():
    s = sample_standard((3, 3), 3, seed=2)
    rep = verify_samples(s, restarts=3, seed=0)
    assert rep.datum == Datum((3, 3), 3)
    assert rep.hard_clauses_agree
    assert len(rep.trials) == 1


def test_castled_sample_gets_the_same_verdict():
    # castling acts on a sample through Gr(d_k, N) = Gr(N - d_k, N)
    # (oracles.castle_sample, which shares no code with the solver or the
    # classifier).  Its dims are castle_step's, castling back returns the
    # column span of the flattened sample, and at 4 restarts and seeds 0..3
    # each trial and its castle agree on all-converged against all-diverged
    # and on uniqueness (factor spread <= 1e-6 against > 1e-6).  The 130
    # castlable data of the threshold walk (N > d_k) are checked at seed 0
    def verdict(t):
        return t.all_converged, t.all_diverged, t.factor_spread_rel <= GAUGE_AGREEMENT_RTOL

    def span(x):
        q = np.linalg.qr(x.tensors().reshape(-1, x.dims[-1]))[0]
        return q @ q.T

    panel = [((3, 3), 3), ((2, 5, 5), 1), ((3, 3), 2), ((4, 4, 4), 1), ((8, 8, 8), 1),
             ((3, 5), 2), ((2, 3, 5), 1)]
    walk = [(dims, m) for dims, m in reference_ops.walk_data() if _castle_step(dims, m) is not None]
    assert len(walk) == 130
    for dims, m, seeds in [*((d, m, range(4)) for d, m in panel), *((d, m, [0]) for d, m in walk)]:
        for seed in seeds:
            s = sample_standard(dims, m, seed=seed)
            c = castle_sample(s)
            assert Datum(c.dims, c.m) == castle_step(Datum(dims, m))
            if seed == 0 and _castle_step(c.dims, m) == dims:
                assert np.abs(span(castle_sample(c)) - span(s)).max() <= 1e-12
            want, got = verify_samples(s, restarts=4, seed=seed), verify_samples(c, restarts=4, seed=seed)
            assert verdict(got.trials[0]) == verdict(want.trials[0]), (dims, m, seed)
            assert verdict(want.trials[0])[:2] != (False, False)


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
