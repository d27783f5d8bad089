"""Classifiers, thresholds, quotient dimensions: examples and cross-checks."""

import logging
import math
import random
from itertools import combinations_with_replacement

import tnm.datum

from tnm import (
    Datum,
    StabilityClass,
    big_r,
    castle_step,
    classify_closed_form,
    classify_recursive,
    delta,
    explain,
    g_max,
    git_dimension,
    index_of_factor,
    mle_profile,
    normalize,
    reduce_to_minimal,
    thresholds,
    z_quantity,
)

from oracles import grid, min_m_bounded_search, min_m_unique_search

UNSTABLE = StabilityClass.UNSTABLE
POLY = StabilityClass.POLYSTABLE_NOT_STABLE
STABLE = StabilityClass.STABLE


# ---------------------------------------------------------------------------
# the two classifiers


def test_closed_form_examples():
    assert classify_closed_form(Datum((2, 3), 1)) is UNSTABLE
    assert classify_closed_form(Datum((2, 3, 3), 1)) is POLY
    assert classify_closed_form(Datum((1,), 1)) is STABLE
    assert classify_closed_form(Datum((3, 3), 2)) is POLY
    assert classify_closed_form(Datum((3, 3), 3)) is STABLE
    assert classify_closed_form(Datum((2, 2, 3), 1)) is POLY


def test_recursive_examples():
    assert classify_recursive(Datum((2, 2, 3), 1)) is POLY
    assert classify_recursive(Datum((2,), 3)) is STABLE
    assert classify_recursive(Datum((3, 3, 9), 1)) is POLY
    assert classify_recursive(Datum((2, 5, 5), 1)) is POLY
    assert classify_recursive(Datum((5,), 3)) is UNSTABLE
    assert classify_recursive(Datum((4, 4), 2)) is POLY


def test_classifiers_agree_small_grid():
    for d in grid(3, 6, 4):
        assert classify_closed_form(d) is classify_recursive(d), d


def test_class_constant_along_castling_trace():
    for d in grid(3, 8, 3):
        cls = classify_closed_form(d)
        for step in reduce_to_minimal(d).steps:
            assert classify_closed_form(step) is cls


def test_monotone_in_sample_count():
    for d in grid(3, 6, 5):
        cur = classify_closed_form(d)
        nxt = classify_closed_form(Datum(d.dims, d.m + 1))
        if cur is STABLE:
            assert nxt is STABLE
        if cur is not UNSTABLE:
            assert nxt is not UNSTABLE


def test_regime_facts_on_grid():
    # with several samples and positive margin, the margin dominates g_max^2;
    # with one sample and positive margin, the excess is at least -2 and at
    # equality the dimensions share a common factor
    for d in grid(4, 8, 4):
        r = big_r(d)
        if r <= 0:
            continue
        if d.m >= 2:
            assert r >= g_max(d) ** 2, d
        if d.m == 1:
            assert delta(d) >= -2, d
            if delta(d) == -2:
                assert g_max(d) >= 2, d


# ---------------------------------------------------------------------------
# likelihood profile


def test_profile_examples():
    p = mle_profile(Datum((2, 3), 1))
    assert (p.bounded_as, p.exists_as, p.unique_as, p.always_unbounded) == (False, False, False, True)
    p = mle_profile(Datum((3, 3), 2))
    assert (p.bounded_as, p.exists_as, p.unique_as, p.always_unbounded) == (True, True, False, False)
    p = mle_profile(Datum((3, 3), 3))
    assert (p.bounded_as, p.exists_as, p.unique_as, p.always_unbounded) == (True, True, True, False)


def test_profile_implications():
    for d in grid(3, 6, 4):
        p = mle_profile(d)
        assert p.always_unbounded == (not p.bounded_as)
        if p.unique_as:
            assert p.exists_as
        if p.exists_as:
            assert p.bounded_as
        assert p.bounded_as == (big_r(d) >= 0)


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_examples():
    rep = thresholds((2, 2, 8))
    assert (rep.mlt_b, rep.mlt_e, rep.mlt_u, rep.cor_bounds) == (2, 2, 3, (2, 3))
    rep = thresholds((4, 4))
    assert (rep.mlt_b, rep.mlt_e, rep.mlt_u, rep.cor_bounds) == (1, 1, 3, None)
    rep = thresholds((1,))
    assert (rep.mlt_b, rep.mlt_e, rep.mlt_u, rep.cor_bounds) == (1, 1, 1, None)


def test_thresholds_match_linear_search():
    dims_pool = [(2,), (5,), (1, 4), (2, 2), (3, 4), (4, 4), (2, 2, 8), (2, 3, 5),
                 (2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (1, 2, 12), (6, 6), (2, 2, 7)]
    for dims in dims_pool:
        rep = thresholds(dims)
        assert rep.mlt_b == min_m_bounded_search(dims)
        assert rep.mlt_e == rep.mlt_b
        assert rep.mlt_u == min_m_unique_search(dims)


def test_threshold_ordering_and_bounds():
    for dims in combinations_with_replacement(range(1, 9), 3):
        rep = thresholds(dims)
        assert 1 <= rep.mlt_b == rep.mlt_e <= rep.mlt_u
        norm = normalize(Datum(dims, 1))
        if norm.k >= 3:
            assert rep.cor_bounds is not None
            low, high = rep.cor_bounds
            assert high == low + 1
            assert low <= rep.mlt_b and rep.mlt_u <= high
        else:
            assert rep.cor_bounds is None


# ---------------------------------------------------------------------------
# quotient dimension


def test_git_examples():
    assert git_dimension(Datum((2, 2, 2), 1)) == 0
    assert git_dimension(Datum((2, 5, 5), 1)) == 2
    assert git_dimension(Datum((3, 3), 2)) == 3
    assert git_dimension(Datum((2, 3), 2)) == 0
    assert git_dimension(Datum((2, 3), 1)) is None
    assert git_dimension(Datum((3, 4, 5), 1)) == 12


def test_git_empty_exactly_when_unstable():
    for d in grid(3, 7, 3):
        gd = git_dimension(d)
        if classify_closed_form(d) is UNSTABLE:
            assert gd is None
        else:
            assert gd is not None and gd >= 0


def test_git_castling_invariant():
    for d in grid(3, 8, 3):
        n = normalize(d)
        if n.m * math.prod(n.dims[:-1]) > n.dims[-1]:
            assert git_dimension(castle_step(d)) == git_dimension(d), d


# ---------------------------------------------------------------------------
# the dossier


def test_explain_composition():
    d = Datum((2, 2, 3), 1)
    rep = explain(d)
    assert rep.big_r == 0
    assert rep.stability is POLY
    assert rep.git_dimension == 0
    assert rep.normalized == Datum((2, 2, 3), 1)
    assert rep.trace.minimal == Datum((2, 2), 1)
    assert rep.classifiers_agree
    assert rep.thresholds == thresholds(d.dims)
    assert rep.profile == mle_profile(d)
    assert [str(x) for x in rep.indices] == ["3/2", "3/2", "2/3"]


def test_explain_trivial_datum_has_no_indices():
    rep = explain(Datum((1, 1), 3))
    assert rep.normalized == Datum((1,), 3)
    assert rep.indices == ()
    assert rep.stability is STABLE


def test_explain_agrees_everywhere_sampled(caplog):
    with caplog.at_level(logging.WARNING):
        for d in grid(3, 5, 3):
            rep = explain(d)
            assert rep.classifiers_agree
            assert rep.class_closed_form is rep.class_recursive
    assert not caplog.records


def _deep(rng, k, m, moves):
    """A datum reached from small dimensions by inverse castling moves, each
    making a new strict largest dimension that the castling walk undoes."""
    dims = [rng.randint(2, 6) for _ in range(k)]
    for _ in range(moves):
        options = []
        for i, d in enumerate(dims):
            n_i = m * math.prod(dims[:i] + dims[i + 1:])
            if 2 * d < n_i and n_i - d > max(dims):
                options.append((i, n_i - d))
        if not options:
            break
        i, new = rng.choice(options)
        dims[i] = new
    return Datum(tuple(dims), m)


def _explain_panel():
    rng = random.Random(5)
    panel = [Datum((1,), 1), Datum((1,), 3), Datum((1, 1, 1), 2), Datum((1, 4, 1, 4), 2)]
    for k in range(2, 17):
        dims = tuple(max(2, round(math.exp(rng.uniform(math.log(2), math.log(10**12))))) for _ in range(k))
        panel.append(Datum(dims, rng.randint(1, 4)))
        panel.append(Datum(tuple(rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(k)), rng.randint(1, 4)))
    for _ in range(20):
        panel.append(_deep(rng, rng.randint(3, 4), rng.randint(1, 3), rng.randint(5, 15)))
    return panel


def test_explain_matches_public_functions_with_one_subset_sum(monkeypatch):
    panel = _explain_panel()
    assert max(len(reduce_to_minimal(d).steps) for d in panel) > 5
    for d in panel:
        rep = explain(d)
        assert rep.big_r == big_r(d)
        assert rep.delta == delta(d)
        assert rep.g_max == g_max(d)
        assert rep.z == z_quantity(tuple(x * x for x in d.dims))
        assert rep.class_closed_form is classify_closed_form(d)
        assert rep.profile == mle_profile(d)
        assert rep.thresholds == thresholds(d.dims)
        assert rep.git_dimension == git_dimension(d)

    calls = []
    original = tnm.datum._gcd_subset_sum

    def counted(values, power):
        calls.append(power)
        return original(values, power)

    monkeypatch.setattr(tnm.datum, "_gcd_subset_sum", counted)
    for d in panel:
        calls.clear()
        explain(d)
        assert len(calls) == 1, d


def test_explain_computes_the_product_once(monkeypatch):
    # the k factor indices and Delta share explain's one prod(d_i)
    d = Datum(tuple(range(2, 18)), 3)
    want = explain(d)
    assert want.indices == tuple(index_of_factor(want.normalized, i) for i in range(1, 17))
    assert want.delta == delta(d)
    calls = []
    original = Datum.product

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Datum, "product", counted)
    assert explain(d) == want
    assert len(calls) == 1
