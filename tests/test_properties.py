"""Property tests over random big-integer dimensions, k <= 16."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tnm import (
    MAX_FACTORS,
    Datum,
    NotCastlable,
    StabilityClass,
    big_r,
    castle_step,
    classify_closed_form,
    classify_recursive,
    delta,
    explain,
    g_max,
    git_dimension,
    reduce_to_minimal,
    thresholds,
)

# small entries make shared gcds likely, big ones exercise exact arithmetic
dimension = st.one_of(st.integers(1, 12), st.integers(2, 10**40))
dims_list = st.lists(dimension, min_size=1, max_size=MAX_FACTORS)
sample_count = st.integers(1, 5)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _invariants(d):
    return (
        big_r(d),
        delta(d),
        g_max(d),
        classify_closed_form(d),
        classify_recursive(d),
        git_dimension(d),
    )


@SETTINGS
@given(dims_list, sample_count)
def test_castling_invariance(dims, m):
    d = Datum(tuple(dims), m)
    try:
        e = castle_step(d)
    except NotCastlable:
        return
    assert _invariants(e) == _invariants(d)
    assert reduce_to_minimal(e).minimal == reduce_to_minimal(d).minimal


@SETTINGS
@given(st.data(), dims_list, sample_count)
def test_permutation_invariance(data, dims, m):
    shuffled = data.draw(st.permutations(dims))
    a, b = explain(Datum(tuple(dims), m)), explain(Datum(tuple(shuffled), m))
    for field in ("normalized", "big_r", "delta", "g_max", "z", "indices", "trace",
                  "class_closed_form", "class_recursive", "profile", "thresholds",
                  "git_dimension"):
        assert getattr(a, field) == getattr(b, field), field


@SETTINGS
@given(st.data(), dims_list)
def test_thresholds_switch_where_reported(data, dims):
    rep = thresholds(dims)
    assert rep.mlt_b == rep.mlt_e <= rep.mlt_u
    if rep.mlt_b > 1:
        for m in (1, rep.mlt_b - 1, data.draw(st.integers(1, rep.mlt_b - 1))):
            assert classify_recursive(Datum(tuple(dims), m)) is StabilityClass.UNSTABLE
    assert classify_recursive(Datum(tuple(dims), rep.mlt_b)) is not StabilityClass.UNSTABLE
    assert classify_recursive(Datum(tuple(dims), rep.mlt_u)) is StabilityClass.STABLE
    if rep.mlt_u > 1:
        assert classify_recursive(Datum(tuple(dims), rep.mlt_u - 1)) is not StabilityClass.STABLE


@SETTINGS
@given(dims_list, sample_count)
def test_classifiers_agree(dims, m):
    rep = explain(Datum(tuple(dims), m))
    assert rep.classifiers_agree
    assert rep.class_recursive is classify_recursive(rep.datum)
