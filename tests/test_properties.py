"""Property tests over random big-integer dimensions, k <= 16."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import castle_chain, chain_class
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
    normalize,
    thresholds,
)
from tnm.castling import _walk
from tnm.datum import _last_entry_invariants

# small entries make shared gcds likely, big ones exercise exact arithmetic
dimension = st.one_of(st.integers(1, 12), st.integers(2, 10**40))
dims_list = st.lists(dimension, min_size=1, max_size=MAX_FACTORS)
sample_count = st.integers(1, 5)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def inverse_castled(draw):
    """A k = 3-4 datum built by inverse castling moves from small entries
    until its largest entry has 100-300 digits: each move replaces some d_i,
    not the one just made, by N_i - d_i (N_i = m * prod of the others) when
    that makes it the strict largest and 2 d_i < N_i, so the castling walk
    retraces every move."""
    k, m = draw(st.integers(3, 4)), draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(2, 6), min_size=k, max_size=k))
    digits, last = draw(st.integers(100, 300)), -1
    while len(str(max(dims))) < digits:
        moves = []
        for i, d in enumerate(dims):
            n_i = m * math.prod(dims[:i] + dims[i + 1:])
            if i != last and 2 * d < n_i and n_i - d > max(dims):
                moves.append((i, n_i - d))
        if not moves:
            break
        i, new = draw(st.sampled_from(moves))
        dims[i], last = new, i
    return Datum(tuple(draw(st.permutations(dims))), m)


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


@SETTINGS
@given(st.one_of(inverse_castled(), st.builds(Datum, dims_list.map(tuple), sample_count)))
def test_tuple_walk_is_the_castle_step_chain(d):
    chain = castle_chain(d)
    norm = normalize(d)
    steps, n = _walk(norm.dims, norm.m)
    assert steps == [c.dims for c in chain]
    end = chain[-1]
    assert n == end.m * math.prod(end.dims[:-1])
    assert reduce_to_minimal(d).steps == tuple(chain)
    assert classify_recursive(d) is chain_class(d) is classify_closed_form(d)


@SETTINGS
@given(
    st.lists(st.one_of(st.integers(1, 12), st.integers(2, 10**12)), max_size=MAX_FACTORS - 1),
    st.integers(1, 12),
    st.integers(0, 12),
    sample_count,
)
def test_last_entry_invariants_match_datum(prefix, first, run, m):
    """Each shape of a scan task, prefix + (v,) for a run of v from the
    prefix's last entry (from `first` for the empty prefix), has the
    product, R, Delta and g_max of its Datum."""
    prefix = tuple(sorted(prefix))
    lo = prefix[-1] if prefix else first
    rows = list(_last_entry_invariants(prefix, lo, lo + run, m))
    assert [dims for dims, *_ in rows] == [prefix + (v,) for v in range(lo, lo + run + 1)]
    for dims, p, r, dl, gm in rows:
        d = Datum(dims, m)
        assert (p, r, dl, gm) == (math.prod(dims), big_r(d), delta(d), g_max(d))
