"""Property tests over random big-integer dimensions, k <= 16, and over
malformed command lines."""

import contextlib
import io
import json
import math
import re

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
from tnm import cli
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
@given(st.one_of(
    inverse_castled(),
    st.builds(Datum, dims_list.map(tuple), sample_count),
    # integral floats, which Datum takes as the ints they equal
    st.builds(Datum, st.lists(st.integers(1, 12).map(float), min_size=1, max_size=MAX_FACTORS).map(tuple),
              sample_count.map(float)),
))
def test_derived_data_equal_checked_data(d):
    """Each Datum the library derives from a valid one without checking it
    again is a Datum equal to, and hashing like, the one built with every
    check, and holds plain ints as that one does."""
    rep = explain(d)
    derived = [normalize(d), *reduce_to_minimal(d).steps, rep.normalized, *rep.trace.steps]
    with contextlib.suppress(NotCastlable):
        derived.append(castle_step(d))
    for e in derived:
        checked = Datum(e.dims, e.m)
        assert type(e) is Datum
        assert e == checked and hash(e) == hash(checked), e
        assert type(e.dims) is tuple and all(type(x) is int for x in e.dims) and type(e.m) is int, e


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


# ---------------------------------------------------------------------------
# the malformed-input contract of the command line

# values per flag that argparse accepts, a good one first, then more good
# and bad ones; "{dir}" stands for a directory of the test files below.  No
# value lets an example start a process or fit more than a few restarts of
# prod(dims) <= 64: --threads and --trials never exceed 1, --restarts 2, and
# dims or samples that would be large fail a limit first.  GARBAGE is what
# argparse itself rejects where a flag takes a number or a choice.
DIMS = ("2,3", "2", "3,3", "2,2,2", "-2,3", "+2,3", "2,-3", "0,3", "", " ", ",", "2,,3", "2, 3",
        " 2,3 ", "\uff12,\uff13", ",".join(["2"] * 17), "1" + "0" * 39, "2," + "9" * 40, "2x3", "2.5")
COUNT = ("3", "1", "2", "0", "-1", "9" * 40, "\uff11")
BOUND = ("3", "1", "2", "17", "0", "-1", "9" * 40)
FLAG_VALUES = {
    "--dims": DIMS,
    "--samples": COUNT,
    "--format": ("json", "text"),
    "--max-k": BOUND,
    "--max-dim": BOUND,
    "--max-m": BOUND,
    "--check": cli.SCAN_CHECKS,
    "--out": ("{dir}/out", "{dir}/missing/out", "{dir}", "", "{dir}/empty.json/out"),
    "--threads": ("1", "0", "-1"),
    "--seed": ("0", "3", "-1", "9" * 40),
    "--trials": ("1", "0", "-1"),
    "--restarts": ("1", "2", "0", "-1"),
    "--tol": ("1e-6", "nan", "inf", "-inf", "0", "-1"),
    "--data": ("{dir}/good.json", "{dir}/empty.json", "{dir}/binary.json", "{dir}/wrong_shape.json",
               "{dir}/list.json", "{dir}/missing.json", "{dir}"),
}
GARBAGE = ("", "x", "1.5", "bogus")
TYPED = {flag for _, _, arguments in cli._COMMANDS.values() for flag, kwargs in arguments
         if "type" in kwargs or "choices" in kwargs}
STRAY = ("--bogus", "-x", "extra", "--", "--dims", "-h")
# what scan and verify would otherwise default to: a pool of os.cpu_count()
# workers and 20 trials
FORCED = {"scan": ["--threads", "1"], "verify": ["--threads", "1", "--trials", "1"]}
USAGE_ERROR = re.compile(r"tnm( \w+)?: error: .*")


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    (d / "empty.json").write_text("")
    (d / "binary.json").write_bytes(bytes(range(256)))
    (d / "list.json").write_text("[]")
    (d / "wrong_shape.json").write_text(json.dumps({"dims": [2, 3], "m": 2, "data": [1.0, 2.0, 3.0]}))
    (d / "good.json").write_text(json.dumps({"dims": [2, 3], "m": 2, "data": [float(i % 5) - 2 for i in range(12)]}))
    return str(d)


def flag_value(draw, flag):
    """Half the time the flag's first value, a good one, so that most
    examples get past the parser; now and then garbage, where argparse
    checks the value (so no --out names a file outside the test's directory)."""
    roll = draw(st.integers(0, 63))
    if roll == 0 and flag in TYPED:
        return draw(st.sampled_from(GARBAGE))
    return FLAG_VALUES[flag][0] if roll < 32 else draw(st.sampled_from(FLAG_VALUES[flag]))


@st.composite
def cli_argv(draw):
    """A command, or a bad one, then most of its flags with values, and now
    and then a stray word or another command's flag."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    own = [flag for flag, _ in cli._COMMANDS[command][2]] if command in cli._COMMANDS else []
    argv = [command, *FORCED.get(command, [])]
    for flag in own:
        if draw(st.integers(0, 9)):  # mostly present, so most examples reach the command
            argv += [flag, flag_value(draw, flag)]
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 0, 0, 1, 2)))):
        token = draw(st.sampled_from(STRAY + tuple(FLAG_VALUES)))
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = [token, flag_value(draw, token)] if token in FLAG_VALUES else [token]
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argv=cli_argv())
def test_malformed_input_ends_in_a_verdict_or_one_error_line(input_dir, argv):
    """No argument list raises out of main, every exit code is one of the
    four, and exit 2 explains itself on stderr in one line, or in argparse's
    usage block that ends in one error line."""
    argv = [a.replace("{dir}", input_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: help, or a usage error
            code = exc.code
            assert code in (0, 2)
    assert code in (0, 1, 2, 3)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert err.getvalue().endswith("\n"), lines
        if lines[0].startswith("usage: "):
            assert USAGE_ERROR.fullmatch(lines[-1]), lines
            assert not any(USAGE_ERROR.match(line) for line in lines[:-1]), lines
        else:
            assert len(lines) == 1, lines
