"""End-to-end runs of the command line, mostly through a real subprocess."""

import argparse
import contextlib
import csv
import dataclasses
import enum
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tnm
from oracles import json_doc, scan_csv_reference, scan_shapes
from reference_ops import STRAY_FLAG_CASES, USAGE_CASES, walk_data
from tnm import Datum, SampleSet, big_r, cli, explain, mle, thresholds
from tnm.castling import _walk

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tnm.__file__)))


def python(*args, env=None):
    """`python *args` in a child that imports the same tnm as the tests."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run(*args, env=None):
    """`python -m tnm *args` in such a child."""
    return python("-m", "tnm", *args, env=env)


def has_line(text, key, value):
    """True when some aligned key-value line pairs `key` with `value`."""
    return re.search(rf"^{re.escape(key)}\s\s+{re.escape(value)}$", text, re.M) is not None


def strict_json(text):
    """`text` parsed as RFC 8259 JSON: NaN and Infinity are errors, as in jq."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# classify / threshold


def test_classify_json_values():
    res = run("classify", "--dims", "3,3", "--samples", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["R"] == "9"
    assert doc["Delta"] == "1"
    assert doc["g_max"] == "3"
    assert doc["class"] == "polystable_not_stable"
    assert doc["git_dimension"] == "3"
    assert doc["classifiers_agree"] is True
    assert doc["indices"] == ["1", "1"]
    assert doc["castling_trace"] == [{"dims": [3, 3], "m": 2}]
    assert doc["mle_profile"]["unique_as"] is False


def test_classify_json_zero_margin():
    res = run("classify", "--dims", "2,2,3", "--samples", "1")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert doc["R"] == "0"
    assert doc["class"] == "polystable_not_stable"
    assert doc["git_dimension"] == "0"
    assert doc["castling_trace"][-1] == {"dims": [2, 2], "m": 1}


def test_classify_text_format():
    res = run("classify", "--dims", "2,3", "--samples", "1", "--format", "text")
    assert res.returncode == 0
    assert has_line(res.stdout, "class", "unstable")
    assert has_line(res.stdout, "git dimension", "empty")
    assert has_line(res.stdout, "always unbounded", "True")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit")
def test_classify_prints_exact_values_of_any_length(capsys):
    # five entries of 1,000 nines are a valid datum whose R is longer than
    # CPython's 4,300-digit int-string limit: both formats print it and exit
    # 0, and the caller's limit holds again after main returns.  The input
    # is still parsed under that limit: an entry of 4,301 digits is not
    dims = ",".join(["9" * 1000] * 5)
    limit = sys.get_int_max_str_digits()
    codes = [cli.main(["classify", "--dims", dims, "--samples", "1", "--format", fmt])
             for fmt in ("json", "text")]
    json_out, text_out = capsys.readouterr().out.split("\n}\n")
    assert codes == [0, 0] and sys.get_int_max_str_digits() == limit
    r_line = next(line for line in text_out.splitlines() if line.startswith("R "))
    want = big_r(Datum((10**1000 - 1,) * 5, 1))
    try:
        sys.set_int_max_str_digits(0)
        assert int(strict_json(json_out + "}")["R"]) == int(r_line.split()[1]) == want
        assert len(str(want)) > 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert cli.main(["classify", "--dims", "9" * 4301 + ",2", "--samples", "1"]) == 2
    assert "cannot parse dimensions" in capsys.readouterr().err


@pytest.mark.parametrize("argv, ascii_argv", [
    (["classify", "--dims", "２,３", "--samples", "１"], ["classify", "--dims", "2,3", "--samples", "1"]),
    (["classify", "--dims", " 2, +3", "--samples", "1", "--format", "text"],
     ["classify", "--dims", "2,3", "--samples", "1", "--format", "text"]),
    (["threshold", "--dims", "２,３"], ["threshold", "--dims", "2,3"]),
    (["verify", "--dims", "２,３", "--samples", "１", "--trials", "１", "--format", "json"],
     ["verify", "--dims", "2,3", "--samples", "1", "--trials", "1", "--format", "json"]),
])
def test_integer_flags_take_what_int_takes(capsys, argv, ascii_argv):
    # --dims entries and integer flags are read by Python's int(), which
    # takes surrounding spaces, a leading + and non-ASCII decimal digits
    # (full-width ２): such an argv prints the bytes of its ASCII form
    runs = []
    for a in (argv, ascii_argv):
        code = cli.main(a)
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_usage_errors_exit_2():
    assert run("classify", "--dims", "2,3").returncode == 2  # --samples missing
    assert run("classify", "--dims", "2,x", "--samples", "1").returncode == 2
    assert run("classify", "--dims", "0", "--samples", "1").returncode == 2
    res = run("verify", "--trials", "1")
    assert res.returncode == 2
    assert "--dims and --samples" in res.stderr


def test_threshold_json():
    res = run("threshold", "--dims", "4,4")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc == {"dims": [4, 4], "mlt_b": "1", "mlt_e": "1", "mlt_u": "3",
                   "cor_bounds": None}
    res = run("threshold", "--dims", "2,2,8")
    doc = json.loads(res.stdout)
    assert (doc["mlt_b"], doc["mlt_u"], doc["cor_bounds"]) == ("2", "3", ["2", "3"])


# ---------------------------------------------------------------------------
# JSON output


def printed_json(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_json(value)
    return out.getvalue()


def dumped_json(value):
    """What `cli._print_json` printed when it converted `value` and then
    called json.dumps."""
    return json.dumps(json_doc(value), indent=2, allow_nan=False) + "\n"


def test_walk_data_json_is_what_json_dumps_prints():
    n = 0
    for dims, m in walk_data():
        report = cli._report_doc(explain(Datum(dims, m)))
        threshold = {"dims": dims, **cli._threshold_doc(thresholds(dims))}
        for doc in (report, threshold):
            assert printed_json(doc) == dumped_json(doc), (dims, m)
        n += 1
    assert n == 169


def test_verify_json_is_what_json_dumps_prints():
    huge = SampleSet((3, 3), 3, 1e200 * np.random.default_rng(0).standard_normal(27))
    reports = {
        "converged": mle.verify_datum(Datum((3, 3), 3), trials=1, restarts=2, seed=0, threads=1),
        "diverged": mle.verify_datum(Datum((2, 3), 1), trials=1, restarts=2, seed=0, threads=1),
        "degenerate_statistic": mle.verify_samples(huge, restarts=4, seed=0),
    }
    for status, rep in reports.items():
        (trial,) = rep.trials
        assert set(trial.statuses) == {status}
        assert printed_json(rep) == dumped_json(rep), status
    assert '"logliks": [\n        null,' in printed_json(reports["degenerate_statistic"])


@dataclasses.dataclass(frozen=True)
class Tagged:
    tag: str
    values: tuple


class Level(enum.IntEnum):
    HIGH = 3


class Word(str, enum.Enum):
    CAFE = "caf\u00e9"


SYNTHETIC_JSON = [
    (), [], {}, [(), [], {}], {"a": (), "b": [], "c": {}}, [[[]]],
    Tagged("t", (1, -2.5, None, ())), Tagged("", ()), [Tagged("x", ([],))],
    "na\u00efve \u4e2d \U0001f600", "\x00\x1f\t\n\r\x7f", '"quoted"', "back\\slash/", "",
    {"k\u00e9y \"\\": {"x": [1, {"y": (2,)}]}},
    float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.1, 1e16,
    [float("nan"), float("-inf"), -0.0, 5e-324, 1e16],
    np.float64(0.1), np.float64("nan"), [np.float64(-1e-300)],
    True, False, None, [True, False, None, 0, 1],
    -7, 10**399, -(10**399), [0, -1, 10**399],
    Level.HIGH, Word.CAFE, {"level": Level.HIGH, "word": Word.CAFE},
]


def test_synthetic_json_is_what_json_dumps_prints():
    for value in SYNTHETIC_JSON:
        assert printed_json(value) == dumped_json(value), repr(value)[:60]


def test_json_of_a_set_raises_type_error(capsys):
    for value in ({1, 2}, [frozenset()], {"a": {3}}, Tagged("s", ({4},))):
        with pytest.raises(TypeError):
            json.dumps(json_doc(value), indent=2, allow_nan=False)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._print_json(value)
    assert capsys.readouterr().out == ""


def test_json_commands_do_not_call_json_dumps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps printed command output")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    for argv in (["classify", "--dims", "2,3,4", "--samples", "2"], ["threshold", "--dims", "2,2,8"],
                 ["verify", "--dims", "3,3", "--samples", "3", "--trials", "1", "--restarts", "2",
                  "--threads", "1", "--format", "json"]):
        code, out, err = outcome(argv)
        assert (code, err) == (("return", 0), ""), argv
        assert out.startswith("{\n  ") and out.endswith("\n}\n"), argv


# ---------------------------------------------------------------------------
# scan


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_scan_equivalence(tmp_path):
    out = tmp_path / "scan.csv"
    res = run("scan", "--max-k", "2", "--max-dim", "4", "--max-m", "2",
              "--out", str(out), "--threads", "1")
    assert res.returncode == 0
    rows = read_csv(out)
    assert rows[0] == ["dims", "m", "R", "Delta", "g_max",
                       "class_closed_form", "class_recursive", "agree"]
    assert len(rows) == 1 + 10 * 2  # (1,) plus 9 multisets of {2,3,4}, two m each
    assert all(r[-1] == "True" for r in rows[1:])
    assert "failures=0" in res.stdout


def test_scan_other_checks(tmp_path):
    for check in ("monotone", "castling"):
        out = tmp_path / f"{check}.csv"
        res = run("scan", "--max-k", "3", "--max-dim", "4", "--max-m", "2",
                  "--check", check, "--out", str(out), "--threads", "1")
        assert res.returncode == 0, res.stderr
        assert "failures=0" in res.stdout


def test_scan_smallest_grid(tmp_path):
    out = tmp_path / "one.csv"
    res = run("scan", "--max-k", "1", "--max-dim", "1", "--max-m", "1",
              "--out", str(out), "--threads", "1")
    assert res.returncode == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert rows[1][:2] == ["1", "1"]


def test_scan_rejects_bad_bounds(tmp_path):
    res = run("scan", "--max-k", "0", "--max-dim", "3", "--max-m", "1",
              "--out", str(tmp_path / "x.csv"), "--threads", "1")
    assert res.returncode == 2


def test_scan_rejects_max_k_above_limit_before_out(tmp_path):
    out = tmp_path / "x.csv"
    res = run("scan", "--max-k", "17", "--max-dim", "2", "--max-m", "1",
              "--out", str(out), "--threads", "1")
    assert res.returncode == 2
    assert res.stderr.strip().splitlines() == ["tnm scan: --max-k must be at most 16, got 17"]
    assert not out.exists()


def test_scan_rejects_grid_above_limit_before_out(tmp_path):
    out = tmp_path / "x.csv"
    res = run("scan", "--max-k", "3", "--max-dim", "400", "--max-m", "1000", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.strip().splitlines() == [
        "tnm scan: grid has 10746800000 data, more than the 10000000 limit"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "verify"])
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exit_2(tmp_path, command, threads):
    out = tmp_path / "x.csv"
    if command == "scan":
        args = ("scan", "--max-k", "1", "--max-dim", "2", "--max-m", "1", "--out", str(out))
    else:
        args = ("verify", "--dims", "2", "--samples", "1", "--trials", "1")
    res = run(*args, "--threads", threads)
    assert res.returncode == 2
    assert res.stderr.strip().splitlines() == [f"tnm {command}: --threads must be >= 1, got {threads}"]
    assert res.stdout == ""
    assert not out.exists()


def test_scan_unwritable_out_exit_2(tmp_path):
    res = run("scan", "--max-k", "2", "--max-dim", "4", "--max-m", "2",
              "--out", str(tmp_path / "absent" / "x.csv"), "--threads", "1")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("tnm scan: ")
    assert res.stdout == ""


def test_grid_size_counts_grid(monkeypatch):
    """The tasks cover each (dims, m) of the grid once, in CSV order, and
    hold at most the row bound each; at bound 7 and --max-m 3 a task holds
    two last entries."""
    for bound in (cli._RUN_MAX, 7):
        monkeypatch.setattr(cli, "_RUN_MAX", bound)
        for max_k in range(1, 5):
            for max_dim in range(1, 9):
                shapes = scan_shapes(max_k, max_dim)
                for max_m in (1, 2, 3, bound, bound + 1, 2 * bound + 5):
                    tasks = list(cli._scan_tasks(max_k, max_dim, max_m, "monotone"))
                    assert all(t[-1] == "monotone" for t in tasks)
                    assert all(0 < (hi - lo + 1) * (m1 - m0) <= bound for _, lo, hi, m0, m1, _ in tasks)
                    grid = [(prefix + (v,), m) for prefix, lo, hi, m0, m1, _ in tasks
                            for v in range(lo, hi + 1) for m in range(m0, m1)]
                    assert grid == [(dims, m) for dims in shapes for m in range(1, max_m + 1)]
                    # the size the summary line reports and SCAN_GRID_LIMIT guards
                    assert len(grid) == cli._shape_count(max_k, max_dim) * max_m
                    if bound == 7 and max_m == 3 and max_dim >= 3:
                        assert max(hi - lo for _, lo, hi, *_ in tasks) == 1

    # the task count _pool_map is told is the number of tasks it is handed
    seen = []

    def pool_map(fn, tasks, threads, n):
        tasks = list(tasks)
        seen.append((n, len(tasks)))
        return map(fn, tasks)

    monkeypatch.setattr(cli, "_pool_map", pool_map)
    grids = (((1, 1, 1), 1), ((1, 200, 1), 200), ((3, 9, 4), 660), ((4, 6, 3), 378), ((2, 5, 130), 1950))
    for grid, size in grids:
        argv = ["scan", "--max-k", str(grid[0]), "--max-dim", str(grid[1]), "--max-m", str(grid[2]),
                "--out", os.devnull, "--threads", "1"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue() == f"scanned {size} data, check=equivalence, failures=0\n"
    assert all(n == count for n, count in seen) and len(seen) == 5, seen


@pytest.mark.parametrize("check, grid, size", [
    *(pytest.param(check, (3, 7, 3), 252, id=check) for check in cli.SCAN_CHECKS),
    *(pytest.param(check, (4, 6, 3), 378, id=f"k4-{check}") for check in cli.SCAN_CHECKS),
])
def test_scan_csv_matches_reference(tmp_path, check, grid, size, monkeypatch, capsys):
    """The CSV equals the per-row oracle's bytes, serial and on two workers,
    at the default row bound and at bounds that split the tasks further: at
    2 rows each shape's three sample counts split 2 + 1 and every last entry
    is a task of its own; at 7 rows a prefix's last entries go two to a task.
    The k = 4 grid has prefixes of three entries."""
    flags = ["--max-k", str(grid[0]), "--max-dim", str(grid[1]), "--max-m", str(grid[2]), "--check", check]
    expected = scan_csv_reference(*grid, check)
    summary = f"scanned {size} data, check={check}, failures=0\n"
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.csv"
        res = run("scan", *flags, "--out", str(out), "--threads", threads)
        assert res.returncode == 0, res.stderr
        assert res.stdout == summary
        assert out.read_bytes() == expected
    for bound in (2, 7):
        monkeypatch.setattr(cli, "_RUN_MAX", bound)
        for threads in ("1", "2"):
            out = tmp_path / f"split-{bound}-{threads}.csv"
            assert cli.main(["scan", *flags, "--out", str(out), "--threads", threads]) == 0
            assert capsys.readouterr().out == summary
            assert out.read_bytes() == expected


def test_scan_walks_only_rows_with_a_castling_move(monkeypatch):
    """`_scan_task` calls `_walk` on exactly the rows whose walk takes a
    step, and classifies every other row as its own endpoint.  The grids of
    `test_scan_csv_matches_reference` hold 57 rows with walks of 2-6 steps,
    so both sides of the guard are covered there."""
    walked = []

    def recording_walk(dims, m):
        walked.append((dims, m))
        return _walk(dims, m)

    monkeypatch.setattr(cli, "_walk", recording_walk)
    rows = []
    for grid in ((3, 7, 3), (4, 6, 3)):
        for task in cli._scan_tasks(*grid, "equivalence"):
            prefix, lo, hi, m0, m1, _ = task
            rows += [(prefix + (v,), m) for v in range(lo, hi + 1) for m in range(m0, m1)]
            cli._scan_task(task)
    assert len(rows) == 252 + 378
    steps = [len(_walk(dims, m)[0]) for dims, m in walked]
    assert walked == [row for row in rows if len(_walk(*row)[0]) > 1]
    assert len(walked) == 57 and set(steps) == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("check", ["equivalence", "monotone", "castling"])
def test_scan_serial_equals_parallel(tmp_path, check):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.csv"
        res = run("scan", "--max-k", "3", "--max-dim", "6", "--max-m", "3",
                  "--check", check, "--out", str(out), "--threads", threads)
        assert res.returncode == 0, res.stderr
        outputs.append((res.stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == f"scanned 168 data, check={check}, failures=0\n"


def test_scan_memory_does_not_grow_with_grid(tmp_path, capsys):
    """Rows are written as they are computed, so the serial peak of Python
    allocations is about the same for a 728- and a 3,080-datum grid."""
    def peak(max_dim):
        argv = ["scan", "--max-k", "3", "--max-dim", str(max_dim), "--max-m", "2",
                "--out", str(tmp_path / "m.csv"), "--threads", "1"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(12)  # warm-up: first-call caches are not the grid's memory
    small, large = peak(12), peak(20)
    assert "scanned 3080 data" in capsys.readouterr().out
    assert large < 1.5 * small, (small, large)


def test_scan_memory_does_not_grow_with_max_m(tmp_path, capsys):
    """Long sample-count runs are split, so the serial peak of Python
    allocations is about the same at --max-m 2000 and 20000 (unsplit, it
    grows with the run: 0.5 and 3.8 MB)."""
    def peak(max_m):
        argv = ["scan", "--max-k", "1", "--max-dim", "2", "--max-m", str(max_m),
                "--out", str(tmp_path / "m.csv"), "--threads", "1"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # warm-up: first-call caches are not the grid's memory
    small, large = peak(2000), peak(20000)
    assert "scanned 40000 data" in capsys.readouterr().out
    assert large < 1.5 * small, (small, large)


def test_scan_memory_does_not_grow_with_one_long_prefix(tmp_path, capsys):
    """A k = 1 grid is the empty prefix alone: its last entries are split
    into tasks generated lazily, so the serial peak of Python allocations is
    about the same at --max-dim 2000 and 20000 (with the entries 2..max_dim
    held as one tuple, as combinations_with_replacement holds its pool, the
    peak grows with them: 0.15 and 0.86 MB)."""
    def peak(max_dim):
        argv = ["scan", "--max-k", "1", "--max-dim", str(max_dim), "--max-m", "1",
                "--out", str(tmp_path / "m.csv"), "--threads", "1"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # warm-up: first-call caches are not the grid's memory
    small, large = peak(2000), peak(20000)
    assert "scanned 20000 data" in capsys.readouterr().out
    assert large < 1.5 * small, (small, large)


def test_exact_commands_do_not_load_numpy(tmp_path):
    # only simulate and verify load the solver, and numpy with it
    calls = [
        ["classify", "--dims", "3,3", "--samples", "2"],
        ["threshold", "--dims", "2,3,5"],
        ["scan", "--max-k", "2", "--max-dim", "5", "--max-m", "2",
         "--out", str(tmp_path / "s.csv"), "--threads", "1"],
    ]
    code = ("import sys, tnm.cli\n"
            f"codes = [tnm.cli.main(argv) for argv in {calls!r}]\n"
            "print(codes, 'numpy' in sys.modules)\n")
    res = python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_exact_commands_load_only_what_they_use(tmp_path):
    # logging, fractions and json load only on the paths that use them; the
    # snapshot comes first because site's .pth hooks load modules of their own
    calls = [
        ["threshold", "--dims", "2,3,5", "--format", "text"],
        ["scan", "--max-k", "2", "--max-dim", "5", "--max-m", "2",
         "--out", str(tmp_path / "s.csv"), "--threads", "1"],
    ]
    classify = ["classify", "--dims", "3,3", "--samples", "2", "--format", "text"]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "def new(*names): return [n for n in names if n in sys.modules and n not in before]\n"
            "import tnm.cli\n"
            "tnm.cli.build_parser()\n"
            "loaded = [new('logging', 'fractions', 'json')]\n"
            f"codes = [tnm.cli.main(argv) for argv in {calls!r}]\n"
            "loaded.append(new('logging', 'fractions', 'json'))\n"
            f"codes.append(tnm.cli.main({classify!r}))\n"
            "loaded.append(new('logging'))\n"
            "print(codes, loaded)\n")
    res = python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0] [[], [], []]"


EXACT_NAMES = [
    "MAX_FACTORS", "Datum", "EmptyInput", "InvalidDatum", "TrivialFactor", "big_r", "delta",
    "g_max", "index_of_factor", "normalize", "z_quantity",
    "CastlingTrace", "NotCastlable", "castle_step", "castling_equivalent", "reduce_to_minimal",
    "ClassificationReport", "MleProfile", "StabilityClass", "ThresholdReport",
    "classify_closed_form", "classify_recursive", "explain", "git_dimension", "mle_profile",
    "thresholds",
]
SOLVER_NAMES = [
    "DEFAULT_MAX_SWEEPS", "DEFAULT_TOL", "DESK_SCALE_LIMIT", "DegenerateStatistic",
    "DeskScaleExceeded", "FitReport", "FitStatus", "KroneckerPrecision", "NotPositiveDefinite",
    "SampleSet", "ShapeMismatch", "TrialResult", "VerificationReport", "fit_mle",
    "flip_flop_step", "gauge_fix", "log_likelihood", "mode_statistic", "sample_from_model",
    "sample_standard", "verify_datum", "verify_samples",
]


def test_public_names_are_pinned():
    assert len(tnm.__all__) == 48
    assert set(tnm.__all__) == set(EXACT_NAMES + SOLVER_NAMES)
    for name in tnm.__all__:
        getattr(tnm, name)


def test_exact_names_do_not_load_numpy():
    code = ("import sys, tnm\n"
            f"for name in {EXACT_NAMES!r}: getattr(tnm, name)\n"
            "print('numpy' in sys.modules)\n")
    res = python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_numpy_is_the_only_runtime_dependency():
    # every top-level module that tnm, its CLI and the solver bring in is
    # from the standard library, numpy or tnm; the snapshot comes first
    # because site's .pth hooks load modules of their own before tnm
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import tnm, tnm.cli\n"
            "tnm.mle.fit_mle\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'tnm'}))\n")
    res = python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# parser

THREADS = os.cpu_count() or 1
HELP = (("-h", "--help"), "help", None, argparse.SUPPRESS, None, False)
# per command: option strings, dest, type, default, choices, required
CLI_FLAGS = {
    "classify": [
        (("--dims",), "dims", None, None, None, True),
        (("--samples",), "samples", int, None, None, True),
        (("--format",), "format", None, "json", ("json", "text"), False),
    ],
    "threshold": [
        (("--dims",), "dims", None, None, None, True),
        (("--format",), "format", None, "json", ("json", "text"), False),
    ],
    "scan": [
        (("--max-k",), "max_k", int, None, None, True),
        (("--max-dim",), "max_dim", int, None, None, True),
        (("--max-m",), "max_m", int, None, None, True),
        (("--check",), "check", None, "equivalence", ("equivalence", "monotone", "castling"), False),
        (("--out",), "out", None, None, None, True),
        (("--threads",), "threads", int, THREADS, None, False),
    ],
    "simulate": [
        (("--dims",), "dims", None, None, None, True),
        (("--samples",), "samples", int, None, None, True),
        (("--seed",), "seed", int, None, None, False),
        (("--out",), "out", None, None, None, True),
    ],
    "verify": [
        (("--dims",), "dims", None, None, None, False),
        (("--samples",), "samples", int, None, None, False),
        (("--trials",), "trials", int, 20, None, False),
        (("--restarts",), "restarts", int, 4, None, False),
        (("--seed",), "seed", int, None, None, False),
        (("--tol",), "tol", float, None, None, False),
        (("--data",), "data", None, None, None, False),
        (("--threads",), "threads", int, THREADS, None, False),
        (("--format",), "format", None, "text", ("json", "text"), False),
    ],
}


def subparser_flags(parser):
    """{command: its subparser's actions as CLI_FLAGS rows, -h first}."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [(tuple(a.option_strings), a.dest, a.type, a.default, a.choices, a.required) for a in p._actions]
        for name, p in sub.choices.items()
    }


def test_cli_flags_are_pinned():
    assert subparser_flags(cli.build_parser()) == {name: [HELP, *rows] for name, rows in CLI_FLAGS.items()}


def outcome(argv):
    """In-process `cli.main(argv)`: how it ended, its stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ("return", cli.main(list(argv)))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", STRAY_FLAG_CASES, ids=lambda argv: argv[0])
def test_stray_flag_usage_lists_every_command(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "usage: tnm [-h] {classify,threshold,scan,simulate,verify} ...\n"
                                       "tnm: error: unrecognized arguments: --bogus\n")


def test_parsers_built_per_call(monkeypatch, capsys):
    """The first call of a process builds the tnm parser and its five
    subparsers, whatever it runs, and every later call, --help included,
    builds none: a count, not a timing."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    everything = ["tnm", "tnm classify", "tnm threshold", "tnm scan", "tnm simulate", "tnm verify"]
    for first in (["threshold", "--dims", "2,3"], ["--help"], ["bogus"]):
        cli.build_parser.cache_clear()
        for argv, expected in ((first, everything), (["threshold", "--dims", "2,3"], []), (["--help"], [])):
            with contextlib.suppress(SystemExit):
                cli.main(argv)
            assert built == expected, (first, argv)
            built.clear()
    cli.build_parser()
    assert built == []
    assert cli.build_parser.cache_info().currsize == 1


def test_command_argv_parsed_by_its_own_parser(monkeypatch, capsys):
    """A well-formed command argv, --help included, is parsed by that
    command's parser alone; a stray flag sends the argv through the
    top-level parser as well, which reports it; an argv without a command
    goes to the top-level parser: a count, not a timing."""
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, args=None, namespace=None):
        parsed.append(self.prog)
        return parse(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    for argv, expected in (
        (["threshold", "--dims", "2,3"], ["tnm threshold"]),
        (["classify", "--samples", "2", "--dims", "-2,3", "--format", "text"], ["tnm classify"]),
        (["verify", "--help"], ["tnm verify"]),
        (["threshold", "--dims", "2,3", "--bogus"], ["tnm threshold", "tnm", "tnm threshold"]),
        (["-h"], ["tnm"]),
        (["bogus"], ["tnm"]),
        ([], ["tnm"]),
    ):
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        assert parsed == expected, argv
        parsed.clear()


@pytest.mark.parametrize("argv, flag, message", [
    (["threshold", "--dims", "-2,3"], "--dims", "tnm threshold: dimensions must be >= 1, got (-2, 3)\n"),
    (["threshold", "--dim", "-2,3"], "--dim", "tnm threshold: dimensions must be >= 1, got (-2, 3)\n"),
    (["classify", "--samples", "1", "--dims", "-2,3", "--format", "text"], "--dims",
     "tnm classify: dimensions must be >= 1, got (-2, 3)\n"),
    (["verify", "--dims", "3,3", "--samples", "3", "--tol", "-inf"], "--tol",
     "tnm verify: tol must be finite and positive, got -inf\n"),
    (["verify", "--dims", "3,3", "--samples", "3", "--tol", "-1e-3"], "--tol",
     "tnm verify: tol must be finite and positive, got -0.001\n"),
])
def test_value_starting_with_a_dash_reaches_its_flag(argv, flag, message):
    # argparse takes -2,3 or -inf for a flag, and main used to end in the
    # flag before it missing its argument; --flag=value got the flag's message
    assert outcome(argv) == (("return", 2), "", message)
    i = argv.index(flag)
    assert outcome([*argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2:]]) == (("return", 2), "", message)


@pytest.mark.parametrize("argv, flag", [
    (["threshold", "--dims", "--format", "text"], "--dims"),
    (["threshold", "--dims", "-h"], "--dims"),
    (["verify", "--dims", "3,3", "--samples", "3", "--tol"], "--tol"),
])
def test_flag_without_a_value_still_misses_its_argument(argv, flag):
    code, out, err = outcome(argv)
    assert (code, out) == (("exit", 2), "")
    assert err.endswith(f"error: argument {flag}: expected one argument\n")


def test_usage_cases_print_what_they_printed_before_the_rewrite(monkeypatch):
    # main rewrites a command's `flag -value` pairs only: none of the 45
    # help and usage-error cases has one, and after `--` there is no flag;
    # an ambiguous prefix, or one of --help, is left to argparse
    monkeypatch.setenv("COLUMNS", "80")
    cases = USAGE_CASES + [
        ["threshold", "--dims", "2,3", "--", "--format", "-x"],
        ["verify", "--dims", "3,3", "--samples", "3", "--t", "-1"],
        ["scan", "--max-", "-1"],
        ["threshold", "--h", "-2"],
    ]
    rewritten = {tuple(argv): outcome(argv) for argv in cases}
    monkeypatch.setattr(cli, "_dash_values_joined", lambda argv: argv)
    for argv in cases:
        assert outcome(argv) == rewritten[tuple(argv)], argv


# one call per path through main: a result on stdout, JSON from the solver,
# a usage error from a subparser, a stray flag and help from the top level
CACHE_CASES = [
    ["classify", "--dims", "3,7,11,40", "--samples", "2"],
    ["threshold", "--dims", "2,3,5", "--format", "text"],
    ["verify", "--dims", "3,3", "--samples", "3", "--trials", "1", "--threads", "1", "--format", "json"],
    ["verify", "--dims", "3,3", "--trials", "x"],
    ["threshold", "--dims", "2,3", "--bogus"],
    ["--help"],
]


def test_reused_parsers_print_what_fresh_ones_print(monkeypatch):
    # each call in one process, through a parser built once, against the
    # same call through a parser built for it alone; the width changes
    # between the rounds, so a parser that kept one would print it
    fresh = {}
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in CACHE_CASES + USAGE_CASES:
            cli.build_parser.cache_clear()
            fresh[columns, tuple(argv)] = outcome(argv)
    assert fresh["80", ("--help",)] != fresh["120", ("--help",)]
    cli.build_parser.cache_clear()
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in CACHE_CASES + USAGE_CASES:
            assert outcome(argv) == fresh[columns, tuple(argv)], (columns, argv)
    assert [fresh["80", tuple(argv)][0] for argv in CACHE_CASES] == [
        ("return", 0), ("return", 0), ("return", 0), ("exit", 2), ("exit", 2), ("exit", 0)]
    assert len(USAGE_CASES) == 45
    assert {fresh["80", tuple(argv)][0][1] for argv in USAGE_CASES} == {0, 2}


# ---------------------------------------------------------------------------
# simulate / verify


@pytest.mark.parametrize("command", [
    ("verify", "--dims", "64,64", "--samples", "1000000000"),
    ("simulate", "--dims", "100000,100000", "--samples", "1000"),
])
def test_oversized_draw_exit_2(tmp_path, command):
    # refused before anything is drawn, where numpy's memory error used to
    # end the run with a traceback
    out = tmp_path / "x.json"
    res = run(*command, *(("--out", str(out)) if command[0] == "simulate" else ()))
    assert res.returncode == 2
    assert res.stderr.startswith(f"tnm {command[0]}: m * prod(dims) = ")
    assert len(res.stderr.splitlines()) == 1 and "exceeds the limit" in res.stderr
    assert res.stdout == "" and not out.exists()


def test_oversized_restart_stack_exit_2(monkeypatch, capsys):
    # 64 restarts of (64,64;4096) passed every check and then died in the
    # first sweep with numpy's memory error; the restart stacks are bounded
    # before anything is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(tnm.mle, "sample_standard", no_draw)
    code = cli.main(["verify", "--dims", "64,64", "--samples", "4096", "--restarts", "64",
                     "--trials", "1", "--threads", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("tnm verify: restarts * (m * prod(dims) + sum(d_i^2)) = ")
    assert len(err.splitlines()) == 1 and "exceeds the limit" in err


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run("simulate", "--dims", "2,3", "--samples", "2", "--seed", "4", "--out", str(a))
    r2 = run("simulate", "--dims", "2,3", "--samples", "2", "--seed", "4", "--out", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_env_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    env = {**os.environ, "TNM_SEED": "7"}
    run("simulate", "--dims", "2", "--samples", "3", "--out", str(a), env=env)
    run("simulate", "--dims", "2", "--samples", "3", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    run("simulate", "--dims", "2", "--samples", "3", "--out", str(a))  # default seed 0
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("command", [
    ("simulate", "--dims", "2", "--samples", "1"),
    ("verify", "--dims", "2", "--samples", "1", "--trials", "1", "--threads", "1"),
])
def test_bad_env_seed_exit_2(tmp_path, command):
    out = tmp_path / "x.json"
    env = {**os.environ, "TNM_SEED": "abc"}
    args = command + (("--out", str(out)) if command[0] == "simulate" else ())
    res = run(*args, env=env)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"tnm {command[0]}: ")
    assert "TNM_SEED" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("simulate", "--dims", "2", "--samples", "1"),
    ("verify", "--dims", "2", "--samples", "1", "--trials", "1", "--threads", "1"),
])
@pytest.mark.parametrize("source", ["--seed", "TNM_SEED"])
def test_negative_seed_exit_2(tmp_path, command, source):
    # numpy's own "expected non-negative integer" named no flag
    out = tmp_path / "x.json"
    args = command + (("--out", str(out)) if command[0] == "simulate" else ())
    if source == "--seed":
        res = run(*args, "--seed", "-1")
    else:
        res = run(*args, env={**os.environ, "TNM_SEED": "-1"})
    assert res.returncode == 2
    assert res.stderr == f"tnm {command[0]}: {source} must be >= 0, got -1\n"
    assert res.stdout == "" and not out.exists()


def test_verify_stable_scalar_family():
    res = run("verify", "--dims", "1", "--samples", "2", "--trials", "2",
              "--restarts", "2", "--threads", "1", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["bounded_agrees"] and doc["exists_agrees"] and doc["unique_agrees"]
    assert all(s == "converged" for t in doc["trials"] for s in t["statuses"])
    for t in doc["trials"]:  # per-restart fit and polish sweeps
        assert len(t["iterations"]) == len(t["polish_sweeps"]) == 2
        assert all(type(c) is int and c > 0 for c in t["iterations"] + t["polish_sweeps"])
        assert t["fit_newton_steps"] == [0, 0]


@pytest.mark.parametrize("dims,m,seed", [("64,64", 2, 1), ("2,32,32", 1, 2)])
def test_verify_slow_flip_flop_trials_converge(dims, m, seed):
    # plain flip-flop hit its 10,000-sweep cap on (64,64;2) seed 1 and
    # converged in no restart of (2,32,32;1) seed 2, both exit 1; the fit's
    # Newton steps finish every restart
    res = run("verify", "--dims", dims, "--samples", str(m), "--seed", str(seed), "--trials", "1",
              "--restarts", "4", "--threads", "1", "--format", "json")
    assert res.returncode == 0, res.stderr
    trial = json.loads(res.stdout)["trials"][0]
    assert trial["statuses"] == ["converged"] * 4
    assert all(c > 0 for c in trial["fit_newton_steps"])


def test_verify_unstable_text():
    res = run("verify", "--dims", "2,3", "--samples", "1", "--trials", "3",
              "--restarts", "2", "--threads", "1")
    assert res.returncode == 0, res.stderr
    assert has_line(res.stdout, "predicted", "unbounded likelihood")
    assert has_line(res.stdout, "all restarts diverged", "3/3")


def test_verify_from_simulated_file(tmp_path):
    path = tmp_path / "data.json"
    run("simulate", "--dims", "2", "--samples", "4", "--seed", "2", "--out", str(path))
    res = run("verify", "--data", str(path), "--restarts", "2", "--threads", "1")
    assert res.returncode == 0, res.stderr
    assert has_line(res.stdout, "unique clause agrees", "yes")


def test_verify_zero_data_is_numerical_failure(tmp_path):
    # zeros with eigh and Cholesky-sized blocks, and entries near 1e200 whose
    # statistics overflow: numpy's floating-point warnings stay off stderr
    path = tmp_path / "zeros.json"
    huge = 1e200 * np.random.default_rng(0).standard_normal(27)
    for samples in (SampleSet((2,), 2, np.zeros(4)), SampleSet((8, 8), 2, np.zeros(128)),
                    SampleSet((3, 3), 3, huge)):
        samples.save(path)
        res = run("verify", "--data", str(path), "--restarts", "2", "--threads", "1")
        assert res.returncode == 3, res.stderr
        assert res.stderr == ""


def test_verify_json_keys_in_order():
    res = run("verify", "--dims", "3,3", "--samples", "2", "--trials", "2",
              "--restarts", "2", "--threads", "1", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = strict_json(res.stdout)
    assert list(doc) == ["datum", "profile", "trials", "bounded_agrees", "exists_agrees",
                         "unique_agrees", "nonuniqueness_witness_fraction"]
    assert list(doc["datum"]) == ["dims", "m"]
    assert list(doc["profile"]) == ["bounded_as", "exists_as", "unique_as", "always_unbounded"]
    assert len(doc["trials"]) == 2
    for trial in doc["trials"]:
        assert list(trial) == ["statuses", "logliks", "loglik_spread", "factor_spread_rel",
                               "factor_spread_abs", "iterations", "polish_sweeps",
                               "fit_newton_steps"]


def test_verify_non_finite_loglik_is_null(tmp_path):
    # statistics of entries near 1e200 overflow; the log-likelihoods used to
    # be printed as bare NaN, which strict JSON parsers reject
    path = tmp_path / "huge.json"
    SampleSet((3, 3), 3, 1e200 * np.random.default_rng(0).standard_normal(27)).save(path)
    res = run("verify", "--data", str(path), "--restarts", "4", "--threads", "1",
              "--format", "json")
    assert res.returncode == 3, res.stderr
    (trial,) = strict_json(res.stdout)["trials"]
    assert trial["logliks"] == [None] * 4


def test_verify_output_does_not_depend_on_blas_threads():
    # the diverged log-likelihoods of (2,16,128;1) moved with OpenBLAS's
    # default thread count on a machine with 2 or more CPUs
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas}
    args = ("verify", "--dims", "2,16,128", "--samples", "1", "--trials", "1", "--restarts", "4",
            "--threads", "1", "--seed", "0", "--format", "json")
    default, one = run(*args, env=unset), run(*args, env=dict(unset, OPENBLAS_NUM_THREADS="1"))
    assert default.returncode == one.returncode == 0, (default.stderr, one.stderr)
    assert default.stdout == one.stdout


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_bad_tol_exit_2(tol):
    # 0, -1 and nan used to run 10,000 sweeps per restart and exit 1; inf
    # stopped every fit after one sweep and exited 0
    res = run("verify", "--dims", "3,3", "--samples", "3", "--trials", "1",
              "--restarts", "2", "--threads", "1", f"--tol={tol}")
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.strip().splitlines()) == 1 and "tol" in res.stderr


def test_solver_fault_is_not_a_usage_error(monkeypatch, capsys):
    # numpy's own ValueError from a fault inside the solver is no bad flag:
    # it leaves cli.main as a RuntimeError chained to it, not as exit 2.
    # The fault is raised by the Hessian product of each path: the
    # matrix-free one where no Hessian is assembled, the assembly otherwise
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    for name, entries in [("_hessian_product", 0), ("_assembled_hessian", tnm.mle._HESSIAN_ROW_ENTRIES)]:
        with monkeypatch.context() as patch:
            patch.setattr(tnm.mle, name, broken)
            patch.setattr(tnm.mle, "_HESSIAN_ROW_ENTRIES", entries)
            with pytest.raises(RuntimeError) as info:
                cli.main(["verify", "--dims", "2,5,5", "--samples", "1", "--trials", "1", "--threads", "1"])
        assert isinstance(info.value.__cause__, ValueError)
        assert capsys.readouterr().err == ""


def test_verify_missing_file_exit_2(tmp_path):
    res = run("verify", "--data", str(tmp_path / "absent.json"))
    assert res.returncode == 2
    assert res.stderr.strip()


@pytest.mark.parametrize("doc", [
    {"dims": [2], "data": [0.5, 1.0]},          # no "m"
    {"dims": [2], "m": 1},                      # no "data"
    [[2], 1, [0.5, 1.0]],                       # not an object
    {"dims": 5, "m": 1, "data": [0.5] * 5},
    {"dims": [2], "m": [1], "data": [0.5, 1.0]},
    {"dims": "22", "m": 1, "data": [0.5] * 4},
    {"dims": [2], "m": 1.7, "data": [0.5, 1.0]},
])
def test_verify_malformed_data_exit_2(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = run("verify", "--data", str(path), "--restarts", "2", "--threads", "1")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1
