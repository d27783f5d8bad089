"""End-to-end runs of the command line, mostly through a real subprocess."""

import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tnm
from tnm import SampleSet, cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tnm.__file__)))


def run(*args, env=None):
    """`python -m tnm` in a child that imports the same tnm as the tests."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "tnm", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def has_line(text, key, value):
    """True when some aligned key-value line pairs `key` with `value`."""
    return re.search(rf"^{re.escape(key)}\s\s+{re.escape(value)}$", text, re.M) is not None


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


def test_scan_unwritable_out_exit_2(tmp_path):
    res = run("scan", "--max-k", "2", "--max-dim", "4", "--max-m", "2",
              "--out", str(tmp_path / "absent" / "x.csv"), "--threads", "1")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("tnm scan: ")
    assert res.stdout == ""


def test_grid_size_counts_grid():
    for max_k in range(1, 4):
        for max_dim in range(1, 9):
            for max_m in range(1, 4):
                grid = list(cli._grid(max_k, max_dim, max_m))
                assert cli._grid_size(max_k, max_dim, max_m) == len(grid)
                assert len(set(grid)) == len(grid)


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


# ---------------------------------------------------------------------------
# simulate / verify


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
    path = tmp_path / "zeros.json"
    SampleSet((2,), 2, np.zeros(4)).save(path)
    res = run("verify", "--data", str(path), "--restarts", "2", "--threads", "1")
    assert res.returncode == 3


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_bad_tol_exit_2(tol):
    # 0, -1 and nan used to run 10,000 sweeps per restart and exit 1; inf
    # stopped every fit after one sweep and exited 0
    res = run("verify", "--dims", "3,3", "--samples", "3", "--trials", "1",
              "--restarts", "2", "--threads", "1", f"--tol={tol}")
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.strip().splitlines()) == 1 and "tol" in res.stderr


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
