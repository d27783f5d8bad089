"""The four workloads: seeded op lists, per-op correctness gates, digests.

An op is the argv of one `tnm` invocation.  A pass is the list of ops that
a run sends one after another, and repeats while time allows.  Every
workload's pass has a fixed composition, so the run-to-run spread of a
metric comes from timing, not from which inputs a seed happened to draw.

Gates read an op's captured stdout and return (failed units, info).  A unit
is what `ops_per_s` counts: one classify call, one scanned datum, one verify
trial.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

DEFAULT_SEED = 0

# classify_mix: a block holds one wide datum for every k in 2..16 and
# DEEP_PER_BLOCK deep ones, shuffled; a pass is BLOCKS_PER_PASS blocks.
# Stratifying by k keeps the share of k = 16 data, which dominate the time
# (2^k subsets), the same in every pass.
WIDE_K = range(2, 17)
WIDE_MAX_DIM = 10**12
DEEP_PER_BLOCK = 15
DEEP_MAX_STEPS = 15
DEEP_MAX_DIGITS = 300
BLOCKS_PER_PASS = 16

# scan_grid: one `tnm scan` call per pass.
SCAN_MAX_K, SCAN_MAX_DIM, SCAN_MAX_M = 3, 60, 4
SCAN_THREADS = 2

# verify_*: every (datum, trial seed) pair once per pass, in a seeded order.
# The trial seeds are fixed: sweep counts are heavy-tailed across trial
# seeds (one (2,5,5;1) trial takes 3.8 s, most 0.05-0.2 s), so a pass over
# seeded trial seeds would vary by tens of percent from seed to seed.
TRIAL_SEEDS = range(8)
VERIFY_PANEL = (((3, 3), 3), ((2, 5, 5), 1), ((3, 3), 2), ((2, 2, 8), 1), ((4, 4, 4), 1), ((8, 8, 8), 1))
# Left out of verify_large, both real solver failures (exit 1, exists clause):
# (64,64;2) trial seed 1 hits the 10,000-sweep cap after 91 s;
# (2,32,32;1) trial seed 2 takes 28 s and no restart converges.
VERIFY_LARGE = (((64, 64), 3), ((16, 16, 16), 4), ((2, 16, 128), 1))

# JSON keys and CSV columns pinned by the tests at the commit that added the
# benchmark; digests cover these only, so added keys do not break them.
CLASSIFY_KEYS = (
    "datum", "normalized", "R", "Delta", "g_max", "Z", "indices", "castling_trace",
    "class", "classifiers_agree", "mle_profile", "thresholds", "git_dimension",
)
CSV_COLUMNS = ("dims", "m", "R", "Delta", "g_max", "class_closed_form", "class_recursive", "agree")


def _classify_argv(dims, m) -> list[str]:
    return ["classify", "--dims", ",".join(map(str, dims)), "--samples", str(m), "--format", "json"]


def _wide(rng: random.Random, k: int) -> list[str]:
    """k dimensions log-uniform in [2, 10^12], m in 1..4."""
    top = math.log(WIDE_MAX_DIM)
    dims = [max(2, round(math.exp(rng.uniform(math.log(2), top)))) for _ in range(k)]
    return _classify_argv(dims, rng.randint(1, 4))


def _deep(rng: random.Random) -> list[str]:
    """A datum k = 3-4 built by inverse castling moves from a small seed.

    Each move replaces some d_i (not the one just made) by N_i - d_i, with
    N_i = m * prod of the others, when that makes it the strict largest and
    2 d_i < N_i; the reduction then castles it straight back, so the castling
    trace retraces every move.
    """
    k, m = rng.randint(3, 4), rng.randint(1, 3)
    dims = [rng.randint(2, 6) for _ in range(k)]
    last = -1
    for _ in range(rng.randint(0, DEEP_MAX_STEPS)):
        moves = []
        for i, d in enumerate(dims):
            n_i = m * math.prod(dims[:i] + dims[i + 1:])
            if i != last and 2 * d < n_i and n_i - d > max(dims):
                moves.append((i, n_i - d))
        if not moves:
            break
        i, new = rng.choice(moves)
        if len(str(new)) > DEEP_MAX_DIGITS:
            break
        dims[i], last = new, i
    return _classify_argv(dims, m)


def classify_block(rng: random.Random) -> list[list[str]]:
    block = [_wide(rng, k) for k in WIDE_K] + [_deep(rng) for _ in range(DEEP_PER_BLOCK)]
    rng.shuffle(block)
    return block


def classify_pass(rng: random.Random) -> list[list[str]]:
    return [argv for _ in range(BLOCKS_PER_PASS) for argv in classify_block(rng)]


def scan_argv(out_path: str, threads: int) -> list[str]:
    return [
        "scan", "--max-k", str(SCAN_MAX_K), "--max-dim", str(SCAN_MAX_DIM),
        "--max-m", str(SCAN_MAX_M), "--check", "equivalence",
        "--out", out_path, "--threads", str(threads),
    ]


def scan_grid_size() -> int:
    """Data in the scan grid: (1,) plus every multiset of 1..max_k entries
    from 2..max_dim, times max_m sample counts (counted here, not by tnm)."""
    values = SCAN_MAX_DIM - 1
    shapes = 1 + sum(math.comb(values + k - 1, k) for k in range(1, SCAN_MAX_K + 1))
    return shapes * SCAN_MAX_M


def verify_argv(dims, m, trial_seed: int) -> list[str]:
    return [
        "verify", "--dims", ",".join(map(str, dims)), "--samples", str(m),
        "--trials", "1", "--restarts", "4", "--threads", "1",
        "--format", "json", "--seed", str(trial_seed),
    ]


def verify_pass(panel, rng: random.Random) -> list[list[str]]:
    ops = [verify_argv(dims, m, s) for dims, m in panel for s in TRIAL_SEEDS]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# gates


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def gate_classify(argv, stdout: str, hasher) -> tuple[int, dict]:
    doc = json.loads(stdout)
    if hasher is not None:
        hasher.update(_canonical({key: doc[key] for key in CLASSIFY_KEYS}))
    return (0 if doc["classifiers_agree"] is True else 1), {}


def gate_verify(argv, stdout: str, hasher) -> tuple[int, dict]:
    doc = json.loads(stdout)
    agree = doc["bounded_agrees"] and doc["exists_agrees"] and doc["unique_agrees"] is not False
    return (0 if agree else 1), {"witness": doc["nonuniqueness_witness_fraction"]}


def gate_scan(argv, stdout: str, hasher) -> tuple[int, dict]:
    """failures=0 in the summary line, grid-size rows, every row agreeing."""
    size = scan_grid_size()
    words = dict(w.split("=", 1) for w in stdout.split() if "=" in w)
    if not stdout.startswith(f"scanned {size} data") or words.get("failures") != "0":
        return size, {}
    out_path = argv[argv.index("--out") + 1]
    rows = disagree = 0
    with open(out_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(c) for c in CSV_COLUMNS]
        for row in reader:
            rows += 1
            disagree += row[cols[-1]] != "True"
            if hasher is not None:
                hasher.update("\x1f".join(row[c] for c in cols).encode() + b"\n")
    if rows != size:
        return size, {}
    return disagree, {"rows": rows, "csv_bytes": os.path.getsize(out_path)}

