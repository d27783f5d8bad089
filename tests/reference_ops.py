"""Digest the reference ops, so that a change to the solver, to `scan` or
to the command line can be shown to leave their output byte-identical.

Each op runs in process through `tnm.cli.main`; one line per op gives its
argv and the SHA-256 of its exit code (or `SystemExit` code), stdout and
stderr (warnings included), and for `scan` of the CSV it wrote as well.
A `verify` line ends in a second SHA-256, of the same three with every
float in its JSON replaced by null: where a change moves only float
digits, the first digest differs and the second does not, so statuses,
counts, verdicts, exit codes and warnings can be compared op by op.
The ops, in order:

- `verify`: every datum of the benchmark's `verify_panel` and
  `verify_large` panels at trial seeds 0..7, plus (64,64;2) seed 1 and
  (2,32,32;1) seed 2, each with `--trials 1 --restarts 4` (74 ops), and
  then the 169 data of the tier-1 threshold walk
  (`threshold_walk.shapes(3, 8, 200)` at each shape's threshold sample
  counts) with `--trials 2`;
- `scan`, all at `--threads 1`: the benchmark's `scan_grid` grid
  (`--max-k 3 --max-dim 60 --max-m 4`) with `--check equivalence`, and
  `--max-k 4 --max-dim 12 --max-m 3` with `--check monotone` and with
  `--check castling`; the CSV goes to a temporary file, printed as
  `scan.csv`;
- `classify` in `json` and in `text` on the same 169 walk data, and
  `threshold` in `json` and in `text` on its 95 shapes;
- the 45 help and usage-error cases of `USAGE_CASES`, with `COLUMNS=80`
  so that argparse wraps its help the same on every terminal.

Run it from the repository root at two commits and compare:

    PYTHONPATH=src python tests/reference_ops.py > after.txt
    diff before.txt after.txt

It takes no flags and is not collected by pytest; a full run takes about
20 s on one CPU of a 2-vCPU Xeon.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from typing import Optional

from threshold_walk import shapes, threshold_samples
from tnm import cli, thresholds

PANEL = (((3, 3), 3), ((2, 5, 5), 1), ((3, 3), 2), ((2, 2, 8), 1), ((4, 4, 4), 1), ((8, 8, 8), 1))
LARGE = (((64, 64), 3), ((16, 16, 16), 4), ((2, 16, 128), 1))
EXTRA = ((((64, 64), 2), 1), (((2, 32, 32), 1), 2))  # ((dims, m), trial seed)
SCANS = (((3, 60, 4), "equivalence"), ((4, 12, 3), "monotone"), ((4, 12, 3), "castling"))
CSV = "scan.csv"  # stands for the temporary file a scan op writes
# a complete invocation of each command plus a stray flag, which only the
# top-level parser reports ("unrecognized arguments"); argparse exits before
# scan or simulate would write --out
STRAY_FLAG_CASES = [
    ["classify", "--dims", "2", "--samples", "1", "--bogus"],
    ["threshold", "--dims", "2,3", "--bogus"],
    ["scan", "--max-k", "1", "--max-dim", "2", "--max-m", "1", "--out", "unwritten.csv", "--bogus"],
    ["simulate", "--dims", "2", "--samples", "1", "--out", "unwritten.json", "--bogus"],
    ["verify", "--dims", "2", "--samples", "1", "--bogus"],
]
# argv lists that print help or end in a usage error: five top-level ones,
# then seven for each command, whether or not it has the flag, then the
# stray-flag cases
USAGE_CASES = [[], ["-h"], ["--help"], ["bogus"], ["--dims", "2"]] + [
    [command, *flags]
    for command in ("classify", "threshold", "scan", "simulate", "verify")
    for flags in (["--help"], [], ["--samples", "x"], ["--format", "xml"], ["--max-k", "3"],
                  ["--bogus"], ["--threads", "x"])
] + STRAY_FLAG_CASES


def verify_argv(dims, m, seed: int, trials: int) -> list[str]:
    return ["verify", "--dims", ",".join(map(str, dims)), "--samples", str(m),
            "--trials", str(trials), "--restarts", "4", "--threads", "1",
            "--format", "json", "--seed", str(seed)]


def scan_argv(max_k: int, max_dim: int, max_m: int, check: str) -> list[str]:
    return ["scan", "--max-k", str(max_k), "--max-dim", str(max_dim), "--max-m", str(max_m),
            "--check", check, "--out", CSV, "--threads", "1"]


def walk_data():
    """The (dims, m) of the tier-1 threshold walk, shape by shape."""
    for dims in shapes(3, 8, 200):
        for m in threshold_samples(thresholds(dims), math.prod(dims), 4096):
            yield dims, m


def ops():
    """The reference ops in the order of the module docstring, as argv lists."""
    for datum in PANEL + LARGE:
        for seed in range(8):
            yield verify_argv(*datum, seed, 1)
    for datum, seed in EXTRA:
        yield verify_argv(*datum, seed, 1)
    for dims, m in walk_data():
        yield verify_argv(dims, m, 0, 2)
    for grid, check in SCANS:
        yield scan_argv(*grid, check)
    for fmt in ("json", "text"):
        for dims, m in walk_data():
            yield ["classify", "--dims", ",".join(map(str, dims)), "--samples", str(m), "--format", fmt]
    for fmt in ("json", "text"):
        for dims in shapes(3, 8, 200):
            yield ["threshold", "--dims", ",".join(map(str, dims)), "--format", fmt]
    yield from USAGE_CASES


def run(argv: list[str]) -> tuple[str, str, str, Optional[bytes]]:
    """(exit code, stdout, stderr, the CSV for `scan`, else None) of one op,
    in process."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, CSV)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([path if a == CSV else a for a in argv])
            except SystemExit as exc:  # argparse's help and usage errors
                code = f"SystemExit({exc.code})"
        csv = None
        if CSV in argv:
            with open(path, "rb") as fh:
                csv = fh.read()
    return str(code), out.getvalue(), err.getvalue(), csv


def sha(code: str, out: str, err: str, csv: Optional[bytes] = None) -> str:
    payload = f"{code}\0{out}\0{err}".encode()
    if csv is not None:
        payload += b"\0" + csv
    return hashlib.sha256(payload).hexdigest()


def without_floats(doc):
    """The JSON value doc with every float replaced by None."""
    if isinstance(doc, float):
        return None
    if isinstance(doc, list):
        return [without_floats(x) for x in doc]
    if isinstance(doc, dict):
        return {k: without_floats(v) for k, v in doc.items()}
    return doc


def digest(argv: list[str]) -> str:
    code, out, err, csv = run(argv)
    line = sha(code, out, err, csv)
    if argv[:1] == ["verify"]:
        try:
            out = json.dumps(without_floats(json.loads(out)))
        except ValueError:  # no JSON document: the op failed before writing one
            pass
        line += " " + sha(code, out, err)
    return line


def main() -> int:
    os.environ["COLUMNS"] = "80"
    for argv in ops():
        print(" ".join(argv), digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
