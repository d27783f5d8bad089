"""The exact layer's output, byte for byte, against recorded digests.

Each op is `tnm.cli.main(argv)` in process; its digest is the first 16 hex
digits of the SHA-256 of its exit code, stdout and stderr.  The ops, by
group:

- `walk`: `classify` in json and in text on the threshold-walk data, then
  `threshold` in json and in text on its shapes (the 528 such ops of
  `reference_ops.py`, in its order);
- `wide`: `classify` and `threshold` in both formats on seeded data with
  k = 1..16 entries of up to 10^12, some of them 1, in any order;
- `deep`: the same on seeded k = 3-4 data built by up to 20 inverse
  castling moves, so that the castling trace is long and its entries have
  up to 300 digits;
- `errors`: data that the exact layer rejects, with tnm's own message.

Argparse's help and usage text is left out: it differs between Python
versions.  The digests live in `golden_exact.json`.  A change that means to
alter this output records them again, from the repository root:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_exact.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys

from reference_ops import shapes, walk_data
from tnm import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_exact.json")
FORMATS = ("json", "text")


def _classify(dims, m, fmt) -> list[str]:
    return ["classify", "--dims", ",".join(map(str, dims)), "--samples", str(m), "--format", fmt]


def _threshold(dims, fmt) -> list[str]:
    return ["threshold", "--dims", ",".join(map(str, dims)), "--format", fmt]


def _both(data) -> list[list[str]]:
    """classify and threshold in both formats on each (dims, m)."""
    return [argv for dims, m in data for fmt in FORMATS
            for argv in (_classify(dims, m, fmt), _threshold(dims, fmt))]


def _wide(rng: random.Random, k: int) -> tuple[list[int], int]:
    """k entries log-uniform in [2, 10^12], one in four of them 1."""
    dims = [1 if rng.random() < 0.25 else max(2, round(math.exp(rng.uniform(math.log(2), math.log(10**12)))))
            for _ in range(k)]
    return dims, rng.randint(1, 4)


def _deep(rng: random.Random) -> tuple[list[int], int]:
    """A k = 3-4 datum built by inverse castling moves from small entries:
    each move replaces some d_i, not the one just made, by N_i - d_i
    (N_i = m * prod of the others) when that makes it the strict largest
    and 2 d_i < N_i, so the castling walk retraces every move."""
    k, m = rng.randint(3, 4), rng.randint(1, 3)
    dims, last = [rng.randint(2, 6) for _ in range(k)], -1
    for _ in range(rng.randint(0, 20)):
        moves = []
        for i, d in enumerate(dims):
            n_i = m * math.prod(dims[:i] + dims[i + 1:])
            if i != last and 2 * d < n_i and n_i - d > max(dims) and len(str(n_i - d)) <= 300:
                moves.append((i, n_i - d))
        if not moves:
            break
        i, new = rng.choice(moves)
        dims[i], last = new, i
    rng.shuffle(dims)
    return dims, m


def ops() -> dict[str, list[list[str]]]:
    """The argv lists of each group, in order."""
    walk = [_classify(dims, m, fmt) for fmt in FORMATS for dims, m in walk_data()]
    walk += [_threshold(dims, fmt) for fmt in FORMATS for dims in shapes(3, 8, 200)]
    rng = random.Random(20200701)
    wide = _both(_wide(rng, k) for k in range(1, 17) for _ in range(4))
    deep = _both(_deep(rng) for _ in range(60))
    errors = [
        _classify([0, 3], 1, "json"), _classify([2, 3], 0, "text"), _classify([2] * 17, 1, "json"),
        _classify(["2", "x"], 1, "json"), _classify([-2, 3], 2, "text"),
        _threshold([0], "json"), _threshold([2] * 17, "text"), _threshold(["2.5"], "json"),
    ]
    return {"walk": walk, "wide": wide, "deep": deep, "errors": errors}


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    payload = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def digests() -> dict[str, list[str]]:
    return {group: [digest(argv) for argv in argvs] for group, argvs in ops().items()}


def test_exact_layer_bytes_match_the_recorded_digests():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    groups = ops()
    assert {g: len(a) for g, a in groups.items()} == {g: len(d) for g, d in golden.items()}
    assert len(groups["walk"]) == 528
    for group, argvs in groups.items():
        changed = [" ".join(argv) for argv, want in zip(argvs, golden[group]) if digest(argv) != want]
        assert not changed, f"{group}: {len(changed)} ops changed, first: {changed[0][:200]}"


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=0)
    print()
