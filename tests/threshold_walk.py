"""Check every exact sample-count threshold numerically over a grid of shapes.

A shape is a sorted tuple of k entries (k from 2 to `max_k`), each in
2..`max_entry`, with prod(d_i) <= `max_prod`.  Its data are the m >= 1 in
{mlt_b - 1, mlt_b, mlt_u - 1, mlt_u} with m * prod(d_i) <= `max_mn`.
`verify_datum` fits each datum, and its hard clauses must agree with the
exact profile.  Where the profile predicts a maximizer that is not unique,
at least one trial must also witness it (two restarts ending apart), so
mlt_u is checked from both sides: from mlt_u on the restarts must agree,
below it they must not always agree.  `thresholds` reports mlt_e = mlt_b
by the paper's corollary (almost sure boundedness already gives almost
sure existence), so the walk checks that corollary through the fits: at
mlt_b - 1 no maximizer may be found, and at mlt_b one must be.

The tier-1 suite walks a small grid (`tests/test_acceptance.py`, criterion
10).  The defaults here are the wide walk, too slow for tier-1; run it
from the repository root before a change to the solver lands:

    PYTHONPATH=src python tests/threshold_walk.py [--max-k 4] [--max-entry 32] \\
        [--max-prod 4096] [--max-mn 4096] [--trials 2]

It prints one line per datum to stdout: its dims, m and a SHA-256 of what
its fits say without a float (`verdict_digest`), so that two commits'
walks with the same flags compare with `diff`.  One line per failure and a
summary go to stderr, and it exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from itertools import combinations_with_replacement

from tnm import Datum, thresholds, verify_datum


def shapes(max_k: int, max_entry: int, max_prod: int):
    """The sorted shapes of 2..max_k entries from 2..max_entry with
    prod(d_i) <= max_prod, fewest entries first."""
    for k in range(2, max_k + 1):
        for dims in combinations_with_replacement(range(2, max_entry + 1), k):
            if math.prod(dims) <= max_prod:
                yield dims


def threshold_samples(rep, prod: int, max_mn: int) -> list[int]:
    """The sample counts next to the thresholds in `rep` that the walk checks."""
    near = {rep.mlt_b - 1, rep.mlt_b, rep.mlt_u - 1, rep.mlt_u}
    return sorted(m for m in near if m >= 1 and m * prod <= max_mn)


def verdict_digest(ver) -> str:
    """SHA-256 of a verification report without its floats: each trial's
    statuses, iterations, polish sweeps and fit Newton steps, then the
    bounded, exists and unique verdicts."""
    trials = [(t.statuses, t.iterations, t.polish_sweeps, t.fit_newton_steps) for t in ver.trials]
    payload = repr((trials, ver.bounded_agrees, ver.exists_agrees, ver.unique_agrees))
    return hashlib.sha256(payload.encode()).hexdigest()


def walk(max_k: int, max_entry: int, max_prod: int, max_mn: int, trials: int):
    """Walk the grid; return (shapes, data, failures, digests), failures a
    list of lines and digests one line per datum."""
    n_shapes = n_data = 0
    failures, digests = [], []
    for dims in shapes(max_k, max_entry, max_prod):
        n_shapes += 1
        rep = thresholds(dims)
        for m in threshold_samples(rep, math.prod(dims), max_mn):
            n_data += 1
            ver = verify_datum(Datum(dims, m), trials=trials, restarts=4, seed=0, threads=1)
            digests.append(f"{dims} m={m} {verdict_digest(ver)}")
            # the witness fraction is None unless non-uniqueness is predicted
            if not ver.hard_clauses_agree or ver.nonuniqueness_witness_fraction == 0:
                failures.append(
                    f"{dims} m={m}: bounded_agrees={ver.bounded_agrees} "
                    f"exists_agrees={ver.exists_agrees} unique_agrees={ver.unique_agrees} "
                    f"nonuniqueness_witness_fraction={ver.nonuniqueness_witness_fraction}"
                )
    return n_shapes, n_data, failures, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-k", type=int, default=4)
    parser.add_argument("--max-entry", type=int, default=32)
    parser.add_argument("--max-prod", type=int, default=4096)
    parser.add_argument("--max-mn", type=int, default=4096)
    parser.add_argument("--trials", type=int, default=2)
    args = parser.parse_args(argv)
    start = time.monotonic()
    n_shapes, n_data, failures, digests = walk(args.max_k, args.max_entry, args.max_prod, args.max_mn,
                                               args.trials)
    for line in digests:
        print(line)
    for line in failures:
        print(line, file=sys.stderr)
    print(f"walked {n_shapes} shapes, {n_data} data, {len(failures)} failures "
          f"in {time.monotonic() - start:.1f} s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
