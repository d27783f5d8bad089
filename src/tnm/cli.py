"""Command-line interface.

Subcommands
-----------
classify   print the full dossier for one datum (JSON or aligned text)
threshold  print the exact sample-count thresholds for given dimensions
scan       sweep a grid of data, run a consistency check, write a CSV
simulate   write a deterministic standard normal sample set to JSON
verify     fit simulated (or supplied) data and compare with the prediction

Exit codes: 0 success / checks agree, 1 a check or clause failed, 2 bad
flags, I/O trouble or a malformed input file, 3 numerical failure unrelated
to the prediction.
Exact integers are printed as decimal strings in JSON so they survive
parsers that truncate to 53-bit floats.  All output is deterministic for
a given flag set; the environment variable TNM_SEED supplies a default
seed when --seed is omitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from itertools import chain, combinations_with_replacement

from .castling import NotCastlable, castle_step
from .classify import (
    StabilityClass,
    _closed_form,
    _quotient_dimension,
    classify_recursive,
    explain,
    thresholds,
)
from .datum import Datum, InvalidDatum, big_r, delta, g_max
from .mle import (
    DEFAULT_TOL,
    SampleSet,
    _pool_map,
    sample_standard,
    verify_datum,
    verify_samples,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SCAN_CHECKS = ("equivalence", "monotone", "castling")
SCAN_GRID_LIMIT = 10_000_000
CSV_COLUMNS = ("dims", "m", "R", "Delta", "g_max", "class_closed_form", "class_recursive", "agree")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidDatum(f"cannot parse dimensions from {text!r}")
    if not dims:
        raise InvalidDatum("need at least one dimension")
    return dims


def _default_seed() -> int:
    text = os.environ.get("TNM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"TNM_SEED must be an integer, got {text!r}") from None


def _dims_str(dims) -> str:
    return "x".join(str(d) for d in dims)


def _datum_doc(datum: Datum) -> dict:
    return {"dims": list(datum.dims), "m": datum.m}


# ---------------------------------------------------------------------------
# classify / threshold


def _threshold_doc(rep) -> dict:
    return {
        "mlt_b": str(rep.mlt_b),
        "mlt_e": str(rep.mlt_e),
        "mlt_u": str(rep.mlt_u),
        "cor_bounds": [str(b) for b in rep.cor_bounds] if rep.cor_bounds else None,
    }


def _profile_doc(profile) -> dict:
    return {
        "bounded_as": profile.bounded_as,
        "exists_as": profile.exists_as,
        "unique_as": profile.unique_as,
        "always_unbounded": profile.always_unbounded,
    }


def _report_doc(rep) -> dict:
    return {
        "datum": _datum_doc(rep.datum),
        "normalized": _datum_doc(rep.normalized),
        "R": str(rep.big_r),
        "Delta": str(rep.delta),
        "g_max": str(rep.g_max),
        "Z": str(rep.z),
        "indices": [str(x) for x in rep.indices],
        "castling_trace": [_datum_doc(d) for d in rep.trace.steps],
        "class": rep.stability.value,
        "classifiers_agree": rep.classifiers_agree,
        "mle_profile": _profile_doc(rep.profile),
        "thresholds": _threshold_doc(rep.thresholds),
        "git_dimension": None if rep.git_dimension is None else str(rep.git_dimension),
    }


def _print_kv(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


def cmd_classify(args) -> int:
    datum = Datum(_parse_dims(args.dims), args.samples)
    rep = explain(datum)
    if args.format == "json":
        print(json.dumps(_report_doc(rep), indent=2))
    else:
        gd = "empty" if rep.git_dimension is None else str(rep.git_dimension)
        trace = " -> ".join(str(d) for d in rep.trace.steps)
        _print_kv([
            ("datum", str(rep.datum)),
            ("normalized", str(rep.normalized)),
            ("R", str(rep.big_r)),
            ("Delta", str(rep.delta)),
            ("g_max", str(rep.g_max)),
            ("Z", str(rep.z)),
            ("indices", ", ".join(str(x) for x in rep.indices) or "-"),
            ("castling trace", trace),
            ("class", rep.stability.value),
            ("classifiers agree", "yes" if rep.classifiers_agree else "NO"),
            ("bounded a.s.", str(rep.profile.bounded_as)),
            ("MLE exists a.s.", str(rep.profile.exists_as)),
            ("MLE unique a.s.", str(rep.profile.unique_as)),
            ("always unbounded", str(rep.profile.always_unbounded)),
            ("mlt_b / mlt_e / mlt_u",
             f"{rep.thresholds.mlt_b} / {rep.thresholds.mlt_e} / {rep.thresholds.mlt_u}"),
            ("cor_bounds", str(rep.thresholds.cor_bounds) if rep.thresholds.cor_bounds else "-"),
            ("git dimension", gd),
        ])
    return EXIT_OK


def cmd_threshold(args) -> int:
    dims = _parse_dims(args.dims)
    Datum(dims, 1)  # validate
    rep = thresholds(dims)
    if args.format == "json":
        doc = {"dims": list(dims)}
        doc.update(_threshold_doc(rep))
        print(json.dumps(doc, indent=2))
    else:
        _print_kv([
            ("dims", _dims_str(dims)),
            ("mlt_b", str(rep.mlt_b)),
            ("mlt_e", str(rep.mlt_e)),
            ("mlt_u", str(rep.mlt_u)),
            ("cor_bounds", str(rep.cor_bounds) if rep.cor_bounds else "-"),
        ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _grid_size(max_k: int, max_dim: int, max_m: int) -> int:
    count = 1 if max_dim >= 1 else 0  # the (1,) datum
    for k in range(1, max_k + 1):
        count += math.comb(max_dim - 2 + k, k) if max_dim >= 2 else 0
    return count * max_m


def _grid(max_k: int, max_dim: int, max_m: int):
    shapes = [[(1,)] if max_dim >= 1 else []]
    shapes.extend(combinations_with_replacement(range(2, max_dim + 1), k) for k in range(1, max_k + 1))
    for dims in chain.from_iterable(shapes):  # lazily: the grid is never held
        for m in range(1, max_m + 1):
            yield dims, m


def _scan_row(task):
    dims, m, check = task
    d = Datum(dims, m)
    r, dl, gm = big_r(d), delta(d), g_max(d)
    c1, c2 = _closed_form(m, r, gm, dl), classify_recursive(d)
    if check == "equivalence":
        ok = c1 is c2
    elif check == "monotone":
        # one more sample adds prod(d_i) to both R and Delta; g_max stays
        p = d.product()
        order = list(StabilityClass)  # unstable < polystable_not_stable < stable
        ok = order.index(_closed_form(m + 1, r + p, gm, dl + p)) >= order.index(c1)
    else:  # castling
        try:
            e = castle_step(d)
        except NotCastlable:
            ok = True
        else:
            er, edl, egm = big_r(e), delta(e), g_max(e)
            ok = (
                er == r
                and edl == dl
                and egm == gm
                and _closed_form(e.m, er, egm, edl) is c1
                and _quotient_dimension(e.m, er, egm, edl) == _quotient_dimension(m, r, gm, dl)
            )
    return (_dims_str(dims), m, str(r), str(dl), str(gm), c1.value, c2.value, ok)


def cmd_scan(args) -> int:
    if args.max_k < 1 or args.max_dim < 1 or args.max_m < 1:
        raise InvalidDatum("grid bounds must be >= 1")
    size = _grid_size(args.max_k, args.max_dim, args.max_m)
    if size > SCAN_GRID_LIMIT:
        raise InvalidDatum(f"grid has {size} data, more than the {SCAN_GRID_LIMIT} limit")
    tasks = ((dims, m, args.check) for dims, m in _grid(args.max_k, args.max_dim, args.max_m))
    rows = failures = 0
    with open(args.out, "w", newline="") as fh:  # an unwritable --out fails before any row
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in _pool_map(_scan_row, tasks, args.threads, size):
            writer.writerow(row)
            rows += 1
            failures += not row[-1]
    print(f"scanned {rows} data, check={args.check}, failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# simulate / verify


def cmd_simulate(args) -> int:
    dims = _parse_dims(args.dims)
    Datum(dims, args.samples)  # validate
    samples = sample_standard(dims, args.samples, seed=args.seed)
    samples.save(args.out)
    print(f"wrote {samples.m} samples of shape {_dims_str(dims)} to {args.out}")
    return EXIT_OK


def _verify_doc(rep) -> dict:
    return {
        "datum": _datum_doc(rep.datum),
        "profile": _profile_doc(rep.profile),
        "trials": [
            {
                "statuses": list(t.statuses),
                "logliks": list(t.logliks),
                "loglik_spread": t.loglik_spread,
                "factor_spread_rel": t.factor_spread_rel,
                "factor_spread_abs": t.factor_spread_abs,
                "iterations": list(t.iterations),
                "polish_sweeps": list(t.polish_sweeps),
            }
            for t in rep.trials
        ],
        "bounded_agrees": rep.bounded_agrees,
        "exists_agrees": rep.exists_agrees,
        "unique_agrees": rep.unique_agrees,
        "nonuniqueness_witness_fraction": rep.nonuniqueness_witness_fraction,
    }


def cmd_verify(args) -> int:
    if args.data is not None:
        samples = SampleSet.load(args.data)
        rep = verify_samples(samples, restarts=args.restarts, seed=args.seed, tol=args.tol)
    else:
        datum = Datum(_parse_dims(args.dims), args.samples)
        rep = verify_datum(
            datum,
            trials=args.trials,
            restarts=args.restarts,
            seed=args.seed,
            tol=args.tol,
            threads=args.threads,
        )
    if args.format == "json":
        print(json.dumps(_verify_doc(rep), indent=2))
    else:
        n_trials = len(rep.trials)
        n_all_conv = sum(t.all_converged for t in rep.trials)
        n_all_div = sum(t.all_diverged for t in rep.trials)
        uniq = "n/a" if rep.unique_agrees is None else ("yes" if rep.unique_agrees else "NO")
        _print_kv([
            ("datum", str(rep.datum)),
            ("predicted", "unbounded likelihood" if rep.profile.always_unbounded
             else ("unique MLE" if rep.profile.unique_as else "MLE exists, not unique")),
            ("trials", str(n_trials)),
            ("all restarts converged", f"{n_all_conv}/{n_trials}"),
            ("all restarts diverged", f"{n_all_div}/{n_trials}"),
            ("bounded clause agrees", "yes" if rep.bounded_agrees else "NO"),
            ("exists clause agrees", "yes" if rep.exists_agrees else "NO"),
            ("unique clause agrees", uniq),
            ("non-uniqueness witness", "n/a" if rep.nonuniqueness_witness_fraction is None
             else f"{rep.nonuniqueness_witness_fraction:.2f} of trials split >= 1e-3"),
        ])
    if rep.all_degenerate:
        return EXIT_NUMERICAL
    return EXIT_OK if rep.hard_clauses_agree else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnm",
        description="Classify tensor normal models and verify the classification numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    threads_default = os.cpu_count() or 1

    p = sub.add_parser("classify", help="full dossier for one datum")
    p.add_argument("--dims", required=True, help="comma-separated dimensions, e.g. 2,3,3")
    p.add_argument("--samples", type=int, required=True, help="sample count m")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("threshold", help="sample-count thresholds for dimensions")
    p.add_argument("--dims", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("scan", help="grid consistency check, CSV output")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--check", choices=SCAN_CHECKS, default="equivalence")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--threads", type=int, default=threads_default)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("simulate", help="write a deterministic sample set")
    p.add_argument("--dims", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="JSON file to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="fit simulated or supplied data, compare with prediction")
    p.add_argument("--dims", help="required unless --data is given")
    p.add_argument("--samples", type=int, help="required unless --data is given")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--data", help="JSON sample set; skips simulation")
    p.add_argument("--threads", type=int, default=threads_default)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.data is None and (args.dims is None or args.samples is None):
        print("tnm verify: --dims and --samples are required without --data", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command in ("simulate", "verify") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError) as exc:  # InvalidDatum, DeskScaleExceeded, bad files
        print(f"tnm {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
