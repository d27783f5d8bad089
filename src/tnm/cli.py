"""Command-line interface.

Subcommands
-----------
classify   print the full dossier for one datum (JSON or aligned text)
threshold  print the exact sample-count thresholds for given dimensions
scan       sweep a grid of data, run a consistency check, write a CSV
simulate   write a deterministic standard normal sample set to JSON
verify     fit simulated (or supplied) data and compare with the prediction

Exit codes: 0 success / checks agree, 1 a check or clause failed, 2 bad
flags, I/O trouble, a malformed input file or a request too large to
simulate, 3 numerical failure unrelated to the prediction.  Only simulate
and verify load the solver (tnm.mle), and numpy and json with it.
classify loads fractions for the factor indices, classify and threshold
load json only for --format json, and logging loads only when a warning is
logged; scan loads none of the three.
JSON is written in one walk that converts and formats together (tuples as
lists, dataclasses as objects, floats that are not finite as null) and
prints the bytes json.dumps(indent=2) would print for the converted
document; json loads only for its string escaper.  The exact integers tnm
derives (R, Delta, g_max, Z, indices, mlt_*, cor_bounds, git_dimension)
are printed as decimal strings so they survive parsers that truncate to
53-bit floats; the dims and m a document echoes from its input (a datum,
normalized, castling_trace, threshold's dims) are JSON numbers, which such
a parser rounds beyond 2^53.  Both are printed at any length
(_AnyLengthInts).  All output is deterministic for a given flag set; the
environment variable TNM_SEED supplies a default seed when --seed is
omitted.  One parser, with every command, is built once per process and
reused, so a library caller that runs main many times pays argparse's
set-up once.  An argv that starts with a command is parsed by that
command's own parser alone; only when it leaves arguments unrecognized
does the top-level parser parse the argv again, to report them with its
usage line.  Any other argv (none, -h, an unknown command) goes to the
top-level parser.  A command's flag takes a value that starts with '-'
(such as --dims -2,3 or --tol -inf) as its value, not as another flag.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from itertools import chain, combinations_with_replacement

from . import mle  # loads, with numpy, when simulate or verify first uses it
from .castling import _castle_step, _walk
from .classify import (
    StabilityClass,
    _classify_endpoint,
    _closed_form,
    _quotient_dimension,
    explain,
    thresholds,
)
from .datum import MAX_FACTORS, Datum, InvalidDatum, _big_r, _count, _delta, _g_max, _last_entry_invariants
from .pool import _pool_map

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SCAN_CHECKS = ("equivalence", "monotone", "castling")
SCAN_GRID_LIMIT = 10_000_000
_RUN_MAX = 64  # most rows per scan task, so rows in flight grow neither with the grid nor with --max-m
CSV_COLUMNS = ("dims", "m", "R", "Delta", "g_max", "class_closed_form", "class_recursive", "agree")
_CLASS_ORDER = list(StabilityClass)  # unstable < polystable < stable


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidDatum(f"cannot parse dimensions from {text!r}")


def _default_seed() -> int:
    seed = os.environ.get("TNM_SEED", "0")
    with contextlib.suppress(ValueError):  # text int() cannot read stays text, which _count refuses
        seed = int(seed)
    return _count("TNM_SEED", seed, 0)


def _dims_str(dims) -> str:
    return "x".join(str(d) for d in dims)


def _print_json(doc) -> None:
    """Print `doc` as indented JSON, with a float that is not finite as null
    (no NaN or Infinity), a tuple as a list and a dataclass as an object of
    its fields in order.  `_json_text` converts and formats in one walk and
    writes the bytes json.dumps(indent=2) would write for the converted
    document; only classify, threshold and verify write JSON, so json loads
    here, for its string escaper, and never for scan."""
    from json.encoder import encode_basestring_ascii

    print(_json_text(doc, encode_basestring_ascii, "\n"))


def _json_text(value, escape, newline: str) -> str:
    """`value` as JSON text, nested values indented by two spaces more than
    `newline`'s.  Scalars are tested as json tests them, bool before int,
    and a subclass of str, int or float is written as its base type.  A
    container's items are joined once.  Dict keys are strings.  Dataclass
    fields come from __dataclass_fields__, which dataclasses.fields filters
    of ClassVar pseudo-fields (no dataclass written here has one), in a
    third of the time that fields() and is_dataclass take.  Any other value
    raises TypeError, as in json."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = newline + "  "
    if isinstance(value, (tuple, list)):
        if not value:
            return "[]"
        items = [_json_text(v, escape, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        pairs = value.items()
    elif hasattr(value, "__dataclass_fields__"):
        pairs = [(name, getattr(value, name)) for name in value.__dataclass_fields__]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not pairs:
        return "{}"
    items = [f"{escape(k)}: {_json_text(v, escape, inner)}" for k, v in pairs]
    return f"{{{inner}{(',' + inner).join(items)}{newline}}}"


# ---------------------------------------------------------------------------
# classify / threshold


def _threshold_doc(rep) -> dict:
    return {
        "mlt_b": str(rep.mlt_b),
        "mlt_e": str(rep.mlt_e),
        "mlt_u": str(rep.mlt_u),
        "cor_bounds": [str(b) for b in rep.cor_bounds] if rep.cor_bounds else None,
    }


def _report_doc(rep) -> dict:
    return {
        "datum": rep.datum,
        "normalized": rep.normalized,
        "R": str(rep.big_r),
        "Delta": str(rep.delta),
        "g_max": str(rep.g_max),
        "Z": str(rep.z),
        "indices": [str(x) for x in rep.indices],
        "castling_trace": rep.trace.steps,
        "class": rep.stability.value,
        "classifiers_agree": rep.classifiers_agree,
        "mle_profile": rep.profile,
        "thresholds": _threshold_doc(rep.thresholds),
        "git_dimension": None if rep.git_dimension is None else str(rep.git_dimension),
    }


def _print_kv(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


class _AnyLengthInts:
    """A context that lifts CPython's limit on int-to-decimal conversion
    (4,300 digits by default) and restores the caller's limit on exit.
    classify and threshold print their results inside one: R and Z of a
    valid datum can be longer than its entries, which were parsed under the
    caller's limit.  It is a class: a contextlib.contextmanager added about
    3 us to a 105 us classify call (one CPU of a 2-vCPU Xeon)."""

    def __enter__(self) -> None:
        self.limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc) -> None:
        sys.set_int_max_str_digits(self.limit)


if not hasattr(sys, "set_int_max_str_digits"):  # Python before 3.10.7: no limit
    _AnyLengthInts = contextlib.nullcontext


def cmd_classify(args) -> int:
    datum = Datum(_parse_dims(args.dims), args.samples)
    rep = explain(datum)
    with _AnyLengthInts():
        if args.format == "json":
            _print_json(_report_doc(rep))
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
    rep = thresholds(dims)  # validates dims as Datum(dims, 1)
    with _AnyLengthInts():
        if args.format == "json":
            _print_json({"dims": dims, **_threshold_doc(rep)})
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


def _shape_count(max_k: int, max_dim: int) -> int:
    count = 1 if max_dim >= 1 else 0  # the (1,) datum
    for k in range(1, max_k + 1):
        count += math.comb(max_dim - 2 + k, k) if max_dim >= 2 else 0
    return count


def _scan_tasks(max_k: int, max_dim: int, max_m: int, check: str):
    """The scan tasks (prefix, lo, hi, m0, m1, check), lazily and in CSV order.

    A task covers the shapes prefix + (v,) for lo <= v <= hi at the sample
    counts m0 <= m < m1: a run of at most _RUN_MAX consecutive m, and as many
    consecutive last entries v as fit in _RUN_MAX rows.  The (1,) datum is
    the empty prefix with v = 1; every other shape is a multiset of entries
    from 2..max_dim, sorted ascending, so its last entry runs from the
    prefix's own last entry (2 for the empty prefix) up to max_dim.  The
    empty prefix is not drawn from combinations_with_replacement, which holds
    its whole pool: a k = 1 grid keeps nothing that grows with max_dim.
    """
    run = min(max_m, _RUN_MAX)
    width = _RUN_MAX // run  # last entries per task
    prefixes = chain.from_iterable(combinations_with_replacement(range(2, max_dim + 1), k) for k in range(1, max_k))
    heads = chain([((), 1, 1), ((), 2, max_dim)], ((prefix, prefix[-1], max_dim) for prefix in prefixes))
    for prefix, first, last in heads:
        for lo in range(first, last + 1, width):
            hi = min(lo + width - 1, last)
            for m0 in range(1, max_m + 1, run):
                yield prefix, lo, hi, m0, min(m0 + run, max_m + 1), check


def _castling_ok(dims: tuple[int, ...], m: int, r: int, dl: int, gm: int, c1: StabilityClass) -> bool:
    """Whether the castled datum's own R, Delta, g_max, class and quotient
    dimension equal those of (dims; m), dims normalized; True when it has no
    castling move.  The castled dims stay a tuple: no Datum is built."""
    e = _castle_step(dims, m)
    if e is None:
        return True
    p = math.prod(e)
    er, edl, egm = _big_r(m, p, e), _delta(m, p, e), _g_max(e)
    return (
        er == r
        and edl == dl
        and egm == gm
        and _closed_form(m, er, egm, edl) is c1
        and _quotient_dimension(m, er, egm, edl) == _quotient_dimension(m, r, gm, dl)
    )


def _scan_task(task) -> tuple[str, int]:
    """The CSV text of one task's rows, and how many failed.

    Per task, prod(prefix) is the partner N / m of every shape: the last
    entry is the largest.  Per shape, `_last_entry_invariants` gives
    prod(d_i), R, Delta and g_max at m0 (it computes the prefix's share of
    them once per task), and the row's leading `dims,` and its `,g_max,`
    field are formatted once.  Per row, one more sample adds prod(d_i) to
    R = m * prod(d_i) - Z and to Delta = m * prod(d_i) - 1 - sum(d_i^2 - 1),
    and g_max does not depend on m; `_walk` runs only on rows with a
    castling move, and a row without one is its own endpoint.  Each row is
    one f-string in the csv module's default dialect, the bytes csv.writer
    would write, and the task's rows are joined once.
    """
    prefix, lo, hi, m0, m1, check = task
    head, rows = "".join(f"{d}x" for d in prefix), []
    q = math.prod(prefix)
    failures = 0
    for dims, p, r, dl, gm in _last_entry_invariants(prefix, lo, hi, m0):
        d_k = dims[-1]
        # No field needs csv quoting: dims is digits joined by "x", m, R,
        # Delta and g_max are ints, the classes are three fixed words and
        # agree is True or False, so none holds a comma, quote or line break.
        name, gm_field = f"{head}{d_k},", f",{gm},"
        for m in range(m0, m1):
            c1 = _closed_form(m, r, gm, dl)
            end, n = dims, m * q
            if d_k < n < 2 * d_k:  # _walk's loop test: a move shrinks (dims; m)
                steps, n = _walk(dims, m)
                end = steps[-1]
            c2 = _classify_endpoint(end, m, n)
            if check == "equivalence":
                ok = c1 is c2
            elif check == "monotone":
                ok = _CLASS_ORDER.index(_closed_form(m + 1, r + p, gm, dl + p)) >= _CLASS_ORDER.index(c1)
            else:  # castling
                ok = _castling_ok(dims, m, r, dl, gm, c1)
            rows.append(f"{name}{m},{r},{dl}{gm_field}{c1._value_},{c2._value_},{ok}\r\n")
            failures += not ok
            r, dl = r + p, dl + p
    return "".join(rows), failures


def cmd_scan(args) -> int:
    if args.max_k < 1 or args.max_dim < 1 or args.max_m < 1:
        raise InvalidDatum("grid bounds must be >= 1")
    if args.max_k > MAX_FACTORS:
        raise InvalidDatum(f"--max-k must be at most {MAX_FACTORS}, got {args.max_k}")
    shapes = _shape_count(args.max_k, args.max_dim)
    size = shapes * args.max_m
    if size > SCAN_GRID_LIMIT:
        raise InvalidDatum(f"grid has {size} data, more than the {SCAN_GRID_LIMIT} limit")
    tasks = _scan_tasks(args.max_k, args.max_dim, args.max_m, args.check)
    # _pool_map's n: the tasks drawn once more, lazily, at about 1.5 us a task
    n_tasks = sum(1 for _ in _scan_tasks(args.max_k, args.max_dim, args.max_m, args.check))
    failures = 0
    with open(args.out, "w", newline="") as fh:  # an unwritable --out fails before any row
        fh.write(",".join(CSV_COLUMNS) + "\r\n")  # csv's default dialect, as _scan_task's rows
        for text, failed in _pool_map(_scan_task, tasks, args.threads, n_tasks):
            fh.write(text)
            failures += failed
    print(f"scanned {size} data, check={args.check}, failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# simulate / verify


def cmd_simulate(args) -> int:
    dims = _parse_dims(args.dims)
    Datum(dims, args.samples)  # validate
    samples = mle.sample_standard(dims, args.samples, seed=args.seed)
    samples.save(args.out)
    print(f"wrote {samples.m} samples of shape {_dims_str(dims)} to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = mle.DEFAULT_TOL if args.tol is None else args.tol
    if args.data is not None:
        samples = mle.SampleSet.load(args.data)
        rep = mle.verify_samples(samples, restarts=args.restarts, seed=args.seed, tol=tol)
    else:
        datum = Datum(_parse_dims(args.dims), args.samples)
        rep = mle.verify_datum(
            datum,
            trials=args.trials,
            restarts=args.restarts,
            seed=args.seed,
            tol=tol,
            threads=args.threads,
        )
    if args.format == "json":
        _print_json(rep)
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


_THREADS = os.cpu_count() or 1  # --threads' default, read at import

# command: help, handler and the (flag, add_argument keywords) of each argument
_COMMANDS = {
    "classify": ("full dossier for one datum", cmd_classify, (
        ("--dims", {"required": True, "help": "comma-separated dimensions, e.g. 2,3,3"}),
        ("--samples", {"type": int, "required": True, "help": "sample count m"}),
        ("--format", {"choices": ("json", "text"), "default": "json"}),
    )),
    "threshold": ("sample-count thresholds for dimensions", cmd_threshold, (
        ("--dims", {"required": True}),
        ("--format", {"choices": ("json", "text"), "default": "json"}),
    )),
    "scan": ("grid consistency check, CSV output", cmd_scan, (
        ("--max-k", {"type": int, "required": True}),
        ("--max-dim", {"type": int, "required": True}),
        ("--max-m", {"type": int, "required": True}),
        ("--check", {"choices": SCAN_CHECKS, "default": "equivalence"}),
        ("--out", {"required": True, "help": "CSV file to write"}),
        ("--threads", {"type": int, "default": _THREADS}),
    )),
    "simulate": ("write a deterministic sample set", cmd_simulate, (
        ("--dims", {"required": True}),
        ("--samples", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": None}),
        ("--out", {"required": True, "help": "JSON file to write"}),
    )),
    "verify": ("fit simulated or supplied data, compare with prediction", cmd_verify, (
        ("--dims", {"help": "required unless --data is given"}),
        ("--samples", {"type": int, "help": "required unless --data is given"}),
        ("--trials", {"type": int, "default": 20}),
        ("--restarts", {"type": int, "default": 4}),
        ("--seed", {"type": int, "default": None}),
        ("--tol", {"type": float, "default": None}),
        ("--data", {"help": "JSON sample set; skips simulation"}),
        ("--threads", {"type": int, "default": _THREADS}),
        ("--format", {"choices": ("json", "text"), "default": "text"}),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The tnm parser: every subcommand with its arguments.

    It is built once per process and then reused: parsing leaves a parser
    unchanged (argparse makes a fresh namespace per parse and reads COLUMNS
    whenever it formats help or usage).  Every caller gets the same parser
    object, so a caller that changes it changes what main parses;
    `build_parser.cache_clear()` drops it.  Its `commands` maps each
    command's name to the command's own parser, which sets `command` and
    `func` in its namespace as the top-level parser does."""
    parser = argparse.ArgumentParser(
        prog="tnm",
        description="Classify tensor normal models and verify the classification numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, command=name)
    return parser


def _dash_values_joined(argv: list[str]) -> list[str]:
    """A command's argv with each `flag value` pair whose value starts with
    one '-' written `flag=value`.  argparse takes such a value for a flag
    unless it is a plain negative number, and reports the flag before it as
    missing its argument: `--dims -2,3` and `--tol -inf` now get the dims
    or tol message that `--dims=-2,3` gets.  A flag may be abbreviated, as
    argparse allows, to a prefix of exactly one of the command's option
    strings (`--dim` for `--dims`; `--help` counts, so `--h` stays help).
    A value that starts with '--' is never joined, so flags and --help stay
    flags; nor is -h, nor anything after `--`."""
    flags = [flag for flag, _ in _COMMANDS[argv[0]][2]]
    joined, i = [argv[0]], 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            joined += argv[i:]
            break
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if arg[:2] == "--" and arg not in flags:
            named = [f for f in (*flags, "--help") if f.startswith(arg)]
            arg = named[0] if len(named) == 1 else arg
        if arg in flags and value[:1] == "-" and value[1:2] != "-" and value != "-h":
            joined.append(f"{arg}={value}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if argv and argv[0] in _COMMANDS:
        argv = _dash_values_joined(argv)
        # the namespace the top-level parser would return: after a pass of
        # its own over the argv, it hands argv[1:] to this parser unchanged
        args, unrecognized = parser.commands[argv[0]].parse_known_args(argv[1:])
        if unrecognized:  # reported, as only the top-level parser does, with its usage line
            args = parser.parse_args(argv)
    else:
        args = parser.parse_args(argv)
    if args.command == "verify" and args.data is None and (args.dims is None or args.samples is None):
        print("tnm verify: --dims and --samples are required without --data", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command in ("scan", "verify"):
            _count("--threads", args.threads, 1)
        if args.command in ("simulate", "verify"):
            args.seed = _default_seed() if args.seed is None else _count("--seed", args.seed, 0)
        return args.func(args)
    except (ValueError, OSError) as exc:  # InvalidDatum, DeskScaleExceeded, bad files
        print(f"tnm {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
