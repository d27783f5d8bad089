"""tnm benchmark: what a `tnm` user waits for, on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload classify_mix --seed 0 --seconds 25 --trace 0

One client in one process sends each op only after the previous one returned
(a closed loop).  An op is an in-process call of `tnm.cli.main(argv)` with
stdout captured; its exit code and output are checked after its timer stops.
The workload's pass (see workloads.py) runs at least twice, and again while
another repeat fits into --seconds.  Times are scaled to a reference machine
speed (see speed.py).  With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of one traced pass.  The lines above it are a readable summary.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before anything imports numpy

import workloads as wl  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import LAYERS, Tracer, install, uninstall  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_REPEATS = 2
SETUP_STARTS = 11
SETUP_CODE = "import tnm.cli; tnm.cli.build_parser(); print('ready', flush=True)"
CHILD_TIMEOUT_S = 60
DATUM_INVARIANTS = ("big_r", "delta", "g_max", "z_quantity", "index_of_factor")
FIT_STATUSES = {
    "converged": "converged",
    "diverged": "diverged",
    "max_iterations": "max_iterations",
    "degenerate_statistic": "degenerate",
}


@dataclass
class PassResult:
    units: int = 0
    failed: int = 0
    raw: list = field(default_factory=list)      # seconds per op, as measured
    scaled: list = field(default_factory=list)   # the same at reference speed
    # (both without the speed samples taken inside the op)
    infos: list = field(default_factory=list)
    first_failure: str = ""


def run_pass(call, ops, gate, units: int, speed: Speed, hasher=None) -> PassResult:
    """Send each op after the previous one returned; gate it after its timer
    stops."""
    res = PassResult()
    spans = []
    with speed.sampling():
        for argv in ops:
            speed.between_ops()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    rc = call(argv)
                except (Exception, SystemExit) as exc:
                    rc = f"raised {exc!r}"
                t1 = perf_counter()
            spans.append((t0, t1))
            failed, info = units, {}
            if rc == 0:
                try:
                    failed, info = gate(argv, out.getvalue(), hasher)
                except (ValueError, KeyError, TypeError, OSError) as exc:
                    rc = f"unreadable output: {exc!r}"
            res.units += units
            res.failed += failed
            res.infos.append(info)
            if failed and not res.first_failure:
                detail = rc if rc != 0 else "check failed"
                res.first_failure = f"tnm {' '.join(argv)}: {detail} {err.getvalue().strip()}"
    timed = [speed.scaled(t0, t1) for t0, t1 in spans]
    res.raw = [net for net, _ in timed]
    res.scaled = [at_ref for _, at_ref in timed]
    return res


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    warm: list      # ops run untimed before measuring
    ops: list       # one pass
    gate: object    # workloads.gate_*
    units: int      # units per op: 1, or the grid size for a scan call
    digest: bool    # pass 1 is checked against digests.json on the default seed
    pool: bool      # ops start worker processes


def make_workload(name: str, seed: int, serial: bool) -> Workload:
    rng = random.Random(seed)
    if name == "classify_mix":
        ops = wl.classify_pass(rng)
        return Workload(ops[: len(wl.WIDE_K) + wl.DEEP_PER_BLOCK], ops, wl.gate_classify, 1, True, False)
    if name == "scan_grid":
        threads = 1 if serial else wl.SCAN_THREADS
        csv_path = str(OUT / f"scan-{os.getpid()}.csv")
        warm = ["scan", "--max-k", "2", "--max-dim", "8", "--max-m", "2",
                "--out", csv_path, "--threads", str(threads)]
        ops = [wl.scan_argv(csv_path, threads)]
        return Workload([warm], ops, wl.gate_scan, wl.scan_grid_size(), True, threads > 1)
    panel = {"verify_panel": wl.VERIFY_PANEL, "verify_large": wl.VERIFY_LARGE}[name]
    warm = [wl.verify_argv(dims, m, wl.TRIAL_SEEDS[0]) for dims, m in panel]
    return Workload(warm, wl.verify_pass(panel, rng), wl.gate_verify, 1, False, False)


def pin_to_one_cpu() -> None:
    """Keep ops, speed samples and cold starts on the CPU the samples measure."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; the maximum (p100) when there are 10 samples or fewer."""
    n = len(latencies)
    q = (n - 10) / n if n > 10 else 1.0
    return nearest_rank(latencies, q), 100.0 * q


def nearest_rank(xs, q: float) -> float:
    if not xs:
        return 0
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def flops_per_sweep(dims, m: int) -> float:
    """Computed, not counted: one flip-flop sweep of fit_mle.

    k block statistics, each applying all k factors mode-wise
    (2 m n d_i per mode), k eigendecompositions with eigenvectors (9 d^3)
    and rebuilds (2 d^3), then one log-likelihood (k mode products, a dot
    product 2 m n, k Cholesky factorizations d^3 / 3).
    """
    n, k, sd = math.prod(dims), len(dims), sum(dims)
    return 2.0 * m * n * (k + 1) * sd + 2.0 * m * n + sum((11 + 1 / 3) * d**3 for d in dims)


# ---------------------------------------------------------------------------
# measurements outside the loop


def setup_times(env, speed: Speed) -> tuple[list[float], list[float]]:
    """Cold starts: a fresh interpreter until `import tnm.cli` and
    `build_parser()` are done, timed from spawn to its 'ready' line.
    Returns (raw, scaled) seconds."""
    spans = []
    with speed.sampling():
        for _ in range(SETUP_STARTS):
            speed.between_ops()
            t0 = perf_counter()
            with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                t1 = perf_counter()
                proc.stdout.read()
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            if line.strip() != "ready" or rc != 0:
                raise RuntimeError(f"cold start failed (exit {rc})")
            spans.append((t0, t1))
    timed = [speed.scaled(t0, t1) for t0, t1 in spans]
    return [net for net, _ in timed], [at_ref for _, at_ref in timed]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# the two modes


def measure(call, work: Workload, seconds: float, speed: Speed, hasher) -> list[PassResult]:
    """Repeat the pass MIN_REPEATS times, and again while another repeat
    fits into `seconds`."""
    passes = []
    t_start = perf_counter()
    while True:
        first = hasher if not passes else None
        passes.append(run_pass(call, work.ops, work.gate, work.units, speed, first))
        elapsed = perf_counter() - t_start
        if len(passes) >= MIN_REPEATS and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def per_op(passes, attr: str = "scaled") -> list[float]:
    """Each op's latency: the median of its repeats."""
    return [statistics.median(rep) for rep in zip(*(getattr(p, attr) for p in passes))]


def op_metrics(work: Workload, lat) -> tuple[float, float, float, float]:
    tail_s, tail_pct = tail(lat)
    return work.units * len(lat) / sum(lat), statistics.median(lat) * 1e3, tail_s * 1e3, tail_pct


def end_to_end(work: Workload, passes, setup) -> tuple[dict, list[str]]:
    ops_s, p50, tail_ms, tail_pct = op_metrics(work, per_op(passes))
    raw_ops_s, raw_p50, raw_tail, _ = op_metrics(work, per_op(passes, "raw"))
    setup_raw, setup_scaled = setup
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (ops_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup_scaled)} cold starts",
        f"{len(work.ops)} CLI calls per pass, {len(passes)} passes; op_tail_ms is p{tail_pct:.1f}",
        f"as measured, unscaled: setup_s {statistics.median(setup_raw):.4g}, ops_per_s {raw_ops_s:.4g}, "
        f"op_p50_ms {raw_p50:.4g}, op_tail_ms {raw_tail:.4g}",
    ]
    if len(work.ops) == 1:
        notes.append("one CLI call per pass: op_tail_ms is that call's latency, like op_p50_ms")
    return metrics, notes


def per_layer(tr: Tracer, fits, traced: PassResult, untraced_s: float) -> dict:
    """Counts as counted; times as measured, scaled by the traced pass's
    mean speed factor."""
    units = traced.units
    op_s = tr.stats("bench.op")[2]
    scale = sum(traced.scaled) / sum(traced.raw)
    m = {}

    def put(name, value, unit):
        if unit in ("ms", "us"):
            value *= scale
        elif unit == "GFLOP/s":
            value /= scale
        m[name] = (value, unit)

    for fn in ("big_r", "z_quantity"):
        calls, self_s, _ = tr.stats(f"datum.{fn}")
        put(f"datum.{fn}.calls", calls, "count")
        put(f"datum.{fn}.self_ms", self_s * 1e3, "ms")
    inv = sum(tr.stats(f"datum.{fn}")[0] for fn in DATUM_INVARIANTS)
    put("datum.invariant_calls_per_op", inv / units, "count/op")
    calls, self_s, _ = tr.stats("castling.reduce_to_minimal")
    put("castling.reduce_to_minimal.calls", calls, "count")
    put("castling.reduce_to_minimal.self_ms", self_s * 1e3, "ms")
    put("castling.castle_step.calls", tr.stats("castling.castle_step")[0], "count")
    put("classify.explain.self_ms", tr.stats("classify.explain")[1] * 1e3, "ms")
    put("classify.thresholds.self_ms", tr.stats("classify.thresholds")[1] * 1e3, "ms")
    calls, self_s, _ = tr.stats("classify.classify_closed_form")
    put("classify.classify_closed_form.calls", calls, "count")
    put("classify.classify_closed_form.self_ms", self_s * 1e3, "ms")
    put("classify.classify_recursive.self_ms", tr.stats("classify.classify_recursive")[1] * 1e3, "ms")

    calls, self_s, total_s = tr.stats("mle.fit_mle")
    sweeps = [f[1] for f in fits]
    put("mle.fit_mle.calls", calls, "count")
    put("mle.fit_mle.self_ms", self_s * 1e3, "ms")
    put("mle.fit_mle.sweep_us", total_s / sum(sweeps) * 1e6 if sweeps else 0.0, "us")
    flops = sum(f[1] * f[2] for f in fits)
    put("mle.fit_mle.gflops_computed", flops / total_s / 1e9 if total_s else 0.0, "GFLOP/s")
    put("mle.fit_mle.sweeps_p50", nearest_rank(sweeps, 0.50), "count")
    put("mle.fit_mle.sweeps_p95", nearest_rank(sweeps, 0.95), "count")
    put("mle.fit_mle.sweeps_max", max(sweeps, default=0), "count")
    for status, short in FIT_STATUSES.items():
        put(f"mle.fit_mle.{short}", sum(f[0] == status for f in fits), "count")
    put("mle.sample_standard.self_ms", tr.stats("mle.sample_standard")[1] * 1e3, "ms")
    _, self_s, total_s = tr.stats("mle.verify_datum")
    put("mle.verify_datum.self_ms", self_s * 1e3, "ms")
    put("mle.verify_datum.self_share", self_s / total_s if total_s else 0.0, "frac")
    witness = [i["witness"] for i in traced.infos if i.get("witness") is not None]
    put("mle.witness_frac", statistics.fmean(witness) if witness else 0.0, "frac")

    put("cli.main.self_ms", tr.stats("cli.main")[1] * 1e3, "ms")
    scans = [i for i in traced.infos if "rows" in i]
    put("cli.scan.rows", scans[0]["rows"] if scans else 0, "count")
    put("cli.scan.csv_bytes", scans[0]["csv_bytes"] if scans else 0, "bytes")
    for layer in LAYERS:
        put(f"{layer}.self_share", tr.layer_self_s(layer) / op_s, "frac")
    put("trace.overhead_frac", sum(traced.scaled) / untraced_s - 1.0, "frac")
    return m


def trace_run(call, work: Workload, speed: Speed, hasher, workload: str):
    """Untraced passes, then the same pass with every layer wrapped."""
    untraced = [run_pass(call, work.ops, work.gate, work.units, speed, hasher if not r else None)
                for r in range(MIN_REPEATS)]
    tr = Tracer()
    fits = []

    def on_fit(report, fit_args):
        samples = fit_args[0]
        fits.append((report.status.value, report.iterations, flops_per_sweep(samples.dims, samples.m)))

    patches = install(tr, {"mle.fit_mle": on_fit})
    try:
        traced = run_pass(tr.wrap(call, "bench.op"), work.ops, work.gate, work.units, speed)
    finally:
        uninstall(patches)
    tr.write(str(OUT / f"spans-{workload}"))
    notes = [
        f"{len(untraced)} untraced passes and one traced pass of {len(work.ops)} CLI calls",
        f"{len(tr.span_start)} spans written to perfbench/out/spans-{workload}.bin",
    ]
    if workload == "scan_grid":
        notes.append("scan_grid traced serially (--threads 1): spans cannot cross into pool workers")
    return [*untraced, traced], per_layer(tr, fits, traced, sum(per_op(untraced))), notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify_mix", "scan_grid", "verify_panel", "verify_large"))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tnm" / "cli.py").is_file():
        print(f"perfbench: no tnm source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tnm.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "tnm":
        print(f"perfbench: imported tnm from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    work = make_workload(args.workload, args.seed, args.trace == 1)
    check_digest = work.digest and args.seed == wl.DEFAULT_SEED
    hasher = hashlib.sha256() if check_digest else None
    if not work.pool:
        pin_to_one_cpu()
    speed = Speed(os.sched_getaffinity(0), in_op=not work.pool)

    def call(argv):
        return cli.main(argv)

    warm = run_pass(call, work.warm, lambda argv, out, h: (0, {}), 1, speed)
    if args.trace:
        passes, metrics, notes = trace_run(call, work, speed, hasher, args.workload)
    else:
        passes = measure(call, work, args.seconds, speed, hasher)
    for path in OUT.glob(f"scan-{os.getpid()}.csv"):
        path.unlink()
    if not args.trace:
        pin_to_one_cpu()
        setup = setup_times(dict(os.environ, PYTHONPATH=str(SRC)), Speed(os.sched_getaffinity(0), in_op=False))
        metrics, notes = end_to_end(work, passes, setup)
    attempted = sum(p.units for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [p.first_failure for p in [warm, *passes] if p.first_failure]
    if check_digest:
        recorded = json.loads(DIGESTS.read_text()).get(args.workload)
        got = hasher.hexdigest()
        notes.append(f"digest of pass 1 over pinned keys: {got} ({'matches' if got == recorded else 'MISMATCH'})")
        if got != recorded:
            problems.append(f"output digest {got} != recorded {recorded}")
    correct = failed == 0 and not problems
    factors = speed.factors()
    notes.append(f"speed factor (reference / current) median {statistics.median(factors):.3f}, "
                 f"range {min(factors):.3f}-{max(factors):.3f} over {len(factors)} samples")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, in-process tnm.cli.main")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ({failed}/{attempted} units)")
    for note in notes:
        print(f"  note: {note}")
    print("  machine: " + ", ".join(f"{k} {v}" for k, v in machine().items()))
    for problem in problems:
        print(f"  FAILURE: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
