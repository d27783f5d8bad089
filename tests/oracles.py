"""Independent brute-force oracles for pinning expected values.

Everything here deliberately avoids the code paths it checks: fractions are
enumerated one by one, thresholds found by linear search against the
recursive classifier, stability read off the rank, mod a prime, of the Lie
algebra action at random tensors, the castling walk taken one castle_step
at a time, each scan row computed from its own datum through the public
invariants, likelihood quantities recomputed from the dense n x n Kronecker
matrix, flip-flop run one restart at a time with the log-likelihood
evaluated explicitly after every iteration, its refinement run one
restart at a time with every mode product a tensordot, and JSON text
written by json.dumps from a converted copy of the document.  Slow but
unarguable.
"""

from __future__ import annotations

import csv
import io
import math
import random
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from tnm import (
    Datum,
    FitStatus,
    NotCastlable,
    StabilityClass,
    big_r,
    castle_step,
    classify_closed_form,
    classify_recursive,
    delta,
    g_max,
    git_dimension,
    normalize,
)
from tnm.mle import (
    _CG_MAX_ITER,
    _CG_RTOL,
    _MAX_HALVINGS,
    _MOMENT_TOL,
    _NEWTON_SWITCH,
    _REFINE_MAX_ITER,
    _STALL_RATIO,
    CONDITION_LIMIT,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    DEGENERATE_EIG_RTOL,
)


def grid(max_k, max_dim, max_m):
    """Every datum of 1..max_k dimensions from 1..max_dim (a multiset) and
    m in 1..max_m."""
    dims_list = []
    for k in range(1, max_k + 1):
        dims_list.extend(combinations_with_replacement(range(1, max_dim + 1), k))
    return [Datum(dims, m) for dims in dims_list for m in range(1, max_m + 1)]


def fraction_count(values) -> int:
    """Count fractions j/L in [0, 1), L = lcm(values), whose reduced
    denominator divides one of `values` -- by direct enumeration."""
    vals = [int(v) for v in values]
    l = math.lcm(*vals)
    j = np.arange(l, dtype=np.int64)
    mask = np.zeros(l, dtype=bool)
    for v in vals:
        mask |= (j * v) % l == 0
    return int(np.count_nonzero(mask))


def subset_gcd_sum_bruteforce(values, power: int) -> int:
    """Sum over nonempty subsets S of (-1)^(|S|+1) * gcd(S)^power, by
    enumerating all 2^k - 1 subsets."""
    total = 0
    for r in range(1, len(values) + 1):
        sign = 1 if r % 2 == 1 else -1
        for combo in combinations(values, r):
            total += sign * math.gcd(*combo) ** power
    return total


def min_m_bounded_search(dims, limit: int = 10_000) -> int:
    """Smallest m whose recursive classification is not unstable."""
    for m in range(1, limit + 1):
        if classify_recursive(Datum(tuple(dims), m)) is not StabilityClass.UNSTABLE:
            return m
    raise AssertionError(f"no bounded sample count below {limit} for {dims}")


def min_m_unique_search(dims, limit: int = 10_000) -> int:
    """Smallest m whose recursive classification is stable."""
    for m in range(1, limit + 1):
        if classify_recursive(Datum(tuple(dims), m)) is StabilityClass.STABLE:
            return m
    raise AssertionError(f"no stable sample count below {limit} for {dims}")


# ---------------------------------------------------------------------------
# castling walk and scan, one datum at a time


def castle_chain(datum) -> list:
    """normalize(datum), then castle_step while the move shrinks: N/2 < d_k < N."""
    cur = normalize(datum)
    chain = [cur]
    while cur.dims[-1] < cur.m * math.prod(cur.dims[:-1]) < 2 * cur.dims[-1]:
        cur = castle_step(cur)
        chain.append(cur)
    return chain


def chain_class(datum) -> StabilityClass:
    """The class of the endpoint of castle_chain(datum), read off its shape."""
    end = castle_chain(datum)[-1]
    dims, m = end.dims, end.m
    n, d_k = m * math.prod(dims[:-1]), dims[-1]
    if d_k > n:
        return StabilityClass.UNSTABLE
    if d_k == n:
        return StabilityClass.STABLE if len(dims) == 1 else StabilityClass.POLYSTABLE_NOT_STABLE
    exceptional = (m == 1 and len(dims) == 3 and dims[0] == 2 and dims[1] == dims[2]) or (
        m == 2 and len(dims) == 2 and dims[0] == dims[1]
    )
    return StabilityClass.POLYSTABLE_NOT_STABLE if exceptional else StabilityClass.STABLE


STABILIZER_PRIME = 2**31 - 1


def generic_stabilizer_dimension(dims, m: int, seed: int = 0) -> int:
    """Dimension of the stabilizer in sl(d_1) + ... + sl(d_k) of m seeded
    random integer tensors of shape dims: sum(d_i^2 - 1) minus the rank, mod
    STABILIZER_PRIME, of the Lie algebra action X -> (X acting on each
    tensor).  A random point is generic with high probability (Schwartz-
    Zippel), so this is the generic stabilizer dimension.

    The third classifier route, sharing no code with tnm: a datum that is
    not unstable is stable exactly when this is 0.  A basis element of
    sl(d_i) is E_ab (a != b) or E_aa - E_(a+1)(a+1); E_ab along mode i maps
    a tensor T to the tensor holding, at every index J with J_i = a, the
    entry of T at J with J_i = b, and 0 elsewhere.
    """
    p = STABILIZER_PRIME
    rng = random.Random(seed)
    cells = list(product(*(range(d) for d in dims)))  # row-major order
    where = {c: j for j, c in enumerate(cells)}
    n = len(cells)
    tensors = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    rows = []
    for axis, d in enumerate(dims):
        basis = [{(a, b): 1} for a in range(d) for b in range(d) if a != b]
        basis += [{(a, a): 1, (a + 1, a + 1): -1} for a in range(d - 1)]
        for x in basis:
            row = [0] * (m * n)
            for (a, b), e in x.items():
                for j, c in enumerate(cells):
                    if c[axis] == a:
                        src = where[c[:axis] + (b,) + c[axis + 1:]]
                        for s, t in enumerate(tensors):
                            row[s * n + j] = (row[s * n + j] + e * t[src]) % p
            rows.append(row)
    return len(rows) - _rank_mod(rows, p)


def _rank_mod(rows, p: int) -> int:
    """Rank of the integer matrix `rows` over the integers mod the prime p,
    by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], top)]
        rank += 1
    return rank


def scan_row_reference(dims, m: int, check: str) -> tuple:
    """One `tnm scan` row, with every invariant computed from its own Datum."""
    d = Datum(dims, m)
    r, dl, gm, c1 = big_r(d), delta(d), g_max(d), classify_closed_form(d)
    if check == "equivalence":
        ok = c1 is chain_class(d)
    elif check == "monotone":
        order = list(StabilityClass)
        ok = order.index(classify_closed_form(Datum(dims, m + 1))) >= order.index(c1)
    else:
        try:
            e = castle_step(d)
        except NotCastlable:
            ok = True
        else:
            ok = (big_r(e), delta(e), g_max(e), classify_closed_form(e), git_dimension(e)) == (
                r, dl, gm, c1, git_dimension(d))
    return ("x".join(map(str, dims)), m, r, dl, gm, c1.value, chain_class(d).value, ok)


def json_doc(value):
    """`value` as JSON data, the conversion the command line made before it
    wrote JSON in one walk: a tuple as a list, a float that is not finite as
    None (null), a dataclass as a dict of its fields in order.  Lists and
    dicts are converted item by item, because a document now reaches the
    writer with dataclasses at any depth.  `cli._print_json(value)` prints
    json.dumps(json_doc(value), indent=2, allow_nan=False)."""
    if isinstance(value, (tuple, list)):
        return [json_doc(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_doc(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return {name: json_doc(getattr(value, name)) for name in value.__dataclass_fields__}
    return value


def scan_shapes(max_k: int, max_dim: int) -> list[tuple[int, ...]]:
    """The shapes of `tnm scan`'s grid in CSV order: (1,), then each multiset
    of 1..max_k entries from 2..max_dim, sorted ascending."""
    return [(1,)] + [
        dims for k in range(1, max_k + 1) for dims in combinations_with_replacement(range(2, max_dim + 1), k)
    ]


def scan_csv_reference(max_k: int, max_dim: int, max_m: int, check: str) -> bytes:
    """The bytes of `tnm scan`'s CSV for the grid: each shape of
    `scan_shapes`, each at m = 1..max_m."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(("dims", "m", "R", "Delta", "g_max", "class_closed_form", "class_recursive", "agree"))
    for dims in scan_shapes(max_k, max_dim):
        for m in range(1, max_m + 1):
            writer.writerow(scan_row_reference(dims, m, check))
    return text.getvalue().encode()


def dense_kron(mats) -> np.ndarray:
    out = np.ones((1, 1))
    for a in mats:
        out = np.kron(out, a)
    return out


def dense_loglik(samples, mats) -> float:
    """Log-likelihood from the materialized Kronecker matrix."""
    big = dense_kron(mats)
    sign, logdet = np.linalg.slogdet(big)
    assert sign > 0
    flat = samples.tensors().reshape(samples.m, -1)
    quad = float(np.einsum("si,ij,sj->", flat, big, flat))
    return 0.5 * samples.m * logdet - 0.5 * quad


def dense_mode_statistic(samples, mats, i: int) -> np.ndarray:
    """Block statistic via explicit unfoldings and a dense Kronecker factor.

    i is 1-based, matching the library convention.
    """
    j = i - 1
    rest = dense_kron([a for idx, a in enumerate(mats) if idx != j])
    d = samples.dims[j]
    s = np.zeros((d, d))
    for t in samples.tensors():
        unfolded = np.moveaxis(t, j, 0).reshape(d, -1)
        s += unfolded @ rest @ unfolded.T
    return s


# ---------------------------------------------------------------------------
# flip-flop, one restart at a time (the solver before it was batched)


class _Degenerate(Exception):
    pass


def _mode_apply(mat, tens, axis):
    return np.moveaxis(np.tensordot(mat, tens, axes=(1, axis)), 0, axis)


def _apply_all(tens, mats, skip=-1):
    out = tens
    for j, a in enumerate(mats):
        if j != skip:
            out = _mode_apply(a, out, j + 1)
    return out


def _logdet_chol(a):
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(a)))))


def _loglik(tens, mats, m, n):
    quad = float(np.vdot(tens, _apply_all(tens, mats)))
    logdet = sum((n // a.shape[0]) * _logdet_chol(a) for a in mats)
    return 0.5 * m * logdet - 0.5 * quad


def _sweep(tens, mats, m, n):
    """Blocks 1..k in place; the largest new condition number."""
    cond = 0.0
    for j in range(len(mats)):
        d = tens.shape[j + 1]
        w = _apply_all(tens, mats, skip=j)
        a = np.moveaxis(tens, j + 1, 1).reshape(tens.shape[0], d, -1)
        b = np.moveaxis(w, j + 1, 1).reshape(tens.shape[0], d, -1)
        s = np.einsum("sir,sjr->ij", a, b)
        s = 0.5 * (s + s.T)
        if not np.all(np.isfinite(s)):
            raise _Degenerate
        ev, v = np.linalg.eigh(s)
        if ev[-1] <= 0.0:
            raise _Degenerate
        if ev[0] < DEGENERATE_EIG_RTOL * ev[-1]:
            ev = np.maximum(ev, 0.0) + 1e-14 * ev[-1]
        new = (v * ((m * n // d) / ev)) @ v.T
        mats[j] = 0.5 * (new + new.T)
        cond = max(cond, float(ev[-1] / ev[0]))
    return cond


def fit_sequential(samples, init, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_SWEEPS):
    """fit_mle for one restart: (status, iterations, loglik_history, factors
    or None, Newton steps taken).

    Plain sweeps until, from sweep 3 on, one gains more than 0.9 of what the
    sweep before it gained; from then on every iteration is a Newton step
    (none when it finds no rise or cannot be formed) followed by a sweep.
    """
    tens, m, n = samples.tensors(), samples.m, samples.n
    mats = [np.array(f) for f in init]
    l_init = _loglik(tens, mats, m, n)
    bound = 1e3 * (1.0 + abs(l_init))
    history = [l_init]
    status, sweep, newton, steps = FitStatus.MAX_ITERATIONS, 0, False, 0
    for sweep in range(1, max_iter + 1):
        if newton:
            try:
                roots = [np.linalg.cholesky(a) for a in mats]
                steps += _newton_sequential(tens, mats, roots, m, n)[1]
            except np.linalg.LinAlgError:
                pass
        try:
            cond = _sweep(tens, mats, m, n)
        except _Degenerate:
            status = FitStatus.DEGENERATE_STATISTIC
            break
        prev = history[-1]
        loglik = _loglik(tens, mats, m, n)
        history.append(loglik)
        if not math.isfinite(loglik) or loglik - l_init > bound or cond > CONDITION_LIMIT:
            status = FitStatus.DIVERGED
            break
        if abs(loglik - prev) < tol * (1.0 + abs(prev)):
            status = FitStatus.CONVERGED
            break
        if sweep >= 3 and loglik - prev > _STALL_RATIO * (prev - history[-3]):
            newton = True
    kept = status in (FitStatus.CONVERGED, FitStatus.MAX_ITERATIONS)
    return status, sweep, history, (mats if kept else None), steps


def _gauge_fix(mats):
    out = [np.array(a) for a in mats]
    carry = 1.0
    for idx in range(1, len(out)):
        c = math.exp(_logdet_chol(out[idx]) / out[idx].shape[0])
        out[idx] /= c
        carry *= c
    out[0] *= carry
    return out


def polish_sequential(samples, factors, ptol=1e-10, max_sweeps=2000):
    """Extra sweeps until the gauge-fixed factors move less than ptol: (factors, sweeps)."""
    tens, m, n = samples.tensors(), samples.m, samples.n
    mats = [np.array(f) for f in factors]
    prev = _gauge_fix(mats)
    for sweep in range(1, max_sweeps + 1):
        try:
            _sweep(tens, mats, m, n)
        except _Degenerate:
            return prev, sweep
        fixed = _gauge_fix(mats)
        change = max(
            float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)
            for a, b in zip(fixed, prev)
        )
        prev = fixed
        if change < ptol:
            return prev, sweep
    return prev, max_sweeps


# ---------------------------------------------------------------------------
# refinement, one restart at a time (mle._refine, written out)


def _unfold(tens, axis):
    """Mode-`axis` unfolding over all samples: (d, everything else)."""
    return np.moveaxis(tens, axis, 0).reshape(tens.shape[axis], -1)


def _moment_gap(s, scale):
    return float(np.linalg.norm(s / scale - np.eye(len(s))))


def _refine_sweep(tens, mats, roots, m, n):
    """One sweep; updates factors and roots, returns the largest block
    moment-map norm read at the factor each block update replaces."""
    norm = 0.0
    for j in range(len(mats)):
        d = tens.shape[j + 1]
        scale = m * n // d
        s = _unfold(tens, j + 1) @ _unfold(_apply_all(tens, mats, skip=j), j + 1).T
        s = 0.5 * (s + s.T)
        if not np.all(np.isfinite(s)):
            raise _Degenerate
        norm = max(norm, _moment_gap(roots[j].T @ s @ roots[j], scale))
        ev, v = np.linalg.eigh(s)
        if ev[-1] <= 0.0:
            raise _Degenerate
        if ev[0] < DEGENERATE_EIG_RTOL * ev[-1]:
            ev = np.maximum(ev, 0.0) + 1e-14 * ev[-1]
        roots[j] = v * np.sqrt(scale / ev)
        mats[j] = roots[j] @ roots[j].T
    return norm


def whitened_grams(tens, roots):
    """Z = (B_1^T (x) ... (x) B_k^T) Y and its symmetrized block Grams."""
    z = _apply_all(tens, [b.T for b in roots])
    grams = []
    for i in range(len(roots)):
        u = _unfold(z, i + 1)
        g = u @ u.T
        grams.append(0.5 * (g + g.T))
    return z, grams


def hessian_product(z, grams, vs):
    """(A V)_i = (V_i S~_i + S~_i V_i)/4 + (1/2) sum_{j != i} sym Gram_i(Z, V_j x_j Z),
    one ordered block pair at a time."""
    out = []
    for i in range(len(vs)):
        h = 0.25 * (vs[i] @ grams[i] + grams[i] @ vs[i])
        for j in range(len(vs)):
            if j != i:
                g = _unfold(z, i + 1) @ _unfold(_mode_apply(vs[j], z, j + 1), i + 1).T
                h += 0.25 * (g + g.T)
        out.append(h)
    return out


def _inner(a, b):
    return sum(float(np.sum(x * y)) for x, y in zip(a, b))


def _newton_sequential(tens, mats, roots, m, n):
    """One safeguarded Newton-CG step: (moment-map norm before it, stepped)."""
    dims = tens.shape[1:]
    scales = [m * n // d for d in dims]
    z, grams = whitened_grams(tens, roots)
    norm = max(_moment_gap(s, c) for s, c in zip(grams, scales))
    if norm < _MOMENT_TOL:
        return norm, False
    grad = [0.5 * (s - c * np.eye(len(s))) for s, c in zip(grams, scales)]
    x = [np.zeros_like(g) for g in grad]
    r = [-g for g in grad]
    p = [a.copy() for a in r]
    rr = _inner(r, r)
    target = _CG_RTOL**2 * rr
    for _ in range(_CG_MAX_ITER):
        ap = hessian_product(z, grams, p)
        pap = _inner(p, ap)
        if not pap > 0.0:
            break
        alpha = rr / pap
        x = [a + alpha * q for a, q in zip(x, p)]
        r = [a - alpha * q for a, q in zip(r, ap)]
        new = _inner(r, r)
        if new <= target:
            break
        p = [a + (new / rr) * q for a, q in zip(r, p)]
        rr = new
    eig = [np.linalg.eigh(a) for a in x]
    rot = [b @ u for b, (_, u) in zip(roots, eig)]
    power = np.sum(_apply_all(tens, [q.T for q in rot]) ** 2, axis=0)
    grid = eig[0][0]
    for lam, _ in eig[1:]:
        grid = np.add.outer(grid, lam)
    rise = sum(0.5 * c * float(np.sum(lam)) for c, (lam, _) in zip(scales, eig))
    t = 1.0 / max(1.0, math.sqrt(sum(float(np.sum(lam * lam)) for lam, _ in eig)))
    for _ in range(_MAX_HALVINGS):
        if t * rise - 0.5 * float(np.sum(power * np.expm1(t * grid))) > 0.0:
            for i, (q, (lam, _)) in enumerate(zip(rot, eig)):
                roots[i] = q * np.exp(0.5 * t * lam)
                mats[i] = roots[i] @ roots[i].T
            return norm, True
        t *= 0.5
    return norm, False


def refine_sequential(samples, factors, max_iter=_REFINE_MAX_ITER):
    """The refinement of one converged restart: (gauge-fixed factors, iterations).

    Sweeps while a sweep at least halves the moment-map norm, safeguarded
    Newton-CG steps after the first that does not (a sweep when a step
    finds no rise), until the norm is below 1e-10.
    """
    tens, m, n = samples.tensors(), samples.m, samples.n
    mats = [np.array(f) for f in factors]
    roots = [np.linalg.cholesky(a) for a in mats]
    taken, prev, newton = 0, math.inf, False
    for _ in range(max_iter):
        if newton:
            norm, stepped = _newton_sequential(tens, mats, roots, m, n)
            if norm < _MOMENT_TOL:
                return _gauge_fix(mats), taken
            if stepped:
                taken += 1
                continue
        try:
            norm = _refine_sweep(tens, mats, roots, m, n)
        except _Degenerate:
            return _gauge_fix(factors), taken + 1
        taken += 1
        if norm < _MOMENT_TOL:
            return _gauge_fix(mats), taken
        newton = newton or norm > _NEWTON_SWITCH * prev
        prev = norm
    return _gauge_fix(mats), taken
