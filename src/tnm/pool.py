"""One ordered worker map: the only place tnm starts processes.

`scan` and `verify` both hand their tasks to _pool_map.  The module imports
no numpy, so `scan` runs without loading the solver.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice

_CHUNK_MAX = 1024  # most tasks a pool worker is handed at a time


def _pool_workers(requested: int, tasks: int) -> int:
    """Pool size: the request capped by CPUs and tasks; 1 means run serially."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def _run_chunk(fn, chunk: list) -> list:
    return [fn(task) for task in chunk]


def _pool_map(fn, tasks, threads: int, n: int):
    """Yield fn(task) for each of the n `tasks`, in task order.

    Runs serially when _pool_workers(threads, n) is 1, otherwise in one
    process pool that hands each worker about an eighth of its share, at
    most _CHUNK_MAX tasks, at a time and keeps at most two such chunks per
    worker in flight, so `tasks`, which may be a generator, is drawn only
    as results are used and the look-ahead stays bounded however large n is.
    """
    workers = _pool_workers(threads, n)
    if workers == 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: only when needed

    tasks, size = iter(tasks), max(1, min(_CHUNK_MAX, n // (8 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()

        def submit():
            chunk = list(islice(tasks, size))
            if chunk:
                pending.append(pool.submit(_run_chunk, fn, chunk))

        for _ in range(2 * workers):
            submit()
        try:
            while pending:
                done = pending.popleft().result()
                submit()
                yield from done
        finally:  # a consumer that stops early leaves chunks nobody reads
            for future in pending:
                future.cancel()
