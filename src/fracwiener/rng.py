"""Reproducible random streams for Monte Carlo path generation.

Paths are produced in fixed blocks of ``BLOCK_PATHS`` paths.  Every block
owns a counter-based Philox generator keyed by ``(seed, stream, block)``,
so the sampled numbers depend only on those integers and never on how the
blocks are scheduled across worker threads.  Results are therefore
bit-identical for any parallelism degree.

The worker count is a run-level setting, not a parameter of the numerical
functions: ``with worker_threads(n):`` runs every ``map_path_blocks`` call
inside the block on a pool of ``n`` threads; outside any such block, or
for ``n <= 1``, blocks run serially on the calling thread.

``map_ordered`` runs coarser independent tasks on the same pool, such as
the modes of a mild solution: it yields their results in index order, with
at most ``n`` tasks in flight, and each task runs its own path blocks
serially on its worker.  Since every block keeps its key, the numbers do
not change with the level at which the pool is used.
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, TypeVar

import numpy as np

__all__ = [
    "BLOCK_PATHS",
    "block_generator",
    "path_blocks",
    "map_path_blocks",
    "map_ordered",
    "worker_threads",
]

BLOCK_PATHS = 4096

_T = TypeVar("_T")

_WORKERS: ContextVar[int] = ContextVar("worker_threads", default=1)


@contextmanager
def worker_threads(n: int):
    """Run path blocks on ``n`` worker threads until the ``with`` block exits."""
    token = _WORKERS.set(int(n))
    try:
        yield
    finally:
        _WORKERS.reset(token)


def block_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator for one path block of one logical stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream), int(block)))
    return np.random.Generator(np.random.Philox(ss))


def path_blocks(n_paths: int) -> Iterator[tuple[int, slice]]:
    """Yield ``(block_index, path_slice)`` covering ``range(n_paths)``."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    for b, start in enumerate(range(0, n_paths, BLOCK_PATHS)):
        yield b, slice(start, min(start + BLOCK_PATHS, n_paths))


def map_path_blocks(fn: Callable[[int, slice], np.ndarray], n_paths: int) -> np.ndarray:
    """Run ``fn`` over all path blocks and concatenate results in block order.

    ``fn`` gets ``(block_index, path_slice)`` and must return an array whose
    leading dimension equals the slice length.  The blocks run on the
    ``worker_threads`` pool in effect; assembly order is fixed by the block
    index, so the thread count does not affect the output.
    """
    blocks = list(path_blocks(n_paths))
    parts = list(map_ordered(lambda i: fn(*blocks[i]), len(blocks)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def map_ordered(fn: Callable[[int], _T], n: int) -> Iterator[_T]:
    """Yield ``fn(0), .., fn(n - 1)`` in index order, computed on the worker pool.

    Under ``worker_threads(w)`` with ``w > 1`` and ``n > 1`` the calls run on
    ``w`` threads: calls ``0 .. w - 1`` start at once, and call ``i + w`` when
    the consumer asks for the result after ``i``.  So at most ``w`` results
    exist at a time, made or being made, if the consumer drops each one
    before asking for the next.  Each call runs under ``worker_threads(1)``,
    so its path blocks run serially.  Otherwise the calls run one by one on
    the calling thread, as they are consumed.  Closing the iterator, or an
    exception from a call, cancels the calls not yet started and waits for
    the running ones, so no thread outlives the iteration.
    """
    threads = _WORKERS.get()
    if threads <= 1 or n <= 1:
        for i in range(n):
            yield fn(i)
        return

    def task(i: int) -> _T:
        with worker_threads(1):
            return fn(i)

    pool = ThreadPoolExecutor(max_workers=min(threads, n))
    try:
        pending = deque(pool.submit(task, i) for i in range(min(threads, n)))
        for i in range(n):
            result = pending.popleft().result()
            yield result
            del result  # not held while the next calls run
            if i + threads < n:
                pending.append(pool.submit(task, i + threads))
    finally:
        pool.shutdown(cancel_futures=True)
