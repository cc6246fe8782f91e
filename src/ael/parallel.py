"""The worker threads of the Monte Carlo chunks, the package's only parallel loop.

``AEL_THREADS`` caps their number (0 or unset means one per CPU the
process may run on).  The workers form one pool per process, started by
the first parallel call and kept for the next ones, so a worker keeps
its thread-local state (the Monte Carlo workspace) and its allocator
arena from call to call.  The pool is rebuilt when ``worker_count()``
changes between calls.

``map_ordered`` returns results in input order whatever the thread
count, so a caller that reduces them in that order, or by an
order-free operation such as ``max``, gets the same bits at every
thread count.  The work is numpy calls that release the interpreter
lock, so threads overlap.
"""

from __future__ import annotations

import os
import threading

from .errors import DomainError

_lock = threading.Lock()  # guards _pool and _pool_size
_pool = None  # the ThreadPoolExecutor, once a parallel call has started it
_pool_size = 0
_local = threading.local()


def _cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """Worker cap from AEL_THREADS (0 or unset: one per usable CPU)."""
    raw = os.environ.get("AEL_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"AEL_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise DomainError(f"AEL_THREADS must be >= 0, got {n}")
    return n if n > 0 else _cpus()


def _mark_worker() -> None:
    _local.worker = True


def _shared_pool(workers: int):
    """The process's pool with ``workers`` threads; call with _lock held."""
    # imported here, where a pool is first needed: most commands start none,
    # and the import costs each process a few milliseconds
    from concurrent.futures import ThreadPoolExecutor

    global _pool, _pool_size
    if _pool is None or _pool_size != workers:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="ael-worker",
                                   initializer=_mark_worker)
        _pool_size = workers
    return _pool


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items] on up to ``worker_count()`` threads.

    A call made from a worker runs its items on that worker, so nested
    calls cannot wait on a pool their own callers occupy.
    """
    items = list(items)
    workers = worker_count()
    if min(workers, len(items)) <= 1 or getattr(_local, "worker", False):
        return [fn(item) for item in items]
    # Executor.map submits every item before it returns, and its iterator
    # cancels the unstarted ones when a result raises
    with _lock:
        results = _shared_pool(workers).map(fn, items)
    return list(results)
