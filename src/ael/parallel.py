"""The worker threads every parallel loop of the package shares.

``AEL_THREADS`` caps their number (0 or unset means one per CPU).
``map_ordered`` returns results in input order whatever the thread
count, so a caller that reduces them in that order, or by an
order-free operation such as ``max``, gets the same bits at every
thread count.  The work is numpy calls that release the interpreter
lock, so threads overlap.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def worker_count() -> int:
    """Worker cap from AEL_THREADS (0 or unset: one per CPU)."""
    raw = os.environ.get("AEL_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"AEL_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise DomainError(f"AEL_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items] on up to ``worker_count()`` threads."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
