import os
import threading

import pytest

from ael.errors import DomainError
from ael.parallel import map_ordered, worker_count

TIMEOUT = 10.0  # seconds any barrier in these tests may wait


def on_threads(n):
    """A task that returns its thread's ident and Thread once n tasks run
    at once, so a call with n items shows n distinct worker threads."""
    barrier = threading.Barrier(n, timeout=TIMEOUT)

    def task(_):
        barrier.wait()
        return threading.get_ident(), threading.current_thread()

    return task


@pytest.mark.parametrize("raw", ["two", "1.5", "-1"])
def test_bad_thread_count_is_domain_error(monkeypatch, raw):
    monkeypatch.setenv("AEL_THREADS", raw)
    with pytest.raises(DomainError):
        worker_count()
    with pytest.raises(DomainError):
        map_ordered(abs, [1, 2])


def test_unset_thread_count_uses_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("AEL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count() == 3
    monkeypatch.setenv("AEL_THREADS", "0")
    assert worker_count() == 3


def test_no_affinity_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.setenv("AEL_THREADS", "0")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert worker_count() == 6


@pytest.mark.parametrize("threads", ["1", "3"])
def test_results_keep_input_order(monkeypatch, threads):
    monkeypatch.setenv("AEL_THREADS", threads)
    items = list(range(40))
    assert map_ordered(lambda i: i * i, items) == [i * i for i in items]


def test_second_call_reuses_the_worker_threads(monkeypatch):
    monkeypatch.setenv("AEL_THREADS", "2")
    first = map_ordered(on_threads(2), [0, 1])
    second = map_ordered(on_threads(2), [0, 1])
    # thread idents can be recycled after a thread exits; the Thread
    # objects held here cannot, so they show the threads are the same
    assert len(set(first)) == 2 and set(second) == set(first)
    assert threading.get_ident() not in {ident for ident, _ in first}


def test_pool_is_rebuilt_when_the_thread_count_changes(monkeypatch):
    monkeypatch.setenv("AEL_THREADS", "2")
    old = {t for _, t in map_ordered(on_threads(2), [0, 1])}
    monkeypatch.setenv("AEL_THREADS", "3")
    new = {t for _, t in map_ordered(on_threads(3), [0, 1, 2])}
    assert len(old) == 2 and len(new) == 3 and not old & new
    # the old pool was shut down and its threads joined
    assert not any(t.is_alive() for t in old)


def test_worker_exception_propagates_and_the_pool_recovers(monkeypatch):
    monkeypatch.setenv("AEL_THREADS", "2")

    def fail_on_three(i):
        if i == 3:
            raise ValueError("item 3")
        return i

    with pytest.raises(ValueError, match="item 3"):
        map_ordered(fail_on_three, range(6))
    assert map_ordered(lambda i: -i, range(6)) == [0, -1, -2, -3, -4, -5]


def test_nested_call_runs_on_its_worker(monkeypatch):
    monkeypatch.setenv("AEL_THREADS", "2")

    def outer(i):
        inner = map_ordered(lambda j: (threading.get_ident(), i + j), [0, 1])
        return threading.get_ident(), inner

    results = map_ordered(outer, [10, 20])
    for worker, inner in results:
        assert [ident for ident, _ in inner] == [worker, worker]
    assert [[v for _, v in inner] for _, inner in results] == [[10, 11], [20, 21]]


def test_one_thread_runs_on_the_caller(monkeypatch):
    monkeypatch.setenv("AEL_THREADS", "1")
    assert set(map_ordered(lambda _: threading.get_ident(), range(4))) == {threading.get_ident()}
