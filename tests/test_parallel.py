import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from refinery import parallel
from refinery.documents import DocumentError
from refinery.parallel import WorkerError, pmap


@pytest.fixture
def three_workers(monkeypatch):
    """Fork three workers for any map of three or more items and characters."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    monkeypatch.setattr(parallel, "MIN_CHARS", 1)


def test_keeps_order_across_uneven_chunks(three_workers):
    items = list(range(11))  # chunks of 3, 4 and 4 items
    results, workers = pmap(lambda x: (x * x, os.getpid()), items, len(items))
    assert workers == 3
    assert [square for square, _ in results] == [x * x for x in items]
    assert os.getpid() not in {pid for _, pid in results}


def test_never_nests(three_workers):
    def inner_workers(x):
        return pmap(lambda y: y + x, list(range(12)), 12)[1]

    results, workers = pmap(inner_workers, list(range(12)), 12)
    assert workers == 3
    assert results == [1] * 12


def test_serial_below_two_workers(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    results, workers = pmap(lambda x: os.getpid(), list(range(1000)), 10**9)
    assert workers == 1
    assert results == [os.getpid()] * 1000


def test_serial_below_two_workers_worth_of_chars(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    items = list(range(1000))
    assert pmap(str, items, 2 * parallel.MIN_CHARS - 1) == ([str(x) for x in items], 1)
    assert pmap(str, items, 2 * parallel.MIN_CHARS) == ([str(x) for x in items], 2)
    assert pmap(str, items[:1], 10 * parallel.MIN_CHARS) == (["0"], 1)


def test_worker_exception_reaches_the_caller_with_its_message(three_workers):
    def check(x):
        if x == 7:
            raise DocumentError(f"bad record {x}")
        return x

    with pytest.raises(DocumentError, match=r"^bad record 7$"):
        pmap(check, list(range(12)), 12)


def test_killed_worker_raises_worker_error(three_workers):
    def die(x):
        if x == 5:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(WorkerError, match="a worker process died"):
        pmap(die, list(range(12)), 12)
    # The next map starts a fresh pool.
    assert pmap(str, list(range(12)), 12) == ([str(x) for x in range(12)], 3)


def test_leaves_no_thread_running(three_workers):
    # The pool's manager and queue threads must be gone before the next map
    # forks: a fork beside live threads can deadlock the child.
    before = threading.enumerate()
    pmap(str, list(range(12)), 12)
    assert threading.enumerate() == before


def test_importing_the_cli_does_not_import_multiprocessing():
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys, refinery.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                            check=True, capture_output=True, text=True, timeout=60)
    assert result.stdout.strip() == "False"
