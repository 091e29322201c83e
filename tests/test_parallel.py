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


def _chunk(start, stop):
    return start, stop, os.getpid()


def test_keeps_order_across_uneven_chunks(three_workers):
    chunks = pmap(_chunk, 11, 11)  # chunks of 3, 4 and 4
    assert [(start, stop) for start, stop, _ in chunks] == [(0, 3), (3, 7), (7, 11)]
    assert os.getpid() not in {pid for _, _, pid in chunks}


def test_never_nests(three_workers):
    def inner_workers(start, stop):
        return [len(pmap(_chunk, 12, 12)) for _ in range(start, stop)]

    chunks = pmap(inner_workers, 12, 12)
    assert len(chunks) == 3
    assert [n for chunk in chunks for n in chunk] == [1] * 12


def test_serial_below_two_workers(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert pmap(_chunk, 1000, 10**9) == [(0, 1000, os.getpid())]


def test_serial_below_two_workers_worth_of_chars(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    assert pmap(range, 1000, 2 * parallel.MIN_CHARS - 1) == [range(0, 1000)]
    assert pmap(range, 1000, 2 * parallel.MIN_CHARS) == [range(0, 500), range(500, 1000)]
    assert pmap(range, 1, 10 * parallel.MIN_CHARS) == [range(0, 1)]
    assert pmap(range, 0, 10 * parallel.MIN_CHARS) == [range(0, 0)]


def test_worker_exception_reaches_the_caller_with_its_message(three_workers):
    def check(start, stop):
        if start <= 7 < stop:
            raise DocumentError("bad record 7")
        return stop

    with pytest.raises(DocumentError, match=r"^bad record 7$"):
        pmap(check, 12, 12)


def test_killed_worker_raises_worker_error(three_workers):
    def die(start, stop):
        if start <= 5 < stop:
            os.kill(os.getpid(), signal.SIGKILL)
        return stop

    with pytest.raises(WorkerError, match="a worker process died"):
        pmap(die, 12, 12)
    # The next map starts a fresh pool.
    assert pmap(range, 12, 12) == [range(0, 4), range(4, 8), range(8, 12)]


def test_leaves_no_thread_running(three_workers):
    # The pool's manager and queue threads must be gone before the next map
    # forks: a fork beside live threads can deadlock the child.
    before = threading.enumerate()
    pmap(range, 12, 12)
    assert threading.enumerate() == before


def test_importing_the_cli_does_not_import_multiprocessing():
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys, refinery.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                            check=True, capture_output=True, text=True, timeout=60)
    assert result.stdout.strip() == "False"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_importing_the_cli_leaves_one_thread():
    # numpy's OpenBLAS would start a second thread, beside which a fork
    # could deadlock; refinery caps it to one before numpy loads.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    script = ("import refinery.cli\n"
              "print(next(line for line in open('/proc/self/status') if line.startswith('Threads:')))")
    result = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": str(src)},
                            check=True, capture_output=True, text=True, timeout=60)
    assert result.stdout.split() == ["Threads:", "1"]
