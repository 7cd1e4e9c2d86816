"""Numerical laboratory for equilibration and entanglement structure in
finite spin chains.

Submodules are imported explicitly (``from ergolab import states``) so that
the command-line entry point can configure thread limits before any heavy
numerical import happens.
"""

import _thread
import contextvars
import os

__version__ = "0.1.0"

CATALOG_VERSION = "1"


# workers that a deal whose workers each hold much memory takes at most,
# whatever the number of CPUs: the blocks of diagonalize and the time bands,
# while the blocks of the scan share this many blocks' worth of bytes
MEMORY_WORKERS = 2


def worker_count() -> int:
    """Worker threads of ``deal``: the CPUs this process may run on, so
    ``taskset -c 0 ergolab ...`` runs one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def deal(share, items, limit=None) -> None:
    """Run ``share(items[k::workers])`` for each worker k, side by side, on
    min(worker_count(), len(items), limit) threads, the calling thread as
    worker 0.  A `limit`, MEMORY_WORKERS, caps the workers of a deal whose
    workers each hold much memory, whatever the number of CPUs.

    The deal fixes which thread takes which items, never what an item
    computes, so results do not depend on the worker count as long as
    each item writes only its own output.  Every worker is waited for;
    then the first exception, in worker order, is raised in the caller.

    The workers are ``_thread`` threads, each with one lock that it
    releases when its share is done.  ``threading.Thread`` would also
    enter every worker in the threading module's registries, whose tables
    grow and shrink on a cycle over the threads a process has started, so
    the memory of a call would depend on how many calls came before it.
    Each worker runs in a copy of the caller's context (``contextvars``),
    made by the caller: numpy's error state is the caller's, and a new
    thread does not make a context of its own, whose memory would depend
    on when the threads of an earlier call gave theirs back.
    """
    workers = min(worker_count(), len(items), limit or len(items))
    parts = [items[k::workers] for k in range(workers)]
    contexts = [contextvars.copy_context() for _ in range(1, workers)]
    errors: list[BaseException | None] = [None] * workers
    done = [_thread.allocate_lock() for _ in range(1, workers)]

    def work(k: int) -> None:
        try:
            share(parts[k])
        except BaseException as exc:  # handed to the caller below
            errors[k] = exc
        finally:
            if k:
                done[k - 1].release()

    started = []
    try:
        for k, lock in enumerate(done, start=1):
            lock.acquire()
            _thread.start_new_thread(contexts[k - 1].run, (work, k))
            started.append(lock)
        if workers:
            work(0)
    finally:
        for lock in started:
            lock.acquire()
    first = next((exc for exc in errors if exc is not None), None)
    if first is not None:
        raise first
