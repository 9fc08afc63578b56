"""The package's one helper thread: where it may run, and how work is
handed to it and taken back.

`analysis.error_norms` and `semigroup.evolve` each overlap two streams of
work on one helper thread that lives only inside the call.  The helper
is pinned off the caller's CPU: without the pinning the kernel may start
it on the caller's CPU and leave it there for the whole call (on a 2-vCPU
KVM guest both threads shared one CPU in each of four fresh benchmark
passes of the error norms).  A thread allowed only one CPU gets no
helper, and its work runs inline in the same order.  The caller never
waits on a job that the helper has not started: it takes the job back
and runs it itself, so a helper that the kernel does not schedule costs
the caller nothing but the job's own time.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor


def _current_cpu():
    """The CPU the calling thread runs on now, or -1 if unknown."""
    sched_getcpu = ctypes.CDLL(None).sched_getcpu
    sched_getcpu.argtypes, sched_getcpu.restype = [], ctypes.c_int
    return sched_getcpu()


def _helper_cpus(jobs):
    """CPUs for the helper thread: those this thread may run on, less the
    one it runs on now.  Empty, so no helper, for fewer than two jobs or a
    thread allowed only one CPU."""
    if jobs < 2 or not hasattr(os, "sched_getaffinity"):
        return set()
    cpus = os.sched_getaffinity(0)
    return cpus - {_current_cpu()} if len(cpus) >= 2 else set()


@contextlib.contextmanager
def thread(jobs):
    """A helper thread for `jobs` jobs, or none (`_helper_cpus`).

    Yields `submit`, or None where there is no helper.  `submit(job)`
    hands a function of no arguments to the helper and returns a function
    of no arguments that gives the job's result or raises its exception.
    That function waits only for a job the helper has started; one still
    queued is cancelled and run by the caller.  The thread is joined when
    the `with` block ends, also when it ends by an exception.

    A job overlaps the caller's SuperLU solve only inside the numpy and
    scipy calls it has entered that release the interpreter lock; its
    Python code between them holds the lock that the solve takes back
    several times, and the solve waits up to a switch interval each time
    (measured in `sparse`)."""
    cpus = _helper_cpus(jobs)
    if not cpus:
        yield None
        return
    with ThreadPoolExecutor(1, initializer=os.sched_setaffinity,
                            initargs=(0, cpus)) as pool:
        def submit(job):
            future = pool.submit(job)
            return lambda: job() if future.cancel() else future.result()

        yield submit
