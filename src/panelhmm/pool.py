"""The package's one process pool: a function mapped over small tasks in
worker processes forked from this one.  How many workers to fork is
decided here alone.

Fork hands each worker the caller's memory, the function included, so a
function may be a closure over a whole chain set and nothing but the
tasks (a chain index, a range of draws) and the results is pickled.
spawn and forkserver would start each worker by re-importing the
caller's main module, which re-runs a script without a ``__main__``
guard, and they start slower.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

_function = None  # set by the initializer in each worker, never in the caller


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where there is no ``fork``
    start method, so that :func:`fork_map` runs everything here."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _workers(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` tasks: one per task, so the OS
    shares the CPUs among all of them and no CPU idles while the last
    tasks run, but at most two per usable CPU, since a task may hold a
    whole chain's draws; fewer than two (run here) for fewer than two
    tasks or one usable CPU."""
    cpus = usable_cpus()
    return 1 if cpus < 2 else min(n_tasks, 2 * cpus)


def ranges(n: int) -> list:
    """The contiguous ranges that split ``range(n)`` into one per usable
    CPU, but no more than ``n`` and no fewer than one."""
    k = max(1, min(n, usable_cpus()))
    bounds = [n * i // k for i in range(k + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def fork_map(function, tasks) -> list:
    """``[function(task) for task in tasks]``, in task order.

    The calls run in the :func:`_workers` count of processes forked from
    this one, or here, one after another, when that count is below two.
    ``function`` reaches the workers through the pool's initializer,
    which fork does not pickle.  An exception raised in a call reaches
    the caller as the same type with the same message.
    """
    workers = _workers(len(tasks))
    if workers < 2:
        return [function(task) for task in tasks]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_adopt,
                             initargs=(function,)) as pool:
        return list(pool.map(_call, tasks))


def _adopt(function) -> None:
    global _function
    _function = function


def _call(task):
    return _function(task)
