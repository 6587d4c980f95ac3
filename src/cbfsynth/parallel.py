"""Independent tasks on forked worker processes: the fit's restarts, the only
work in the package that forks.

The task reaches the workers through a module global that fork copies with
the rest of the parent's memory. It is never pickled, and cannot always be,
since a plant's value and gradient are closures; only the items and the
results cross between processes.

The workers inherit the modules the parent has imported, and only those. A
module that a task imports lazily (as `qp` imports scipy's LP solver on its
first infeasible problem) must be imported before `fork_map` is called, or
every worker imports it again. The fit's restarts import none.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# the task of the running fork_map, inherited by its workers
_task: Callable | None = None


def workers(tasks: int) -> int:
    """Worker processes for `tasks` independent tasks: one per usable core, at
    most one per task, at least one, and 1 where processes cannot be forked."""
    if not hasattr(os, "fork"):
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(tasks, cores))


def _call(item):
    return _task(item)


def fork_map(task: Callable, items: Sequence, count: int) -> list:
    """`task` over `items` on `count` forked workers, results in item order.

    With one worker the same function runs in this process, and
    `multiprocessing` is not imported. An exception raised by the task
    reaches the caller as the same type with the same message.
    """
    global _task
    if count == 1:
        return list(map(task, items))
    import multiprocessing
    import sys
    # a forked child flushes the stdio buffers it inherits when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    _task = task
    try:
        with multiprocessing.get_context("fork").Pool(count) as pool:
            return pool.map(_call, items, chunksize=1)
    finally:
        _task = None
