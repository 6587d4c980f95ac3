"""Independent tasks on forked child processes: the fit's restarts, the only
work in the package that forks.

`start` forks its children and returns at once. Each child takes the next
item no child has taken, from a pipe of item numbers, whenever it finishes
one, and sends the results back through a pipe of its own. The
`Started` it returns collects them in item order when called, or kills and
reaps the children when closed, so none outlives its caller. `fork_map` is a
start collected at once. Children are forked with `os.fork` alone: no helper
thread is alive in this process, so a child may be forked while earlier
children still run.

The task reaches the children through a fork's copy of the parent's memory.
It is never pickled, and cannot always be, since a plant's value and
gradient are closures; only the results cross back, pickled.

The children inherit the modules the parent has imported, and only those. A
module that a task imports lazily (as `qp` imports scipy's LP solver on its
first infeasible problem) must be imported before `start` is called, or
every child imports it again. The fit's restarts import none.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import Callable, Sequence


def workers(tasks: int) -> int:
    """Worker processes for `tasks` independent tasks: one per usable core, at
    most one per task, at least one, and 1 where processes cannot be forked."""
    if not hasattr(os, "fork"):
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(tasks, cores))


class Started:
    """The tasks of one `start`: call it once for their results in item
    order, or `close` it to drop them, killing and reaping any child still
    running. An exception raised by the task reaches the caller as the same
    type with the same message, the first failing item's."""

    def __init__(self, task: Callable, items: Sequence, count: int):
        self._task, self._items = task, list(items)
        self._children: dict[int, int] = {}   # pid -> read end of its pipe
        if count < 2:
            return   # run in this process when called
        # a forked child flushes the stdio buffers it inherits when it exits
        sys.stdout.flush()
        sys.stderr.flush()
        self._task = None
        tickets, feed = os.pipe()
        try:
            for _ in range(min(count, len(self._items))):
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:   # the child: never returns
                    os.close(feed)
                    os.close(read)
                    _serve(write, task, self._items, tickets)
                os.close(write)
                self._children[pid] = read
            # four bytes per item, each read whole: a pipe read holds its lock
            data = b"".join(i.to_bytes(4, "little") for i in range(len(self._items)))
            while data:
                data = data[os.write(feed, data):]
        except BaseException:
            self.close()
            raise
        finally:
            os.close(feed)
            os.close(tickets)

    def __call__(self) -> list:
        if self._task is not None:
            task, self._task = self._task, None
            return list(map(task, self._items))
        try:
            sent = {i: reply for pid in list(self._children)
                    for i, *reply in _receive(pid, self._children.pop(pid))}
        finally:
            self.close()
        # a child stops at its first failure, and items are taken in order,
        # so an item no child ran comes after a failed one
        for i in range(len(self._items)):
            ok, value = sent[i]
            if not ok:
                raise value
        return [sent[i][1] for i in range(len(self._items))]

    def close(self) -> None:
        """Kill and reap every child not yet collected; a no-op after a call."""
        self._task = None
        while self._children:
            pid, read = self._children.popitem()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def start(task: Callable, items: Sequence, count: int) -> Started:
    """`task` over `items` on min(`count`, items) forked children, started
    now, each taking the next item as it finishes one; with a `count` of 1,
    the calling process runs them when collected."""
    return Started(task, items, count)


def fork_map(task: Callable, items: Sequence, count: int) -> list:
    """`task` over `items` on `count` forked workers, results in item order.

    With one worker the same function runs in this process. An exception
    raised by the task reaches the caller as the same type with the same
    message.
    """
    return start(task, items, count)()


def _serve(write: int, task: Callable, items: Sequence, tickets: int) -> None:
    """A child's life: run the items whose numbers it reads from `tickets`
    until one raises or none is left, send each (number, ok, result or
    exception) down `write`, and exit without unwinding the parent's stack."""
    code = 1
    try:
        replies = []
        while ticket := os.read(tickets, 4):
            i = int.from_bytes(ticket, "little")
            try:
                replies.append((i, True, task(items[i])))
            except Exception as exc:
                replies.append((i, False, exc))
                break
        try:
            data = pickle.dumps(replies)
        except Exception:   # an exception that cannot be pickled: its type and text
            i, _, exc = replies[-1]
            replies[-1] = (i, False, RuntimeError(f"{type(exc).__name__}: {exc}"))
            data = pickle.dumps(replies)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def _receive(pid: int, read: int) -> list:
    """A child's replies, read to the end of its pipe; the child is reaped,
    and killed first if the read is cut short."""
    data = None
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        if data is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"worker process {pid} ended with status {status} and no result")
    return pickle.loads(data)
