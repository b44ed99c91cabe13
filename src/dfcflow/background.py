"""Forked workers for the work of `dfcflow all` that no later stage waits
for, so that it runs on another core.

`cli.run_stages` imports this module only for a run of several stages,
and forks only where `can_fork()`.  It forks a price reader before
`ingest`, while the heap is still small, and the runner takes the
`PriceSeries` from it through a pipe when `track` needs it.  Each of
`ingest`, `decode` and `track` hands its checkpoint writes to a writer
of its own, forked as soon as the stage returns and running
`write_all`.  Children share the stage values copy-on-write (spawned
workers would have to pickle them, which costs nearly as much as the
write); only results and errors are pickled.  Each fork is preceded by
`gc.freeze()`, so that the parent's collector never writes to, and so
never copies a page of, the objects it shares with a child; the runner
unfreezes it.

A worker's exception is re-raised in the parent, so errors surface as
they would inline.  `Worker.stop` kills and reaps a worker whose result
was never taken.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading

# imported before the price reader forks, so that the child need not
# import it and the parent can unpickle its `PriceSeries`
from . import market  # noqa: F401


def can_fork() -> bool:
    """Whether workers may be forked: `os.fork` exists and no other thread
    is alive, since a thread does not survive a fork and a lock it holds
    would stay held in the child."""
    return hasattr(os, "fork") and threading.active_count() == 1


class Worker:
    """`fn(*args)` run in a child forked at once.  `result()` waits for the
    child and gives its return value or raises its exception; `stop()`
    kills the child if its result was never taken."""

    def __init__(self, fn, *args):
        reply_read, reply_write = os.pipe()
        # the collector would write to every object the child shares, and
        # each write copies a page; the runner unfreezes it
        gc.freeze()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(reply_read)
            os.close(reply_write)
            raise
        if self.pid == 0:
            os.close(reply_read)
            _serve(reply_write, fn, args)
        os.close(reply_write)
        self._reply = open(reply_read, "rb")

    def result(self):
        with self._reply:
            reply = self._reply.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not reply:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker exited with status {code} and no result")
        ok, value = pickle.loads(reply)
        if ok:
            return value
        raise value

    def stop(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._reply.close()


def _serve(reply: int, fn, args) -> None:
    """The child: run `fn`, send back its value or exception, and end with
    `os._exit`, so that buffers inherited from the parent are never
    flushed twice."""
    status = 1
    try:
        gc.disable()
        try:
            outcome = True, fn(*args)
        except BaseException as exc:  # re-raised in the parent
            outcome = False, exc
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            error = ChildProcessError(f"worker result cannot be sent back: {exc!r}")
            data = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
        with open(reply, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def write_all(writes: list) -> tuple[list[str], Exception | None]:
    """Run the `writes` callables in order: the status lines of those that
    finished, and the error that stopped the rest, if any."""
    lines = []
    for write in writes:
        try:
            lines.append(write())
        except Exception as exc:
            return lines, exc
    return lines, None
