"""Forked workers for the work of `dfcflow all` that no later stage waits
for, so that it runs on another core.

`cli.run_stages` imports this module only for a run of several stages,
and forks only where `can_fork()`.  It forks a price reader before
`ingest`, while the heap is still small, and the runner takes the
`PriceSeries` from it through a pipe when `track` needs it.  The
checkpoint writes of `ingest`, `decode` and `track` go to forked writers
running `write_all`: the first is forked after `decode` and carries the
checkpoints of `ingest` too, so that no child shares the pages of the
`RawLog`s while `decode` reads them; the second is forked after `track`.
Children share the stage values copy-on-write (spawned workers would
have to pickle them, which costs nearly as much as the write); only
results and errors are pickled.  Each fork is preceded by `gc.freeze()`,
so that the parent's collector never writes to, and so never copies a
page of, the objects it shares with a child; the runner unfreezes it.

A worker's exception is re-raised in the parent, and `write_all` gives
the stage of the write that failed, so errors surface as they would
inline.  `Worker.stop` kills and reaps a worker whose result was never
taken.
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
    """`fn(*args)` run in a forked child.  `result()` waits for the child
    and gives its return value or raises its exception; `stop()` kills
    the child if its result was never taken."""

    def __init__(self, fn, *args):
        start_read, start_write = os.pipe()
        reply_read, reply_write = os.pipe()
        # the collector would write to every object the child shares, and
        # each write copies a page; the runner unfreezes it
        gc.freeze()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (start_read, start_write, reply_read, reply_write):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(start_write)
            os.close(reply_read)
            _serve(start_read, reply_write, fn, args)
        os.close(start_read)
        os.close(reply_write)
        self._reply = open(reply_read, "rb")
        # a forked child starts on its parent's CPU; it blocks on this byte,
        # and waking it lets the scheduler move it to an idle one
        os.write(start_write, b"\0")
        os.close(start_write)

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


def _serve(start: int, reply: int, fn, args) -> None:
    """The child: wait for the start byte, run `fn`, send back its value or
    exception, and end with `os._exit`, so that buffers inherited from the
    parent are never flushed twice."""
    status = 1
    try:
        gc.disable()
        os.read(start, 1)
        os.close(start)
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


def write_all(writes: list) -> tuple[list[str], tuple[str, Exception] | None]:
    """Run `writes`, (stage, write) pairs, in order: the status lines of
    those that finished, and the stage and error of the one that stopped
    the rest, if any."""
    lines = []
    for stage, write in writes:
        try:
            lines.append(write())
        except Exception as exc:
            return lines, (stage, exc)
    return lines, None

