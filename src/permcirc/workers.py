"""The worker team that shares out the blocks of one simulator step.

`share` calls a task once for every block of a step, on a team of
`WORKERS` threads: the calling thread and WORKERS - 1 daemon threads,
started the first time a step is shared, so a process that never shares
a step starts none.  Each thread takes the next block from a shared
counter until none is left, so a thread whose CPU is busy (a guest on
the other core, say) takes fewer; the order in which blocks run must not
matter to the task.  A call that raises on any thread (numpy's bounds
check, say) is raised in the caller once every thread is done, and the
team stays usable.  The team uses `threading` only: numpy releases the
interpreter lock in its gathers, ufuncs and BLAS calls, which do the
work of a block.

The team assumes a single-threaded BLAS (OPENBLAS_NUM_THREADS=1): a
gradient's overlaps call BLAS once a block, and a threaded BLAS keeps
its own threads busy beside the team's.
"""

import os
import threading
from itertools import count

# Threads of the team: one per CPU this process may run on, so `taskset`
# limits it; the calling thread is one of them.  With one, `share` runs
# nothing and the caller takes every block.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def share(task, blocks: int) -> bool:
    """Call task(t) once for each t in range(blocks) on the team of
    `WORKERS` threads, in any order, and return True; re-raise here the
    first exception a call raised.  Returns False, calling nothing, when
    WORKERS is 1 or another thread holds the team."""
    return WORKERS > 1 and _team(WORKERS).run(task, blocks)


class _Team:
    """`size` threads that share out the blocks of one step: the calling
    thread and size - 1 daemon threads, which wait at a barrier between
    steps.  A step passes the barrier twice, to start and once every block
    is done; in between each thread takes the next block from a shared
    counter until none is left.
    """

    def __init__(self, size: int):
        self._barrier = threading.Barrier(size)
        self._busy = threading.Lock()
        self._job = None  # (task, blocks, tickets, errors) between the two passes
        self._threads = [threading.Thread(target=self._serve, daemon=True) for _ in range(size - 1)]
        for thread in self._threads:
            thread.start()

    @property
    def broken(self) -> bool:
        """Whether an interrupt broke the barrier, or a thread is gone, as
        in a child forked from this process."""
        return self._barrier.broken or not all(t.is_alive() for t in self._threads)

    def _serve(self) -> None:
        try:
            while True:
                self._barrier.wait()
                _work(*self._job)
                self._barrier.wait()
        except threading.BrokenBarrierError:
            return  # the caller was interrupted, and `_team` replaces this team

    def run(self, task, blocks: int) -> bool:
        """Call task(t) once for each t in range(blocks), on any thread of
        the team and in any order, and return True; once every thread is
        done, re-raise here the first exception a call raised.  Returns
        False, calling nothing, when another thread holds the team."""
        if not self._busy.acquire(blocking=False):
            return False
        tickets, errors = count(), []
        try:
            self._job = task, blocks, tickets, errors
            self._barrier.wait()
            _work(task, blocks, tickets, errors)
            self._barrier.wait()
        except BaseException:  # an interrupt: stop the other threads for good
            errors.append(None)
            self._barrier.abort()
            raise
        finally:
            self._job = None
            self._busy.release()
        if errors:
            raise errors[0]
        return True


def _work(task, blocks: int, tickets, errors: list) -> None:
    """Call task(t) for each next ticket t until the tickets pass `blocks`
    or a call has raised; what a call raises goes to `errors`."""
    for t in tickets:
        if t >= blocks or errors:
            return
        try:
            task(t)
        except Exception as e:  # re-raised by the caller of `_Team.run`
            errors.append(e)


_teams = {}  # size -> the `_Team` of that many threads
_teams_lock = threading.Lock()


def _team(size: int) -> _Team:
    """The team of `size` threads, started on first use and replaced when
    it is broken (`_Team.broken`)."""
    with _teams_lock:
        team = _teams.get(size)
        if team is None or team.broken:
            team = _teams[size] = _Team(size)
        return team
