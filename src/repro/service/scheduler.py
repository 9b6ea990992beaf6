"""Deterministic fair-share priority scheduling (stride + aging).

The service multiplexes many exploration jobs over one process by
time-slicing; this module decides *which job runs the next
slice*.  The policy is stride scheduling — the deterministic
counterpart of lottery scheduling — with optional priority aging:

* every runnable job holds a *pass* value; the scheduler always picks
  the job with the smallest pass (ties broken by submission sequence,
  so schedules are total orders);
* charging a slice advances the job's pass by ``STRIDE_SCALE /
  priority`` — over time each job receives run time proportional to
  its priority (fair share), and a job that waits keeps its low pass
  and eventually wins (no starvation);
* with ``aging_rate > 0`` the *effective* pass sinks further the
  longer a job has waited since its last slice, boosting long-waiting
  low-priority jobs ahead of their proportional turn.

Every input is integer-or-clock-derived and the clock is injectable
(:mod:`repro.service.clock`), so under a :class:`ManualClock` the full
schedule of a job mix is a pure function of (priorities, submission
order, aging rate) — the unit tests assert exact schedules literally.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ReproError
from .clock import ServiceClock

#: Pass increment of a priority-1 job per charged slice.  Large enough
#: that fractional strides (1/priority) stay exact in double precision
#: for every realistic priority.
STRIDE_SCALE = float(1 << 16)


class SchedulerError(ReproError):
    """A scheduling request referenced an unknown job or bad priority."""


class _Entry:
    __slots__ = ("job_id", "priority", "seq", "pass_value", "wait_since")

    def __init__(
        self,
        job_id: str,
        priority: float,
        seq: int,
        pass_value: float,
        wait_since: float,
    ) -> None:
        self.job_id = job_id
        self.priority = priority
        self.seq = seq
        self.pass_value = pass_value
        self.wait_since = wait_since


class StrideScheduler:
    """Deterministic stride scheduler over runnable job ids."""

    def __init__(
        self, clock: ServiceClock, aging_rate: float = 0.0
    ) -> None:
        if aging_rate < 0:
            raise SchedulerError(
                f"aging_rate must be >= 0, got {aging_rate!r}"
            )
        self._clock = clock
        self.aging_rate = aging_rate
        self._entries: Dict[str, _Entry] = {}
        self._seq = 0

    def add(self, job_id: str, priority: float = 1.0) -> None:
        """Make a job runnable.

        A newcomer starts at the minimum pass currently in the run
        queue (not zero): it competes fairly from now on instead of
        monopolising the service until it catches up on history.
        """
        if priority <= 0:
            raise SchedulerError(
                f"priority must be > 0, got {priority!r}"
            )
        if job_id in self._entries:
            raise SchedulerError(f"job {job_id!r} already scheduled")
        floor = min(
            (e.pass_value for e in self._entries.values()), default=0.0
        )
        self._entries[job_id] = _Entry(
            job_id, priority, self._seq, floor, self._clock.now()
        )
        self._seq += 1

    def remove(self, job_id: str) -> None:
        if job_id not in self._entries:
            raise SchedulerError(f"job {job_id!r} is not scheduled")
        del self._entries[job_id]

    def _effective_pass(self, entry: _Entry, now: float) -> float:
        return entry.pass_value - self.aging_rate * max(
            0.0, now - entry.wait_since
        )

    def pick(self) -> Optional[str]:
        """The job that should run the next slice (``None`` when idle).

        Picking does not consume anything; call :meth:`charge` after
        the slice ran (or :meth:`remove` when the job finished).
        """
        if not self._entries:
            return None
        now = self._clock.now()
        best = min(
            self._entries.values(),
            key=lambda e: (self._effective_pass(e, now), e.seq),
        )
        return best.job_id

    def charge(self, job_id: str, slices: float = 1.0) -> None:
        """Account ``slices`` of run time against a job."""
        entry = self._entries.get(job_id)
        if entry is None:
            raise SchedulerError(f"job {job_id!r} is not scheduled")
        if slices < 0:
            raise SchedulerError(f"slices must be >= 0, got {slices!r}")
        entry.pass_value += slices * STRIDE_SCALE / entry.priority
        entry.wait_since = self._clock.now()

    def waiting_since(self, job_id: str) -> float:
        """When the job last ran (or was enqueued)."""
        entry = self._entries.get(job_id)
        if entry is None:
            raise SchedulerError(f"job {job_id!r} is not scheduled")
        return entry.wait_since

    def job_ids(self) -> List[str]:
        """Runnable job ids in submission order."""
        return [
            e.job_id
            for e in sorted(self._entries.values(), key=lambda e: e.seq)
        ]

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)
