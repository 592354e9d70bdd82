"""Shared scheduler: one execution cap multiplexing many clients.

The paper's prototype "contains a dispatching component that runs in a
single thread and spawns multiple pipeline instances in parallel" with
"five execution engine workers" (Section 5).  The seed repo reproduced
that *within* one session; this module generalizes it to a shared pool:
every client (a debugging job, a parallel session) routes its instance
executions through here, and at most ``workers`` of them execute at
once, service-wide, with

* **caller-runs** -- a single execution (:meth:`SharedScheduler.call`,
  which :class:`ScheduledExecutor` uses) runs on the calling thread
  when a slot is free and nothing is queued, so an uncontended job
  never pays a thread hand-off; otherwise it queues and waits like a
  batch request, and the policies below decide when it runs;
* **fairness** -- queued requests wait per job and are dispatched
  round-robin across jobs, so one job's thousand-instance batch cannot
  starve a job that needs two instances;
* **weighted fairness** (optional, off by default) -- jobs may carry an
  integer priority weight; a job with weight ``w`` is served up to
  ``w`` consecutive requests per round-robin turn.  With the flag off
  (or with all weights at 1) dispatch order is exactly the unweighted
  FIFO round-robin;
* **budget awareness** -- a request may carry a ``skip`` predicate
  (typically "this job's budget is exhausted and the instance is not a
  free history hit"); skipped requests resolve immediately without
  running their thunk;
* **elasticity** -- worker threads serve batches and contended calls
  only; they are spawned lazily up to the configured limit and exit
  after an idle timeout, so short-lived sessions (the test-suite
  creates thousands) do not leak threads.

This module is deliberately neutral: it lives below both
:mod:`repro.pipeline` and :mod:`repro.service` and imports only the
standard library.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence

__all__ = [
    "SharedScheduler",
    "SchedulerBackend",
    "ScheduledExecutor",
    "SchedulerStats",
]

_DEFAULT_IDLE_TIMEOUT = 2.0

# Which scheduler (if any) the current thread holds an execution slot
# of: its worker threads, and callers while their thunk runs inline.
# Lets a nested call run directly instead of deadlocking on a full pool.
_worker_context = threading.local()


class _Request:
    """One unit of work: run ``thunk`` on a pool worker, deliver the result."""

    __slots__ = ("job_id", "thunk", "skip", "done", "value", "error", "skipped")

    def __init__(
        self,
        job_id: str,
        thunk: Callable[[], object],
        skip: Callable[[], bool] | None = None,
    ):
        self.job_id = job_id
        self.thunk = thunk
        self.skip = skip
        self.done = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None
        self.skipped = False

    def result(self) -> object:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.value


class SchedulerStats:
    """Aggregate dispatch counters (all fields monotonically increase).

    ``dispatched`` counts every thunk that ran: ``inline`` on its
    caller's thread, the rest on the worker slots of
    ``dispatched_by_worker``.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.dispatched = 0
        self.inline = 0
        self.skipped = 0
        self.errors = 0
        self.dispatched_by_job: dict[str, int] = {}
        self.dispatched_by_worker: dict[int, int] = {}

    def snapshot(self) -> dict[str, object]:
        return {
            "submitted": self.submitted,
            "dispatched": self.dispatched,
            "inline": self.inline,
            "skipped": self.skipped,
            "errors": self.errors,
            "dispatched_by_job": dict(self.dispatched_by_job),
            "dispatched_by_worker": dict(self.dispatched_by_worker),
        }


class SharedScheduler:
    """Fair, elastic dispatcher shared by every job of a service.

    Args:
        workers: maximum concurrent pipeline executions, inline callers
            and worker threads together.  This is the service-wide cap;
            jobs share it no matter how many are active (the Figure 6
            prototype used five).
        idle_timeout: seconds an idle worker thread lingers before
            exiting.  Workers respawn on demand, so this only trades a
            little thread-start latency against leaked-thread count.
        name: prefix for worker thread names (diagnostics).
        weighted_fairness: enable priority-weighted round-robin.  Off by
            default; when off, per-job priorities are ignored and the
            pop order is exactly the historical FIFO round-robin.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        workers: int = 5,
        idle_timeout: float = _DEFAULT_IDLE_TIMEOUT,
        name: str | None = None,
        weighted_fairness: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.weighted_fairness = weighted_fairness
        self._idle_timeout = idle_timeout
        self._name = name or f"scheduler-{next(self._ids)}"
        # Two wait queues over ONE lock: workers block on _condition for
        # new work; wait_quiescent callers block on _settled.  Separate
        # conditions keep submit's single notify() from waking a
        # quiescence waiter instead of an idle worker.
        lock = threading.Lock()
        self._condition = threading.Condition(lock)
        self._settled = threading.Condition(lock)
        self._queues: dict[str, deque[_Request]] = {}
        self._ring: deque[str] = deque()  # job ids with pending requests
        self._priorities: dict[str, int] = {}
        self._credits: dict[str, int] = {}
        self._unsettled: dict[str, int] = {}  # submitted, not yet resolved
        self._pending = 0
        self._running = 0  # executing thunks: inline callers + workers
        self._live_workers = 0
        self._idle_workers = 0
        self._free_slots = set(range(workers))
        self._shutdown = False
        self.stats = SchedulerStats()

    # -- Priorities ----------------------------------------------------------
    def set_priority(self, job_id: str, weight: int) -> None:
        """Give ``job_id`` a round-robin weight (takes effect with
        ``weighted_fairness``; a weight of 1 is the unweighted default).
        """
        if weight < 1:
            raise ValueError("priority weight must be at least 1")
        with self._condition:
            self._priorities[job_id] = weight

    def clear_priority(self, job_id: str) -> None:
        """Forget a job's weight (long-lived schedulers call this on job
        completion so per-job state does not accrete)."""
        with self._condition:
            self._priorities.pop(job_id, None)
            self._credits.pop(job_id, None)

    # -- Submission ----------------------------------------------------------
    def submit(
        self,
        job_id: str,
        thunk: Callable[[], object],
        skip: Callable[[], bool] | None = None,
    ) -> _Request:
        """Enqueue one thunk for ``job_id``; returns a waitable request."""
        with self._condition:
            return self._enqueue(job_id, thunk, skip)

    def run_batch(
        self,
        job_id: str,
        thunks: Sequence[Callable[[], object]],
        skip: Callable[[], bool] | None = None,
    ) -> list[object]:
        """Submit a batch and wait for every element (order preserved)."""
        requests = [self.submit(job_id, thunk, skip) for thunk in thunks]
        return [request.result() for request in requests]

    def call(self, job_id: str, thunk: Callable[[], object]) -> object:
        """Run one thunk for ``job_id`` and return its value (or raise).

        When a slot is free and nothing is queued, the thunk runs right
        here on the calling thread, booked like any dispatch.  Otherwise
        it queues and waits exactly as :meth:`submit` does, so the cap
        and the round-robin order decide every contended call.  A call
        from a thread that already holds one of this scheduler's slots
        (a worker, or a caller whose thunk is running inline) runs
        directly: waiting in the queue could deadlock a full pool.
        """
        holder = getattr(_worker_context, "scheduler", None)
        if holder is self:
            return thunk()
        with self._condition:
            if self._shutdown or self._pending or self._running >= self.workers:
                request = self._enqueue(job_id, thunk, None)  # raises if shut down
            else:
                request = None
                self._running += 1
                self._unsettled[job_id] = self._unsettled.get(job_id, 0) + 1
                self.stats.submitted += 1
        if request is not None:
            return request.result()
        _worker_context.scheduler = self
        failed = True
        try:
            value = thunk()
            failed = False
        finally:
            _worker_context.scheduler = holder
            with self._condition:
                self.stats.inline += 1
                self._book(job_id, failed)
                if self._pending:
                    self._wake_worker()
        return value

    # -- Job-facing adapters -------------------------------------------------
    def backend(self, job_id: str) -> "SchedulerBackend":
        """An :class:`~repro.core.session.ExecutionBackend` view for one job."""
        return SchedulerBackend(self, job_id)

    def executor(self, job_id: str, inner) -> "ScheduledExecutor":
        """Wrap ``inner`` so each call runs under the shared cap."""
        return ScheduledExecutor(self, job_id, inner)

    # -- Introspection -------------------------------------------------------
    def stats_snapshot(self) -> dict[str, object]:
        """A self-consistent copy of the dispatch counters.

        Taken under the scheduler lock, so invariants like
        ``dispatched + skipped <= submitted`` hold in the snapshot even
        while workers are running (the bare ``stats`` object mutates
        live).
        """
        with self._condition:
            return self.stats.snapshot()

    @property
    def pending(self) -> int:
        with self._condition:
            return self._pending

    def wait_quiescent(
        self, job_id: str, timeout: float | None = None
    ) -> bool:
        """Block until none of ``job_id``'s requests are queued or
        executing; returns False on timeout.

        A caller that abandons outstanding requests (e.g. a cancelled
        batch unwinding on its first error) uses this to let in-flight
        siblings settle before reading shared state they mutate --
        otherwise a request still mid-execution on a worker could be
        observed half-done.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._settled:
            while self._unsettled.get(job_id, 0) > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._settled.wait(remaining)
        return True

    def _settle(self, job_id: str) -> None:
        """Book one of ``job_id``'s requests as resolved (caller holds
        the shared lock)."""
        count = self._unsettled.get(job_id, 0) - 1
        if count > 0:
            self._unsettled[job_id] = count
        else:
            self._unsettled.pop(job_id, None)
            self._settled.notify_all()  # wake wait_quiescent callers

    @property
    def live_workers(self) -> int:
        with self._condition:
            return self._live_workers

    # -- Lifecycle -----------------------------------------------------------
    def shutdown(self) -> None:
        """Reject new work and resolve queued requests with an error.

        In-flight thunks finish; workers exit once their queues drain.
        """
        with self._condition:
            self._shutdown = True
            error = RuntimeError("scheduler shut down")
            for queue in self._queues.values():
                while queue:
                    request = queue.popleft()
                    request.error = error
                    self._settle(request.job_id)
                    request.done.set()
            self._queues.clear()
            self._ring.clear()
            self._credits.clear()
            self._pending = 0
            self._condition.notify_all()

    def __enter__(self) -> "SharedScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- Internals -----------------------------------------------------------
    def _enqueue(
        self,
        job_id: str,
        thunk: Callable[[], object],
        skip: Callable[[], bool] | None,
    ) -> _Request:
        """Queue one request and wake a worker (caller holds the lock)."""
        if self._shutdown:
            raise RuntimeError("scheduler is shut down")
        request = _Request(job_id, thunk, skip)
        queue = self._queues.get(job_id)
        if queue is None:
            queue = self._queues[job_id] = deque()
        if not queue:
            self._ring.append(job_id)
        queue.append(request)
        self._pending += 1
        self._unsettled[job_id] = self._unsettled.get(job_id, 0) + 1
        self.stats.submitted += 1
        self._wake_worker()
        return request

    def _wake_worker(self) -> None:
        """Hand queued work to a worker: spawn one if the queue outgrows
        the idle workers while threads and execution slots remain, and
        wake one idle worker.  Caller must hold ``self._condition``.
        """
        if (
            self._pending > self._idle_workers
            and self._live_workers < self.workers
            and self._running < self.workers
        ):
            slot = min(self._free_slots)
            self._free_slots.remove(slot)
            self._live_workers += 1
            thread = threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=f"{self._name}-worker-{slot}",
                daemon=True,
            )
            thread.start()
        self._condition.notify()

    def _book(self, job_id: str, failed: bool) -> None:
        """Free a finished thunk's slot, count it and settle it (caller
        holds the lock)."""
        self._running -= 1
        self.stats.dispatched += 1
        if failed:
            self.stats.errors += 1
        self.stats.dispatched_by_job[job_id] = (
            self.stats.dispatched_by_job.get(job_id, 0) + 1
        )
        self._settle(job_id)

    def _claim(self) -> _Request | None:
        """Pop the next request if an execution slot is free; the popped
        request holds that slot.  Caller must hold ``self._condition``.
        """
        if self._running >= self.workers:
            return None
        request = self._pop_next()
        if request is not None:
            self._running += 1
        return request

    def _pop_next(self) -> _Request | None:
        """Round-robin pop: next request of the next job in the ring.

        With ``weighted_fairness``, a job at the front of the ring keeps
        its position until its priority-weight credits are spent, so a
        job with weight ``w`` is served up to ``w`` consecutive requests
        per turn.  Caller must hold ``self._condition``.
        """
        while self._ring:
            job_id = self._ring.popleft()
            queue = self._queues.get(job_id)
            if not queue:
                self._queues.pop(job_id, None)
                self._credits.pop(job_id, None)
                continue
            request = queue.popleft()
            self._pending -= 1
            if queue:
                if self.weighted_fairness:
                    credits = self._credits.get(job_id)
                    if credits is None:
                        credits = self._priorities.get(job_id, 1)
                    credits -= 1
                    if credits > 0:
                        self._credits[job_id] = credits
                        self._ring.appendleft(job_id)  # keep the turn
                    else:
                        self._credits.pop(job_id, None)
                        self._ring.append(job_id)  # rotate: others go first
                else:
                    self._ring.append(job_id)  # rotate: other jobs go first
            else:
                # Drop drained per-job queues so a long-lived scheduler
                # does not accrete state for every job it ever served.
                del self._queues[job_id]
                self._credits.pop(job_id, None)
            return request
        return None

    def _retire_worker(self, slot: int) -> None:
        """Return a worker's slot to the free pool (caller holds lock)."""
        self._live_workers -= 1
        self._free_slots.add(slot)

    def _worker_loop(self, slot: int) -> None:
        _worker_context.scheduler = self
        while True:
            with self._condition:
                request = self._claim()
                while request is None:
                    if self._shutdown:
                        self._retire_worker(slot)
                        return
                    self._idle_workers += 1
                    signaled = self._condition.wait(timeout=self._idle_timeout)
                    self._idle_workers -= 1
                    request = self._claim()
                    if request is None and not signaled:
                        # Idle too long and nothing to run: shrink.
                        self._retire_worker(slot)
                        return
            self._execute(request, slot)

    def _execute(self, request: _Request, slot: int) -> None:
        if request.skip is not None:
            try:
                should_skip = request.skip()
            except Exception:
                should_skip = False
            if should_skip:
                with self._condition:
                    self._running -= 1
                    self.stats.skipped += 1
                    self._settle(request.job_id)
                request.skipped = True
                request.done.set()
                return
        try:
            request.value = request.thunk()
        except BaseException as error:  # delivered to the waiter, not lost
            request.error = error
        with self._condition:
            self._book(request.job_id, request.error is not None)
            self.stats.dispatched_by_worker[slot] = (
                self.stats.dispatched_by_worker.get(slot, 0) + 1
            )
        request.done.set()


class SchedulerBackend:
    """Per-job :class:`~repro.core.session.ExecutionBackend` over a scheduler.

    A :class:`~repro.core.session.DebugSession` configured with this
    backend fans its speculative batches (Section 4.3) out to the
    *shared* pool instead of a private one, so the service-wide worker
    cap and fairness policy apply to intra-job parallelism too.
    """

    def __init__(self, scheduler: SharedScheduler, job_id: str):
        self._scheduler = scheduler
        self.job_id = job_id

    @property
    def parallel(self) -> bool:
        return True

    @property
    def scheduler(self) -> SharedScheduler:
        return self._scheduler

    def run_batch(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        requests = [
            self._scheduler.submit(
                self.job_id, task, skip=getattr(task, "skip", None)
            )
            for task in tasks
        ]
        return [request.result() for request in requests]


class ScheduledExecutor:
    """Route single executor calls through the shared scheduler.

    Serial sessions (whose algorithms evaluate one instance at a time
    and depend on strict ordering for determinism) still share the
    service-wide cap: each execution occupies one slot, so N concurrent
    jobs with serial sessions are collectively throttled and, when they
    contend, fairly interleaved.  Each call goes through
    :meth:`SharedScheduler.call`: uncontended, it runs on the job's own
    thread; contended, it waits its round-robin turn for a worker.
    Calls made while the thread already holds a slot (e.g. a batch task
    evaluating its instance on a worker) run directly.
    """

    def __init__(self, scheduler: SharedScheduler, job_id: str, inner):
        self._scheduler = scheduler
        self._inner = inner
        self.job_id = job_id

    def __call__(self, instance):
        return self._scheduler.call(self.job_id, lambda: self._inner(instance))
