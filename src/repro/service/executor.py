"""The job executor: bounded worker budget + single-flight compilation.

Two concerns live here, both about *how much* runs at once — never
about *what* a job computes (that is pinned by the request's seed and
shard plan before the executor ever sees it):

* **Worker budget.**  The service owns ``workers_total`` workers.  A
  job asking for ``workers=k`` is granted ``min(k, workers_total)``
  worker tokens, acquired all-or-nothing from a counted budget, so
  concurrent jobs share the machine instead of oversubscribing it.
  Granting fewer workers than requested cannot change an estimate —
  ``n_shards`` was resolved from the *request* at prepare time and the
  shard plan, not the worker count, is what the estimate depends on.

* **Single-flight compilation.**  :func:`repro.api.prepare` (which
  compiles the limit state's plans through the plan cache and runs no
  transient) holds one lock.  N concurrent submissions of the same
  circuit shape therefore incur exactly one plan-cache miss: the first
  compiles and stores, the rest hit the memory tier.  The sampling
  phase runs outside the lock, so only the compile step is serialized.

A job whose prepare or run raises anything — a typed
:class:`~repro.errors.ReproError` or a stray ``LinAlgError``,
``MemoryError`` or plain bug — settles ``failed`` with the error's type
and message, so it never holds a queue slot past its end.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict

from repro import api
from repro.errors import RequestError
from repro.service.jobs import Job, JobStore

__all__ = ["JobExecutor", "WorkerBudget"]


class WorkerBudget:
    """A counted budget with all-or-nothing acquisition.

    Unlike a semaphore acquired token by token, :meth:`acquire` blocks
    until *all* ``n`` tokens are free and takes them atomically — two
    jobs can never deadlock holding partial grants of each other's
    workers.
    """

    def __init__(self, total: int):
        if int(total) < 1:
            raise RequestError(f"worker budget must be >= 1, got {total!r}", code="A003")
        self.total = int(total)
        self._available = int(total)
        self._cond = threading.Condition()

    @property
    def available(self) -> int:
        with self._cond:
            return self._available

    def acquire(self, n: int) -> None:
        with self._cond:
            while self._available < n:
                self._cond.wait()
            self._available -= n

    def release(self, n: int) -> None:
        with self._cond:
            self._available += n
            self._cond.notify_all()


class JobExecutor:
    """Run jobs from a :class:`~repro.service.jobs.JobStore` on a
    bounded pool.

    Parameters
    ----------
    store:
        The job store submissions land in.
    workers_total:
        The service's worker budget; also the size of the job thread
        pool (a running job holds at least one worker token, so more
        job threads than tokens could never all make progress).
    queue_limit:
        Maximum number of unsettled jobs (queued + running) accepted at
        once; submissions beyond it are refused with ``A007`` so
        clients see backpressure instead of an unbounded queue.
    """

    def __init__(
        self,
        store: JobStore,
        workers_total: int = 2,
        queue_limit: int = 64,
    ):
        if int(queue_limit) < 1:
            raise RequestError(
                f"queue_limit must be >= 1, got {queue_limit!r}", code="A003"
            )
        self.store = store
        self.budget = WorkerBudget(workers_total)
        self.queue_limit = int(queue_limit)
        self._compile_lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._accepting = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.budget.total, thread_name_prefix="repro-job"
        )

    # -- submission ----------------------------------------------------

    def submit(self, request: api.EstimateRequest) -> Job:
        """Validate eagerly, register and enqueue one request.

        Raises :class:`~repro.errors.RequestError`: ``A00x`` validation
        codes from the request itself, or ``A007`` when the service is
        shutting down or the queue is full.
        """
        request.validate()
        with self._submit_lock:
            if not self._accepting:
                raise RequestError(
                    "service is shutting down and refuses new jobs", code="A007"
                )
            counts = self.store.counts()
            if counts["queued"] + counts["running"] >= self.queue_limit:
                raise RequestError(
                    f"job queue is full ({self.queue_limit} unsettled jobs)",
                    code="A007",
                )
            job = self.store.create(request)
        self._pool.submit(self._run_job, job)
        return job

    # -- the job body --------------------------------------------------

    def _run_job(self, job: Job) -> None:
        granted = min(job.request.workers, self.budget.total)
        self.budget.acquire(granted)
        try:
            if not self.store.mark_running(job, granted):
                return  # cancelled while queued
            try:
                with self._compile_lock:
                    t0 = time.perf_counter()
                    prepared = api.prepare(job.request)
                    job.prepare_s = round(time.perf_counter() - t0, 6)
                result = prepared.run(workers=granted)
            except Exception as exc:  # any error settles the job, never strands it
                self.store.mark_failed(job, _error_payload(exc))
                return
            self.store.mark_done(job, result)
        finally:
            self.budget.release(granted)

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload: budget, queue, cache, faults."""
        from repro.spice.plan import default_plan_cache

        counts = self.store.counts()
        fault_stats: Dict[str, int] = {}
        for job in self.store.jobs():
            if job.result is not None:
                for key, value in job.result.fault_stats.items():
                    fault_stats[key] = fault_stats.get(key, 0) + int(value)
        return {
            "accepting": self._accepting,
            "workers_total": self.budget.total,
            "workers_available": self.budget.available,
            "queue_limit": self.queue_limit,
            "queue_depth": counts["queued"],
            "running": counts["running"],
            "jobs": counts,
            "plan_cache": dict(default_plan_cache().stats),
            "fault_stats": fault_stats,
        }

    # -- shutdown ------------------------------------------------------

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting and settle every job.

        ``drain=True`` lets queued jobs run to completion;
        ``drain=False`` cancels everything still queued (running jobs
        always finish — killing a half-done estimation buys nothing and
        costs the shards already computed).  Idempotent.
        """
        with self._submit_lock:
            self._accepting = False
        if not drain:
            for job in self.store.jobs():
                self.store.mark_cancelled(job, "service shut down before the job ran")
        self._pool.shutdown(wait=True)


def _error_payload(exc: Exception) -> Dict[str, Any]:
    """A failed job's structured error record (``code`` only for the
    typed errors that carry one)."""
    payload: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    code = getattr(exc, "code", None)
    if code is not None:
        payload["code"] = code
    return payload
