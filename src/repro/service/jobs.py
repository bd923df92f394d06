"""Job records and the thread-safe job store.

A :class:`Job` is one submitted estimation request plus its lifecycle
state; the :class:`JobStore` keeps jobs in memory (behind one lock —
handler threads and executor threads both touch it) and spools settled
jobs to disk as JSON, one ``<job_id>.json`` per job.  Memory holds every
unsettled job but at most :data:`MAX_SETTLED_JOBS` settled ones: past
that, the job that settled first is evicted and served from its spool
file, which holds exactly its final ``to_json()``.

The spool directory is **cwd-independent** by construction: when no
directory is configured the store creates a private one under the
system temp root and removes it on :meth:`JobStore.close`.  A
configured directory is probed for writability up front and refused
with a typed :class:`~repro.errors.ConfigError` — the same pattern the
plan cache uses — so a service pointed at a read-only volume fails at
startup, not at the first settled job.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api import EstimateRequest, EstimateResult
from repro.errors import ConfigError

__all__ = ["Job", "JobStore", "JOB_STATUSES", "MAX_SETTLED_JOBS"]

#: Lifecycle states a job moves through.  ``queued -> running`` and
#: then exactly one of ``done`` / ``failed``; ``cancelled`` is reachable
#: only from ``queued`` (a running estimation is never killed mid-flight
#: — its shards would be wasted work either way).
JOB_STATUSES: Tuple[str, ...] = ("queued", "running", "done", "failed", "cancelled")

_TERMINAL = frozenset({"done", "failed", "cancelled"})

#: Settled jobs kept in memory (each holds its request and result, a
#: few KB); older ones are answered from their spool files.
MAX_SETTLED_JOBS = 1024


@dataclass
class Job:
    """One submitted request and everything that happened to it."""

    job_id: str
    request: EstimateRequest
    status: str = "queued"
    submitted_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    granted_workers: Optional[int] = None
    #: Wall time of the prepare phase (validation + limit-state build +
    #: plan compiles through the plan cache, no transient), measured
    #: inside the executor's compile lock but excluding the wait for it —
    #: so a warm job shows the cache hit, not the queueing behind the
    #: cold job's compile.
    prepare_s: Optional[float] = None
    result: Optional[EstimateResult] = None
    error: Optional[Dict[str, Any]] = None

    @property
    def settled(self) -> bool:
        return self.status in _TERMINAL

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "status": self.status,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "granted_workers": self.granted_workers,
            "prepare_s": self.prepare_s,
            "request": self.request.to_json(),
        }
        if self.result is not None:
            doc["result"] = self.result.to_json()
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobStore:
    """Thread-safe registry of jobs with an on-disk spool.

    Parameters
    ----------
    spool_dir:
        Directory settled-job JSON is written to.  ``None`` (the
        default) creates a private directory under the system temp root
        — owned by the store and removed by :meth:`close` — so the
        service never depends on, or litters, the caller's cwd.
    """

    def __init__(self, spool_dir: Optional[object] = None):
        self._lock = threading.Lock()
        self._jobs: "Dict[str, Job]" = {}  # retained jobs, in submission order
        self._created = 0
        # Settled jobs whose spool file is written, in settling order:
        # the only jobs eviction may drop from memory.
        self._spooled: "deque[str]" = deque()
        self._evicted = {status: 0 for status in JOB_STATUSES}
        self._owns_spool = spool_dir is None
        if spool_dir is None:
            self.spool_dir = Path(tempfile.mkdtemp(prefix="repro-service-"))
        else:
            path = Path(spool_dir)
            try:
                path.mkdir(parents=True, exist_ok=True)
                probe = path / ".write-probe"
                probe.write_bytes(b"")
                probe.unlink()
            except OSError as exc:
                raise ConfigError(
                    f"job store: spool dir {str(path)!r} is not writable: {exc}"
                ) from exc
            self.spool_dir = path

    # -- creation and lookup -------------------------------------------

    def create(self, request: EstimateRequest) -> Job:
        """Register a new queued job for ``request``."""
        with self._lock:
            self._created += 1
            job = Job(job_id=f"job-{self._created:06d}", request=request)
            self._jobs[job.job_id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        """A job still held in memory (``None`` once evicted)."""
        with self._lock:
            return self._jobs.get(job_id)

    def spooled(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The spooled document of a job this store created and evicted."""
        match = re.fullmatch(r"job-(\d+)", job_id)
        with self._lock:
            if match is None or int(match.group(1)) > self._created or job_id in self._jobs:
                return None
        try:
            return json.loads((self.spool_dir / f"{job_id}.json").read_text())
        except (OSError, ValueError):
            return None

    def jobs(self) -> List[Job]:
        """The retained jobs in submission order (a snapshot)."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Lifetime job counts by status (every status present, zeros
        included; evicted jobs still count)."""
        with self._lock:
            counts = dict(self._evicted)
            for job in self._jobs.values():
                counts[job.status] += 1
        return counts

    # -- lifecycle transitions -----------------------------------------

    def mark_running(self, job: Job, granted_workers: int) -> bool:
        """``queued -> running``; False when the job was cancelled first."""
        with self._lock:
            if job.status != "queued":
                return False
            job.status = "running"
            job.started_s = time.time()
            job.granted_workers = int(granted_workers)
            return True

    def mark_done(self, job: Job, result: EstimateResult) -> None:
        with self._lock:
            job.status = "done"
            job.finished_s = time.time()
            job.result = result
        self._settle(job)

    def mark_failed(self, job: Job, error: Dict[str, Any]) -> None:
        with self._lock:
            job.status = "failed"
            job.finished_s = time.time()
            job.error = dict(error)
        self._settle(job)

    def mark_cancelled(self, job: Job, reason: str) -> bool:
        """``queued -> cancelled``; False when already running/settled."""
        with self._lock:
            if job.status != "queued":
                return False
            job.status = "cancelled"
            job.finished_s = time.time()
            job.error = {"code": "A007", "message": reason}
        self._settle(job)
        return True

    # -- spool ----------------------------------------------------------

    def _settle(self, job: Job) -> None:
        """Spool a settled job, then evict past :data:`MAX_SETTLED_JOBS`.

        The spool write runs outside the lock; only a job whose file is
        written joins the eviction queue, so no job is ever missing from
        both memory and disk.
        """
        self._spool(job)
        with self._lock:
            self._spooled.append(job.job_id)
            while len(self._spooled) > MAX_SETTLED_JOBS:
                evicted = self._jobs.pop(self._spooled.popleft())
                self._evicted[evicted.status] += 1

    def _spool(self, job: Job) -> None:
        path = self.spool_dir / f"{job.job_id}.json"
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            tmp.write_text(json.dumps(job.to_json(), sort_keys=True) + "\n")
            os.replace(tmp, path)
        except OSError as exc:
            # The spool is an audit trail, not the source of truth (the
            # in-memory record is).  Losing one write after the startup
            # probe passed means the volume changed under us — surface
            # it as the same typed error a bad configuration gets.
            raise ConfigError(
                f"job store: cannot spool {str(path)!r}: {exc}"
            ) from exc

    def close(self) -> None:
        """Remove the spool directory if this store created it."""
        if self._owns_spool:
            shutil.rmtree(self.spool_dir, ignore_errors=True)
