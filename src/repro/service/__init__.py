"""The yield-estimation job service.

A small, dependency-free HTTP job server over :mod:`repro.api`: clients
``POST`` an :class:`~repro.api.EstimateRequest` envelope to ``/v1/jobs``,
poll ``GET /v1/jobs/{id}`` until the job settles, and read the same
``schema_version``-stamped :class:`~repro.api.EstimateResult` JSON the
CLI ``--json`` flag prints.  The layering:

* :mod:`repro.service.jobs` — :class:`JobStore`: thread-safe job records
  plus an on-disk spool (cwd-independent; configurable with the
  write-probe → :class:`~repro.errors.ConfigError` pattern).
* :mod:`repro.service.executor` — :class:`JobExecutor`: the bounded
  worker budget (a counted budget over total workers, per-job
  ``n_shards`` preserved so results stay bit-identical to the CLI) and
  the single-flight compile lock (N identical concurrent submissions →
  exactly one plan-cache miss).
* :mod:`repro.service.app` — :class:`ServiceApp`: transport-free
  request routing (``handle_json(method, path, body)``) plus the
  in-process :class:`ServiceClient` used by tests, the bench section
  and ``tools/loadtest.py``.
* :mod:`repro.service.http` — the stdlib socket adapter
  (``ThreadingHTTPServer``) behind ``repro.cli serve``.
"""

from repro.service.app import ServiceApp, ServiceClient
from repro.service.executor import JobExecutor
from repro.service.http import serve
from repro.service.jobs import Job, JobStore

__all__ = [
    "Job",
    "JobStore",
    "JobExecutor",
    "ServiceApp",
    "ServiceClient",
    "serve",
]
