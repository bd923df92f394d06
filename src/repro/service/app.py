"""The transport-free service core and its in-process client.

:class:`ServiceApp` is the whole HTTP surface expressed as one pure-ish
function, ``handle_json(method, path, body) -> (status, payload)`` —
no sockets, no framework, no event loop.  The stdlib socket adapter in
:mod:`repro.service.http` and the in-process :class:`ServiceClient`
(tests, bench, load tool) both call it, so everything observable about
the service is exercised without binding a port.

Routes::

    GET    /v1/healthz      liveness + accepting flag
    GET    /v1/stats        worker budget, queue, job counts, plan-cache
    GET    /v1/workloads    registered workload specs (the A001 hint)
    POST   /v1/jobs         submit an EstimateRequest envelope  (202)
    GET    /v1/jobs         list the jobs held in memory
    GET    /v1/jobs/{id}    poll one job
    DELETE /v1/jobs/{id}    cancel while queued (idempotent)

Error contract: every non-2xx body is ``{"error": {"code", "message",
"hint"}}`` with a stable ``A0xx`` code — validation failures are 400,
unknown ids/routes 404, refused submissions (shutdown, queue full) 503.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro import api
from repro.errors import EstimationError, RequestError
from repro.service.executor import JobExecutor
from repro.service.jobs import JobStore
from repro.service.schemas import error_body, error_from, job_envelope

__all__ = ["ServiceApp", "ServiceClient"]

Response = Tuple[int, Dict[str, Any]]


class ServiceApp:
    """The job service: routing over a store and an executor.

    Parameters mirror the ``repro.cli serve`` flags: ``workers_total``
    is the machine budget shared by all jobs, ``queue_limit`` the
    backpressure bound, ``spool_dir`` the (cwd-independent) directory
    settled jobs are spooled to.
    """

    def __init__(
        self,
        workers_total: int = 2,
        queue_limit: int = 64,
        spool_dir: Optional[object] = None,
        store: Optional[JobStore] = None,
        executor: Optional[JobExecutor] = None,
    ):
        self.store = store if store is not None else JobStore(spool_dir=spool_dir)
        self.executor = (
            executor
            if executor is not None
            else JobExecutor(self.store, workers_total=workers_total, queue_limit=queue_limit)
        )

    # -- the single entry point ----------------------------------------

    def handle_json(self, method: str, path: str, body: Any = None) -> Response:
        """Dispatch one request; returns ``(http_status, json_payload)``.

        Never raises for request-shaped problems — those become the
        structured 4xx/503 bodies the wire contract promises.  Only
        genuine programming errors escape.
        """
        method = method.upper()
        path = path.rstrip("/") or "/"
        if path == "/v1/healthz" and method == "GET":
            return 200, {"status": "ok", "accepting": self.executor.stats()["accepting"]}
        if path == "/v1/stats" and method == "GET":
            return 200, self.executor.stats()
        if path == "/v1/workloads" and method == "GET":
            return 200, {"workloads": [w.to_json() for w in api.list_workloads()]}
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return 200, {"jobs": [job_envelope(j) for j in self.store.jobs()]}
            return 405, error_body("A006", f"method {method} not allowed on {path}")
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if "/" not in job_id and job_id:
                return self._job_route(method, job_id)
        return 404, error_body("A006", f"no route {method} {path}")

    # -- route bodies --------------------------------------------------

    def _submit(self, body: Any) -> Response:
        try:
            request = api.EstimateRequest.from_json(body)
            job = self.executor.submit(request)
        except RequestError as exc:
            status = 503 if exc.code == "A007" else 400
            return status, error_from(exc)
        return 202, job_envelope(job)

    def _job_route(self, method: str, job_id: str) -> Response:
        job = self.store.get(job_id)
        spooled = self.store.spooled(job_id) if job is None else None
        if job is None and spooled is None:
            return 404, error_body("A006", f"unknown job id {job_id!r}")
        if method not in ("GET", "DELETE"):
            return 405, error_body("A006", f"method {method} not allowed on job {job_id!r}")
        if job is None:
            # Evicted from memory, hence settled: GET and DELETE alike
            # report the final state its spool file holds.
            return 200, spooled
        if method == "DELETE":
            # Cancel-if-queued, report-current-state otherwise: DELETE
            # is idempotent and never errors on a job that already ran.
            self.store.mark_cancelled(job, "cancelled by client")
        return 200, job_envelope(job)

    # -- lifecycle -----------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut down: stop accepting, drain (or cancel) queued jobs,
        settle everything, remove an owned spool directory."""
        self.executor.shutdown(drain=drain)
        self.store.close()


class ServiceClient:
    """In-process client: the service's test/bench/loadtest interface.

    Speaks the exact wire contract (same envelopes, same status codes)
    without sockets, so anything measured through it — validation
    behaviour, submit latency, QPS — transfers to the HTTP adapter
    modulo transport cost.
    """

    def __init__(self, app: ServiceApp):
        self.app = app

    def get(self, path: str) -> Response:
        return self.app.handle_json("GET", path)

    def post(self, path: str, body: Any = None) -> Response:
        return self.app.handle_json("POST", path, body)

    def delete(self, path: str) -> Response:
        return self.app.handle_json("DELETE", path)

    # -- conveniences over the raw verbs -------------------------------

    def submit(self, request: "api.EstimateRequest | Dict[str, Any]") -> Dict[str, Any]:
        """Submit; returns the job envelope or raises the typed error
        the service refused with (code preserved)."""
        body = request.to_json() if isinstance(request, api.EstimateRequest) else request
        status, payload = self.post("/v1/jobs", body)
        if status != 202:
            error = payload.get("error", {})
            raise RequestError(
                error.get("message", f"submission refused with HTTP {status}"),
                code=error.get("code"),
            )
        return payload

    def wait(self, job_id: str, timeout: float = 120.0, poll_s: float = 0.01) -> Dict[str, Any]:
        """Poll until the job settles; returns its final envelope."""
        deadline = time.monotonic() + timeout
        while True:
            status, payload = self.get(f"/v1/jobs/{job_id}")
            if status != 200:
                error = payload.get("error", {})
                raise RequestError(
                    error.get("message", f"poll failed with HTTP {status}"),
                    code=error.get("code"),
                )
            if payload["status"] in ("done", "failed", "cancelled"):
                return payload
            if time.monotonic() >= deadline:
                raise EstimationError(
                    f"job {job_id} did not settle within {timeout:.1f}s "
                    f"(status {payload['status']!r})"
                )
            time.sleep(poll_s)

    def estimate(self, request: api.EstimateRequest, timeout: float = 120.0) -> api.EstimateResult:
        """Submit + wait + parse: the blocking one-call path.

        Raises :class:`~repro.errors.EstimationError` when the job
        failed server-side (the error payload is in the message).
        """
        envelope = self.submit(request)
        final = self.wait(envelope["job_id"], timeout=timeout)
        if final["status"] != "done":
            raise EstimationError(
                f"job {final['job_id']} settled as {final['status']!r}: "
                f"{final.get('error')}"
            )
        return api.EstimateResult.from_json(final["result"])
