"""The job service end to end: wire contract, concurrency, identity.

Everything runs through the in-process client (the same routing the
socket adapter serves); one smoke test binds a real socket.  The two
acceptance invariants of the serving layer are pinned here:

* for a fixed (workload, seed, n_shards), the HTTP service, the
  ``repro.api`` facade and the CLI return **bit-identical** estimates;
* N identical concurrent submissions incur **exactly one** plan-cache
  miss (single-flight compilation).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro import api
from repro.service import ServiceApp, ServiceClient
from repro.spice.plan import default_plan_cache, reset_default_plan_cache


@pytest.fixture()
def app():
    service = ServiceApp(workers_total=2)
    yield service
    service.close(drain=True)


@pytest.fixture()
def client(app):
    return ServiceClient(app)


def linear(**overrides):
    base = dict(workload="analytic-linear", spec=4.0, budget=2000, seed=3)
    base.update(overrides)
    return api.EstimateRequest(**base)


#: The budget that marks a job as held by the ``gate`` fixture.
HELD_BUDGET = 2001


def held(seed=0):
    """A small analytic job that the ``gate`` fixture holds in prepare."""
    return linear(budget=HELD_BUDGET, seed=seed)


@pytest.fixture()
def gate(monkeypatch):
    """Hold every ``held()`` job in ``api.prepare`` until the test sets
    ``gate.release``, so the job keeps its worker busy for exactly as
    long as the test needs.  ``gate.entered`` is set once a held job is
    running.  Released jobs prepare and run normally and end ``done``."""
    gate = SimpleNamespace(entered=threading.Event(), release=threading.Event())
    real_prepare = api.prepare

    def gated_prepare(request):
        if request.budget == HELD_BUDGET:
            gate.entered.set()
            gate.release.wait(timeout=60.0)
        return real_prepare(request)

    monkeypatch.setattr(api, "prepare", gated_prepare)
    yield gate
    gate.release.set()


class TestWireContract:
    def test_healthz(self, client):
        status, payload = client.get("/v1/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_stats_shape(self, client):
        status, payload = client.get("/v1/stats")
        assert status == 200
        for key in ("workers_total", "workers_available", "queue_depth",
                    "running", "jobs", "plan_cache", "accepting"):
            assert key in payload
        assert "fault_stats" not in payload

    def test_workloads_route_backs_the_a001_hint(self, client):
        status, payload = client.get("/v1/workloads")
        assert status == 200
        names = [w["name"] for w in payload["workloads"]]
        assert "read" in names and "analytic-linear" in names

    @pytest.mark.parametrize(
        "body, code",
        [
            ({"workload": "nope", "spec": 1.0}, "A001"),
            ({"workload": "analytic-linear", "spec": 4.0,
              "knobs": {"bogus": 1}}, "A002"),
            ({"workload": "analytic-linear", "spec": 4.0, "budget": 0}, "A003"),
            ({"workload": "analytic-linear", "spec": 4.0,
              "method": "magic"}, "A004"),
            ({"workload": "analytic-linear", "spec": 4.0, "nope": 1}, "A005"),
            ([1, 2, 3], "A005"),
            ({"workload": "analytic-linear", "spec": 4.0, "retries": 1}, "A005"),
            ({"workload": "analytic-linear", "spec": 4.0,
              "schema_version": 1}, "A005"),
            ({"workload": "analytic-linear", "spec": 4.0,
              "shard_timeout": 0}, "A003"),
        ],
    )
    def test_validation_is_400_with_code(self, client, body, code):
        status, payload = client.post("/v1/jobs", body)
        assert status == 400
        assert payload["error"]["code"] == code
        assert payload["error"]["message"]

    def test_error_bodies_carry_fix_hints(self, client):
        _, payload = client.post("/v1/jobs", {"workload": "nope", "spec": 1.0})
        assert "hint" in payload["error"]

    def test_unknown_job_and_route_are_404_a006(self, client):
        for path in ("/v1/jobs/job-999999", "/v1/bogus", "/v2/jobs"):
            status, payload = client.get(path)
            assert status == 404
            assert payload["error"]["code"] == "A006"

    def test_method_not_allowed_is_405(self, client):
        status, _ = client.delete("/v1/jobs")
        assert status == 405


class TestLifecycle:
    def test_submit_poll_done(self, client):
        envelope = client.submit(linear())
        assert envelope["status"] in ("queued", "running")
        final = client.wait(envelope["job_id"])
        assert final["status"] == "done"
        assert final["granted_workers"] == 1
        assert final["prepare_s"] is not None
        result = api.EstimateResult.from_json(final["result"])
        assert 0.0 < result.p_fail < 1.0

    def test_job_list(self, client):
        client.wait(client.submit(linear())["job_id"])
        status, payload = client.get("/v1/jobs")
        assert status == 200 and len(payload["jobs"]) == 1

    def test_evicted_job_is_served_from_its_spool_file(self, client, monkeypatch):
        from repro.service import jobs

        monkeypatch.setattr(jobs, "MAX_SETTLED_JOBS", 1)
        first = client.wait(client.submit(linear(seed=1))["job_id"])
        second = client.wait(client.submit(linear(seed=2))["job_id"])
        status, listing = client.get("/v1/jobs")
        assert status == 200
        assert [j["job_id"] for j in listing["jobs"]] == [second["job_id"]]
        for verb in (client.get, client.delete):
            status, payload = verb(f"/v1/jobs/{first['job_id']}")
            assert status == 200 and payload == first
        assert client.get("/v1/stats")[1]["jobs"]["done"] == 2

    def test_evicted_job_refuses_other_methods(self, client, monkeypatch):
        from repro.service import jobs

        monkeypatch.setattr(jobs, "MAX_SETTLED_JOBS", 1)
        first = client.wait(client.submit(linear(seed=1))["job_id"])
        client.wait(client.submit(linear(seed=2))["job_id"])
        status, payload = client.post(f"/v1/jobs/{first['job_id']}", {})
        assert status == 405 and payload["error"]["code"] == "A006"
        assert client.get(f"/v1/jobs/{first['job_id']}") == (200, first)

    def test_timed_job_matches_untimed(self, client):
        plain = client.wait(client.submit(linear(workers=2, n_shards=2))["job_id"])
        timed = client.wait(
            client.submit(linear(workers=2, n_shards=2, shard_timeout=60.0))["job_id"]
        )
        assert plain["status"] == timed["status"] == "done"
        assert api.EstimateResult.from_json(timed["result"]).identical_to(
            api.EstimateResult.from_json(plain["result"])
        )

    def test_failing_shard_fails_the_job_typed(self, client, monkeypatch):
        """A shard that raises ends the run: the job settles failed with
        the typed shard error naming the shard, and the next job runs."""
        from repro.highsigma.analytic import LinearLimitState

        def overflowing(self, u_batch):
            raise FloatingPointError("metric overflow")

        monkeypatch.setattr(LinearLimitState, "fails_batch", overflowing)
        request = linear(method="mc", rel_err=None, n_shards=2)
        final = client.wait(client.submit(request)["job_id"])
        assert final["status"] == "failed"
        assert final["error"]["type"] == "ShardExecutionError"
        assert "shard 0 failed: FloatingPointError" in final["error"]["message"]
        monkeypatch.undo()
        assert client.wait(client.submit(linear(seed=1))["job_id"])["status"] == "done"

    def test_failed_job_is_an_envelope_not_a_500(self, client):
        # Eager validation passes (spec is a finite number, knobs
        # legal) but the run itself cannot produce an estimate: GIS on
        # a backwards spec finds no failure direction.  The job must
        # settle as failed with the typed error recorded.
        envelope = client.submit(linear(spec=-4.0, budget=300))
        final = client.wait(envelope["job_id"])
        assert final["status"] == "failed"
        assert final["error"]["type"]
        assert final["error"]["message"]

    def test_untyped_error_fails_the_job_and_frees_its_slot(self, monkeypatch):
        # Not a ReproError: a stray LinAlgError, MemoryError or plain
        # bug must settle the job too, or it stays running and holds
        # the only queue slot forever.
        def broken_prepare(request):
            raise ValueError("prepare exploded")

        app = ServiceApp(workers_total=1, queue_limit=1)
        try:
            client = ServiceClient(app)
            monkeypatch.setattr(api, "prepare", broken_prepare)
            final = client.wait(client.submit(linear())["job_id"], timeout=30.0)
            assert final["status"] == "failed"
            assert final["error"] == {"type": "ValueError", "message": "prepare exploded"}
            assert client.get("/v1/stats")[1]["running"] == 0

            monkeypatch.undo()
            status, payload = client.post("/v1/jobs", linear(seed=1).to_json())
            assert status == 202
            assert client.wait(payload["job_id"])["status"] == "done"
        finally:
            app.close(drain=True)

    def test_worker_grant_is_capped_not_refused(self, client):
        envelope = client.submit(linear(workers=64, n_shards=4))
        final = client.wait(envelope["job_id"])
        assert final["status"] == "done"
        assert final["granted_workers"] == 2  # budget of the fixture app
        # ... and capping cannot have changed the estimate:
        direct = api.estimate(linear(workers=64, n_shards=4))
        assert api.EstimateResult.from_json(final["result"]).identical_to(direct)

    def test_cancel_queued_job(self, gate):
        app = ServiceApp(workers_total=1)
        try:
            client = ServiceClient(app)
            running = client.submit(held())
            queued = client.submit(linear(seed=9))
            assert gate.entered.wait(timeout=30.0)
            status, payload = client.delete(f"/v1/jobs/{queued['job_id']}")
            assert status == 200
            # The held job keeps the only worker, so the second job is
            # still queued and the cancel lands; the job settles.
            final = client.wait(queued["job_id"])
            assert final["status"] == "cancelled"
            gate.release.set()
            assert client.wait(running["job_id"])["status"] == "done"
        finally:
            gate.release.set()
            app.close(drain=True)


class TestBackpressure:
    def test_queue_full_is_503_a007(self, gate):
        app = ServiceApp(workers_total=1, queue_limit=1)
        try:
            client = ServiceClient(app)
            first = client.submit(held())
            status, payload = client.post("/v1/jobs", linear(seed=1).to_json())
            assert status == 503
            assert payload["error"]["code"] == "A007"
            gate.release.set()
            assert client.wait(first["job_id"])["status"] == "done"
        finally:
            gate.release.set()
            app.close(drain=True)

    def test_shutdown_refuses_with_a007(self):
        app = ServiceApp(workers_total=1)
        client = ServiceClient(app)
        app.close(drain=True)
        status, payload = client.post("/v1/jobs", linear().to_json())
        assert status == 503 and payload["error"]["code"] == "A007"

    def test_drain_completes_queued_jobs(self):
        app = ServiceApp(workers_total=1)
        client = ServiceClient(app)
        envelopes = [client.submit(linear(seed=s)) for s in range(3)]
        app.close(drain=True)
        finals = [client.get(f"/v1/jobs/{e['job_id']}")[1] for e in envelopes]
        assert [f["status"] for f in finals] == ["done"] * 3

    def test_no_drain_cancels_queued_jobs(self, gate):
        app = ServiceApp(workers_total=1)
        client = ServiceClient(app)
        envelopes = [client.submit(held(seed=s)) for s in range(3)]
        assert gate.entered.wait(timeout=30.0)
        # close(drain=False) cancels the queued jobs, then waits for the
        # running one: release it only once the cancels have landed.
        closer = threading.Thread(target=app.close, kwargs={"drain": False})
        closer.start()
        try:
            for envelope in envelopes[1:]:
                client.wait(envelope["job_id"], timeout=30.0)
        finally:
            gate.release.set()
            closer.join(timeout=60.0)
        assert not closer.is_alive()
        statuses = [client.get(f"/v1/jobs/{e['job_id']}")[1]["status"]
                    for e in envelopes]
        assert all(s in ("done", "cancelled") for s in statuses)
        assert "cancelled" in statuses  # 1 worker, 3 held jobs: some queued
        assert statuses[0] == "done"  # the running job always finishes


class TestIdentityAndCompileSharing:
    def test_service_api_cli_bit_identical_and_one_miss(self, capsys):
        """The two acceptance invariants, on the real 6T read circuit."""
        from repro.cli import main

        request = api.EstimateRequest(
            workload="read", spec=4.995e-11, seed=7, budget=150,
            rel_err=0.1, knobs={"n_steps": 300},
        )

        reset_default_plan_cache()
        app = ServiceApp(workers_total=2)
        try:
            client = ServiceClient(app)
            envelopes = [client.submit(request) for _ in range(3)]
            finals = [client.wait(e["job_id"], timeout=300.0) for e in envelopes]
        finally:
            app.close(drain=True)
        assert [f["status"] for f in finals] == ["done"] * 3

        # Exactly one plan-cache miss for three concurrent submissions.
        stats = default_plan_cache().stats
        assert stats["misses"] == 1, stats
        assert stats["mem_hits"] >= 2

        served = [api.EstimateResult.from_json(f["result"]) for f in finals]
        assert served[0].identical_to(served[1])
        assert served[0].identical_to(served[2])

        # Facade, same request object.
        direct = api.estimate(request)
        assert served[0].identical_to(direct)

        # CLI with the flag spelling of the same request.
        assert main([
            "read-sigma", "--spec-ps", "49.95", "--n-steps", "300",
            "--budget", "150", "--rel-err", "0.1", "--seed", "7", "--json",
        ]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        cli_result = api.EstimateResult.from_json(cli_doc)
        assert cli_result.identical_to(direct)
        assert cli_result.p_fail == served[0].p_fail

    def test_concurrent_submission_threads(self, client):
        # Submissions racing from many threads: ids unique, all settle.
        envelopes = []
        lock = threading.Lock()

        def submit(seed):
            envelope = client.submit(linear(seed=seed))
            with lock:
                envelopes.append(envelope)

        threads = [threading.Thread(target=submit, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [e["job_id"] for e in envelopes]
        assert len(set(ids)) == 8
        assert all(client.wait(i)["status"] == "done" for i in ids)


class TestSocketAdapter:
    def test_http_round_trip(self):
        from repro.service.http import make_server

        app = ServiceApp(workers_total=2)
        server = make_server(app, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            def call(method, path, body=None):
                data = json.dumps(body).encode() if body is not None else None
                req = urllib.request.Request(base + path, data=data, method=method)
                try:
                    with urllib.request.urlopen(req, timeout=30) as resp:
                        return resp.status, json.loads(resp.read())
                except urllib.error.HTTPError as err:
                    return err.code, json.loads(err.read())

            assert call("GET", "/v1/healthz")[0] == 200
            status, envelope = call("POST", "/v1/jobs", linear().to_json())
            assert status == 202
            import time
            deadline = time.monotonic() + 60
            while True:
                status, final = call("GET", f"/v1/jobs/{envelope['job_id']}")
                if final["status"] in ("done", "failed", "cancelled"):
                    break
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert final["status"] == "done"
            assert final["result"]["p_fail"] == api.estimate(linear()).p_fail

            status, payload = call("POST", "/v1/jobs", {"workload": "nope", "spec": 1})
            assert status == 400 and payload["error"]["code"] == "A001"

            raw = urllib.request.Request(base + "/v1/jobs", data=b"{not json",
                                         method="POST")
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(raw, timeout=30)
            assert exc.value.code == 400
            assert json.loads(exc.value.read())["error"]["code"] == "A005"
        finally:
            server.shutdown()
            server.server_close()
            app.close(drain=True)
