"""JobStore: lifecycle transitions, spooling, cwd-independence."""

from __future__ import annotations

import json
import threading

import pytest

from repro import api
from repro.errors import ConfigError
from repro.service import jobs as jobs_module
from repro.service.jobs import JobStore


def request():
    return api.EstimateRequest(workload="analytic-linear", spec=4.0, budget=500)


def result():
    return api.estimate(request())


class TestLifecycle:
    def test_create_assigns_sequential_ids(self):
        store = JobStore()
        try:
            a, b = store.create(request()), store.create(request())
            assert a.job_id == "job-000001" and b.job_id == "job-000002"
            assert [j.job_id for j in store.jobs()] == [a.job_id, b.job_id]
            assert store.counts()["queued"] == 2
        finally:
            store.close()

    def test_done_path(self):
        store = JobStore()
        try:
            job = store.create(request())
            assert store.mark_running(job, granted_workers=2)
            store.mark_done(job, result())
            assert job.status == "done" and job.settled
            assert job.granted_workers == 2
            assert job.finished_s >= job.started_s >= job.submitted_s
        finally:
            store.close()

    def test_cancel_only_from_queued(self):
        store = JobStore()
        try:
            job = store.create(request())
            assert store.mark_cancelled(job, "test")
            assert job.status == "cancelled"
            assert not store.mark_running(job, granted_workers=1)

            running = store.create(request())
            store.mark_running(running, granted_workers=1)
            assert not store.mark_cancelled(running, "too late")
            assert running.status == "running"
        finally:
            store.close()

    def test_failed_records_error(self):
        store = JobStore()
        try:
            job = store.create(request())
            store.mark_running(job, granted_workers=1)
            store.mark_failed(job, {"code": "A003", "message": "boom"})
            assert job.status == "failed"
            assert job.to_json()["error"]["code"] == "A003"
        finally:
            store.close()


class TestSpool:
    def test_default_spool_is_private_and_removed(self):
        store = JobStore()
        spool = store.spool_dir
        job = store.create(request())
        store.mark_running(job, granted_workers=1)
        store.mark_done(job, result())
        spooled = json.loads((spool / f"{job.job_id}.json").read_text())
        assert spooled["status"] == "done"
        assert spooled["result"]["p_fail"] == job.result.p_fail
        store.close()
        assert not spool.exists()

    def test_default_spool_is_cwd_independent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = JobStore()
        try:
            assert tmp_path not in store.spool_dir.parents
            assert not list(tmp_path.iterdir())
        finally:
            store.close()

    def test_configured_spool_is_kept(self, tmp_path):
        spool = tmp_path / "spool"
        store = JobStore(spool_dir=spool)
        job = store.create(request())
        store.mark_running(job, granted_workers=1)
        store.mark_done(job, result())
        store.close()
        assert (spool / f"{job.job_id}.json").exists()  # not owned: kept

    def test_unwritable_spool_is_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ConfigError):
            JobStore(spool_dir=blocker / "nested")  # a file cannot be a dir

    def test_envelope_shape(self):
        store = JobStore()
        try:
            job = store.create(request())
            doc = job.to_json()
            assert doc["status"] == "queued"
            assert doc["request"]["workload"] == "analytic-linear"
            assert doc["prepare_s"] is None
            assert "result" not in doc and "error" not in doc
        finally:
            store.close()


class TestEviction:
    """At most ``MAX_SETTLED_JOBS`` settled jobs stay in memory; the
    oldest settled one goes first, and only after its spool file exists."""

    @staticmethod
    def settle(store, status="done"):
        job = store.create(request())
        if status == "cancelled":
            store.mark_cancelled(job, "test")
            return job
        store.mark_running(job, granted_workers=1)
        if status == "failed":
            store.mark_failed(job, {"code": "A003", "message": "boom"})
        else:
            store.mark_done(job, result())
        return job

    def test_oldest_settled_evicted_first(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_SETTLED_JOBS", 2)
        store = JobStore()
        try:
            queued = store.create(request())
            running = store.create(request())
            store.mark_running(running, granted_workers=1)
            a = self.settle(store)
            b = self.settle(store, "failed")
            c = self.settle(store, "cancelled")
            held = [j.job_id for j in store.jobs()]
            assert held == [queued.job_id, running.job_id, b.job_id, c.job_id]
            assert store.get(a.job_id) is None
            assert store.spooled(a.job_id) == a.to_json()
            # Lifetime counts: the evicted job still counts.
            counts = store.counts()
            assert (counts["done"], counts["failed"], counts["cancelled"]) == (1, 1, 1)
            assert (counts["queued"], counts["running"]) == (1, 1)
        finally:
            store.close()

    def test_settling_order_not_submission_order(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_SETTLED_JOBS", 1)
        store = JobStore()
        try:
            early = store.create(request())
            late = store.create(request())
            store.mark_running(early, granted_workers=1)
            store.mark_running(late, granted_workers=1)
            store.mark_done(late, result())
            store.mark_failed(early, {"code": "A003", "message": "boom"})
            # The job submitted first settled last, so it is the one kept.
            assert [j.job_id for j in store.jobs()] == [early.job_id]
            assert store.spooled(late.job_id) == late.to_json()
        finally:
            store.close()

    def test_concurrent_settling_keeps_the_bound(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_SETTLED_JOBS", 4)
        store = JobStore()
        done = result()

        def settle_five():
            for _ in range(5):
                job = store.create(request())
                store.mark_running(job, granted_workers=1)
                store.mark_done(job, done)

        try:
            threads = [threading.Thread(target=settle_five) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            held = store.jobs()
            assert len(held) == 4 and all(j.status == "done" for j in held)
            assert store.counts()["done"] == 40
            for n in range(1, 41):
                job_id = f"job-{n:06d}"
                doc = store.spooled(job_id) or store.get(job_id).to_json()
                assert doc["status"] == "done"
        finally:
            store.close()

    def test_unsettled_jobs_are_never_evicted(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_SETTLED_JOBS", 1)
        store = JobStore()
        try:
            queued = [store.create(request()) for _ in range(3)]
            for _ in range(3):
                self.settle(store)
            held = {j.job_id for j in store.jobs()}
            assert {j.job_id for j in queued} <= held
            assert len(held) == 4
        finally:
            store.close()

    def test_failed_spool_write_keeps_the_job(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_SETTLED_JOBS", 1)
        store = JobStore()
        try:
            first = self.settle(store)
            job = store.create(request())
            store.mark_running(job, granted_workers=1)
            done = result()

            def full_disk(self, job):
                raise ConfigError("disk full")

            monkeypatch.setattr(JobStore, "_spool", full_disk)
            with pytest.raises(ConfigError):
                store.mark_done(job, done)
            # Nothing on disk for the new job, so it stays in memory and
            # does not push the spooled one out either.
            assert store.get(job.job_id) is job
            assert store.get(first.job_id) is first
        finally:
            store.close()

    def test_spooled_refuses_ids_it_never_evicted(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_SETTLED_JOBS", 1)
        store = JobStore()
        try:
            live = self.settle(store)
            # A stale file from an earlier service sharing the spool dir.
            (store.spool_dir / "job-000009.json").write_text("{}")
            for job_id in (live.job_id, "job-000009", "nope", "job-"):
                assert store.spooled(job_id) is None
        finally:
            store.close()
