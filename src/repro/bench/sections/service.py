"""Service sections: the job server measured through its own front door.

Everything goes through the in-process
:class:`~repro.service.app.ServiceClient` — the same envelopes and
status codes the socket adapter serves, minus transport cost — so the
gates pin service *behaviour* (single-flight compilation, bit-identity
with the facade, completion under a concurrent burst) rather than
socket throughput, which would gate the container's network stack.

No ``wall_factor`` gates here: the section is new, so it carries
absolute ratio/bool gates instead of a committed-baseline comparison
(the report still records each section's wall time).
"""

from __future__ import annotations

import time

from repro.bench.gates import GateSpec
from repro.bench.registry import section


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


@section(
    "service-burst", tags=("service",),
    gates=(
        GateSpec("service.all_completed", "bool_true",
                 key="all_completed",
                 description="every job in the burst settled as done"),
        GateSpec("service.qps_floor", "ratio_min",
                 key="qps", threshold=5.0,
                 description="completed analytic jobs per second through the "
                             "full submit/poll lifecycle (conservative floor; "
                             "the in-process path runs hundreds)"),
        GateSpec("service.matches_api", "bool_true",
                 key="service_matches_api",
                 description="served result bit-identical to repro.api.estimate()"),
    ),
)
def service_burst(ctx):
    """A concurrent burst of cheap analytic jobs: lifecycle + QPS.

    32 submissions race onto a 4-worker budget; the section measures
    completed-jobs-per-second (submit through settled poll, p50/p90
    reported) and checks one of the served results bit-identically
    matches the direct facade call for the same request.
    """
    from repro import api
    from repro.service import ServiceApp, ServiceClient

    app = ServiceApp(workers_total=4, queue_limit=128)
    client = ServiceClient(app)
    try:
        n_jobs = 32
        requests = [
            api.EstimateRequest(
                workload="analytic-linear", spec=4.0, budget=2000,
                seed=seed, n_shards=2,
            )
            for seed in range(n_jobs)
        ]
        latencies = []
        t0 = time.perf_counter()
        envelopes = [client.submit(r) for r in requests]
        finals = []
        for envelope in envelopes:
            final = client.wait(envelope["job_id"], timeout=120.0)
            finals.append(final)
            latencies.append(final["finished_s"] - final["submitted_s"])
        wall = time.perf_counter() - t0

        all_done = all(f["status"] == "done" for f in finals)
        direct = api.estimate(requests[0])
        served = api.EstimateResult.from_json(finals[0]["result"])
        latencies.sort()
        return {
            "n_jobs": n_jobs,
            "qps": round(n_jobs / wall, 2),
            "latency_p50_s": round(_percentile(latencies, 0.50), 5),
            "latency_p90_s": round(_percentile(latencies, 0.90), 5),
            "all_completed": bool(all_done),
            "service_matches_api": bool(served.identical_to(direct)),
        }
    finally:
        app.close(drain=True)


@section(
    "service-compile-once", tags=("service", "plan-cache"),
    gates=(
        GateSpec("service.one_plan_cache_miss", "bool_true",
                 key="one_plan_cache_miss",
                 description="N concurrent identical submissions compile once "
                             "(single-flight through the shared plan cache)"),
        GateSpec("service.identical_across_jobs", "bool_true",
                 key="identical_across_jobs",
                 description="all jobs of the burst return the same estimate"),
        GateSpec("service.warm_vs_cold_submit", "ratio_min",
                 key="cold_vs_warm_prepare", threshold=1.08,
                 description="cold (compiling) vs warm prepare-phase latency "
                             "per job — the cache must actually shorten the "
                             "submit-to-sampling path, not just count hits"),
    ),
)
def service_compile_once(ctx):
    """Concurrent SRAM submissions share one compiled plan.

    Four identical array-slice jobs (the heaviest real compile: a 4x16
    array slice, a few tenths of a second) land at once on a fresh plan
    cache.  The executor's single-flight compile lock must produce
    exactly one cache miss, every job the same bit-identical estimate,
    and the cold job's measured prepare phase (``prepare_s``: limit-state
    build + compile, lock wait excluded) visibly longer than the warm
    jobs' (limit-state build + cache hit).  Monte
    Carlo with a one-batch budget keeps the sampling phase out of the
    measurement — this section gates the compile path, the sampler has
    its own sections.
    """
    from repro import api
    from repro.service import ServiceApp, ServiceClient
    from repro.spice.plan import default_plan_cache, reset_default_plan_cache

    reset_default_plan_cache()
    app = ServiceApp(workers_total=2)
    client = ServiceClient(app)
    try:
        request = api.EstimateRequest(
            workload="array-read", spec=6e-11, method="mc", seed=7,
            budget=16, rel_err=None,
            knobs={"n_cols": 4, "n_leakers": 15, "n_steps": 240},
        )
        t0 = time.perf_counter()
        envelopes = [client.submit(request) for _ in range(4)]
        finals = [client.wait(e["job_id"], timeout=600.0) for e in envelopes]
        wall = time.perf_counter() - t0

        stats = dict(default_plan_cache().stats)
        p_fails = {f["result"]["p_fail"] for f in finals if f["status"] == "done"}
        prepares = sorted(
            f["prepare_s"] for f in finals if f["status"] == "done"
        )
        cold, warm = prepares[-1], prepares[0]
        return {
            "burst_wall_s": round(wall, 3),
            "plan_cache": stats,
            "one_plan_cache_miss": bool(
                stats["misses"] == 1
                and len(finals) == 4
                and all(f["status"] == "done" for f in finals)
            ),
            "identical_across_jobs": bool(len(p_fails) == 1),
            "cold_prepare_s": round(cold, 4),
            "warm_prepare_s": round(warm, 4),
            "cold_vs_warm_prepare": round(cold / warm, 3) if warm > 0 else 0.0,
        }
    finally:
        app.close(drain=True)
        reset_default_plan_cache()
