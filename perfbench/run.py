"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload cell-read-gis --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload service-mixed --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs the workload twice on the same requests,
first untraced for half of ``--seconds`` and then with the per-layer
wrappers of ``tracing.py`` installed; it prints the per-layer metrics,
the tracing overhead, and fails any estimate that differs between the
two passes.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Records (host metadata, BLAS threads, per-job results, failures; spans
for a traced run) are written under ``.perfbench/`` in the checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1


def bootstrap() -> None:
    """Pin BLAS threads and put the program's source on ``sys.path``.

    Must run before numpy is imported: OpenBLAS reads its thread count
    once, at load.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # A disk plan cache would turn the cold set-ups into disk loads.
    os.environ.pop("REPRO_PLAN_CACHE", None)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def blas_threads() -> object:
    """The thread count the loaded OpenBLAS reports, or the pinned
    environment value when no OpenBLAS symbol is found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"env:{os.environ['OPENBLAS_NUM_THREADS']}"


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(p) -> dict:
    """name -> (value, unit, sample count) for one untraced pass."""
    done = p.done
    latency = [r.latency_s for r in done]
    return {
        "setup_s": (_median(p.setup_s), "s", len(p.setup_s)),
        "time_to_target_s": (_median([r.run_s for r in done]), "s", len(done)),
        "evals_to_target": (_median([r.result.n_evals for r in done]), "count", len(done)),
        "jobs_per_s": (len(done) / p.loop_s, "1/s", len(done)),
        "job_latency_p50_s": (_percentile(latency, 50), "s", len(done)),
        "job_latency_p90_s": (_percentile(latency, 90), "s", len(done)),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }


def per_layer(tracer, traced, base, is_service: bool) -> dict:
    """name -> (value, unit, sample count) from the traced pass's spans.

    Loop-phase numbers are per job (estimate or service job) and count
    only spans inside ``api.run``, the estimate itself; set-up numbers
    are per cold set-up.
    """
    # The kernel delegates a Newton iteration to the dense ``_m_mat``
    # path whenever fewer samples than this are active; a call on fewer
    # samples takes that path for its whole length.
    from repro.spice.compile import _SPARSE_MIN_BATCH

    jobs = max(1, len(traced.records))
    reps = max(1, len(traced.setup_s))
    n_jobs = len(traced.records)

    def spans(name, phase="loop"):
        found = tracer.outermost(name, phase)
        if phase == "setup" or name == "api.run" or name.startswith("service."):
            return found
        return tracer.under(found, "api.run")

    def per_job(name, key=None):
        found = spans(name)
        if key is None:
            return sum(s.duration for s in found) / jobs
        return sum(s.counts.get(key, 0) for s in found) / jobs

    self_times = tracer.self_times()
    kernel = spans("spice.kernel")
    kernel_s = sum(s.duration for s in kernel)
    setup_kernel = spans("spice.kernel", "setup")
    run_s = per_job("api.run")
    oracle_s = per_job("highsigma.oracle")
    hits, misses = traced.plan_cache["hits"], traced.plan_cache["misses"]
    service = traced.done if is_service else []

    return {
        "api.prepare_s": (_median([s.duration for s in spans("api.prepare", "setup")]),
                          "s", len(spans("api.prepare", "setup"))),
        "api.run_s": (run_s, "s", n_jobs),
        "highsigma.search_s": (per_job("highsigma.search"), "s", n_jobs),
        "highsigma.search_evals": (per_job("highsigma.search", "evals"), "count", n_jobs),
        "highsigma.sampling_s": (per_job("highsigma.sampling"), "s", n_jobs),
        "highsigma.proposal_s": (per_job("highsigma.proposal"), "s", n_jobs),
        "highsigma.oracle_s": (oracle_s, "s", n_jobs),
        "highsigma.oracle_calls": (len(spans("highsigma.oracle")) / jobs, "count", n_jobs),
        "highsigma.oracle_rows": (per_job("highsigma.oracle", "rows"), "count", n_jobs),
        "highsigma.oracle_share": (oracle_s / run_s if run_s else 0.0, "ratio", n_jobs),
        "engine.accumulate_s": (per_job("engine.accumulate"), "s", n_jobs),
        "engine.accumulate_calls": (len(spans("engine.accumulate")) / jobs, "count", n_jobs),
        "engine.sharded_s": (per_job("engine.sharded"), "s", n_jobs),
        "engine.shard_rounds": (len(spans("engine.sharded")) / jobs, "count", n_jobs),
        "sram.testbench_self_s": (
            sum(self_times[s.sid] for s in spans("sram.testbench")) / jobs, "s", n_jobs),
        "spice.kernel_s": (kernel_s / jobs, "s", n_jobs),
        "spice.kernel_calls": (len(kernel) / jobs, "count", n_jobs),
        "spice.sample_steps": (per_job("spice.kernel", "steps"), "count", n_jobs),
        "spice.sample_steps_per_s": (
            sum(s.counts["steps"] for s in kernel) / kernel_s if kernel_s else 0.0,
            "1/s", len(kernel)),
        "spice.skinny_kernel_s": (
            sum(s.duration for s in setup_kernel if s.counts.get("n", 0) < _SPARSE_MIN_BATCH)
            / reps, "s", reps),
        "spice.compile_s": (
            sum(s.duration for s in spans("spice.compile", "setup")) / reps, "s", reps),
        "spice.plan_cache_hits": (hits / jobs, "count", n_jobs),
        "spice.plan_cache_misses": (misses / jobs, "count", n_jobs),
        "spice.plan_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio", hits + misses),
        "spice.setup_rss_mb": (base.setup_rss_mb, "MB", 1),
        "service.queue_wait_p50_s": (
            _percentile([r.queue_wait_s for r in service], 50), "s", len(service)),
        "service.queue_wait_p90_s": (
            _percentile([r.queue_wait_s for r in service], 90), "s", len(service)),
        "service.prepare_p50_s": (
            _percentile([r.prepare_s for r in service], 50), "s", len(service)),
        "service.run_p50_s": (_percentile([r.run_s for r in service], 50), "s", len(service)),
        "service.handle_s": (per_job("service.handle"), "s", n_jobs),
        "service.handle_calls": (len(spans("service.handle")) / jobs, "count", n_jobs),
        "service.spool_s": (per_job("service.spool"), "s", n_jobs),
        "trace.overhead_frac": (traced.loop_s / base.loop_s - 1.0, "ratio", n_jobs),
    }


class Failures:
    """Failed estimates and jobs, keyed by (pass, record index).

    A record fails when the program reports it failed (it raised,
    settled other than ``done`` or ended ``converged=False``) or when a
    check finds its output wrong.  Only the second kind makes the run
    incorrect: an estimate the program itself reports as failed is a
    failed operation, not a wrong answer.
    """

    def __init__(self) -> None:
        self.reasons: dict = {}
        self.wrong: set = set()

    def add(self, key, reason: str, wrong: bool) -> None:
        self.reasons.setdefault(key, []).append(reason)
        if wrong:
            self.wrong.add(key)

    def check_pass(self, workload, p, label: str) -> None:
        from workloads import operation_failure

        for record in p.records:
            reason = operation_failure(record)
            if reason:
                self.add((label, record.index), reason, wrong=False)
                continue
            reason = workload.check(record)
            if reason:
                self.add((label, record.index), reason, wrong=True)


def _print_table(title, metrics):
    print(f"-- {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"   {name:32s} {value:>14.6g} {unit:<6s} n={n}")


def main(argv=None) -> int:
    from workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, workloads.make(args.workload, scratch, traced=bool(args.trace)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workload) -> int:
    from repro.bench.meta import host_metadata

    failures = Failures()
    record: dict = {
        "meta": host_metadata(), "blas_threads": blas_threads(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={record['blas_threads']}")
    print(f"   host {json.dumps(record['meta'], sort_keys=True)}")

    if not args.trace:
        p = workload.run_pass(args.seed, seconds=args.seconds)
        metrics = end_to_end(p)  # before the checks, which add their own memory
        failures.check_pass(workload, p, "untraced")
        for message in workload.cross_checks(p.records):
            failures.add(("untraced", "cross"), message, wrong=True)
        attempted = len(p.records)
        _print_table("end-to-end (untraced)", metrics)
        record["records"] = [r.to_json() for r in p.records]
    else:
        from tracing import Tracer, install_layers

        base = workload.run_pass(args.seed, seconds=args.seconds / 2)
        failures.check_pass(workload, base, "untraced")
        tracer = Tracer()
        install_layers(tracer)
        try:
            traced = workload.run_pass(args.seed, count=len(base.records), tracer=tracer)
        finally:
            tracer.uninstall()
        failures.check_pass(workload, traced, "traced")
        for a, b in zip(base.records, traced.records):
            if a.result is not None and b.result is not None and not a.result.identical_to(b.result):
                failures.add(("traced", b.index),
                             "traced estimate differs from the untraced one", wrong=True)
        attempted = len(base.records) + len(traced.records)
        _print_table("end-to-end (untraced pass)", end_to_end(base))
        _print_table("end-to-end (traced pass)", end_to_end(traced))
        metrics = per_layer(tracer, traced, base, args.workload == "service-mixed")
        _print_table("per-layer (traced pass)", metrics)
        record["records"] = [r.to_json() for r in base.records + traced.records]
        tracer.dump(str(OUT / f"{args.workload}-seed{args.seed}-spans.json"), record["meta"])

    failed = len(failures.reasons)
    print(f"   failed_frac {failed / max(1, attempted):.4g} ratio "
          f"(failed={failed} attempted={attempted}, wrong outputs={len(failures.wrong)})")
    for key, reasons in sorted(failures.reasons.items(), key=str):
        label = "WRONG" if key in failures.wrong else "FAILED"
        print(f"   {label} {key}: {'; '.join(reasons)}")
    record["metrics"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()}
    record["failures"] = {str(k): v for k, v in failures.reasons.items()}
    record["wrong"] = sorted(str(k) for k in failures.wrong)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not failures.wrong and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    bootstrap()
    sys.exit(main())
