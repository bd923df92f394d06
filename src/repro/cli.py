"""Command-line interface for the common extraction flows.

Four subcommands wrap the library's main entry points so a designer can
run the extractions without writing Python:

* ``read-sigma``  — gradient-IS extraction of the read-access failure
  sigma at a given spec (or a spec calibrated to a target sigma);
  ``--system`` runs the ten-dimensional system-level read (cell + sense
  amplifier) on the compiled batched path, with ``--sa-model`` choosing
  the latch offset extractor;
* ``write-sigma`` — same for the write-trip failure;
* ``sa-sigma``    — sense-amplifier offset failure sigma on the compiled
  latch (batched bisection);
* ``column-sigma``— read failure sigma of a *full column* (accessed cell
  plus leakers, one variation axis per transistor) on the compiled
  column with sparse assembly and structured solves;
* ``array-sigma`` — read failure sigma of a multi-column *array slice*
  (``--cols`` columns behind a shared bitline mux, the metric measured
  on the muxed data lines) on the compiled slice with the per-column
  Schur peel;
* ``serve``       — run the yield-estimation job service: the HTTP
  server over :mod:`repro.api` (``POST /v1/jobs`` …) with a bounded
  worker budget and the shared plan cache;
* ``snm``         — static noise margins of the cell;
* ``netlist-lint``— structural lint of the bench netlists plus (with
  ``--audit``) the compile-plan audit over every assembly/solver
  combination — the static gate CI runs before anything samples;
* ``compare``     — the full method-comparison table on one workload.

Examples::

    python -m repro.cli read-sigma --spec-ps 55
    python -m repro.cli read-sigma --spec-ps 60 --system --sa-model latch
    python -m repro.cli write-sigma --target-sigma 5 --vdd 0.9
    python -m repro.cli sa-sigma --spec-mv 80
    python -m repro.cli column-sigma --spec-ps 60 --leakers 15
    python -m repro.cli array-sigma --spec-ps 60 --cols 4 --leakers 15
    python -m repro.cli snm --vdd 0.8
    python -m repro.cli compare --target-sigma 4 --budget 4000
    python -m repro.cli read-sigma --spec-ps 55 --workers 4 --starts 4
    python -m repro.cli read-sigma --spec-ps 55 --json
    python -m repro.cli serve --port 8626 --service-workers 4

The sigma subcommands are thin shells over :mod:`repro.api` — the same
typed facade the HTTP service executes — so a CLI run, a library call
and a served job are bit-identical for the same workload, seed and
shard plan.  ``--json`` prints the facade's ``schema_version``-stamped
:class:`~repro.api.EstimateResult` envelope instead of the human
report: the exact document ``GET /v1/jobs/{id}`` returns under
``"result"``.

Parallelism: ``--workers N`` shards the sampling budget across ``N``
worker processes through :mod:`repro.engine` (per-shard RNG streams
spawned from one seed, shard accumulators merged exactly).  The shard
plan is pinned to ``--shards`` (default: ``--workers``), so results are
bit-identical for any worker count with the same ``--shards`` — e.g.
``--shards 4 --workers 1`` reproduces ``--shards 4 --workers 4`` on a
laptop with no free cores.

Shard failures: a pooled shard that raises, loses its worker process
or runs past ``--shard-timeout S`` ends the run with a typed
``ShardExecutionError`` naming the shard; nothing is retried, because a
shard re-run on the same plan repeats identical work.

Plan caching: ``--plan-cache DIR`` (or the ``REPRO_PLAN_CACHE``
environment variable) backs the sigma subcommands with a
content-addressed store of compiled transient plans, so a rerun with
the same circuit structure and compile options restores its plan —
re-audited on load — instead of recompiling.  Each run reports one
``plan cache`` hit/miss line.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import ConfigError

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be strictly positive.

    Raising :class:`argparse.ArgumentTypeError` makes argparse print the
    usage line plus a one-line error and exit with status 2 — a loud,
    traceback-free rejection of ``--cols 0`` or ``--leakers -3``.
    """
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if parsed <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {parsed}"
        )
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="High-sigma SRAM dynamic-characteristic extraction "
                    "(gradient importance sampling)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--vdd", type=float, default=1.0, help="supply voltage [V]")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--budget", type=int, default=4000,
                       help="sampling budget (simulations)")
        p.add_argument("--rel-err", type=float, default=0.1,
                       help="target relative standard error")
        p.add_argument("--n-steps", type=int, default=400,
                       help="transient grid density of the batched engine")
        p.add_argument("--kernel", choices=("fast", "reference"), default="fast",
                       help="batched-engine integrator: the fused fast "
                            "kernel (default) or the reference per-device "
                            "loop (slower, maximally transparent)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for sharded sampling (and the "
                            "multi-start search stage); with --shards "
                            "pinned, changing only this never changes the "
                            "estimate")
        p.add_argument("--shards", type=int, default=None,
                       help="shard plan the estimate depends on (default: "
                            "follows --workers); pin this to reproduce a "
                            "run on any machine / worker count")
        p.add_argument("--starts", type=int, default=1,
                       help="gradient-search starts (multi-start covers "
                            "multiple failure regions; starts shard over "
                            "--workers)")
        p.add_argument("--shard-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="end the run with an error when a pooled shard "
                            "job runs longer than this many seconds (hung "
                            "workers cannot be cancelled otherwise)")
        p.add_argument("--plan-cache", type=str, default=None, metavar="DIR",
                       help="content-addressed store for compiled plans: "
                            "compile once, restore (audited) on later runs "
                            "with the same circuit structure and compile "
                            "options; REPRO_PLAN_CACHE is the environment "
                            "equivalent")
        p.add_argument("--json", action="store_true",
                       help="print the schema_version-stamped EstimateResult "
                            "JSON envelope (the service's result document) "
                            "instead of the human report")

    p_read = sub.add_parser("read-sigma", help="read-access failure sigma")
    common(p_read)
    group = p_read.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec-ps", type=float, help="access-time spec [ps]")
    group.add_argument("--target-sigma", type=float,
                       help="calibrate the spec to this sigma first")
    p_read.add_argument("--system", action="store_true",
                        help="system-level read: ten variation axes (six "
                             "cell + four sense-amp); requires --spec-ps")
    p_read.add_argument("--sa-model", choices=("linear", "latch"),
                        default="linear",
                        help="with --system: sense-amp offset extractor — "
                             "the validated first-order model or batched "
                             "bisection on the compiled latch transient")

    p_write = sub.add_parser("write-sigma", help="write-trip failure sigma")
    common(p_write)
    group = p_write.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec-ps", type=float, help="trip-time spec [ps]")
    group.add_argument("--target-sigma", type=float,
                       help="calibrate the spec to this sigma first")

    p_sa = sub.add_parser(
        "sa-sigma", help="sense-amp offset failure sigma (compiled latch)"
    )
    common(p_sa)
    p_sa.add_argument("--spec-mv", type=float, required=True,
                      help="input-referred offset spec [mV]")

    p_col = sub.add_parser(
        "column-sigma",
        help="column-level read failure sigma (accessed cell + leakers)",
    )
    common(p_col)
    p_col.add_argument("--spec-ps", type=float, required=True,
                       help="access-time spec [ps]")
    p_col.add_argument("--leakers", type=_positive_int, default=15,
                       help="unaccessed cells on the column (u-space has "
                            "6 * (leakers + 1) axes)")
    p_col.add_argument("--leaker-data", choices=("adversarial", "friendly"),
                       default="adversarial",
                       help="stored pattern of the unaccessed cells")
    p_col.add_argument("--assembly", choices=("auto", "dense", "sparse"),
                       default="auto",
                       help="compiler assembly pass: one sparse CSR stamp product "
                            "(auto above the node-count threshold) or the "
                            "dense incidence matmuls (cross-check)")

    p_arr = sub.add_parser(
        "array-sigma",
        help="array-slice read failure sigma (columns + shared bitline mux)",
    )
    common(p_arr)
    p_arr.add_argument("--spec-ps", type=float, required=True,
                       help="access-time spec on the muxed data lines [ps]")
    p_arr.add_argument("--cols", type=_positive_int, default=4,
                       help="read columns behind the shared mux (u-space "
                            "has 6 * cols * (leakers + 1) axes)")
    p_arr.add_argument("--leakers", type=_positive_int, default=15,
                       help="unaccessed cells per column")
    p_arr.add_argument("--leaker-data", choices=("adversarial", "friendly"),
                       default="adversarial",
                       help="stored pattern of the unaccessed cells")
    p_arr.add_argument("--assembly", choices=("auto", "dense", "sparse"),
                       default="auto",
                       help="compiler assembly pass: one sparse CSR stamp product "
                            "(auto above the node-count threshold) or the "
                            "dense incidence matmuls (cross-check)")
    p_arr.add_argument("--solver", choices=("auto", "schur", "blocked"),
                       default="auto",
                       help="fused-path linear solver: the per-column Schur "
                            "peel (auto on the array's bordered pattern) or "
                            "the generic guarded elimination (cross-check)")

    p_serve = sub.add_parser(
        "serve", help="run the yield-estimation job service (HTTP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind")
    p_serve.add_argument("--port", type=int, default=8626,
                         help="port to bind (0 picks a free one)")
    p_serve.add_argument("--service-workers", type=_positive_int, default=2,
                         metavar="N",
                         help="total worker budget shared by all jobs; a job "
                              "asking for more is granted fewer workers, "
                              "which never changes its estimate (the shard "
                              "plan is pinned by the request)")
    p_serve.add_argument("--queue-limit", type=_positive_int, default=64,
                         help="maximum unsettled jobs before submissions are "
                              "refused with 503/A007")
    p_serve.add_argument("--spool-dir", type=str, default=None, metavar="DIR",
                         help="directory settled jobs are spooled to "
                              "(default: a private temp dir, removed on "
                              "shutdown — the service never touches the cwd)")
    p_serve.add_argument("--plan-cache", type=str, default=None, metavar="DIR",
                         help="content-addressed compiled-plan store shared "
                              "by all jobs (REPRO_PLAN_CACHE is the "
                              "environment equivalent)")

    p_snm = sub.add_parser("snm", help="static noise margins (butterfly)")
    p_snm.add_argument("--vdd", type=float, default=1.0)

    p_lint = sub.add_parser(
        "netlist-lint",
        help="lint the bench netlists and (optionally) audit their "
             "compiled plans",
    )
    p_lint.add_argument(
        "--circuit",
        choices=("6t", "latch", "column", "write", "array", "read", "all"),
        default="all",
        help="which circuit to lint: a compiled bench, the example read "
             "testbench, or all of them",
    )
    p_lint.add_argument(
        "--audit", action="store_true",
        help="also run the compile-plan audit over every legal "
             "assembly/solver combination of each bench",
    )
    p_lint.add_argument(
        "--strict-warnings", action="store_true",
        help="treat warning-severity findings as failures too",
    )

    p_cmp = sub.add_parser("compare", help="all methods on one workload")
    common(p_cmp)
    p_cmp.add_argument("--target-sigma", type=float, default=4.0)
    p_cmp.add_argument("--mc-budget", type=int, default=100000)

    return parser


def _report(result, spec: float, extra: str = "") -> None:
    from repro.highsigma.sigma import array_yield

    lo, hi = result.ci()
    print(f"spec              : {spec*1e12:.2f} ps{extra}")
    print(f"p_fail            : {result.p_fail:.4e}  (CI95 [{lo:.3e}, {hi:.3e}])")
    print(f"sigma             : {result.sigma_level:.3f}")
    print(f"simulations       : {result.n_evals} "
          f"(search {result.diagnostics.get('search_evals', '?')}, "
          f"sampling {result.diagnostics.get('n_sampling', '?')})")
    print(f"converged         : {result.converged}")
    if 0 < result.p_fail < 1:
        y = array_yield(result.p_fail, 1 << 20)
        print(f"1 Mb zero-repair  : {100*y:.2f} % yield")


def _setup_plan_cache(args):
    """Activate the compiled-plan cache the flags describe; returns it.

    Runs before the limit state is built — that is where the compiles
    happen.  ``--plan-cache DIR`` replaces the process default with one
    backed by DIR (an unwritable DIR is a :class:`ConfigError`, reported
    like any other flag conflict); otherwise the lazy default applies,
    which reads ``REPRO_PLAN_CACHE`` on first use.
    """
    from repro.spice.plan import configure_default_plan_cache, default_plan_cache

    if getattr(args, "plan_cache", None):
        return configure_default_plan_cache(cache_dir=args.plan_cache)
    return default_plan_cache()


def _report_plan_cache(cache) -> None:
    s = cache.stats
    print(
        f"plan cache        : hits {s['mem_hits']} memory / "
        f"{s['disk_hits']} disk, misses {s['misses']}, stale {s['stale']}"
    )


def _build_request(args, workload: str, spec: float, knobs: dict):
    """The :class:`~repro.api.EstimateRequest` a sigma subcommand runs."""
    from repro import api

    return api.EstimateRequest(
        workload=workload, spec=spec, method="gis", seed=args.seed,
        budget=args.budget, rel_err=args.rel_err, n_starts=args.starts,
        workers=args.workers, n_shards=args.shards,
        shard_timeout=args.shard_timeout, knobs=knobs,
    )


def _run_request(args, workload: str, spec: float, knobs: dict):
    """Execute one sigma subcommand through the :mod:`repro.api` facade:
    the same :class:`~repro.api.EstimateRequest` the HTTP service would
    run."""
    from repro import api

    return api.estimate(_build_request(args, workload, spec, knobs))


def _emit_json(result) -> int:
    import json

    print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    return 0


def _run_sigma(args, kind: str) -> int:
    from repro.experiments.workloads import (
        calibrate_read_spec,
        calibrate_write_spec,
    )

    plan_cache = _setup_plan_cache(args)
    calibrate = calibrate_read_spec if kind == "read" else calibrate_write_spec
    system = kind == "read" and getattr(args, "system", False)

    if system:
        workload = "system-read"
        knobs = {"vdd": args.vdd, "n_steps": args.n_steps,
                 "kernel": args.kernel, "sa_model": args.sa_model}
    else:
        workload = kind
        knobs = {"vdd": args.vdd, "n_steps": args.n_steps, "kernel": args.kernel}

    if args.spec_ps is not None:
        spec = args.spec_ps * 1e-12
        note = ""
    else:
        if system:
            print("error: --system needs an explicit --spec-ps "
                  "(calibration runs on the single-cell workload)")
            return 2
        # Refuse bad flags (A0xx) before the calibration sweep simulates
        # with them; the spec is all calibration adds to the request.
        _build_request(args, workload, 0.0, knobs).validate()
        if not args.json:
            print(f"calibrating {kind} spec for {args.target_sigma:g} sigma ...")
        spec = calibrate(
            args.target_sigma, n_steps=args.n_steps, vdd=args.vdd, kernel=args.kernel
        )
        note = f"  (calibrated for {args.target_sigma:g} sigma)"
    if system:
        note += f"  (system-level, sa={args.sa_model})"

    result = _run_request(args, workload, spec, knobs)
    if args.json:
        return _emit_json(result)
    _report(result, spec, note)
    _report_plan_cache(plan_cache)
    return 0


def _run_sa_sigma(args) -> int:
    from repro.highsigma.sigma import array_yield

    plan_cache = _setup_plan_cache(args)
    spec = args.spec_mv * 1e-3
    # The latch keeps its own grid density (--n-steps targets the 6T
    # engine's much longer window), so n_steps is deliberately not
    # forwarded.  The bisection-matched MPFP tolerances ride along as
    # the workload's registered estimator options.
    knobs = {"vdd": args.vdd, "kernel": args.kernel}
    result = _run_request(args, "sa-offset", spec, knobs)
    if args.json:
        return _emit_json(result)
    lo, hi = result.ci()
    print(f"offset spec       : {args.spec_mv:.1f} mV")
    print(f"p_fail            : {result.p_fail:.4e}  (CI95 [{lo:.3e}, {hi:.3e}])")
    print(f"sigma             : {result.sigma_level:.3f}")
    print(f"simulations       : {result.n_evals} "
          f"(search {result.diagnostics.get('search_evals', '?')}, "
          f"sampling {result.diagnostics.get('n_sampling', '?')})")
    print(f"converged         : {result.converged}")
    if 0 < result.p_fail < 1:
        y = array_yield(result.p_fail, 1 << 20)
        print(f"1 Mb zero-repair  : {100*y:.2f} % yield")
    _report_plan_cache(plan_cache)
    return 0


def _run_column_sigma(args) -> int:
    plan_cache = _setup_plan_cache(args)
    spec = args.spec_ps * 1e-12
    knobs = {"n_leakers": args.leakers, "leaker_data": args.leaker_data,
             "vdd": args.vdd, "n_steps": args.n_steps, "kernel": args.kernel,
             "assembly": args.assembly}
    result = _run_request(args, "column-read", spec, knobs)
    if args.json:
        return _emit_json(result)
    _report(result, spec, f"  (column, {args.leakers} leakers, "
                          f"dim {result.dim})")
    _report_plan_cache(plan_cache)
    return 0


def _run_array_sigma(args) -> int:
    plan_cache = _setup_plan_cache(args)
    spec = args.spec_ps * 1e-12
    knobs = {"n_cols": args.cols, "n_leakers": args.leakers,
             "leaker_data": args.leaker_data, "vdd": args.vdd,
             "n_steps": args.n_steps, "kernel": args.kernel,
             "assembly": args.assembly, "solver": args.solver}
    result = _run_request(args, "array-read", spec, knobs)
    if args.json:
        return _emit_json(result)
    _report(result, spec, f"  (array, {args.cols} cols x "
                          f"{args.leakers + 1} cells, dim {result.dim})")
    _report_plan_cache(plan_cache)
    return 0


def _run_serve(args) -> int:
    from repro.service import ServiceApp
    from repro.service.http import serve

    _setup_plan_cache(args)
    app = ServiceApp(
        workers_total=args.service_workers,
        queue_limit=args.queue_limit,
        spool_dir=args.spool_dir,
    )

    def ready(server):
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port}  "
              f"(workers {args.service_workers}, "
              f"queue limit {args.queue_limit}, "
              f"spool {app.store.spool_dir})")

    serve(app, host=args.host, port=args.port, ready=ready)
    return 0


def _run_snm(args) -> int:
    from repro.sram.statics import butterfly_snm

    hold = butterfly_snm(vdd=args.vdd, mode="hold")
    read = butterfly_snm(vdd=args.vdd, mode="read")
    print(f"VDD      : {args.vdd:.2f} V")
    print(f"hold SNM : {hold*1e3:.1f} mV")
    print(f"read SNM : {read*1e3:.1f} mV")
    return 0


def _run_netlist_lint(args) -> int:
    from repro.spice.audit import audit_plan
    from repro.spice.diagnostics import lint_circuit
    from repro.sram.benches import (
        BENCH_NAMES,
        bench_compiled,
        bench_solver_choices,
    )

    names = (
        list(BENCH_NAMES) + ["read"] if args.circuit == "all"
        else [args.circuit]
    )
    bad = {"error", "warning"} if args.strict_warnings else {"error"}
    n_failed = 0
    for name in names:
        if name == "read":
            from repro.sram.testbench import ReadTestbench

            circuit, probes, cts = ReadTestbench().circuit, (), []
        else:
            ct = bench_compiled(name)
            circuit = ct.circuit
            probes = (*ct._cross_probes, *ct._peak_probes, *ct._value_probes)
            cts = [ct]
            if args.audit:
                cts = [
                    bench_compiled(name, assembly=assembly, solver=solver)
                    for assembly in ("dense", "sparse")
                    for solver in bench_solver_choices(name)
                ]
        diags = list(lint_circuit(circuit, probes=probes))
        audited = 0
        for audit_ct in cts if args.audit else []:
            diags += audit_plan(audit_ct)
            audited += 1
        failing = [d for d in diags if d.severity in bad]
        n_failed += bool(failing)
        status = "FAIL" if failing else "ok"
        suffix = f", {audited} plan audits" if args.audit else ""
        print(f"{name:7s}: {status}  ({len(diags)} findings{suffix})")
        for d in diags:
            print(f"  {d}")
    return 1 if n_failed else 0


def _run_compare(args) -> int:
    from repro.experiments.runners import default_methods, run_comparison
    from repro.experiments.tables import render_table
    from repro.experiments.workloads import (
        Workload,
        calibrate_read_spec,
        make_read_limitstate,
    )

    print(f"calibrating read spec for {args.target_sigma:g} sigma ...")
    spec = calibrate_read_spec(
        args.target_sigma, n_steps=args.n_steps, vdd=args.vdd, kernel=args.kernel
    )
    wl = Workload(
        name=f"read-{args.target_sigma:g}s",
        make=lambda: make_read_limitstate(
            spec, vdd=args.vdd, n_steps=args.n_steps, kernel=args.kernel
        ),
        exact_pfail=None,
        dim=6,
    )
    methods = default_methods(
        n_max=args.budget, target_rel_err=args.rel_err, mc_budget=args.mc_budget,
        workers=args.workers, n_shards=args.shards,
    )
    rows = run_comparison(wl, methods, seeds=(args.seed,))
    print(render_table(
        rows,
        ["method", "p_fail", "sigma", "rel_err", "n_evals", "speedup_vs_mc",
         "converged", "error"],
        title=f"read @ {spec*1e12:.1f} ps, VDD {args.vdd:g} V",
    ))
    return 0


def main(argv: Optional[list] = None) -> int:
    """Entry point (also exposed as ``python -m repro.cli``)."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "read-sigma":
            return _run_sigma(args, "read")
        if args.command == "write-sigma":
            return _run_sigma(args, "write")
        if args.command == "sa-sigma":
            return _run_sa_sigma(args)
        if args.command == "column-sigma":
            return _run_column_sigma(args)
        if args.command == "array-sigma":
            return _run_array_sigma(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "snm":
            return _run_snm(args)
        if args.command == "netlist-lint":
            return _run_netlist_lint(args)
        if args.command == "compare":
            return _run_compare(args)
    except ConfigError as exc:
        # Semantic flag conflicts exit like argparse rejections: one
        # readable line, status 2, naming the A0xx code of a refused
        # request.
        code = getattr(exc, "code", None)
        print(f"error: {exc}" + (f" [{code}]" if code and code not in str(exc) else ""))
        return 2
    raise ConfigError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
