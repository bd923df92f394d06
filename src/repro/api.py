"""The typed programmatic facade over the yield estimators.

This module is the supported entry point for driving the high-sigma
estimators from Python — the CLI sigma subcommands and the HTTP job
service (:mod:`repro.service`) are both thin shells over it, so all
three surfaces share one request/response schema and return
*bit-identical* estimates for the same request and seed.

The shape::

    from repro import api

    req = api.EstimateRequest(
        workload="read", spec=4.995e-11, seed=7, budget=2000,
        workers=4, n_shards=4, knobs={"n_steps": 300},
    )
    res = api.estimate(req)
    res.p_fail, res.sigma_level, res.n_evals
    doc = res.to_json()                # schema_version-stamped JSON
    api.EstimateResult.from_json(doc)  # round-trips

* :func:`list_workloads` enumerates the named workloads (the registry
  in :mod:`repro.experiments.workloads`) with their settable knobs.
* :func:`estimate` validates eagerly — every rejection is a typed
  :class:`repro.errors.RequestError` carrying a stable ``A0xx``
  diagnostic code, which the HTTP service maps 1:1 onto structured 4xx
  JSON bodies.
* Determinism contract: the estimate depends on ``(workload, knobs,
  spec, method, budget, rel_err, n_starts, seed, n_shards)`` and never
  on ``workers`` — parallelism is a pure speed knob, exactly as for the
  CLI (``n_shards`` defaults to ``workers``, so pin it explicitly to
  reproduce a run under a different worker count).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import RequestError
from repro.experiments.workloads import WorkloadSpec, get_workload, workload_names
from repro.highsigma.limitstate import LimitState
from repro.highsigma.sigma import pfail_to_sigma

__all__ = [
    "METHODS",
    "SCHEMA_VERSION",
    "EstimateRequest",
    "EstimateResult",
    "PreparedEstimate",
    "estimate",
    "prepare",
    "list_workloads",
]

#: Estimation methods a request may name.
METHODS: Tuple[str, ...] = ("gis", "mc")

#: Version stamp of the request/response JSON envelopes.  Bumped on any
#: layout change; ``from_json`` refuses versions it does not understand
#: (the bench-report pattern), so service responses and CLI ``--json``
#: output can never be silently misparsed by stale readers.
SCHEMA_VERSION = 2

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _json_safe(value: Any) -> Any:
    """Recursively coerce a diagnostics payload into JSON-safe types.

    numpy scalars become Python scalars, arrays become lists, mappings
    and sequences recurse; anything else is rendered through ``repr``
    (diagnostics are a debugging surface — losing an exotic object's
    type there is fine, losing the whole response to a serialization
    error is not).  Non-finite floats become strings for the same
    reason: ``json.dumps`` emits them as bare ``Infinity``/``NaN``,
    which strict parsers refuse.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, np.generic):
        return _json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


def _require(condition: bool, message: str, code: str) -> None:
    if not condition:
        raise RequestError(message, code=code)


def _check_int(name: str, value: Any, minimum: int) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{name} must be an integer >= {minimum}, got {value!r}",
        "A003",
    )


def _check_knob(key: str, value: Any, default: Any) -> None:
    """A knob value must match the type of the factory's default: an int
    default needs an int >= 1, a float default a finite real, a ``None``
    default null or a finite real, a bool or str default its own type."""
    name = f"knob {key!r}"
    if isinstance(default, bool):
        _require(isinstance(value, bool), f"{name} must be a boolean, got {value!r}", "A003")
    elif isinstance(default, int):
        _check_int(name, value, 1)
    elif isinstance(default, str):
        _require(isinstance(value, str), f"{name} must be a string, got {value!r}", "A003")
    else:
        real = (isinstance(value, int) and not isinstance(value, bool)) or (
            isinstance(value, float) and math.isfinite(value)
        )
        nullable = default is None
        _require(
            real or (nullable and value is None),
            f"{name} must be a finite number{' or null' if nullable else ''}, "
            f"got {value!r}",
            "A003",
        )


@dataclass(frozen=True)
class EstimateRequest:
    """One estimation request — the unit the facade and service accept.

    ``workload`` names a registry entry (:func:`list_workloads`);
    ``spec`` is the failure specification in the workload's native unit
    (seconds, volts, or sigma for the analytic canaries); ``knobs``
    holds the workload-specific circuit/compile options (only the names
    the workload declares are legal).  ``n_shards`` pins the shard plan
    the estimate depends on (default: follows ``workers``);
    ``shard_timeout`` ends the run with a typed error when a pooled
    shard outlives it, exactly like the CLI's ``--shard-timeout``.
    """

    workload: str
    spec: float
    method: str = "gis"
    seed: int = 0
    budget: int = 4000
    rel_err: Optional[float] = 0.1
    n_starts: int = 1
    workers: int = 1
    n_shards: Optional[int] = None
    shard_timeout: Optional[float] = None
    knobs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze a private copy so a caller mutating the dict they
        # passed in cannot change an already-validated request.
        object.__setattr__(self, "knobs", dict(self.knobs))

    # -- validation ----------------------------------------------------

    def validate(self) -> WorkloadSpec:
        """Eager validation; returns the resolved workload spec.

        Raises :class:`repro.errors.RequestError` with the stable
        ``A0xx`` codes: A001 unknown workload, A002 unknown knob,
        A003 bad field/knob value (a knob's type follows its factory
        default), A004 unsupported method.
        """
        _require(
            isinstance(self.workload, str) and bool(self.workload),
            f"workload must be a non-empty string, got {self.workload!r}",
            "A003",
        )
        workload = get_workload(self.workload)
        _require(
            self.method in METHODS,
            f"unsupported method {self.method!r}; expected one of {METHODS}",
            "A004",
        )
        _require(
            isinstance(self.spec, (int, float))
            and not isinstance(self.spec, bool)
            and np.isfinite(self.spec),
            f"spec must be a finite number, got {self.spec!r}",
            "A003",
        )
        _check_int("seed", self.seed, 0)
        _check_int("budget", self.budget, 1)
        _check_int("n_starts", self.n_starts, 1)
        _check_int("workers", self.workers, 1)
        if self.n_shards is not None:
            _check_int("n_shards", self.n_shards, 1)
        if self.rel_err is not None:
            _require(
                isinstance(self.rel_err, (int, float))
                and not isinstance(self.rel_err, bool)
                and np.isfinite(self.rel_err) and self.rel_err > 0,
                f"rel_err must be a positive number or null, got {self.rel_err!r}",
                "A003",
            )
        if self.shard_timeout is not None:
            _require(
                isinstance(self.shard_timeout, (int, float))
                and not isinstance(self.shard_timeout, bool)
                and self.shard_timeout > 0,
                f"shard_timeout must be a positive number or null, "
                f"got {self.shard_timeout!r}",
                "A003",
            )
        _require(
            isinstance(self.knobs, Mapping),
            f"knobs must be an object, got {type(self.knobs).__name__}",
            "A005",
        )
        for key, value in self.knobs.items():
            _require(
                key in workload.knobs,
                f"workload {self.workload!r} has no knob {key!r}; "
                f"settable knobs: {', '.join(workload.knobs)}",
                "A002",
            )
            _require(
                isinstance(value, _SCALAR_TYPES),
                f"knob {key!r} must be a JSON scalar, got "
                f"{type(value).__name__}",
                "A003",
            )
            _check_knob(key, value, workload.knob_defaults[key])
            allowed = workload.choices.get(key)
            if allowed is not None:
                _require(
                    value in allowed,
                    f"knob {key!r} must be one of {allowed}, got {value!r}",
                    "A003",
                )
        return workload

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "workload": self.workload,
            "spec": self.spec,
            "method": self.method,
            "seed": self.seed,
            "budget": self.budget,
            "rel_err": self.rel_err,
            "n_starts": self.n_starts,
            "workers": self.workers,
            "n_shards": self.n_shards,
            "shard_timeout": self.shard_timeout,
            "knobs": dict(self.knobs),
        }

    @classmethod
    def from_json(cls, doc: Any) -> "EstimateRequest":
        """Parse a request envelope; malformed shapes are ``A005``.

        ``schema_version`` is optional on input (hand-written submit
        bodies may omit it) but refused when present and unknown.
        """
        _require(
            isinstance(doc, Mapping),
            f"request body must be a JSON object, got {type(doc).__name__}",
            "A005",
        )
        data = dict(doc)
        version = data.pop("schema_version", SCHEMA_VERSION)
        _require(
            version == SCHEMA_VERSION,
            f"unsupported request schema_version {version!r} "
            f"(this reader understands {SCHEMA_VERSION})",
            "A005",
        )
        known = {
            "workload", "spec", "method", "seed", "budget", "rel_err",
            "n_starts", "workers", "n_shards", "shard_timeout", "knobs",
        }
        unknown = sorted(set(data) - known)
        _require(
            not unknown,
            f"unknown request field(s) {unknown}; known fields: "
            + ", ".join(sorted(known)),
            "A005",
        )
        _require(
            "workload" in data and "spec" in data,
            "request needs at least 'workload' and 'spec'",
            "A005",
        )
        knobs = data.get("knobs", {})
        _require(
            isinstance(knobs, Mapping),
            f"'knobs' must be an object, got {type(knobs).__name__}",
            "A005",
        )
        try:
            request = cls(**data)
        except TypeError as exc:
            raise RequestError(f"malformed request envelope: {exc}", code="A005") from exc
        request.validate()
        return request


@dataclass(frozen=True)
class EstimateResult:
    """The facade's response record — one schema across CLI/API/HTTP.

    Wraps the estimator's statistical outcome with the request echo and
    the serving-relevant context (resolved shard plan, wall time,
    plan-cache counters).  ``to_json``/``from_json`` round-trip
    through the ``schema_version``-stamped envelope the service serves
    and the CLI ``--json`` flag prints.
    """

    workload: str
    method: str
    spec: float
    dim: int
    seed: int
    n_shards: int
    p_fail: float
    std_err: float
    n_evals: int
    n_failures: int
    converged: bool
    ess: Optional[float]
    elapsed_s: float
    diagnostics: Mapping[str, Any] = field(default_factory=dict)
    plan_cache: Mapping[str, int] = field(default_factory=dict)
    request: Optional[EstimateRequest] = None

    @property
    def sigma_level(self) -> float:
        """Equivalent sigma of the estimated failure probability."""
        return float(pfail_to_sigma(self.p_fail))

    @property
    def rel_err(self) -> float:
        """Relative standard error of the estimate."""
        if self.p_fail <= 0:
            return float("inf")
        return self.std_err / self.p_fail

    def ci(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation confidence interval, clipped to [0, 1]."""
        lo = max(0.0, self.p_fail - z * self.std_err)
        hi = min(1.0, self.p_fail + z * self.std_err)
        return (lo, hi)

    def identical_to(self, other: "EstimateResult") -> bool:
        """Bit-identity of the *statistical* outcome (the serving
        invariant: HTTP service == facade == CLI for one request+seed).
        Wall time and cache counters are execution context, not
        outcome, so they are deliberately excluded."""
        return (
            self.p_fail == other.p_fail
            and self.std_err == other.std_err
            and self.n_evals == other.n_evals
            and self.n_failures == other.n_failures
            and self.converged == other.converged
            and self.ess == other.ess
            and self.n_shards == other.n_shards
        )

    def to_json(self) -> dict:
        doc: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "workload": self.workload,
            "method": self.method,
            "spec": self.spec,
            "dim": self.dim,
            "seed": self.seed,
            "n_shards": self.n_shards,
            "p_fail": self.p_fail,
            "std_err": self.std_err,
            "sigma_level": _json_safe(self.sigma_level),
            "n_evals": self.n_evals,
            "n_failures": self.n_failures,
            "converged": self.converged,
            "ess": self.ess,
            "elapsed_s": self.elapsed_s,
            "diagnostics": _json_safe(self.diagnostics),
            "plan_cache": _json_safe(self.plan_cache),
        }
        if self.request is not None:
            doc["request"] = self.request.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: Any) -> "EstimateResult":
        _require(
            isinstance(doc, Mapping),
            f"result document must be a JSON object, got {type(doc).__name__}",
            "A005",
        )
        data = dict(doc)
        version = data.pop("schema_version", None)
        _require(
            version == SCHEMA_VERSION,
            f"unsupported result schema_version {version!r} "
            f"(this reader understands {SCHEMA_VERSION})",
            "A005",
        )
        data.pop("sigma_level", None)  # derived; recomputed on access
        request_doc = data.pop("request", None)
        request = (
            EstimateRequest.from_json(request_doc) if request_doc is not None else None
        )
        try:
            return cls(request=request, **data)
        except TypeError as exc:
            raise RequestError(f"malformed result envelope: {exc}", code="A005") from exc


def list_workloads() -> Tuple[WorkloadSpec, ...]:
    """The registered workloads, in registration order."""
    return tuple(get_workload(name) for name in workload_names())


@dataclass
class PreparedEstimate:
    """A validated request with its limit state built and its plans compiled.

    Splitting :func:`estimate` into prepare + run is what lets the job
    service serialize the *compile* phase (single-flight through the
    plan cache — N concurrent identical submissions incur exactly one
    cache miss) while the sampling phase runs concurrently.
    ``limit_state`` has been :meth:`~repro.highsigma.limitstate.LimitState.warmup`-ed:
    every plan :meth:`run` fetches exists, and nothing has been
    evaluated, so its evaluation counter is that of a fresh limit state.
    """

    request: EstimateRequest
    workload: WorkloadSpec
    limit_state: LimitState
    n_shards: int

    def run(self, workers: Optional[int] = None) -> EstimateResult:
        """Execute the estimation; ``workers`` overrides the worker
        count only (a service granting fewer workers than requested
        cannot change the estimate — the shard plan is already pinned).
        """
        from repro.engine.sharding import ShardedRunner
        from repro.spice.plan import default_plan_cache

        request = self.request
        eff_workers = request.workers if workers is None else max(1, int(workers))
        runner = None
        if request.shard_timeout is not None:
            # One persistent pool for every round, each under the deadline.
            runner = ShardedRunner(
                workers=eff_workers, persistent=True, timeout=request.shard_timeout
            )

        t0 = time.perf_counter()
        try:
            estimator = self._build_estimator(eff_workers, runner)
            core = estimator.run(np.random.default_rng(request.seed))
        finally:
            if runner is not None:
                runner.close()
        elapsed = time.perf_counter() - t0

        return EstimateResult(
            workload=request.workload,
            method=request.method,
            spec=request.spec,
            dim=self.limit_state.dim,
            seed=request.seed,
            n_shards=self.n_shards,
            p_fail=float(core.p_fail),
            std_err=float(core.std_err),
            n_evals=int(core.n_evals),
            n_failures=int(core.n_failures),
            converged=bool(core.converged),
            ess=None if core.ess is None else float(core.ess),
            elapsed_s=round(elapsed, 6),
            diagnostics=_json_safe(core.diagnostics),
            plan_cache=dict(default_plan_cache().stats),
            request=request,
        )

    def _build_estimator(self, eff_workers: int, runner: Any) -> Any:
        request = self.request
        if request.method == "mc":
            from repro.highsigma.mc import MonteCarloEstimator

            return MonteCarloEstimator(
                self.limit_state,
                n_max=request.budget,
                target_rel_err=request.rel_err,
                workers=eff_workers,
                n_shards=self.n_shards,
                runner=runner,
            )
        from repro.highsigma.gis import GradientImportanceSampling

        return GradientImportanceSampling(
            self.limit_state,
            n_max=request.budget,
            target_rel_err=request.rel_err,
            n_starts=request.n_starts,
            workers=eff_workers,
            n_shards=self.n_shards,
            runner=runner,
            **dict(self.workload.estimator_options),
        )


def prepare(request: EstimateRequest) -> PreparedEstimate:
    """Validate a request, build its limit state and compile its plans.

    Every compile the workload needs happens here (routed through
    :func:`repro.spice.plan.compile_cached`, so repeated shapes hit the
    plan cache) and nothing else does: no transient runs, so a cold
    prepare costs the compile alone.  The returned object's
    :meth:`~PreparedEstimate.run` only samples.
    """
    workload = request.validate()
    limit_state = workload.factory(request.spec, **dict(request.knobs))
    limit_state.warmup()
    from repro.engine.sharding import resolve_shards

    return PreparedEstimate(
        request=request,
        workload=workload,
        limit_state=limit_state,
        n_shards=resolve_shards(request.n_shards, request.workers),
    )


def estimate(request: EstimateRequest) -> EstimateResult:
    """Run one estimation request end to end (the facade entry point).

    Equivalent to ``prepare(request).run()``.  A pooled shard that
    raises, loses its worker or outlives ``shard_timeout`` ends the run
    with a typed :class:`~repro.errors.ShardExecutionError`.
    """
    return prepare(request).run()
