"""Span tracing for the traced benchmark run.

A traced run replaces public calls into each layer of the program with
wrappers defined here (class attributes and module functions, restored
on :meth:`Tracer.uninstall`).  Each wrapper records a span -- name,
start, end, parent span, job id, run phase -- plus the counts measured
at that boundary.  The current span and the job id travel in
``contextvars``, so spans nest correctly on the service's job threads.
Spans stay in memory and are written out by :meth:`Tracer.dump` when the
run ends.

Wrappers are installed before any limit state is built: the batch
evaluators bind ``Batched6T``/``ArraySlice`` methods at construction, so
a wrapper installed later would never see those calls.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_SPAN = contextvars.ContextVar("perfbench_span", default=None)
_JOB = contextvars.ContextVar("perfbench_job", default=None)

#: ``count(args, kwargs)`` runs before the call and returns
#: ``finish(result) -> dict`` that runs after it.
CountHook = Callable[[tuple, dict], Callable[[Any], Dict[str, float]]]


@contextlib.contextmanager
def job_scope(job_id: str) -> Iterator[None]:
    """Tag spans opened in this block (on this thread) with ``job_id``."""
    token = _JOB.set(job_id)
    try:
        yield
    finally:
        _JOB.reset(token)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    phase: str
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with installable call wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, count: Optional[CountHook] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            finish = count(args, kwargs) if count is not None else None
            parent = _SPAN.get()
            sid = next(tracer._ids)
            token = _SPAN.set(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._record(sid, name, start, time.perf_counter(), parent, {})
                raise
            finally:
                _SPAN.reset(token)
            end = time.perf_counter()
            tracer._record(sid, name, start, end, parent, finish(result) if finish else {})
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def bind_job(self, owner: Any, attr: str, job_of: Callable[[tuple], str]) -> None:
        """Wrap ``owner.attr`` so the calling thread adopts a job id.

        Used on ``JobStore.mark_running``, the first public call on a
        service job thread: later spans on that thread carry the id
        until the thread's next job.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def adopt(*args: Any, **kwargs: Any) -> Any:
            _JOB.set(job_of(args))
            _SPAN.set(None)
            return original(*args, **kwargs)

        setattr(owner, attr, adopt)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _record(self, sid, name, start, end, parent, counts) -> None:
        span = Span(sid, name, start, end, parent, _JOB.get(), self.phase, counts)
        with self._lock:
            self.spans.append(span)

    # -- analysis -------------------------------------------------------

    def select(self, name: str, phase: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        ]

    def outermost(self, name: str, phase: Optional[str] = None) -> List[Span]:
        """Spans of ``name`` not nested in another span of ``name``."""
        by_id = {s.sid: s for s in self.spans}
        out = []
        for span in self.select(name, phase):
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent)
            if parent is None:
                out.append(span)
        return out

    def under(self, spans: List[Span], ancestor: str) -> List[Span]:
        """The spans that have a span named ``ancestor`` above them."""
        by_id = {s.sid: s for s in self.spans}
        out = []
        for span in spans:
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != ancestor:
                parent = by_id.get(parent.parent)
            if parent is not None:
                out.append(span)
        return out

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.sid] = span.duration - covered
        return out

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------

def _search_evals(args, kwargs):
    ls = args[0].ls
    before = ls.n_evals

    def finish(result):
        return {"evals": ls.n_evals - before}

    return finish


def _oracle_rows(args, kwargs):
    u = args[1]
    rows = len(u) if getattr(u, "ndim", 1) > 1 else 1

    def finish(result):
        return {"rows": rows}

    return finish


def _kernel_counts(args, kwargs):
    def finish(result):
        return {"n": int(result.n), "steps": int(result.n_sample_steps)}

    return finish


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls into api, highsigma, engine, sram, spice
    and service (the per-layer metric boundaries)."""
    from repro import api
    from repro.engine import sharding
    from repro.engine.accumulator import StreamingAccumulator
    from repro.highsigma import estimators, mc
    from repro.highsigma.estimators import DefensiveMixture, MeanShiftISCore
    from repro.highsigma.gis import GradientImportanceSampling
    from repro.highsigma.limitstate import LimitState
    from repro.highsigma.mc import MonteCarloEstimator
    from repro.service.app import ServiceApp
    from repro.service.jobs import JobStore
    from repro.spice.compile import CompiledTransient
    from repro.sram.array import ArraySlice
    from repro.sram.batched import Batched6T

    w = tracer.wrap
    w(api, "prepare", "api.prepare")
    w(api.PreparedEstimate, "run", "api.run")
    w(GradientImportanceSampling, "search_mpfps", "highsigma.search", _search_evals)
    w(MeanShiftISCore, "run", "highsigma.sampling")
    w(MonteCarloEstimator, "run", "highsigma.sampling")
    w(DefensiveMixture, "sample", "highsigma.proposal")
    w(DefensiveMixture, "log_weights", "highsigma.proposal")
    w(LimitState, "g_batch", "highsigma.oracle", _oracle_rows)
    w(LimitState, "metric", "highsigma.oracle", _oracle_rows)
    w(StreamingAccumulator, "update", "engine.accumulate")
    w(StreamingAccumulator, "merge", "engine.accumulate")
    # The estimators import run_sharded by name, so wrap every binding.
    for module in (sharding, estimators, mc):
        w(module, "run_sharded", "engine.sharded")
    w(Batched6T, "read_access_times", "sram.testbench")
    w(Batched6T, "write_trip_times", "sram.testbench")
    w(ArraySlice, "access_times_batch", "sram.testbench")
    w(CompiledTransient, "run", "spice.kernel", _kernel_counts)
    w(CompiledTransient, "__init__", "spice.compile")
    w(ServiceApp, "handle_json", "service.handle")
    w(JobStore, "mark_done", "service.spool")
    tracer.bind_job(JobStore, "mark_running", lambda a: a[1].job_id)
