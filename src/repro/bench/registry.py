"""Section registry: the one place benchmark workloads are declared.

A *section* is a named, tagged unit of benchmark work with an optional
untimed ``setup`` phase (construction, compilation, warmup — everything
that must not pollute the measurement) and a timed ``run`` phase that
may additionally report measured values (speedup ratios, bit-identity
booleans, overhead factors) for the declarative gates in
:mod:`repro.bench.gates` to judge.

Sections register through the :func:`section` decorator::

    @section("column-read-batched", tags=("smoke", "workload"),
             gates=(GateSpec("column-read.sparse_vs_dense", "ratio_min",
                             key="speedup_sparse_vs_dense",
                             threshold=2.0),))
    def column_read(ctx):
        ...
        return {"speedup_sparse_vs_dense": 2.4}

The runner times each section (``repeats`` measured runs after one
setup; per SNIPPETS-style derived-metrics discipline it reports the
*median* of the repeats plus the coefficient of variation, so noisy
runners are visible in the record instead of silently averaged away).
A section that raises lands in its result as ``valid=False`` with the
reason — the remaining sections still execute, because a failing run's
numbers are exactly the ones worth archiving.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.gates import GateSpec, bind_section
from repro.errors import ConfigError

SectionFn = Callable[..., Optional[Mapping[str, Any]]]
SetupFn = Callable[..., Any]


@dataclass(frozen=True)
class Section:
    """One registered benchmark section."""

    name: str
    fn: SectionFn
    tags: Tuple[str, ...] = ()
    setup: Optional[SetupFn] = None
    repeats: int = 1
    gates: Tuple[GateSpec, ...] = ()


@dataclass
class SectionResult:
    """Timing and measured values of one executed section."""

    name: str
    tags: Tuple[str, ...] = ()
    seconds: float = 0.0
    seconds_runs: Tuple[float, ...] = ()
    cv: float = 0.0
    values: Dict[str, Any] = field(default_factory=dict)
    valid: bool = True
    reason: Optional[str] = None

    def to_json(self) -> dict:
        entry: Dict[str, Any] = {
            "seconds": round(self.seconds, 3),
            "valid": self.valid,
            "tags": list(self.tags),
            "values": dict(self.values),
        }
        if len(self.seconds_runs) > 1:
            entry["seconds_runs"] = [round(s, 3) for s in self.seconds_runs]
            entry["cv"] = round(self.cv, 4)
        if self.reason is not None:
            entry["reason"] = self.reason
        return entry


class Registry:
    """An ordered collection of sections with tag/name selection."""

    def __init__(self) -> None:
        self._sections: Dict[str, Section] = {}

    def register(self, sec: Section) -> Section:
        if sec.name in self._sections:
            raise ConfigError(f"benchmark section {sec.name!r} registered twice")
        bound = Section(
            name=sec.name, fn=sec.fn, tags=tuple(sec.tags), setup=sec.setup,
            repeats=sec.repeats,
            gates=tuple(bind_section(g, sec.name) for g in sec.gates),
        )
        self._sections[sec.name] = bound
        return bound

    def section(
        self,
        name: str,
        tags: Sequence[str] = (),
        setup: Optional[SetupFn] = None,
        repeats: int = 1,
        gates: Sequence[GateSpec] = (),
    ) -> Callable[[SectionFn], SectionFn]:
        """Decorator form of :meth:`register`."""

        def deco(fn: SectionFn) -> SectionFn:
            self.register(Section(
                name=name, fn=fn, tags=tuple(tags), setup=setup,
                repeats=repeats, gates=tuple(gates),
            ))
            return fn

        return deco

    def names(self) -> List[str]:
        return list(self._sections)

    def get(self, name: str) -> Section:
        try:
            return self._sections[name]
        except KeyError:
            raise ConfigError(
                f"unknown benchmark section {name!r}; known sections: "
                + ", ".join(sorted(self._sections))
            ) from None

    def select(
        self,
        only: Optional[Sequence[str]] = None,
        tags: Optional[Sequence[str]] = None,
    ) -> List[Section]:
        """Sections in registration order, filtered by tags then names.

        ``tags`` keeps sections carrying *any* of the given tags;
        ``only`` keeps the named sections (unknown names are a
        :class:`~repro.errors.ConfigError` listing what exists).
        """
        if only:
            for name in only:
                self.get(name)  # raise readably on unknown names
        chosen = list(self._sections.values())
        if tags:
            wanted = set(tags)
            chosen = [s for s in chosen if wanted.intersection(s.tags)]
        if only:
            keep = set(only)
            chosen = [s for s in chosen if s.name in keep]
        return chosen

    def gates_for(self, sections: Sequence[Section]) -> List[GateSpec]:
        return [g for s in sections for g in s.gates]


def run_section(
    sec: Section,
    params: Optional[Mapping[str, Any]] = None,
    repeats: Optional[int] = None,
    echo: Callable[[str], None] = print,
) -> SectionResult:
    """Execute one section: untimed setup, then ``repeats`` timed runs.

    The reported ``seconds`` is the median of the measured runs; ``cv``
    is the coefficient of variation across them (0.0 for a single run).
    Measured values come from the last run.  Exceptions (a broken
    workload, a failed equality check) invalidate the section instead of
    aborting the suite.
    """
    kwargs = dict(params or {})
    n_runs = max(1, sec.repeats if repeats is None else repeats)
    runs: List[float] = []
    values: Dict[str, Any] = {}
    try:
        ctx = sec.setup(**kwargs) if sec.setup is not None else None
        for _ in range(n_runs):
            t0 = time.perf_counter()
            out = sec.fn(ctx, **kwargs)
            runs.append(time.perf_counter() - t0)
            if out:
                values = dict(out)
    except Exception as exc:  # noqa: BLE001 — archived as the failure reason
        reason = f"{type(exc).__name__}: {exc}"
        echo(f"  [{sec.name}] FAILED: {reason}")
        return SectionResult(
            name=sec.name, tags=sec.tags,
            seconds=sum(runs), seconds_runs=tuple(runs),
            values=values, valid=False, reason=reason,
        )
    med = statistics.median(runs)
    mean = statistics.fmean(runs)
    cv = (statistics.pstdev(runs) / mean) if (len(runs) > 1 and mean > 0) else 0.0
    return SectionResult(
        name=sec.name, tags=sec.tags, seconds=med,
        seconds_runs=tuple(runs), cv=cv, values=values,
    )


def run_sections(
    sections: Sequence[Section],
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    repeats: Optional[int] = None,
    echo: Callable[[str], None] = print,
) -> Dict[str, SectionResult]:
    """Run sections in order; returns ``{name: SectionResult}``.

    ``overrides`` maps section name to keyword parameters for that
    section's setup/run pair.
    """
    results: Dict[str, SectionResult] = {}
    overrides = overrides or {}
    for sec in sections:
        result = run_section(
            sec, params=overrides.get(sec.name), repeats=repeats, echo=echo
        )
        results[sec.name] = result
        echo(f"{sec.name:24s}: {result.seconds:7.2f} s"
             + (f"  (cv {result.cv:.3f})" if len(result.seconds_runs) > 1 else "")
             + ("" if result.valid else "  [FAILED]"))
    total = sum(r.seconds for r in results.values())
    echo(f"{'total':24s}: {total:7.2f} s")
    return results


#: The default registry every section module registers into.
REGISTRY = Registry()

#: Module-level decorator bound to :data:`REGISTRY`.
section = REGISTRY.section
