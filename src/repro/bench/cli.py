"""``repro-bench`` — the one entry point for every benchmark driver::

    repro-bench --list                       # sections, tags, gates
    repro-bench --tags kernel                # run one tag group
    repro-bench --only plan-cache            # run named sections
    repro-bench --check --tags smoke \\
                --json-out BENCH_smoke.json  # plus wall gates vs baseline
    repro-bench --update-baseline --tags smoke

A plain run executes the selected sections and enforces their
*internal* gates (ratio floors/ceilings, bit-identity).  ``--check``
additionally enforces the per-section wall-clock gates against the
committed baseline (with the ``--min-section`` noise floor).  Exit
status is non-zero when any gate fails or any section errors.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.bench import gates as gates_mod
from repro.bench import report as report_mod
from repro.bench.gates import GateOutcome, format_outcome
from repro.bench.registry import REGISTRY, SectionResult, run_sections
from repro.errors import ConfigError

DEFAULT_BASELINE = pathlib.Path("benchmarks/results/smoke_baseline.json")


def _load_sections() -> None:
    """Registration happens on import; kept lazy so ``--help`` is cheap."""
    import repro.bench.sections  # noqa: F401


def run_suite(
    only: Optional[Sequence[str]] = None,
    tags: Optional[Sequence[str]] = None,
    repeats: Optional[int] = None,
) -> Dict[str, SectionResult]:
    """Run the selected sections."""
    _load_sections()
    chosen = REGISTRY.select(only=only, tags=tags)
    if not chosen:
        raise ConfigError(
            "selection matched no benchmark sections "
            f"(only={list(only or [])}, tags={list(tags or [])})"
        )
    return run_sections(chosen, repeats=repeats)


def evaluate_suite(
    results: Mapping[str, SectionResult],
    baseline: Optional[Mapping[str, Any]] = None,
    factor: Optional[float] = None,
    min_section: float = gates_mod.DEFAULT_MIN_SECTION,
) -> List[GateOutcome]:
    """Evaluate every gate attached to the sections that ran."""
    _load_sections()
    chosen = [REGISTRY.get(name) for name in results]
    outcomes = gates_mod.evaluate_gates(
        REGISTRY.gates_for(chosen), results,
        baseline=baseline, factor=factor, min_section=min_section,
    )
    if baseline is not None:
        total = sum(r.seconds for r in results.values())
        outcomes.append(gates_mod.evaluate_total_gate(
            total, baseline, factor=factor, min_section=min_section,
        ))
    return outcomes


def _print_list() -> int:
    _load_sections()
    for sec in REGISTRY.select():
        gate_ids = ", ".join(g.gate_id for g in sec.gates) or "—"
        print(f"{sec.name:24s} tags={','.join(sec.tags):24s} gates: {gate_ids}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--list", action="store_true",
                        help="list registered sections, tags and gates")
    parser.add_argument("--only", action="append", default=None,
                        metavar="SECTION",
                        help="run only the named section (repeatable)")
    parser.add_argument("--tags", action="append", default=None, metavar="TAG",
                        help="run sections carrying any of these tags "
                             "(repeatable)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="override every section's measured-run count "
                             "(median + CV reported)")
    parser.add_argument("--json-out", type=pathlib.Path, default=None,
                        help="write the schema'd machine-readable report here")
    parser.add_argument("--check", action="store_true",
                        help="enforce wall-clock gates vs the committed "
                             "baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record this run as the new baseline (with host "
                             "metadata under '_meta' for provenance)")
    parser.add_argument("--factor", type=float, default=None,
                        help="wall-clock regression factor (default: each "
                             f"gate's own, {gates_mod.DEFAULT_WALL_FACTOR})")
    parser.add_argument("--min-section", type=float,
                        default=gates_mod.DEFAULT_MIN_SECTION,
                        help="noise floor in seconds for near-instant "
                             "sections' wall gates")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE,
                        help="committed per-section wall-clock baseline")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.list:
            return _print_list()

        baseline: Optional[Dict[str, Any]] = None
        if args.check:
            if not args.baseline.exists():
                print(f"no baseline at {args.baseline}; "
                      "run --update-baseline first")
                return 1
            import json

            baseline = json.loads(args.baseline.read_text())

        results = run_suite(
            only=args.only, tags=args.tags, repeats=args.repeat
        )
        outcomes = evaluate_suite(
            results, baseline=baseline,
            factor=args.factor, min_section=args.min_section,
        )

        if args.update_baseline:
            broken = [r.name for r in results.values() if not r.valid]
            tripped = [o.gate_id for o in outcomes if o.failed
                       and o.spec.kind != "wall_factor"]
            if broken or tripped:
                print("FAIL: refusing to record a baseline from a run with "
                      f"failing sections/gates: {sorted(broken + tripped)}")
                return 1
            from repro.bench.meta import host_metadata

            record: Dict[str, Any] = {
                name: r.seconds for name, r in results.items()
            }
            record["total"] = round(
                sum(r.seconds for r in results.values()), 3
            )
            record["_meta"] = host_metadata()
            args.baseline.parent.mkdir(parents=True, exist_ok=True)
            import json

            args.baseline.write_text(json.dumps(record, indent=2) + "\n")
            print(f"baseline written to {args.baseline}")
            return 0

        report = report_mod.build_report(results, outcomes, baseline=baseline)
        for outcome in outcomes:
            print(format_outcome(outcome))
        if args.json_out is not None:
            report_mod.write_report(args.json_out, report)
            print(f"report written to {args.json_out}")

        failed = [o for o in outcomes if o.failed]
        broken = [r.name for r in results.values() if not r.valid]
        if broken:
            print(f"FAIL: sections errored: {', '.join(broken)}")
        if failed:
            print(f"FAIL: {len(failed)} gate(s) tripped")
            return 1
        if broken:
            return 1
        print("repro-bench: all gates within budget")
        return 0
    except ConfigError as exc:
        print(f"repro-bench: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
