"""Netlist linter: coded structural diagnostics for circuits.

The batched compiler historically rejected malformed circuits one
``raise`` at a time, from deep inside :class:`~repro.spice.compile.
CompiledTransient` — the first problem found, nothing else, no machine-
readable identity.  This module is the *pre-compile* static pass: it
walks a :class:`~repro.spice.netlist.Circuit` (and optionally the probe
set that will be compiled against it), finds every structural problem in
one sweep, and reports them as :class:`Diagnostic` records with stable
codes, so tools (the ``netlist-lint`` CLI subcommand, CI, strict
compilation) can act on findings without parsing prose.

Diagnostic code space
---------------------

====== ========= ===========================================================
code   severity  meaning (fix hint in the registry below)
====== ========= ===========================================================
N001   warning   dangling node: attached to a single element
N002   error     disconnected island: nodes unreachable from any rail/ground
N003   error     controlled source (Vcvs/Vccs): unsupported by the compiler
N004   error     current source: unsupported by the batched compiler
N005   error     floating voltage source (minus not ground / drives ground)
N006   error     node driven by more than one voltage source
N007   warning   rail-only device: every terminal pinned to a rail/ground
N008   error     probe references a node that is not an unknown
N009   warning   unknown node with no DC path to any rail or ground
N010   warning   unknown node with no capacitance attached
N011   error     unsupported element type for the batched compiler
N012   error     duplicate probe name
N013   error     circuit has no MOSFETs (nothing to batch-evaluate)
N014   error     circuit has no unknown nodes (every node is a rail)
====== ========= ===========================================================

Plan-level (``P0xx``), determinism (``D0xx``), request (``A0xx``) and
estimator (``E0xx``) codes live in the same registry; they are emitted
by :func:`repro.spice.audit.audit_plan`, :mod:`repro.engine.audit`,
request validation in :mod:`repro.api` and the importance samplers'
result diagnostics respectively.  Severity is binary: ``error``
findings make strict compilation and the CLI fail; ``warning`` findings
flag singular-by-construction or degenerate patterns that the solvers
survive via the pivot-guard rescue but that usually indicate a netlist
mistake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.netlist import GROUND_INDEX, Circuit

__all__ = [
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "lint_circuit",
    "lint_errors",
    "format_diagnostics",
]


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``code`` is a stable identifier from :data:`DIAGNOSTIC_CODES`;
    ``severity`` is ``"error"`` or ``"warning"``; ``subject`` names the
    node, element, probe or plan artifact the finding is about;
    ``message`` states the problem and ``hint`` how to fix it.
    """

    code: str
    severity: str
    subject: str
    message: str
    hint: str = ""

    def __str__(self) -> str:
        tail = f"  [{self.hint}]" if self.hint else ""
        return f"{self.code} {self.severity:<7s} {self.subject}: {self.message}{tail}"


#: Every diagnostic code the static-analysis layer can emit, with its
#: one-line meaning and the generic fix hint.  ``N0xx`` are netlist
#: findings (:func:`lint_circuit`), ``P0xx`` compiled-plan findings
#: (:func:`repro.spice.audit.audit_plan`), ``D0xx`` determinism findings
#: (:mod:`repro.engine.audit`), ``A0xx`` request refusals, ``E0xx``
#: estimator findings (``EstimateResult.diagnostics["diagnostic_codes"]``).
DIAGNOSTIC_CODES: Dict[str, Tuple[str, str]] = {
    "N001": (
        "dangling node: attached to a single element",
        "connect the node to at least one more element, or remove it",
    ),
    "N002": (
        "disconnected island: nodes unreachable from any rail or ground",
        "wire the island to the rest of the circuit or delete it",
    ),
    "N003": (
        "controlled source: the batched compiler rejects Vcvs/Vccs",
        "replace the controlled source with the device it models",
    ),
    "N004": (
        "current source: the batched compiler rejects CurrentSource",
        "model the load with a resistor to a rail instead",
    ),
    "N005": (
        "floating voltage source: minus terminal must be ground and the "
        "plus terminal must not be",
        "ground the minus terminal (rails are grounded sources)",
    ),
    "N006": (
        "node driven by more than one voltage source",
        "drive each rail node from exactly one source",
    ),
    "N007": (
        "rail-only device: every terminal pinned to a rail or ground",
        "the device contributes nothing solvable; remove it or free a node",
    ),
    "N008": (
        "probe references a node that is not an unknown",
        "probe an unknown node (rails are known; probe the driven side)",
    ),
    "N009": (
        "unknown node with no DC path to any rail or ground",
        "add a resistive/channel path so the DC operating point is defined",
    ),
    "N010": (
        "unknown node with no capacitance attached",
        "attach a capacitor: the integrator needs a C row for every node",
    ),
    "N011": (
        "unsupported element type for the batched compiler",
        "compiled circuits may use MOSFETs, R, C and grounded V sources",
    ),
    "N012": (
        "duplicate probe name",
        "give every probe a unique name",
    ),
    "N013": (
        "circuit has no MOSFETs",
        "the batched compiler targets MOSFET circuits; add devices",
    ),
    "N014": (
        "circuit has no unknown nodes",
        "free at least one node from its voltage source",
    ),
    "P001": (
        "retired: scatter round with a target-row collision (sparse plans "
        "no longer have rounds; never emitted)",
        "kept registered because codes are append-only",
    ),
    "P002": (
        "stamp CSR does not hold each compact row's replayed ±1 stamps in "
        "ascending column order",
        "recompile; csr @ g_stack must add each row's stamps in the dense "
        "matmul's order",
    ),
    "P003": (
        "Schur border/interior partition is not bordered-block-diagonal",
        "recompile; a hand-modified partition breaks the block elimination",
    ),
    "P004": (
        "gather/index map out of range or not total",
        "recompile; terminal maps must target the extended state exactly",
    ),
    "P005": (
        "hoisted per-step table shape or value inconsistent with the grid",
        "recompile against the grid actually integrated",
    ),
    "P006": (
        "retirement can touch metric probes",
        "retire only after every probe is provably settled",
    ),
    "P007": (
        "probe table inconsistent with the compiled plan",
        "probe rows must address compiled unknowns and grid steps",
    ),
    "P008": (
        "serialized plan payload refused: bad container, checksum or "
        "format version",
        "recompile to refresh a stale plan; a corrupt payload must be "
        "refetched, never patched",
    ),
    "D001": (
        "shard RNG streams are not disjoint",
        "spawn one child stream per shard from a single SeedSequence",
    ),
    "D002": (
        "budget split does not match the deterministic shard plan",
        "split budgets with split_budget(total, n_shards)",
    ),
    "D003": (
        "shard merge order is not ascending contiguous shard indexes",
        "sort results by shard index before merging",
    ),
    "D004": (
        "shard stream was not spawned from the parent SeedSequence",
        "derive shard streams with rng.spawn, not fresh seeds",
    ),
    "D005": (
        "retired: journal plan fingerprint mismatch (the run journal is "
        "gone; never emitted)",
        "kept registered because codes are append-only",
    ),
    "D006": (
        "retired: duplicate journal record for one shard (the run journal "
        "is gone; never emitted)",
        "kept registered because codes are append-only",
    ),
    "D007": (
        "retired: journal shard index outside the plan (the run journal is "
        "gone; never emitted)",
        "kept registered because codes are append-only",
    ),
    "A001": (
        "unknown workload name in an estimation request",
        "pick a registered workload; GET /v1/workloads or "
        "repro.api.list_workloads() enumerate them",
    ),
    "A002": (
        "unknown workload knob in an estimation request",
        "only the knobs the workload's registry entry declares are "
        "settable; check list_workloads() for the legal set",
    ),
    "A003": (
        "estimation request field holds an invalid value",
        "fix the offending field (positive budget/workers, finite spec, "
        "a value from the knob's declared choices, ...)",
    ),
    "A004": (
        "unsupported estimation method in a request",
        "use one of repro.api.METHODS ('gis', 'mc')",
    ),
    "A005": (
        "malformed request envelope (bad JSON, wrong types, unknown or "
        "missing fields)",
        "submit a JSON object matching EstimateRequest.to_json(): "
        "required 'workload' and 'spec', optional knobs under 'knobs'",
    ),
    "A006": (
        "unknown job id or service route",
        "poll only ids returned by POST /v1/jobs; see the README "
        "'Serving' section for the route table",
    ),
    "A007": (
        "service refused the submission (shutting down or queue full)",
        "retry later or raise the service queue_limit",
    ),
    "E001": (
        "importance-sampling estimate above 1: not a probability, so the "
        "run samples its whole budget and is reported converged=False",
        "the proposal misses the bulk of the failure region; plain Monte "
        "Carlo needs few samples at a failure probability this large",
    ),
}


def _diag(code: str, severity: str, subject: str, message: str) -> Diagnostic:
    return Diagnostic(code, severity, subject, message, DIAGNOSTIC_CODES[code][1])


def lint_errors(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """The error-severity subset of a diagnostic list."""
    return [d for d in diagnostics if d.severity == "error"]


def format_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line human-readable rendering (one finding per line)."""
    if not diagnostics:
        return "clean (no diagnostics)"
    return "\n".join(str(d) for d in diagnostics)


def _probe_nodes(probe: object) -> List[str]:
    """Node names a probe reads (duck-typed over the probe classes)."""
    coeffs = getattr(probe, "coeffs", None)
    if isinstance(coeffs, Mapping):
        return sorted(coeffs)
    node = getattr(probe, "node", None)
    return [node] if isinstance(node, str) else []


def lint_circuit(circuit: Circuit, probes: Sequence[object] = ()) -> List[Diagnostic]:
    """Structural lint of ``circuit`` (plus ``probes``) without compiling.

    Returns every finding, ordered by code then subject — deterministic
    for a given netlist.  ``error`` findings are exactly the patterns the
    batched compiler refuses (reported all at once, with codes, instead
    of the compiler's first-failure raise); ``warning`` findings are
    legal-but-degenerate patterns (dangling nodes, missing DC paths,
    capacitance-free nodes) that usually indicate a netlist mistake.
    """
    diags: List[Diagnostic] = []
    elements = circuit.elements
    num_nodes = circuit.num_nodes

    def name_of(idx: int) -> str:
        return circuit.node_name(idx)

    # -- per-element classification ------------------------------------
    rail_driver: Dict[int, List[str]] = {}
    for elem in elements:
        if isinstance(elem, Vcvs) or isinstance(elem, Vccs):
            diags.append(
                _diag(
                    "N003", "error", elem.name,
                    f"controlled source {type(elem).__name__} is not "
                    "supported by the batched compiler",
                )
            )
        elif isinstance(elem, CurrentSource):
            diags.append(
                _diag(
                    "N004", "error", elem.name,
                    "current sources are not supported by the batched compiler",
                )
            )
        elif isinstance(elem, VoltageSource):
            plus, minus = elem.nodes
            if minus != GROUND_INDEX:
                diags.append(
                    _diag(
                        "N005", "error", elem.name,
                        f"minus terminal {name_of(minus)!r} is not ground "
                        "(floating sources are not supported)",
                    )
                )
            elif plus == GROUND_INDEX:
                diags.append(
                    _diag("N005", "error", elem.name, "source drives ground")
                )
            else:
                rail_driver.setdefault(plus, []).append(elem.name)
        elif isinstance(elem, (Mosfet, Resistor, Capacitor)):
            pass
        elif elem.caps():
            pass  # purely capacitive composites compile fine
        else:
            diags.append(
                _diag(
                    "N011", "error", elem.name,
                    f"element type {type(elem).__name__} is not supported "
                    "by the batched compiler",
                )
            )

    for node, drivers in sorted(rail_driver.items()):
        if len(drivers) > 1:
            diags.append(
                _diag(
                    "N006", "error", name_of(node),
                    f"driven by {len(drivers)} voltage sources "
                    f"({', '.join(sorted(drivers))})",
                )
            )

    rails: Set[int] = set(rail_driver)
    known: Set[int] = rails | {GROUND_INDEX}
    unknowns = [i for i in range(num_nodes) if i not in rails]

    # -- connectivity ---------------------------------------------------
    attach_count: Dict[int, int] = {i: 0 for i in range(num_nodes)}
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(num_nodes)}
    adjacency[GROUND_INDEX] = set()
    conductive: Dict[int, Set[int]] = {i: set() for i in range(num_nodes)}
    conductive[GROUND_INDEX] = set()
    cap_touched: Set[int] = set()

    def link(graph: Dict[int, Set[int]], a: int, b: int) -> None:
        if a != b:
            graph[a].add(b)
            graph[b].add(a)

    for elem in elements:
        touched = set(elem.nodes)
        for node in touched:
            if node != GROUND_INDEX:
                attach_count[node] += 1
        for a in touched:
            for b in touched:
                link(adjacency, a, b)
        for na, nb, _c in elem.caps():
            cap_touched.add(na)
            cap_touched.add(nb)
        if isinstance(elem, (Resistor, VoltageSource, Vcvs)):
            link(conductive, elem.nodes[0], elem.nodes[1])
        elif isinstance(elem, Mosfet):
            nd, _ng, ns, _nb = elem.nodes
            link(conductive, nd, ns)  # the channel is the DC path

    for node in unknowns:
        if attach_count[node] == 1:
            diags.append(
                _diag(
                    "N001", "warning", name_of(node),
                    "attached to a single element",
                )
            )

    def reachable(graph: Dict[int, Set[int]], seeds: Set[int]) -> Set[int]:
        seen = set(seeds)
        stack = sorted(seeds)
        while stack:
            node = stack.pop()
            for nb in sorted(graph.get(node, ())):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return seen

    connected = reachable(adjacency, known)
    island = sorted(i for i in range(num_nodes) if i not in connected)
    if island:
        diags.append(
            _diag(
                "N002", "error", ", ".join(name_of(i) for i in island),
                "unreachable from every rail and ground",
            )
        )

    dc_reached = reachable(conductive, {GROUND_INDEX})
    for node in unknowns:
        if node in connected and node not in dc_reached:
            diags.append(
                _diag(
                    "N009", "warning", name_of(node),
                    "no resistive or channel path to any rail or ground",
                )
            )

    for node in unknowns:
        if node in connected and node not in cap_touched:
            diags.append(
                _diag(
                    "N010", "warning", name_of(node),
                    "no capacitance attached (singular C row on the grid)",
                )
            )

    # -- rail-only devices ----------------------------------------------
    for elem in elements:
        if isinstance(elem, (Mosfet, Resistor, Capacitor)):
            if set(elem.nodes) <= known:
                diags.append(
                    _diag(
                        "N007", "warning", elem.name,
                        "every terminal is pinned to a rail or ground",
                    )
                )

    # -- circuit-level compilability ------------------------------------
    if not circuit.mosfets():
        diags.append(_diag("N013", "error", circuit.title, "circuit has no MOSFETs"))
    if not unknowns:
        diags.append(
            _diag("N014", "error", circuit.title, "circuit has no unknown nodes")
        )

    # -- probes ----------------------------------------------------------
    unknown_names = {name_of(i) for i in unknowns}
    seen_names: Set[str] = set()
    for probe in probes:
        pname = getattr(probe, "name", repr(probe))
        if pname in seen_names:
            diags.append(_diag("N012", "error", pname, "duplicate probe name"))
        seen_names.add(pname)
        for node in _probe_nodes(probe):
            if node not in unknown_names:
                diags.append(
                    _diag(
                        "N008", "error", pname,
                        f"references {node!r}, which is not an unknown node",
                    )
                )

    diags.sort(key=lambda d: (d.code, d.subject))
    return diags
