"""Serializable compiled plans and the content-addressed plan cache.

``CompiledTransient`` construction is pure setup — node partitioning,
terminal-gather maps, scatter rounds, the Schur peel, hoisted per-step
tables — repeated identically by every spawn-pool worker, every repeated
CLI invocation and (per the ROADMAP) every future service request.  This
module makes that setup a build artifact:

* :class:`CompiledPlan` — an explicit, versioned snapshot of a compiled
  instance's serializable state.  It round-trips through pickle and
  through a checksummed byte container (:meth:`CompiledPlan.to_bytes` /
  :meth:`CompiledPlan.from_bytes`), and :meth:`CompiledPlan.restore`
  rebuilds a working ``CompiledTransient`` that is *bit-identical* to
  the fresh compile: the only state not shipped verbatim are the
  derived tables (``CompiledTransient._DERIVED_STATE``: the per-step
  ``_plan``, the incidence tables, the compact-row index and the
  scatter rounds, plus the Schur solver's compact-row gathers) that
  are pure numpy functions of the shipped state — the plan audit's
  P002-P005 replays are exactly the proof that the rebuild equals the
  original.
* :func:`plan_fingerprint` — a structural content address over
  ``(netlist structure, grid, probes, compile options, plan-format
  version)``, the compile-side analogue of the run journal's shard-plan
  fingerprint.  Per-run variation inputs (``delta_vth``/``beta_mult``
  element attributes) are deliberately *excluded*: the compiler ignores
  them, so retargeting a variation sweep never busts the cache.
* :class:`PlanCache` — two tiers.  An in-process LRU of state templates
  (restores share the big immutable arrays and skip the audit — the
  template just came out of the compiler, or an audited disk load, in
  this very process), and an opt-in on-disk store of byte containers
  under a cache dir (``<fingerprint>.plan``), written atomically and
  fully re-audited on load.
* :func:`compile_cached` — the drop-in compile entry the sram bench
  registry and the CLI route through.

Admission policy (ROADMAP invariant): a plan that did not just come out
of the compiler in-process passes :func:`~repro.spice.audit.assert_plan_clean`
before first use — ``CompiledTransient.__setstate__`` runs it on every
unpickle and disk load.  Format-versioning policy: bump
:data:`~repro.spice.compile.PLAN_FORMAT_VERSION` on any change to the
serialized layout; the cache treats old-version entries as plain misses
(never errors), while a *direct* load of a stale or tampered payload is
refused loudly with diagnostic ``P008``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, PlanAuditError
from repro.spice.compile import (
    PLAN_FORMAT_VERSION,
    CompiledTransient,
    _SchurSolver,
)
from repro.spice.diagnostics import DIAGNOSTIC_CODES, Diagnostic
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)

__all__ = [
    "CompiledPlan",
    "PlanCache",
    "compile_cached",
    "plan_fingerprint",
    "fingerprint_of",
    "plan_payload_error",
    "default_plan_cache",
    "configure_default_plan_cache",
    "reset_default_plan_cache",
]

#: Magic string identifying the byte container of a serialized plan.
_PLAN_MAGIC = "repro-plan"

#: Default in-process LRU capacity.  Templates share their arrays with
#: the instances handed out, so an entry costs references while its
#: plans are alive — but a full-size array-slice plan pins a few hundred
#: MB once nothing else holds it, so the tier stays deliberately small.
_DEFAULT_MAX_ENTRIES = 8


def plan_payload_error(message: str, subject: str = "plan payload") -> PlanAuditError:
    """A ``P008`` refusal: serialized plan container/version/checksum bad."""
    diag = Diagnostic("P008", "error", subject, message, DIAGNOSTIC_CODES["P008"][1])
    return PlanAuditError(
        f"P008 {subject}: {message}", code="P008", diagnostics=[diag]
    )


# ----------------------------------------------------------------------
# Structural fingerprint
# ----------------------------------------------------------------------

#: Structural parameters per element type, beyond name/terminals.  A
#: :class:`Mosfet` is special-cased: ``delta_vth``/``beta_mult`` are
#: per-run variation inputs the compiler snapshots *out* of the plan.
_ELEMENT_FIELDS: List[Tuple[type, Tuple[str, ...]]] = [
    (Resistor, ("resistance",)),
    (Capacitor, ("capacitance",)),
    (VoltageSource, ("shape",)),
    (CurrentSource, ("shape",)),
    (Vcvs, ("gain",)),
    (Vccs, ("gm",)),
]


def _canon(obj: object, memo: Optional[Dict[int, Tuple[object, object]]] = None) -> object:
    """Canonical JSON-able form; floats by exact hex, arrays by digest.

    ``memo`` maps ``id()`` of dataclass instances already canonicalised
    in one fingerprint pass to ``(instance, form)`` — every device of a
    netlist shares a handful of model cards — and holds the instance so
    its id cannot be reused within the pass.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.generic):
        return _canon(obj.item())
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        return ["ndarray", list(arr.shape), str(arr.dtype), digest]
    if is_dataclass(obj) and not isinstance(obj, type):
        if memo is not None and id(obj) in memo:
            return memo[id(obj)][1]
        fields = {f.name: getattr(obj, f.name) for f in dataclass_fields(obj)}
        form = [type(obj).__name__, _canon(fields, memo)]
        if memo is not None:
            memo[id(obj)] = (obj, form)
        return form
    if isinstance(obj, Mapping):
        return [[_canon(k, memo), _canon(obj[k], memo)] for k in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_canon(v, memo) for v in obj]
    raise ConfigError(
        f"plan fingerprint: cannot canonicalise a {type(obj).__name__}"
    )


def _describe_element(elem: object, memo: Dict[int, Tuple[object, object]]) -> object:
    if isinstance(elem, Mosfet):
        params: Dict[str, object] = {
            "model": elem.model,
            "w": elem.w,
            "l": elem.l,
        }
    else:
        names: Tuple[str, ...] = ()
        for klass, klass_fields in _ELEMENT_FIELDS:
            if isinstance(elem, klass):
                names = klass_fields
                break
        params = {n: getattr(elem, n) for n in names}
    return [
        type(elem).__name__,
        getattr(elem, "name", ""),
        list(getattr(elem, "terminals", ())),
        _canon(params, memo),
    ]


def _resolved_options(options: Mapping[str, object]) -> Dict[str, object]:
    """Fill compile options with ``CompiledTransient.__init__`` defaults.

    Resolving through the live signature keeps the fingerprint honest if
    a default ever changes: same request, new default, new address.
    """
    sig = inspect.signature(CompiledTransient.__init__)
    resolved: Dict[str, object] = {}
    for name, param in sig.parameters.items():
        if name in ("self", "circuit", "grid", "probes"):
            continue
        resolved[name] = options[name] if name in options else param.default
    unknown = [k for k in options if k not in resolved]
    if unknown:
        raise ConfigError(f"plan fingerprint: unknown compile option(s) {unknown!r}")
    return resolved


def plan_fingerprint(
    circuit: object,
    grid: np.ndarray,
    probes: Sequence[object] = (),
    **options: object,
) -> str:
    """Content address of a compile request.

    sha256 over a canonical JSON document of the plan-format version,
    the netlist structure (element types, names, terminals and
    structural parameters, in netlist order — node-index assignment is a
    pure function of that order), the exact grid, the probes, and every
    compile option with defaults resolved.  Floats canonicalise by hex
    (bit-exact), arrays by shape/dtype/content digest.
    """
    memo: Dict[int, Tuple[object, object]] = {}
    doc = {
        "format": PLAN_FORMAT_VERSION,
        "title": getattr(circuit, "title", ""),
        "num_nodes": getattr(circuit, "num_nodes", 0),
        "elements": [_describe_element(e, memo) for e in circuit.elements],
        "grid": _canon(np.asarray(grid, dtype=float)),
        "probes": [_canon(p) for p in probes],
        "options": _canon(_resolved_options(options)),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def fingerprint_of(ct: CompiledTransient) -> str:
    """Fingerprint a compiled instance from its resolved attributes.

    The request-side :func:`plan_fingerprint` is the cache key; this is
    the canonicalised identity of an instance you already hold (probes
    regrouped by kind, assembly/solver as resolved or requested exactly
    as the constructor stored them).
    """
    return plan_fingerprint(
        ct.circuit,
        ct.grid,
        probes=(*ct._cross_probes, *ct._peak_probes, *ct._value_probes),
        kernel=ct.kernel,
        assembly=ct.assembly,
        solver=ct._solver_choice,
        newton_max_iter=ct.newton_max_iter,
        newton_tol=ct.newton_tol,
        max_step=ct.max_step,
        min_pivot=ct.min_pivot,
        clip=ct.clip,
    )


# ----------------------------------------------------------------------
# State templates
# ----------------------------------------------------------------------

def _fresh_containers(state: Mapping[str, object]) -> Dict[str, object]:
    """Copy every mutable container of a plan state, sharing the arrays.

    Restored plans must be mutation-isolated from the cache (and from
    each other): the audit test-suite edits ``_plan`` attributes, the
    ``_SchurSolver`` group and border-set lists and probe lists in place
    to prove detection, and a cache that handed out shared containers
    would let one instance's surgery corrupt every later restore.
    ndarrays are shared deliberately — they are treated as immutable plan
    constants, and sharing them is what makes an in-process cache hit
    nearly free.
    """
    out: Dict[str, object] = {}
    for key, value in state.items():
        if isinstance(value, SimpleNamespace):
            out[key] = SimpleNamespace(**vars(value))
        elif isinstance(value, _SchurSolver):
            clone = object.__new__(_SchurSolver)
            clone.__dict__.update(value.__dict__)
            clone.groups = [(s, nodes) for s, nodes in value.groups]
            clone.borders = list(value.borders)
            if hasattr(value, "_tables"):
                clone._tables = list(value._tables)
            out[key] = clone
        elif isinstance(value, list):
            out[key] = list(value)
        elif isinstance(value, dict):
            out[key] = dict(value)
        else:
            out[key] = value
    return out


def _restore_template(template: Mapping[str, object]) -> CompiledTransient:
    """Instantiate from a full in-process state template, no audit.

    Memory-tier templates include the derived tables and came from a
    compile (or an audited disk restore) in this process, so this is the
    one restore path the ROADMAP admission invariant does not gate.
    """
    ct = object.__new__(CompiledTransient)
    ct.__dict__.update(_fresh_containers(template))
    return ct


# ----------------------------------------------------------------------
# The serialized artifact
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledPlan:
    """A versioned, serializable snapshot of a compiled transient plan.

    ``state`` is the compact attribute dict ``CompiledTransient.__getstate__``
    emits: everything but the derived tables, which
    :meth:`CompiledTransient.__setstate__` rebuilds bit-identically on
    :meth:`restore`.
    """

    fingerprint: str
    format_version: int
    state: Dict[str, object]

    @classmethod
    def from_compiled(
        cls, ct: CompiledTransient, fingerprint: Optional[str] = None
    ) -> "CompiledPlan":
        payload = ct.__getstate__()
        state = payload["state"]
        if not isinstance(state, dict):  # pragma: no cover - getstate contract
            raise plan_payload_error("compiled instance produced a non-dict state")
        return cls(
            fingerprint=fingerprint if fingerprint is not None else fingerprint_of(ct),
            format_version=PLAN_FORMAT_VERSION,
            state=_fresh_containers(state),
        )

    def restore(self) -> CompiledTransient:
        """Rebuild a working, audited ``CompiledTransient``.

        Routes through ``__setstate__``: format check, derived-table
        rebuild, then ``assert_plan_clean`` — the admission gate.
        """
        ct = object.__new__(CompiledTransient)
        ct.__setstate__(
            {"format": self.format_version, "state": _fresh_containers(self.state)}
        )
        return ct

    # -- byte container ------------------------------------------------

    def to_bytes(self) -> bytes:
        """``<u32 header length><JSON header><pickled state>``.

        The header carries magic, format version, fingerprint and a
        sha256 of the body, so staleness and tampering are decidable
        without unpickling anything.
        """
        body = pickle.dumps(self.state, protocol=pickle.HIGHEST_PROTOCOL)
        head = json.dumps(
            {
                "magic": _PLAN_MAGIC,
                "format": self.format_version,
                "fingerprint": self.fingerprint,
                "sha256": hashlib.sha256(body).hexdigest(),
                "nbytes": len(body),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return struct.pack("<I", len(head)) + head + body

    @staticmethod
    def peek(blob: bytes) -> Dict[str, object]:
        """Parse and validate the container header, body untouched."""
        if len(blob) < 4:
            raise plan_payload_error("truncated container (no header length)")
        (hlen,) = struct.unpack_from("<I", blob)
        if hlen == 0 or 4 + hlen > len(blob):
            raise plan_payload_error("truncated container (header out of range)")
        try:
            head = json.loads(blob[4 : 4 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise plan_payload_error("container header is not valid JSON") from None
        if not isinstance(head, dict) or head.get("magic") != _PLAN_MAGIC:
            raise plan_payload_error("container header magic mismatch")
        return head

    @classmethod
    def from_bytes(
        cls, blob: bytes, expected_fingerprint: Optional[str] = None
    ) -> "CompiledPlan":
        """Decode a byte container, refusing stale or tampered payloads.

        Raises :class:`~repro.errors.PlanAuditError` (``P008``) on a
        format-version mismatch, a fingerprint mismatch against
        ``expected_fingerprint``, or any checksum/shape violation.  The
        cache never routes a stale *version* here — it treats those as
        misses; a direct load is refused loudly instead.
        """
        head = CompiledPlan.peek(blob)
        if head.get("format") != PLAN_FORMAT_VERSION:
            raise plan_payload_error(
                f"stale plan format {head.get('format')!r} "
                f"(this build reads version {PLAN_FORMAT_VERSION})"
            )
        fingerprint = head.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise plan_payload_error("container header carries no fingerprint")
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise plan_payload_error(
                f"fingerprint mismatch: payload {fingerprint[:16]}..., "
                f"expected {expected_fingerprint[:16]}..."
            )
        (hlen,) = struct.unpack_from("<I", blob)
        body = blob[4 + hlen :]
        if len(body) != head.get("nbytes"):
            raise plan_payload_error(
                f"body is {len(body)} bytes, header promises {head.get('nbytes')!r}"
            )
        if hashlib.sha256(body).hexdigest() != head.get("sha256"):
            raise plan_payload_error("body checksum mismatch (tampered payload)")
        try:
            state = pickle.loads(body)
        except Exception as exc:
            raise plan_payload_error(f"body does not unpickle: {exc}") from exc
        if not isinstance(state, dict):
            raise plan_payload_error("body is not a plan state dict")
        return cls(fingerprint=fingerprint, format_version=PLAN_FORMAT_VERSION, state=state)


# ----------------------------------------------------------------------
# The two-tier cache
# ----------------------------------------------------------------------

class PlanCache:
    """Content-addressed compiled-plan cache: in-process LRU + disk dir.

    ``get``/``put`` are keyed on :func:`plan_fingerprint` strings.  The
    memory tier stores full state templates and restores without
    re-auditing (in-process provenance); the disk tier stores
    :meth:`CompiledPlan.to_bytes` containers as ``<fingerprint>.plan``
    files, written atomically, and every disk load is re-audited by
    ``__setstate__``.  Stale-format disk entries count as misses
    (``stats["stale"]``); corrupt ones raise ``P008`` — losing a cache
    entry is routine, silently running a damaged one never is.

    ``get``/``put`` are serialized by an internal lock: the job service
    shares the process-wide default cache across executor threads, and
    an ``OrderedDict`` being re-ordered concurrently is not safe.  The
    lock does *not* make compile-on-miss single-flight — that is the
    service executor's job (it holds a compile lock around the whole
    get-compile-put sequence so N identical submissions miss once).
    """

    def __init__(
        self,
        cache_dir: Optional[object] = None,
        max_entries: int = _DEFAULT_MAX_ENTRIES,
    ):
        if int(max_entries) < 1:
            raise ConfigError(f"plan cache: max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = int(max_entries)
        self._lock = threading.RLock()
        self._mem: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self.cache_dir: Optional[Path] = None
        if cache_dir is not None:
            path = Path(cache_dir)
            try:
                path.mkdir(parents=True, exist_ok=True)
                probe = path / ".write-probe"
                probe.write_bytes(b"")
                probe.unlink()
            except OSError as exc:
                raise ConfigError(
                    f"plan cache: cache dir {str(path)!r} is not writable: {exc}"
                ) from exc
            self.cache_dir = path
        self.stats: Dict[str, int] = {
            "mem_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "stale": 0,
        }

    @property
    def hits(self) -> int:
        return self.stats["mem_hits"] + self.stats["disk_hits"]

    def __len__(self) -> int:
        return len(self._mem)

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        with self._lock:
            self._mem.clear()

    def _disk_path(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.plan"

    def _remember(self, fingerprint: str, ct: CompiledTransient) -> None:
        self._mem[fingerprint] = _fresh_containers(ct.__dict__)
        self._mem.move_to_end(fingerprint)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def get(self, fingerprint: str) -> Optional[CompiledTransient]:
        """A fresh instance for the fingerprint, or ``None`` on a miss."""
        with self._lock:
            template = self._mem.get(fingerprint)
            if template is not None:
                self._mem.move_to_end(fingerprint)
                self.stats["mem_hits"] += 1
                return _restore_template(template)
            if self.cache_dir is not None:
                path = self._disk_path(fingerprint)
                try:
                    blob = path.read_bytes()
                except OSError:
                    blob = None
                if blob is not None:
                    head = CompiledPlan.peek(blob)
                    if head.get("format") != PLAN_FORMAT_VERSION:
                        self.stats["stale"] += 1
                    else:
                        plan = CompiledPlan.from_bytes(blob, expected_fingerprint=fingerprint)
                        ct = plan.restore()  # audited by __setstate__
                        self._remember(fingerprint, ct)
                        self.stats["disk_hits"] += 1
                        return ct
            self.stats["misses"] += 1
            return None

    def put(self, fingerprint: str, ct: CompiledTransient) -> None:
        """Admit a freshly compiled instance under its fingerprint."""
        with self._lock:
            self._remember(fingerprint, ct)
            self.stats["stores"] += 1
        if self.cache_dir is not None:
            blob = CompiledPlan.from_compiled(ct, fingerprint=fingerprint).to_bytes()
            path = self._disk_path(fingerprint)
            tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
            try:
                tmp.write_bytes(blob)
                os.replace(tmp, path)
            except OSError as exc:
                raise ConfigError(
                    f"plan cache: cannot write {str(path)!r}: {exc}"
                ) from exc


def compile_cached(
    circuit: object,
    grid: np.ndarray,
    probes: Sequence[object] = (),
    cache: Optional[PlanCache] = None,
    **options: object,
) -> CompiledTransient:
    """Compile through the plan cache: hit restores, miss compiles + stores.

    The drop-in replacement for constructing ``CompiledTransient``
    directly; ``cache=None`` routes through :func:`default_plan_cache`
    (which honours ``REPRO_PLAN_CACHE`` for the disk tier).
    """
    plan_cache = default_plan_cache() if cache is None else cache
    fingerprint = plan_fingerprint(circuit, grid, probes, **options)
    ct = plan_cache.get(fingerprint)
    if ct is None:
        ct = CompiledTransient(circuit, grid, probes, **options)
        plan_cache.put(fingerprint, ct)
    return ct


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------

_default_cache: Optional[PlanCache] = None


def default_plan_cache() -> PlanCache:
    """The process-wide cache, created on first use.

    The disk tier comes from the ``REPRO_PLAN_CACHE`` environment
    variable when set (so spawn workers, which inherit the environment,
    share the same store); otherwise the default cache is memory-only.
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = PlanCache(cache_dir=os.environ.get("REPRO_PLAN_CACHE") or None)
    return _default_cache


def configure_default_plan_cache(
    cache_dir: Optional[object] = None,
    max_entries: int = _DEFAULT_MAX_ENTRIES,
) -> PlanCache:
    """Replace the process-wide cache (the CLI's ``--plan-cache`` hook)."""
    global _default_cache
    _default_cache = PlanCache(cache_dir=cache_dir, max_entries=max_entries)
    return _default_cache


def reset_default_plan_cache() -> None:
    """Forget the process-wide cache (tests; re-reads the environment)."""
    global _default_cache
    _default_cache = None
