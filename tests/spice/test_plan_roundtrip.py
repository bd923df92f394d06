"""Serialized plans: round-trip fidelity, refusal codes, cache tiers.

The contract under test is the tentpole of the plan-serialization layer:
a compiled plan pickled in one process and restored in another is
*bit-identical* in behaviour to the fresh compile, every restore that
crosses a process boundary passes the plan audit before first use, and a
stale or tampered payload is refused loudly with ``P008`` — while the
cache treats a stale *version* as a plain miss, never an error.
"""

import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigError, PlanAuditError
from repro.spice.audit import audit_plan
from repro.spice.compile import PLAN_FORMAT_VERSION, CompiledTransient
from repro.spice.plan import (
    CompiledPlan,
    PlanCache,
    compile_cached,
    fingerprint_of,
    plan_fingerprint,
    reset_default_plan_cache,
)
from repro.sram.benches import (
    BENCH_NAMES,
    bench_compiled,
    bench_solver_choices,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

MATRIX = [
    (name, assembly, solver)
    for name in BENCH_NAMES
    for assembly in ("dense", "sparse")
    for solver in bench_solver_choices(name)
]


def _bench_ic(name):
    """Initial conditions for the audit-sized bench circuits."""
    if name == "6t":
        return {"q": 0.0, "qb": 1.0, "bl": 1.0, "blb": 1.0}
    if name == "latch":
        return {"sout": 0.9, "soutb": 1.0, "tail": 0.0}
    if name == "write":
        return {"q": 1.0, "qb": 0.0, "bl": 0.0, "blb": 1.0}
    if name == "column":
        from repro.sram.column import ColumnConfig, ReadColumn

        return ReadColumn(config=ColumnConfig(n_leakers=3))._initial_conditions()
    from repro.sram.array import ArrayConfig, ArraySlice

    return ArraySlice(
        config=ArrayConfig(n_cols=2, n_leakers=3)
    )._initial_conditions()


def _run_bench(ct, name, n=8, seed=7):
    rng = np.random.default_rng(seed)
    dvth = rng.normal(0.0, 0.03, size=(n, len(ct.device_names)))
    return ct.run(ic=_bench_ic(name), n=n, delta_vth=dvth)


def _assert_results_bit_equal(res_a, res_b):
    for group in ("final", "cross", "peak", "value"):
        d_a, d_b = getattr(res_a, group), getattr(res_b, group)
        assert sorted(d_a) == sorted(d_b)
        for key in d_a:
            np.testing.assert_array_equal(d_a[key], d_b[key])
    np.testing.assert_array_equal(res_a.converged, res_b.converged)


@pytest.fixture(autouse=True)
def _isolated_default_cache():
    """Keep the process-wide cache out of these tests (and vice versa)."""
    reset_default_plan_cache()
    yield
    reset_default_plan_cache()


class TestRoundTripMatrix:
    """ISSUE acceptance: every bench, every assembly/solver combination."""

    @pytest.mark.parametrize("name,assembly,solver", MATRIX)
    def test_pickle_round_trip_bit_identical_and_audited(
        self, name, assembly, solver
    ):
        ct = bench_compiled(name, assembly=assembly, solver=solver)
        before = _run_bench(ct, name)
        restored = pickle.loads(pickle.dumps(ct))
        # __setstate__ already ran assert_plan_clean; re-audit explicitly.
        assert [d for d in audit_plan(restored) if d.severity == "error"] == []
        _assert_results_bit_equal(before, _run_bench(restored, name))

    @pytest.mark.parametrize("name,assembly,solver", MATRIX)
    def test_byte_container_round_trip(self, name, assembly, solver):
        ct = bench_compiled(name, assembly=assembly, solver=solver)
        plan = CompiledPlan.from_compiled(ct)
        blob = plan.to_bytes()
        decoded = CompiledPlan.from_bytes(
            blob, expected_fingerprint=plan.fingerprint
        )
        assert decoded.fingerprint == plan.fingerprint
        assert decoded.format_version == PLAN_FORMAT_VERSION
        restored = decoded.restore()
        _assert_results_bit_equal(_run_bench(ct, name), _run_bench(restored, name))


class TestStampCsrRestore:
    """The sparse assembly's stamp CSR is derived state: plan bytes hold
    no scipy object, and restore rebuilds the same matrix."""

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_csr_rebuilt_not_shipped(self, name):
        ct = bench_compiled(name, assembly="sparse")
        blob = pickle.dumps(ct)
        assert b"scipy" not in blob
        restored = pickle.loads(blob)
        want, got = ct._jac_csr, restored._jac_csr
        assert got is not want
        assert (got.format, got.shape) == (want.format, want.shape)
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTerminalTablesRestore:
    """The device evaluation's terminal tables are derived state too."""

    @pytest.mark.parametrize("assembly", ["dense", "sparse"])
    def test_rebuilt_not_shipped(self, assembly):
        ct = bench_compiled("6t", assembly=assembly)
        state = ct.__getstate__()["state"]
        assert "_term_mat" not in state and "_term_rows" not in state
        restored = pickle.loads(pickle.dumps(ct))
        kept, dropped = ("_term_mat", "_term_rows")
        if assembly == "sparse":
            kept, dropped = dropped, kept
        assert getattr(restored, dropped) is None
        np.testing.assert_array_equal(getattr(restored, kept), getattr(ct, kept))


class TestProductionSizeRestore:
    """The benchmark's plan: the 4x16 array slice at 120 steps, whose
    sparse Schur layout has no dense incidence to rebuild."""

    def test_array_slice_restores_small_and_bit_identical(self):
        import tracemalloc

        from repro.sram.array import ArraySlice

        arr = ArraySlice()
        ct = arr.compiled(n_steps=120)
        assert (ct.n_unknowns, ct.assembly, ct.solver) == (138, "sparse", "schur")
        blob = pickle.dumps(ct)

        tracemalloc.start()
        try:
            restored = pickle.loads(blob)  # __setstate__ runs assert_plan_clean
            diags = audit_plan(restored)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [d for d in diags if d.severity == "error"] == []
        assert peak < 128 * 2**20
        assert restored._m_mat is None and ct._m_mat is None

        rng = np.random.default_rng(7)
        dvth = rng.normal(0.0, 0.03, size=(4, len(ct.device_names)))
        ic = arr._initial_conditions()
        _assert_results_bit_equal(
            ct.run(ic=ic, n=4, delta_vth=dvth),
            restored.run(ic=ic, n=4, delta_vth=dvth),
        )


class TestFreshInterpreterRestore:
    def test_plan_serialized_here_runs_bit_identically_there(self, tmp_path):
        """Compile once, ship the bytes, restore in a fresh interpreter."""
        name = "array"
        ct = bench_compiled(name)
        blob_path = tmp_path / "array.plan"
        blob_path.write_bytes(CompiledPlan.from_compiled(ct).to_bytes())
        res = _run_bench(ct, name)
        here = [
            res.cross["access"].tobytes().hex(),
            res.value["diff_at_wl_fall"].tobytes().hex(),
        ]
        script = tmp_path / "restore_and_run.py"
        script.write_text(
            "import sys, numpy as np\n"
            "from repro.spice.plan import CompiledPlan\n"
            "sys.path.insert(0, sys.argv[3])\n"
            "from test_plan_roundtrip import _run_bench\n"
            "ct = CompiledPlan.from_bytes(\n"
            "    open(sys.argv[1], 'rb').read()).restore()\n"
            "res = _run_bench(ct, sys.argv[2])\n"
            "print(res.cross['access'].tobytes().hex())\n"
            "print(res.value['diff_at_wl_fall'].tobytes().hex())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop("REPRO_PLAN_CACHE", None)
        proc = subprocess.run(
            [
                sys.executable,
                str(script),
                str(blob_path),
                name,
                str(pathlib.Path(__file__).parent),
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert proc.stdout.splitlines() == here


class TestRefusals:
    def test_tampered_body_refused_with_p008(self):
        blob = bytearray(
            CompiledPlan.from_compiled(bench_compiled("latch")).to_bytes()
        )
        blob[-1] ^= 0xFF
        with pytest.raises(PlanAuditError, match="checksum") as exc:
            CompiledPlan.from_bytes(bytes(blob))
        assert exc.value.code == "P008"

    def test_truncated_container_refused(self):
        blob = CompiledPlan.from_compiled(bench_compiled("latch")).to_bytes()
        with pytest.raises(PlanAuditError) as exc:
            CompiledPlan.from_bytes(blob[: len(blob) // 2])
        assert exc.value.code == "P008"

    def test_stale_format_version_refused_on_direct_load(self):
        blob = _with_format(
            CompiledPlan.from_compiled(bench_compiled("latch")).to_bytes(),
            PLAN_FORMAT_VERSION + 1,
        )
        with pytest.raises(PlanAuditError, match="stale plan format") as exc:
            CompiledPlan.from_bytes(blob)
        assert exc.value.code == "P008"

    def test_fingerprint_mismatch_refused(self):
        blob = CompiledPlan.from_compiled(bench_compiled("latch")).to_bytes()
        with pytest.raises(PlanAuditError, match="fingerprint mismatch"):
            CompiledPlan.from_bytes(blob, expected_fingerprint="0" * 64)

    def test_stale_pickle_payload_refused_by_setstate(self):
        plan = CompiledPlan.from_compiled(bench_compiled("latch"))
        ct = object.__new__(CompiledTransient)
        with pytest.raises(PlanAuditError) as exc:
            ct.__setstate__({"format": PLAN_FORMAT_VERSION + 1, "state": plan.state})
        assert exc.value.code == "P008"

    def test_malformed_pickle_payload_refused_by_setstate(self):
        ct = object.__new__(CompiledTransient)
        with pytest.raises(PlanAuditError) as exc:
            ct.__setstate__({"state": {}})
        assert exc.value.code == "P008"


def _with_format(blob: bytes, version: int) -> bytes:
    """Rewrite the container header's format field (test forgery helper)."""
    import json
    import struct

    (hlen,) = struct.unpack_from("<I", blob)
    head = json.loads(blob[4 : 4 + hlen].decode("utf-8"))
    head["format"] = version
    new_head = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<I", len(new_head)) + new_head + blob[4 + hlen :]


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        a = bench_compiled("column")
        b = bench_compiled("column")
        assert fingerprint_of(a) == fingerprint_of(b)

    def test_sensitive_to_structure_and_options(self):
        base = bench_compiled("column")
        fp = fingerprint_of(base)
        assert fingerprint_of(bench_compiled("column", n_leakers=4)) != fp
        assert fingerprint_of(bench_compiled("column", assembly="dense")) != fp
        assert fingerprint_of(bench_compiled("column", n_steps=200)) != fp

    def test_variation_inputs_excluded(self):
        """Retargeting delta_vth/beta_mult must never bust the cache."""
        ct = bench_compiled("6t")
        fp = fingerprint_of(ct)
        mos = next(e for e in ct.circuit.elements if hasattr(e, "delta_vth"))
        original = mos.delta_vth
        try:
            mos.delta_vth = 0.05
            assert fingerprint_of(ct) == fp
        finally:
            mos.delta_vth = original

    def test_unknown_option_rejected(self):
        ct = bench_compiled("6t")
        with pytest.raises(ConfigError, match="unknown compile option"):
            plan_fingerprint(ct.circuit, ct.grid, turbo=True)


class TestPlanCache:
    def _compile(self, cache, **overrides):
        ct = bench_compiled("latch")
        probes = (*ct._cross_probes, *ct._peak_probes, *ct._value_probes)
        return compile_cached(
            ct.circuit, ct.grid, probes=probes, cache=cache, **overrides
        )

    def test_memory_tier_hit_is_fresh_and_equivalent(self):
        cache = PlanCache()
        first = self._compile(cache)
        second = self._compile(cache)
        assert second is not first
        assert cache.stats["mem_hits"] == 1 and cache.stats["misses"] == 1
        _assert_results_bit_equal(
            _run_bench(first, "latch"), _run_bench(second, "latch")
        )

    def test_disk_tier_restores_in_a_new_cache(self, tmp_path):
        writer = PlanCache(cache_dir=tmp_path)
        first = self._compile(writer)
        reader = PlanCache(cache_dir=tmp_path)
        second = self._compile(reader)
        assert reader.stats["disk_hits"] == 1 and reader.stats["misses"] == 0
        _assert_results_bit_equal(
            _run_bench(first, "latch"), _run_bench(second, "latch")
        )

    def test_stale_disk_entry_is_a_miss_not_an_error(self, tmp_path):
        writer = PlanCache(cache_dir=tmp_path)
        self._compile(writer)
        (entry,) = tmp_path.glob("*.plan")
        entry.write_bytes(
            _with_format(entry.read_bytes(), PLAN_FORMAT_VERSION + 1)
        )
        reader = PlanCache(cache_dir=tmp_path)
        self._compile(reader)  # recompiles, then overwrites the entry
        assert reader.stats["stale"] == 1
        assert reader.stats["misses"] == 1
        assert reader.stats["disk_hits"] == 0
        fresh = PlanCache(cache_dir=tmp_path)
        self._compile(fresh)
        assert fresh.stats["disk_hits"] == 1  # the rewrite healed the store

    def test_corrupt_disk_entry_raises_p008(self, tmp_path):
        writer = PlanCache(cache_dir=tmp_path)
        self._compile(writer)
        (entry,) = tmp_path.glob("*.plan")
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        with pytest.raises(PlanAuditError) as exc:
            self._compile(PlanCache(cache_dir=tmp_path))
        assert exc.value.code == "P008"

    def test_mutation_isolation_between_hits(self):
        cache = PlanCache()
        mutated = self._compile(cache)
        mutated._plan.hs = mutated._plan.hs * 2.0  # audit-test-style surgery
        assert any(d.code == "P005" for d in audit_plan(mutated))
        clean = self._compile(cache)
        assert [d for d in audit_plan(clean) if d.severity == "error"] == []

    def test_lru_eviction_bounds_the_memory_tier(self):
        cache = PlanCache(max_entries=1)
        self._compile(cache)
        self._compile(cache, newton_max_iter=30)
        assert len(cache) == 1
        self._compile(cache)  # evicted -> compiles again
        assert cache.stats["misses"] == 3

    def test_unwritable_cache_dir_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(ConfigError, match="not writable"):
            PlanCache(cache_dir=blocker / "store")

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ConfigError, match="max_entries"):
            PlanCache(max_entries=0)
