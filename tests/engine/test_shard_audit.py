"""Determinism audit: shard plans proven disjoint, budgets canonical.

Mutation-style: every defect class a hand-built or deserialized shard
plan could carry (reused stream, ad-hoc budgets, fresh seeds instead of
spawned children, out-of-order merge) gets injected and must report its
exact D-code; the plans ``ShardedRunner`` actually builds must audit
clean.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.engine import (
    ShardResult,
    assert_shard_plan_clean,
    audit_runner_merge,
    audit_shard_plan,
    spawn_generators,
    split_budget,
)
from repro.errors import PlanAuditError
from repro.spice.diagnostics import DIAGNOSTIC_CODES


def _codes(diags):
    return sorted({d.code for d in diags})


def _errors(diags):
    return [d for d in diags if d.severity == "error"]


class TestCleanPlans:
    @pytest.mark.parametrize("n_shards,total", [(1, 10), (2, 100), (4, 101), (7, 3)])
    def test_spawned_plan_is_clean(self, n_shards, total):
        parent = np.random.default_rng(123)
        rngs = spawn_generators(parent, n_shards)
        budgets = split_budget(total, n_shards)
        assert audit_shard_plan(rngs, budgets, total=total, parent=parent) == []

    def test_assert_clean_returns_diags(self):
        parent = np.random.default_rng(5)
        rngs = spawn_generators(parent, 3)
        out = assert_shard_plan_clean(rngs, split_budget(30, 3), total=30, parent=parent)
        assert out == []


class TestStreamMutations:
    def test_d001_same_generator_object(self):
        rng = np.random.default_rng(0)
        diags = _errors(audit_shard_plan([rng, rng], [5, 5], total=10))
        assert "D001" in _codes(diags)

    def test_d001_reused_seed_sequence(self):
        """Two distinct Generator objects over one spawned stream."""
        ss = np.random.SeedSequence(42).spawn(1)[0]
        a = np.random.Generator(np.random.PCG64(ss))
        b = np.random.Generator(np.random.PCG64(ss))
        diags = _errors(audit_shard_plan([a, b], [5, 5], total=10))
        assert _codes(diags) == ["D001"]

    def test_d001_warning_when_identity_unavailable(self):
        opaque = SimpleNamespace(bit_generator=SimpleNamespace())
        diags = audit_shard_plan([opaque], [5], total=5)
        assert [d.code for d in diags] == ["D001"]
        assert diags[0].severity == "warning"


class TestBudgetMutations:
    def test_d002_wrong_split(self):
        parent = np.random.default_rng(1)
        rngs = spawn_generators(parent, 2)
        # split_budget(7, 2) == [4, 3]; the reversed plan is a different
        # (and therefore wrong) deterministic plan.
        diags = _errors(audit_shard_plan(rngs, [3, 4], total=7, parent=parent))
        assert _codes(diags) == ["D002"]

    def test_d002_negative_budget(self):
        parent = np.random.default_rng(1)
        rngs = spawn_generators(parent, 2)
        diags = _errors(audit_shard_plan(rngs, [8, -1], total=7))
        assert _codes(diags) == ["D002"]

    def test_d002_length_mismatch(self):
        parent = np.random.default_rng(1)
        rngs = spawn_generators(parent, 3)
        diags = _errors(audit_shard_plan(rngs, [5, 5], total=10))
        assert "D002" in _codes(diags)


class TestLineageMutations:
    def test_d004_fresh_seeds_instead_of_spawn(self):
        parent = np.random.default_rng(9)
        rngs = [np.random.default_rng(9 + i) for i in range(3)]
        diags = _errors(
            audit_shard_plan(rngs, split_budget(30, 3), total=30, parent=parent)
        )
        assert "D004" in _codes(diags)

    def test_d004_grandchild_is_not_a_child(self):
        parent = np.random.default_rng(9)
        child = spawn_generators(parent, 1)[0]
        grandchild = child.spawn(1)[0]
        diags = _errors(audit_shard_plan([grandchild], [5], total=5, parent=parent))
        assert "D004" in _codes(diags)

    def test_spawned_children_pass_lineage(self):
        parent = np.random.default_rng(9)
        rngs = spawn_generators(parent, 5)
        diags = audit_shard_plan(rngs, split_budget(50, 5), total=50, parent=parent)
        assert diags == []


class TestMergeOrder:
    def _results(self, order):
        return [ShardResult(index=i, n_evals=1, payload=None) for i in order]

    def test_d003_out_of_order(self):
        diags = audit_runner_merge(self._results([1, 0, 2]))
        assert _codes(diags) == ["D003"]

    def test_d003_gap(self):
        diags = audit_runner_merge(self._results([0, 2]))
        assert _codes(diags) == ["D003"]

    def test_in_order_clean(self):
        assert audit_runner_merge(self._results([0, 1, 2, 3])) == []
        assert audit_runner_merge([]) == []


class TestEscalation:
    def test_raises_typed_with_code(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PlanAuditError) as exc:
            assert_shard_plan_clean([rng, rng], [5, 5], total=10)
        assert exc.value.code == "D001"
        assert any(d.code == "D001" for d in exc.value.diagnostics)


class TestRetiredCodes:
    @pytest.mark.parametrize("code", ["D005", "D006", "D007"])
    def test_journal_codes_retired_but_registered(self, code):
        """Codes are append-only: the run journal's admission codes keep
        their registry entries, marked retired, and no module emits them."""
        meaning, _ = DIAGNOSTIC_CODES[code]
        assert meaning.startswith("retired")
        package = Path(repro.__file__).parent
        emitters = [
            path.relative_to(package).as_posix()
            for path in sorted(package.rglob("*.py"))
            if code in path.read_text()
        ]
        assert emitters == ["spice/diagnostics.py"]
