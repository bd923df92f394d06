"""ShardedRunner: determinism across worker counts, exact reconciliation.

The engine's contract is that ``workers`` is a pure speed knob: with the
shard plan pinned (``n_shards``), every statistic — ``p_fail``,
``std_err``, ``ess``, ``n_evals``, failure counts — must be bit-for-bit
identical whether the shards run in-process or on a fork pool.
"""

import os
import pickle
import time
import warnings

import numpy as np
import pytest

from repro.engine import sharding
from repro.engine.accumulator import StreamingAccumulator
from repro.engine.sharding import (
    ShardedRunner,
    ShardResult,
    fork_available,
    run_sharded,
    spawn_available,
    spawn_generators,
    split_budget,
)
from repro.errors import ConvergenceError, EstimationError, ShardExecutionError
from repro.highsigma.analytic import LinearLimitState
from repro.highsigma.estimators import MeanShiftISCore
from repro.highsigma.mc import MonteCarloEstimator
from repro.highsigma.sss import ScaledSigmaSampling

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
needs_spawn = pytest.mark.skipif(not spawn_available(), reason="spawn start method unavailable")


class _PicklableTask:
    """Module-level task class: picklable payload for the spawn path."""

    def __call__(self, i, rng, budget):
        return ShardResult(
            index=i, n_evals=budget, payload=float(rng.standard_normal())
        )


class _CountingTask(_PicklableTask):
    """Counts how often the parent process pickles it."""

    pickles = 0

    def __reduce__(self):
        _CountingTask.pickles += 1
        return (_CountingTask, ())


def _draw(i, rng, budget):
    return ShardResult(index=i, n_evals=budget, payload=float(rng.standard_normal()))


class _FailOn:
    """Picklable task that breaks one shard and draws on the others.

    ``how="raise"`` raises ``exc`` wherever the shard runs; ``"exit"``
    (``os._exit(1)``) and ``"hang"`` (a 120 s sleep, far past any test
    timeout) act only inside a pool worker, so in-process the same task
    is an ordinary draw.
    """

    def __init__(self, shard, how, exc=None):
        self.shard = shard
        self.how = how
        self.exc = ValueError(f"shard {shard} is broken") if exc is None else exc

    def __call__(self, i, rng, budget):
        if i == self.shard:
            if self.how == "raise":
                raise self.exc
            if self.how == "exit" and sharding._IN_POOL_WORKER:
                os._exit(1)
            if self.how == "hang" and sharding._IN_POOL_WORKER:
                time.sleep(120.0)
        return _draw(i, rng, budget)


def _accumulate_nan_on_shard_2(i, rng, budget):
    """An importance-sampling shard whose shard 2 meets a NaN log-weight
    on a failing sample."""
    log_w = rng.standard_normal(budget)
    if i == 2:
        log_w[0] = np.nan
    acc = StreamingAccumulator()
    acc.update(log_w, np.ones(budget, dtype=bool))
    return ShardResult(index=i, n_evals=budget, payload=acc)


def _payloads(results):
    return [r.payload for r in results]


def _serial_draws(seed=7, n=4, total=40):
    return _payloads(
        ShardedRunner(workers=1).run_shards(
            _draw, spawn_generators(np.random.default_rng(seed), n), split_budget(total, n)
        )
    )


class TestSplitBudget:
    def test_even_split(self):
        assert split_budget(100, 4) == [25, 25, 25, 25]

    def test_remainder_to_lowest_indices(self):
        assert split_budget(10, 4) == [3, 3, 2, 2]

    def test_total_preserved(self):
        for total in (0, 1, 7, 4097):
            for shards in (1, 2, 3, 8):
                assert sum(split_budget(total, shards)) == total

    def test_invalid(self):
        with pytest.raises(EstimationError):
            split_budget(10, 0)
        with pytest.raises(EstimationError):
            split_budget(-1, 2)


class TestSpawnGenerators:
    def test_deterministic_and_independent(self):
        a = spawn_generators(np.random.default_rng(42), 3)
        b = spawn_generators(np.random.default_rng(42), 3)
        draws_a = [g.standard_normal(4) for g in a]
        draws_b = [g.standard_normal(4) for g in b]
        for x, y in zip(draws_a, draws_b):
            np.testing.assert_array_equal(x, y)
        # Streams differ from each other.
        assert not np.allclose(draws_a[0], draws_a[1])


class TestRunnerPlumbing:
    @staticmethod
    def _task(i, rng, budget):
        return ShardResult(index=i, n_evals=budget, payload=float(rng.standard_normal()))

    def test_serial_matches_pool_results(self):
        rngs1 = spawn_generators(np.random.default_rng(0), 4)
        rngs2 = spawn_generators(np.random.default_rng(0), 4)
        budgets = split_budget(100, 4)
        serial = ShardedRunner(workers=1).run_shards(self._task, rngs1, budgets)
        pooled = ShardedRunner(workers=4).run_shards(self._task, rngs2, budgets)
        assert [r.payload for r in serial] == [r.payload for r in pooled]
        assert [r.index for r in pooled] == [0, 1, 2, 3]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EstimationError):
            ShardedRunner().run_shards(self._task, spawn_generators(np.random.default_rng(0), 2), [1])

    @needs_fork
    def test_eval_reconciliation_after_pool(self):
        ls = LinearLimitState(beta=3.0, dim=4)

        def task(i, rng, budget):
            before = ls.n_evals
            ls.fails_batch(rng.standard_normal((budget, 4)))
            return ShardResult(index=i, n_evals=ls.n_evals - before, payload=None)

        rngs = spawn_generators(np.random.default_rng(1), 4)
        ShardedRunner(workers=4).run_shards(task, rngs, [10, 10, 10, 10], limit_state=ls)
        # Children billed their own copies; the runner must credit the parent.
        assert ls.n_evals == 40


class TestPersistentPool:
    """Persistent fork pools: pure speed knob, results and invariants
    (1-4 in ROADMAP.md) unchanged; lifecycle owned by the caller."""

    @staticmethod
    def _pid_task(i, rng, budget):
        return ShardResult(
            index=i, n_evals=budget,
            payload=(os.getpid(), float(rng.standard_normal())),
        )

    @needs_fork
    def test_pool_reused_for_equivalent_task(self):
        ls = LinearLimitState(beta=3.0, dim=4)

        def shard_fn(rng, budget):
            ls.fails_batch(rng.standard_normal((budget, 4)))
            return os.getpid()

        with ShardedRunner(workers=2, persistent=True) as runner:
            run_sharded(shard_fn, np.random.default_rng(0), 2, 20, 2, ls, runner=runner)
            pool_first = runner._pool
            run_sharded(shard_fn, np.random.default_rng(1), 2, 20, 2, ls, runner=runner)
            assert runner._pool is pool_first  # no respawn for the same task
        assert runner._pool is None  # context exit closed the pool

    @needs_fork
    def test_task_change_respawns_pool(self):
        with ShardedRunner(workers=2, persistent=True) as runner:
            rngs = spawn_generators(np.random.default_rng(0), 2)
            runner.run_shards(self._pid_task, rngs, [1, 1])
            pool_first = runner._pool

            def other_task(i, rng, budget):
                return ShardResult(index=i, n_evals=0, payload="other")

            out = runner.run_shards(other_task, spawn_generators(np.random.default_rng(0), 2), [1, 1])
            assert runner._pool is not pool_first
            assert [r.payload for r in out] == ["other", "other"]

    @needs_fork
    def test_persistent_results_bit_identical_to_fresh(self):
        def run(runner):
            rngs = spawn_generators(np.random.default_rng(7), 4)
            return [
                r.payload[1]
                for r in runner.run_shards(self._pid_task, rngs, split_budget(40, 4))
            ]

        fresh = run(ShardedRunner(workers=4))
        with ShardedRunner(workers=4, persistent=True) as persistent:
            first = run(persistent)
            second = run(persistent)
        assert fresh == first == second

    @needs_fork
    def test_eval_reconciliation_with_persistent_pool(self):
        ls = LinearLimitState(beta=3.0, dim=4)

        def shard_fn(rng, budget):
            ls.fails_batch(rng.standard_normal((budget, 4)))
            return None

        with ShardedRunner(workers=2, persistent=True) as runner:
            run_sharded(shard_fn, np.random.default_rng(3), 2, 30, 2, ls, runner=runner)
            run_sharded(shard_fn, np.random.default_rng(4), 2, 30, 2, ls, runner=runner)
        assert ls.n_evals == 60

    @needs_fork
    def test_estimator_runs_share_one_pool(self):
        """The 'many small runs' case the ROADMAP names: repeated run()
        calls of one estimator keep one pool and stay bit-identical to
        fresh-pool runs."""
        ls = LinearLimitState(beta=4.0, dim=6)
        with ShardedRunner(workers=2, persistent=True) as runner:
            core = MeanShiftISCore(
                ls, shifts=[4.0 * ls.a], n_max=2048, batch_size=256,
                target_rel_err=None, workers=2, n_shards=4, runner=runner,
            )
            r1 = core.run(np.random.default_rng(21), method="test")
            pool = runner._pool
            r2 = core.run(np.random.default_rng(21), method="test")
            assert runner._pool is pool
        baseline = MeanShiftISCore(
            LinearLimitState(beta=4.0, dim=6),
            shifts=[4.0 * ls.a], n_max=2048, batch_size=256,
            target_rel_err=None, workers=2, n_shards=4,
        ).run(np.random.default_rng(21), method="test")
        assert r1.p_fail == r2.p_fail == baseline.p_fail
        assert r1.std_err == r2.std_err == baseline.std_err

    @needs_fork
    def test_late_fork_still_resolves_registered_task(self):
        """The Pool replaces a recycled/dead worker by forking from the
        parent *later* than the original pool fork; such a child must
        still resolve the task.  The property that makes that work is
        that the registry entry stays registered for the pool's whole
        lifetime (regression: a single published-task slot was cleared
        right after the original fork, so late forks inherited nothing).
        Exercised here by forking a fresh child after the first run and
        invoking the worker entry point with the live pool's key."""
        from repro.engine import sharding

        with ShardedRunner(workers=2, persistent=True) as runner:
            rngs = spawn_generators(np.random.default_rng(0), 2)
            first = runner.run_shards(self._pid_task, rngs, [1, 1])
            key = runner._pool_key
            assert key in sharding._POOL_TASKS

            ctx = __import__("multiprocessing").get_context("fork")
            parent_conn, child_conn = ctx.Pipe()

            def late_child(conn):
                rng = spawn_generators(np.random.default_rng(0), 2)[0]
                res = sharding._invoke_shard((key, 0, rng, 1))
                conn.send(res.payload[1])

            proc = ctx.Process(target=late_child, args=(child_conn,))
            proc.start()
            proc.join(timeout=30)
            assert parent_conn.poll(1)
            assert parent_conn.recv() == first[0].payload[1]

    def test_close_is_idempotent_and_serial_path_unaffected(self):
        runner = ShardedRunner(workers=1, persistent=True)
        rngs = spawn_generators(np.random.default_rng(0), 2)
        out = runner.run_shards(self._pid_task, rngs, [1, 1])
        assert len(out) == 2 and runner._pool is None
        runner.close()
        runner.close()


class TestSpawnPath:
    """Spawn-safe execution: platforms without ``fork`` get a real pool
    for picklable task payloads, and a *loud* in-process fallback (with
    ``last_mode`` recording the truth) for unpicklable ones."""

    @needs_spawn
    def test_spawn_bit_identical_to_in_process(self):
        task = _PicklableTask()
        budgets = split_budget(40, 3)
        serial = ShardedRunner(workers=1).run_shards(
            task, spawn_generators(np.random.default_rng(0), 3), budgets
        )
        spawn_runner = ShardedRunner(workers=3, start_method="spawn")
        pooled = spawn_runner.run_shards(
            task, spawn_generators(np.random.default_rng(0), 3), budgets
        )
        assert spawn_runner.last_mode == "spawn"
        assert [r.payload for r in serial] == [r.payload for r in pooled]
        assert [r.index for r in pooled] == [0, 1, 2]

    @needs_spawn
    def test_spawn_estimator_matches_serial(self):
        """The analytic limit states are picklable (bound-method metrics),
        so a whole estimator stack crosses the spawn pipe and the result
        stays bit-identical to the in-process plan."""
        def run(runner, workers):
            ls = LinearLimitState(beta=4.0, dim=6)
            core = MeanShiftISCore(
                ls, shifts=[4.0 * ls.a], n_max=1024, batch_size=256,
                target_rel_err=None, workers=workers, n_shards=2, runner=runner,
            )
            return core.run(np.random.default_rng(11), method="test"), ls

        assert pickle.dumps(LinearLimitState(beta=4.0, dim=6))
        spawn_runner = ShardedRunner(workers=2, start_method="spawn")
        r_spawn, ls_spawn = run(spawn_runner, workers=2)
        assert spawn_runner.last_mode == "spawn"
        r_serial, ls_serial = run(None, workers=1)
        assert r_spawn.p_fail == r_serial.p_fail
        assert r_spawn.std_err == r_serial.std_err
        # Eval accounting reconciles across the spawn pipe too.
        assert ls_spawn.n_evals == ls_serial.n_evals == r_spawn.n_evals

    @needs_spawn
    def test_unpicklable_task_falls_back_loudly(self):
        captured = []

        def closure_task(i, rng, budget):  # local function: not picklable
            return ShardResult(index=i, n_evals=0, payload=captured.append(i))

        runner = ShardedRunner(workers=2, start_method="spawn")
        rngs = spawn_generators(np.random.default_rng(0), 2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = runner.run_shards(closure_task, rngs, [1, 1])
        assert runner.last_mode == "in-process"
        assert len(out) == 2 and captured == [0, 1]

    @needs_spawn
    def test_persistent_spawn_pool_reused(self):
        task = _PicklableTask()
        with ShardedRunner(workers=2, persistent=True, start_method="spawn") as runner:
            rngs = spawn_generators(np.random.default_rng(1), 2)
            runner.run_shards(task, rngs, [1, 1])
            pool = runner._pool
            runner.run_shards(task, spawn_generators(np.random.default_rng(2), 2), [1, 1])
            assert runner._pool is pool
        assert runner._pool is None

    @needs_spawn
    def test_spawn_task_pickled_once_per_run(self):
        """The picklability probe's bytes are the blob every job ships:
        one serialization per run, however many shards."""
        before = _CountingTask.pickles
        runner = ShardedRunner(workers=2, start_method="spawn")
        out = runner.run_shards(
            _CountingTask(), spawn_generators(np.random.default_rng(7), 4), split_budget(40, 4)
        )
        assert runner.last_mode == "spawn"
        assert _CountingTask.pickles - before == 1
        assert _payloads(out) == _serial_draws()

    @needs_fork
    def test_fork_path_never_pickles_the_task(self):
        """Fork children inherit the task through the registry; only
        shard arguments and results cross the pipe."""
        before = _CountingTask.pickles
        runner = ShardedRunner(workers=2)
        runner.run_shards(
            _CountingTask(), spawn_generators(np.random.default_rng(7), 4), split_budget(40, 4)
        )
        assert runner.last_mode == "fork"
        assert _CountingTask.pickles == before

    def test_invalid_start_method_rejected(self):
        with pytest.raises(EstimationError):
            ShardedRunner(start_method="threads")


class TestCooperativeTopUp:
    """A sharded run that misses the global target with stranded shard
    budget runs one top-up round instead of giving up."""

    # The trigger needs a marginal budget: most shards stop at the
    # sqrt(8)-scaled local target while the stragglers exhaust their
    # slice, so the merge misses the global target with budget stranded.
    # The seeds below are pinned to configurations where that happens
    # (the whole pipeline is deterministic per seed).

    def _make_core(self, workers=1):
        ls = LinearLimitState(beta=4.0, dim=6)
        return ls, MeanShiftISCore(
            ls, shifts=[4.0 * ls.a], n_max=4000, batch_size=64,
            target_rel_err=0.035, workers=workers, n_shards=8,
        )

    def test_topup_consumes_stranded_budget(self):
        ls, core = self._make_core()
        res = core.run(np.random.default_rng(5), method="test")
        assert res.diagnostics["topup_samples"] > 0
        # The stranded budget was spent and bought global convergence.
        assert res.n_evals == 4000
        assert res.converged
        assert res.rel_err <= 0.035

    def test_no_topup_when_untargeted(self):
        ls = LinearLimitState(beta=3.0, dim=4)
        core = MeanShiftISCore(
            ls, shifts=[3.0 * ls.a], n_max=4000, target_rel_err=None, n_shards=4
        )
        res = core.run(np.random.default_rng(1), method="test")
        assert res.diagnostics["topup_samples"] == 0
        assert res.n_evals == 4000

    @needs_fork
    def test_topup_bit_identical_across_workers(self):
        def run(workers):
            _, core = self._make_core(workers=workers)
            return core.run(np.random.default_rng(5), method="test")

        r1, r4 = run(1), run(4)
        assert r1.diagnostics["topup_samples"] == r4.diagnostics["topup_samples"] > 0
        assert (r1.p_fail, r1.std_err, r1.n_evals) == (r4.p_fail, r4.std_err, r4.n_evals)

    def test_mc_topup(self):
        ls = LinearLimitState(beta=2.5, dim=3)
        est = MonteCarloEstimator(
            ls, n_max=16000, batch_size=256, target_rel_err=0.1, n_shards=8
        )
        res = est.run(np.random.default_rng(6))
        assert res.diagnostics["topup_samples"] > 0
        assert res.converged
        assert res.n_evals == 16000
        assert ls.n_evals == res.n_evals


def _core_result(workers, n_shards, sampler="random"):
    ls = LinearLimitState(beta=4.0, dim=6)
    core = MeanShiftISCore(
        ls,
        shifts=[4.0 * ls.a],
        n_max=4096,
        batch_size=256,
        target_rel_err=None,
        sampler=sampler,
        workers=workers,
        n_shards=n_shards,
    )
    res = core.run(np.random.default_rng(123), method="test")
    return res, ls.n_evals


class TestShardedCoreDeterminism:
    @needs_fork
    def test_workers4_bitwise_equals_workers1(self):
        """The ISSUE's acceptance criterion, verbatim."""
        r1, evals1 = _core_result(workers=1, n_shards=4)
        r4, evals4 = _core_result(workers=4, n_shards=4)
        assert r4.p_fail == r1.p_fail
        assert r4.std_err == r1.std_err
        assert r4.ess == r1.ess
        assert r4.n_evals == r1.n_evals
        assert r4.n_failures == r1.n_failures
        assert evals4 == evals1

    @needs_fork
    def test_qmc_sampler_also_deterministic(self):
        r1, _ = _core_result(workers=1, n_shards=2, sampler="qmc")
        r2, _ = _core_result(workers=2, n_shards=2, sampler="qmc")
        assert r2.p_fail == r1.p_fail
        assert r2.std_err == r1.std_err

    def test_sharded_estimate_is_sane(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        core = MeanShiftISCore(
            ls, shifts=[4.0 * ls.a], n_max=8000, target_rel_err=None, n_shards=4
        )
        res = core.run(np.random.default_rng(5), method="test")
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.15)
        assert res.diagnostics["n_shards"] == 4

    def test_sharded_early_stopping_active(self):
        """The sqrt(N)-scaled shard target keeps early stopping alive: an
        easy workload must stop well short of the budget, meeting the
        global target on the merged moments, instead of silently
        exhausting the budget because no shard could reach the global
        target on its 1/N of the samples."""
        ls = LinearLimitState(beta=3.0, dim=4)
        core = MeanShiftISCore(
            ls, shifts=[3.0 * ls.a], n_max=50000, batch_size=256,
            target_rel_err=0.1, n_shards=4,
        )
        res = core.run(np.random.default_rng(9), method="test")
        assert res.converged
        assert res.n_evals < 50000
        assert res.rel_err <= 0.1

    @needs_fork
    def test_early_stopping_bit_identical_across_workers(self):
        def run(workers):
            ls = LinearLimitState(beta=3.0, dim=4)
            core = MeanShiftISCore(
                ls, shifts=[3.0 * ls.a], n_max=50000, batch_size=256,
                target_rel_err=0.1, workers=workers, n_shards=4,
            )
            return core.run(np.random.default_rng(9), method="test")

        r1, r4 = run(1), run(4)
        assert (r1.p_fail, r1.std_err, r1.n_evals) == (r4.p_fail, r4.std_err, r4.n_evals)

    def test_budget_respected_across_shards(self):
        ls = LinearLimitState(beta=3.0, dim=4)
        core = MeanShiftISCore(
            ls, shifts=[3.0 * ls.a], n_max=1000, target_rel_err=None, n_shards=3
        )
        res = core.run(np.random.default_rng(2), method="test")
        assert res.n_evals == 1000
        assert ls.n_evals == 1000


class TestZeroBudgetShards:
    """Zero-budget shards never ship to the pool: an empty job buys no
    samples but costs a pickle round-trip and a worker slot.  The plan —
    and therefore the statistics — is unchanged; skipping is pure
    dispatch economics."""

    @staticmethod
    def _pid_task(i, rng, budget):
        return ShardResult(
            index=i, n_evals=budget,
            payload=(os.getpid(), float(rng.standard_normal())),
        )

    @needs_fork
    def test_empty_shards_run_in_process(self):
        rngs = spawn_generators(np.random.default_rng(0), 4)
        budgets = [3, 0, 2, 0]  # budget < n_shards territory
        runner = ShardedRunner(workers=2)
        out = runner.run_shards(self._pid_task, rngs, budgets)
        parent = os.getpid()
        assert [r.payload[0] == parent for r in out] == [False, True, False, True]

    @needs_fork
    def test_bit_identity_with_empty_shards(self):
        budgets = [2, 0, 1, 0, 0]
        serial = ShardedRunner(workers=1).run_shards(
            self._pid_task, spawn_generators(np.random.default_rng(3), 5), budgets
        )
        pooled = ShardedRunner(workers=2).run_shards(
            self._pid_task, spawn_generators(np.random.default_rng(3), 5), budgets
        )
        assert [r.payload[1] for r in serial] == [r.payload[1] for r in pooled]

    @needs_fork
    def test_skip_empty_false_ships_everything(self):
        """Search-stage tasks pass budgets that are placeholders, not
        sample counts; ``skip_empty=False`` keeps them pooled."""
        rngs = spawn_generators(np.random.default_rng(0), 2)
        runner = ShardedRunner(workers=2)
        out = runner.run_shards(self._pid_task, rngs, [0, 0], skip_empty=False)
        parent = os.getpid()
        assert all(r.payload[0] != parent for r in out)

    def test_all_empty_runs_in_process_without_pool(self):
        rngs = spawn_generators(np.random.default_rng(0), 3)
        runner = ShardedRunner(workers=3)
        out = runner.run_shards(self._pid_task, rngs, [0, 0, 0])
        assert runner.last_mode == "in-process"
        assert runner._pool is None
        assert [r.index for r in out] == [0, 1, 2]


class TestPoolFailureLifecycle:
    """Detection, not recovery: the first shard that raises, loses its
    worker or outlives the timeout ends the run with a typed error, and
    a failed run never hands its (dead, hung or interrupted) pool to the
    next call."""

    @staticmethod
    def _task(i, rng, budget):
        return ShardResult(index=i, n_evals=budget, payload=float(rng.standard_normal()))

    @staticmethod
    def _assert_detected(task, timeout, match, start_method=None):
        """The run fails typed within the deadline plus a few poll ticks,
        leaves no pool and no registry entry, and the same persistent
        runner's next run is bit-identical to ``workers=1``."""
        budgets = split_budget(40, 4)
        with ShardedRunner(
            workers=2, persistent=True, timeout=timeout, start_method=start_method
        ) as runner:
            start = time.monotonic()
            with pytest.raises(ShardExecutionError, match=match) as excinfo:
                runner.run_shards(
                    task, spawn_generators(np.random.default_rng(7), 4), budgets
                )
            assert time.monotonic() - start < timeout + 1.0
            # Shard 1 never finishes, so it or a lower one is named.
            assert excinfo.value.shard_index in (0, 1)
            assert f"shard {excinfo.value.shard_index}" in str(excinfo.value)
            assert runner._pool is None
            assert all(t is not task for t in sharding._POOL_TASKS.values())
            out = runner.run_shards(
                _draw, spawn_generators(np.random.default_rng(7), 4), budgets
            )
            assert _payloads(out) == _serial_draws()

    @needs_fork
    def test_persistent_pool_recovers_after_worker_death(self):
        """A killed worker is caught by the pid watch, long before the
        deadline."""
        self._assert_detected(_FailOn(1, "exit"), timeout=10.0, match="died")

    @needs_fork
    def test_hung_shard_times_out(self):
        self._assert_detected(_FailOn(1, "hang"), timeout=1.0, match="timed out")

    @needs_spawn
    def test_spawn_worker_death_detected(self):
        self._assert_detected(
            _FailOn(1, "exit"), timeout=10.0, match="died", start_method="spawn"
        )

    @needs_spawn
    def test_spawn_hung_shard_times_out(self):
        # A longer deadline than the fork twin: the deadline counts from
        # dispatch, and a fresh spawn pool's workers import the library
        # (~2 s on a loaded 2-vCPU host) before they take a job, so the
        # rerun on the respawned pool needs the headroom too.
        self._assert_detected(
            _FailOn(1, "hang"), timeout=5.0, match="timed out", start_method="spawn"
        )

    @needs_fork
    def test_worker_death_detected_without_a_timeout(self):
        """The pid watch needs no deadline: with ``timeout=None`` a dead
        worker still ends the run instead of leaving it waiting forever
        on the job the pool silently lost."""
        runner = ShardedRunner(workers=2)
        start = time.monotonic()
        with pytest.raises(ShardExecutionError, match="died") as excinfo:
            runner.run_shards(
                _FailOn(1, "exit"), spawn_generators(np.random.default_rng(7), 4),
                split_budget(40, 4),
            )
        assert time.monotonic() - start < 10.0
        assert excinfo.value.shard_index in (0, 1)
        assert runner._pool is None

    @pytest.mark.parametrize(
        "method",
        [pytest.param("fork", marks=needs_fork), pytest.param("spawn", marks=needs_spawn)],
    )
    def test_unreached_timeout_changes_nothing(self, method):
        runner = ShardedRunner(workers=2, start_method=method, timeout=30.0)
        out = runner.run_shards(
            _draw, spawn_generators(np.random.default_rng(7), 4), split_budget(40, 4)
        )
        assert runner.last_mode == method
        assert _payloads(out) == _serial_draws()

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_raising_shard_is_typed(self, workers):
        runner = ShardedRunner(workers=workers)
        rngs = spawn_generators(np.random.default_rng(0), 4)
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run_shards(_FailOn(1, "raise"), rngs, split_budget(40, 4))
        assert excinfo.value.shard_index == 1
        assert isinstance(excinfo.value.cause, ValueError)
        assert runner._pool is None

    @pytest.mark.parametrize("shard", [0, 3])
    @pytest.mark.parametrize(
        "workers, method",
        [
            (1, None),
            pytest.param(2, "fork", marks=needs_fork),
            pytest.param(2, "spawn", marks=needs_spawn),
        ],
        ids=["in-process", "fork", "spawn"],
    )
    def test_failing_shard_is_named(self, workers, method, shard):
        """Whichever shard raises — the first dispatched or the last —
        the error names exactly that shard, on every execution path."""
        runner = ShardedRunner(workers=workers, start_method=method)
        rngs = spawn_generators(np.random.default_rng(0), 4)
        with pytest.raises(
            ShardExecutionError, match=f"shard {shard} failed: ValueError"
        ) as excinfo:
            runner.run_shards(_FailOn(shard, "raise"), rngs, split_budget(40, 4))
        assert excinfo.value.shard_index == shard
        assert isinstance(excinfo.value.cause, ValueError)
        assert runner.last_mode == (method or "in-process")

    def test_in_process_run_stops_at_the_failing_shard(self):
        ran = []

        def task(i, rng, budget):
            ran.append(i)
            return _FailOn(1, "raise")(i, rng, budget)

        with pytest.raises(ShardExecutionError):
            ShardedRunner(workers=1).run_shards(
                task, spawn_generators(np.random.default_rng(0), 4), split_budget(40, 4)
            )
        assert ran == [0, 1]

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_typed_cause_keeps_its_fields(self, workers):
        """A library error raised in a worker crosses the result pipe with
        its fields, so a caller can tell a stalled Newton solve from a
        bug."""
        cause = ConvergenceError("newton stalled", iterations=7, residual=0.5)
        with pytest.raises(
            ShardExecutionError, match="shard 2 failed: ConvergenceError: newton stalled"
        ) as excinfo:
            ShardedRunner(workers=workers).run_shards(
                _FailOn(2, "raise", cause),
                spawn_generators(np.random.default_rng(0), 4),
                split_budget(40, 4),
            )
        got = excinfo.value.cause
        assert type(got) is ConvergenceError
        assert (got.iterations, got.residual) == (7, 0.5)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_non_finite_log_weight_fails_its_shard(self, workers):
        """The accumulator's NaN refusal is the only NaN guard: inside a
        shard it ends the run naming that shard, never a poisoned merge."""
        with pytest.raises(ShardExecutionError, match="non-finite") as excinfo:
            ShardedRunner(workers=workers).run_shards(
                _accumulate_nan_on_shard_2,
                spawn_generators(np.random.default_rng(0), 4),
                split_budget(40, 4),
            )
        assert excinfo.value.shard_index == 2
        assert type(excinfo.value.cause) is EstimationError

    @needs_fork
    def test_failed_run_credits_no_pooled_evals(self):
        """A failed pooled run leaves the parent's eval count untouched,
        so running the estimate again reconciles to exactly the count of
        a run that never failed."""
        ls = LinearLimitState(beta=3.0, dim=4)
        broken = [True]

        def task(i, rng, budget):
            before = ls.n_evals
            ls.fails_batch(rng.standard_normal((budget, 4)))
            if i == 3 and broken[0]:
                raise ValueError("shard 3 is broken")
            return ShardResult(index=i, n_evals=ls.n_evals - before, payload=None)

        with ShardedRunner(workers=2, persistent=True) as runner:
            with pytest.raises(ShardExecutionError):
                runner.run_shards(
                    task, spawn_generators(np.random.default_rng(1), 4), [10] * 4,
                    limit_state=ls,
                )
            assert ls.n_evals == 0
            broken[0] = False  # the respawned pool forks the fixed task
            runner.run_shards(
                task, spawn_generators(np.random.default_rng(1), 4), [10] * 4,
                limit_state=ls,
            )
            assert runner.last_mode == "fork"
        assert ls.n_evals == 40

    def test_in_process_timeout_warns_once(self):
        runner = ShardedRunner(workers=1, timeout=5.0)
        budgets = split_budget(40, 4)
        with pytest.warns(RuntimeWarning, match="only enforced for pooled"):
            runner.run_shards(_draw, spawn_generators(np.random.default_rng(0), 4), budgets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner.run_shards(_draw, spawn_generators(np.random.default_rng(1), 4), budgets)

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(EstimationError):
            ShardedRunner(workers=2, timeout=timeout)

    @needs_fork
    def test_keyboard_interrupt_cleans_pool_and_registry(self):
        from repro.engine import sharding

        runner = ShardedRunner(workers=2, persistent=True)

        def interrupt(inflight):
            raise KeyboardInterrupt

        runner._wait_tick = interrupt
        rngs = spawn_generators(np.random.default_rng(0), 4)
        with pytest.raises(KeyboardInterrupt):
            runner.run_shards(self._task, rngs, split_budget(40, 4))
        assert runner._pool is None
        assert runner._pool_key is None
        # No orphaned task snapshot left in the module registry.
        assert all(
            task is not self._task for task in sharding._POOL_TASKS.values()
        )

    @needs_fork
    def test_unpicklable_result_payload_is_readable_typed_error(self):
        """A payload that cannot cross the result pipe surfaces as a
        typed ShardExecutionError naming the shard — not a hang or a
        bare MaybeEncodingError from pool internals."""
        from repro.errors import ShardExecutionError

        def bad_payload_task(i, rng, budget):
            return ShardResult(index=i, n_evals=0, payload=lambda: None)

        runner = ShardedRunner(workers=2)
        rngs = spawn_generators(np.random.default_rng(0), 2)
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run_shards(bad_payload_task, rngs, [1, 1])
        assert excinfo.value.shard_index in (0, 1)
        assert runner._pool is None


class TestShardedMonteCarlo:
    @needs_fork
    def test_workers_bit_identical(self):
        def run(workers):
            ls = LinearLimitState(beta=2.0, dim=3)
            est = MonteCarloEstimator(
                ls, n_max=20000, batch_size=2048, target_rel_err=None,
                workers=workers, n_shards=4,
            )
            return est.run(np.random.default_rng(11)), ls.n_evals

        r1, e1 = run(1)
        r4, e4 = run(4)
        assert r4.p_fail == r1.p_fail
        assert r4.std_err == r1.std_err
        assert r4.n_evals == r1.n_evals == e1 == e4
        assert r4.n_failures == r1.n_failures

    def test_sharded_mc_accuracy(self):
        ls = LinearLimitState(beta=2.0, dim=3)
        est = MonteCarloEstimator(ls, n_max=40000, target_rel_err=None, n_shards=4)
        res = est.run(np.random.default_rng(3))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.1)


class TestShardedSss:
    @needs_fork
    def test_workers_bit_identical(self):
        def run(workers):
            ls = LinearLimitState(beta=3.0, dim=4)
            est = ScaledSigmaSampling(
                ls, n_per_scale=1500, n_bootstrap=50, workers=workers, n_shards=4
            )
            return est.run(np.random.default_rng(17)), ls.n_evals

        r1, e1 = run(1)
        r4, e4 = run(4)
        assert r4.p_fail == r1.p_fail
        assert r4.std_err == r1.std_err
        assert r4.n_evals == r1.n_evals == e1 == e4
        assert r4.diagnostics["counts"] == r1.diagnostics["counts"]
