"""Sharded parallel estimation engine.

Two orthogonal pieces every sampler in :mod:`repro.highsigma` builds on:

* :class:`~repro.engine.accumulator.StreamingAccumulator` — constant-size
  running moments of an importance-sampling run (log-sum-exp of the
  failure weights and their squares, sample and failure counts), so a
  batched sampling loop does O(batch) work per batch instead of
  re-concatenating and re-reducing its whole history each time.
* :class:`~repro.engine.sharding.ShardedRunner` — splits a sampling
  budget into deterministic shards (per-shard RNG streams spawned from
  one ``np.random.SeedSequence``), optionally fans the shards out over
  worker processes, and merges the shard accumulators **exactly** in
  shard order.  The merge is pure arithmetic on the accumulator moments,
  so a run with ``workers=4`` is bit-identical to the same shard plan
  executed serially — parallelism is a speed layer, never a statistics
  change.

Shard-count vs worker-count: the *shard plan* (``n_shards``) determines
the random streams and therefore the estimate; ``workers`` only decides
how many OS processes execute the plan.  Pin ``n_shards`` when comparing
runs across machines with different core counts.

The static side of the determinism contract lives in
:mod:`repro.engine.audit`: :func:`~repro.engine.audit.audit_shard_plan`
proves a shard plan's streams disjoint and its budgets the canonical
split (the ``D0xx`` codes) before anything runs.

Failures are detected, not recovered: the first shard that raises, loses
its worker or outlives ``ShardedRunner(timeout=...)`` ends the run with
a typed :class:`~repro.errors.ShardExecutionError`, and the run closes
its pool.
"""

from repro.engine.accumulator import StreamingAccumulator
from repro.engine.audit import (
    assert_shard_plan_clean,
    audit_runner_merge,
    audit_shard_plan,
)
from repro.engine.sharding import (
    ShardedRunner,
    ShardResult,
    spawn_generators,
    split_budget,
)

__all__ = [
    "StreamingAccumulator",
    "ShardedRunner",
    "ShardResult",
    "spawn_generators",
    "split_budget",
    "audit_shard_plan",
    "audit_runner_merge",
    "assert_shard_plan_clean",
]
