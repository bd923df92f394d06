"""Deterministic budget sharding over worker processes.

The contract, in one sentence: a *shard plan* (how the sampling budget
splits and which RNG stream each shard gets) fully determines the
statistics, and ``workers`` only decides how many OS processes execute
the plan — so the same plan run with ``workers=1`` and ``workers=8`` is
bit-identical.

Mechanics:

* per-shard RNG streams come from ``np.random.SeedSequence.spawn`` (via
  :func:`spawn_generators`), so they are reproducible, independent, and
  do not depend on the worker count;
* the budget splits with :func:`split_budget` (largest shards first, a
  fixed deterministic rule);
* :class:`ShardedRunner` executes shard tasks in-process (``workers=1``),
  on a fork-based process pool, or — on platforms without ``fork`` — on a
  ``spawn`` pool.  Fork matters: limit states built around closures over
  vectorised simulators are not picklable, but a forked child inherits
  them — only the *results* (plain dataclasses of floats) cross process
  boundaries.  The spawn path instead *ships the task itself* through the
  pickle pipe (one copy per shard job), so it requires a picklable task
  payload — the analytic limit states qualify, closure-built simulator
  stacks do not; an unpicklable task on a spawn-only platform falls back
  to in-process execution with an explicit ``RuntimeWarning`` instead of
  silently (``last_mode`` records what actually ran).  With
  ``persistent=True`` the runner keeps the fork pool alive across
  ``run_shards`` calls that execute an *equivalent* task (same shard
  function, same limit state), amortising the fork cost over many small
  runs; a different task transparently respawns the pool, because forked
  children can only ever run the task snapshot they inherited (a
  persistent spawn pool is reused unconditionally — its tasks travel with
  every job);
* each task reports the limit-state evaluations its shard consumed, and
  the runner credits them back to the parent's
  :attr:`~repro.highsigma.limitstate.LimitState.n_evals` after a pooled
  run, so eval accounting reconciles exactly across processes (the
  in-process path already counted them on the parent object).

Failures are detected, never recovered.  A pooled run dispatches each
shard once (``apply_async`` per shard, not one blocking ``map``), so the
runner can watch every job in flight: a raised exception, a dead worker
or a job still running past ``timeout`` ends the run with a typed
:class:`~repro.errors.ShardExecutionError` naming the shard.  Worker
death is detected by pid snapshots (``multiprocessing.Pool`` replaces
dead workers but silently loses their in-flight jobs); a hung worker
cannot be cancelled through the Pool API.  Either way the failed run
closes its pool, and a persistent runner respawns one on its next call.
A shard is a pure function of its ``(index, stream, budget)``, so
re-running it would redo identical work; a caller that wants another
try runs the estimate again.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import EstimationError, ShardExecutionError

__all__ = [
    "ShardResult",
    "ShardedRunner",
    "fork_available",
    "resolve_shards",
    "run_sharded",
    "scale_shard_target",
    "spawn_available",
    "spawn_generators",
    "split_budget",
]


def resolve_shards(n_shards: Optional[int], workers: int) -> int:
    """The shard plan an estimator runs: explicit ``n_shards``, else one
    shard per worker (so the default single-worker run keeps the classic
    single-stream RNG consumption)."""
    return n_shards if n_shards is not None else workers


def scale_shard_target(target_rel_err: Optional[float], n_shards: int) -> Optional[float]:
    """Shard-local relative-error stop for a global target.

    Each shard holds 1/N of the samples, so a shard-level relative error
    of ``t * sqrt(N)`` merges to ≈``t`` overall; without the scaling no
    shard could meet the global target on its fraction of the budget and
    sharding would silently disable early stopping.

    The shard-local stop is a heuristic: shards stop independently, so a
    run can come back ``converged=False`` with some shard budget unspent
    when the merged error misses the global target by a hair.  The
    convergence flag stays honest (it is recomputed from the merged
    moments); rerun with a larger budget or fewer shards if that case
    matters.
    """
    if target_rel_err is None:
        return None
    return float(target_rel_err) * float(np.sqrt(n_shards))


def split_budget(total: int, n_shards: int) -> List[int]:
    """Split ``total`` into ``n_shards`` near-equal deterministic parts.

    The remainder goes to the lowest-index shards, so the split depends
    only on ``(total, n_shards)``.
    """
    total = int(total)
    n_shards = int(n_shards)
    if n_shards < 1:
        raise EstimationError(f"n_shards must be >= 1, got {n_shards}")
    if total < 0:
        raise EstimationError(f"budget must be >= 0, got {total}")
    base, rem = divmod(total, n_shards)
    return [base + (1 if i < rem else 0) for i in range(n_shards)]


def spawn_generators(
    rng: np.random.Generator, n: int
) -> List[np.random.Generator]:
    """``n`` independent child generators via SeedSequence spawning.

    Children depend only on the parent's seed material and the spawn
    count — not on how much of the parent stream was consumed after
    seeding, and not on how many workers will run them.
    """
    return list(rng.spawn(int(n)))


@dataclass
class ShardResult:
    """What one shard task hands back to the parent.

    ``n_evals`` is the number of limit-state evaluations the shard
    consumed (measured inside the shard against its own copy of the
    limit state); ``payload`` is estimator-specific (an accumulator,
    per-scale counts, ...).
    """

    index: int
    n_evals: int
    payload: Any
    diagnostics: dict = field(default_factory=dict)


# Fork-pool plumbing: the task closure (typically capturing a limit
# state full of unpicklable simulator closures) is published into a
# keyed module-level registry *before* the pool forks, so children
# inherit it by memory copy and nothing but plain shard arguments and
# ShardResults ever crosses a pipe.  The registry (rather than a single
# slot) matters for robustness: if the Pool's maintenance thread has to
# fork a replacement worker later — e.g. after a worker is killed — the
# replacement inherits the registry *as it is then*, and a persistent
# pool's entry is still registered (it is only removed at close), so the
# replacement can still resolve its task by key.  The lock serialises
# registry mutation + fork so a concurrent thread cannot fork children
# mid-update.
_POOL_TASKS: Dict[int, Callable[..., ShardResult]] = {}
_POOL_LOCK = threading.Lock()
_POOL_KEYS = itertools.count()
# Set (via the Pool initializer) in every worker, including replacements
# forked mid-lifetime: the flag a shard task uses to detect that it is
# already inside a pool worker and must run nested plans in-process.
_IN_POOL_WORKER = False


def _mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def _invoke_shard(args) -> ShardResult:
    key, index, rng, budget = args
    return _POOL_TASKS[key](index, rng, int(budget))


# Per-worker memo of the last unpickled spawn task, keyed on the job
# blob's content digest.  Task deserialization is no longer free: a task
# carrying compiled transient plans pays the plan admission audit
# (``assert_plan_clean`` inside ``CompiledTransient.__setstate__``) on
# every load.  The fork path already reuses one task object per worker
# for the pool's lifetime, and ``_MeasuredShardTask`` bills evals as a
# per-call delta, so reusing the first unpickle of a bit-identical blob
# keeps the two pool flavours semantically aligned while paying the
# audit once per worker instead of once per shard job.  Only the most
# recent blob is kept: a pool serving a new run ships a new digest.
_SPAWN_TASK_MEMO: Dict[str, Any] = {}


def _invoke_spawned_shard(args) -> ShardResult:
    # Spawn-path worker entry: the task itself arrived through the pickle
    # pipe as part of the job (pre-serialized by the parent *before* it
    # created the pool — a task reaching back to its runner must never
    # see a live pool object mid-pickle), so there is no registry to
    # consult.
    blob, index, rng, budget = args
    digest = hashlib.sha256(blob).hexdigest()
    task = _SPAWN_TASK_MEMO.get(digest)
    if task is None:
        task = pickle.loads(blob)
        _SPAWN_TASK_MEMO.clear()
        _SPAWN_TASK_MEMO[digest] = task
    return task(index, rng, int(budget))


def _shard_error(index: int, exc: BaseException) -> ShardExecutionError:
    return ShardExecutionError(
        f"shard {index} failed: {type(exc).__name__}: {exc}",
        shard_index=index,
        cause=exc,
    )


def fork_available() -> bool:
    """Whether fork-based pooling is supported on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def spawn_available() -> bool:
    """Whether spawn-based pooling is supported on this platform."""
    return "spawn" in multiprocessing.get_all_start_methods()


class _MeasuredShardTask:
    """Stable, comparable wrapper: run a shard function, bill its evals.

    Two wrappers are *equivalent* (``==``) when they hold the same shard
    function (bound-method equality: same object, same function) and the
    very same limit-state object — the condition under which a persistent
    pool's forked snapshot computes the same thing as the fresh wrapper,
    so the pool may be reused without a respawn.
    """

    __slots__ = ("shard_fn", "limit_state")

    def __init__(self, shard_fn: Callable[[np.random.Generator, int], Any], limit_state):
        self.shard_fn = shard_fn
        self.limit_state = limit_state

    def __call__(self, i: int, rng: np.random.Generator, budget: int) -> ShardResult:
        before = 0 if self.limit_state is None else self.limit_state.n_evals
        payload = self.shard_fn(rng, budget)
        after = 0 if self.limit_state is None else self.limit_state.n_evals
        return ShardResult(index=i, n_evals=after - before, payload=payload)

    def __eq__(self, other):
        return (
            type(other) is _MeasuredShardTask
            and self.shard_fn == other.shard_fn
            and self.limit_state is other.limit_state
        )

    __hash__ = None  # identity/equality only; never used as a dict key


class ShardedRunner:
    """Execute shard tasks serially or on a process pool, results in order.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs every shard in the calling process —
        same computation, same results, no pool overhead.
    persistent:
        Keep the pool alive across ``run_shards`` calls.  A fork pool is
        (re)forked whenever the submitted task is not equivalent to the
        one the live pool inherited — fork children can only run their
        inherited snapshot; a spawn pool is reused unconditionally (its
        task travels with every job).  Persistence is a pure speed knob:
        results are identical either way.  Callers own the lifecycle:
        use the runner as a context manager or call :meth:`close`.
        Mutating the task's captured state (estimator configuration,
        limit-state ``fn``) between runs of an equivalent task is not
        supported while a fork pool is live — ``close()`` first.
        A run that fails always closes the pool (dead or hung workers
        must never be reused); the next call respawns transparently.
    start_method:
        ``None`` (default) picks ``fork`` when available, else ``spawn``;
        or force ``"fork"`` / ``"spawn"`` explicitly (forcing an
        unavailable method raises).  The spawn path ships the task
        through the pickle pipe, so it needs a picklable task; an
        unpicklable task falls back to in-process execution with a
        ``RuntimeWarning`` — loud, never silent.
    timeout:
        Seconds a pooled shard job may run before the run ends with a
        :class:`~repro.errors.ShardExecutionError` (``None``: no
        deadline).  Pooled execution only — an in-process shard cannot
        be interrupted, so setting it there warns once.  No fixed
        default is safe: a shard's wall time scales with its budget.

    After every :meth:`run_shards` call, :attr:`last_mode` records which
    execution path actually ran (``"in-process"``, ``"fork"`` or
    ``"spawn"``).
    """

    def __init__(
        self,
        workers: int = 1,
        persistent: bool = False,
        start_method: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        if start_method not in (None, "fork", "spawn"):
            raise EstimationError(
                f"start_method must be None, 'fork' or 'spawn', got {start_method!r}"
            )
        if timeout is not None and not float(timeout) > 0:
            raise EstimationError(f"timeout must be positive, got {timeout}")
        self.workers = max(1, int(workers))
        self.persistent = bool(persistent)
        self.start_method = start_method
        self.timeout = None if timeout is None else float(timeout)
        self.last_mode: Optional[str] = None
        self._poll_s = 0.02
        self._warned_local_timeout = False
        self._pool = None
        self._pool_method: Optional[str] = None
        self._pool_task = None
        self._pool_key: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Terminate the live pool (no-op when none is live)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_method = None
            self._pool_task = None
            with _POOL_LOCK:
                _POOL_TASKS.pop(self._pool_key, None)
            self._pool_key = None

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- pool plumbing -------------------------------------------------

    def _fork_pool(self, task, n_jobs: int):
        """Register ``task`` and fork a pool that inherits the registry.

        Returns ``(pool, key)``; the caller owns deregistration (at
        :meth:`close` — keeping the entry alive is what lets the Pool
        fork working replacement workers mid-lifetime).
        """
        key = next(_POOL_KEYS)
        with _POOL_LOCK:
            _POOL_TASKS[key] = task
            try:
                ctx = multiprocessing.get_context("fork")
                pool = ctx.Pool(
                    processes=min(self.workers, n_jobs),
                    initializer=_mark_pool_worker,
                )
            except BaseException:
                _POOL_TASKS.pop(key, None)
                raise
        return pool, key

    def _ensure_pool(self, method: str, task, n_jobs: int) -> None:
        """A live pool of ``method`` able to run ``task`` (reuse or spawn)."""
        if self._pool is not None:
            same_task = task is self._pool_task or task == self._pool_task
            if self._pool_method == method and (method == "spawn" or same_task):
                return
            self.close()
        if method == "fork":
            self._pool, self._pool_key = self._fork_pool(task, n_jobs)
        else:
            ctx = multiprocessing.get_context("spawn")
            self._pool = ctx.Pool(
                processes=min(self.workers, n_jobs),
                initializer=_mark_pool_worker,
            )
        self._pool_method = method
        self._pool_task = task

    def _worker_pids(self) -> Set[int]:
        pool = self._pool
        if pool is None:
            return set()
        return {p.pid for p in list(getattr(pool, "_pool", [])) if p.is_alive()}

    def _wait_tick(self, inflight: Dict[int, Any]) -> None:
        """One scheduler pause: block briefly on some in-flight result.

        Isolated as a seam so tests can inject ``KeyboardInterrupt``
        mid-run and pin the cleanup behavior.
        """
        next(iter(inflight.values())).wait(self._poll_s)

    # -- execution -----------------------------------------------------

    def run_shards(
        self,
        task: Callable[[int, np.random.Generator, int], ShardResult],
        rngs: Sequence[np.random.Generator],
        budgets: Sequence[int],
        limit_state=None,
        skip_empty: bool = True,
    ) -> List[ShardResult]:
        """Run ``task(i, rngs[i], budgets[i])`` for every shard.

        Results come back ordered by shard index regardless of execution
        order.  When shards ran in pool workers and ``limit_state`` is
        given, their evaluation counts are added to
        ``limit_state.n_evals``; shards executed in-process bill it
        directly while running — either way the final count reconciles
        exactly with a ``workers=1`` run.

        The first failing shard ends the run with a
        :class:`~repro.errors.ShardExecutionError` naming it.
        ``skip_empty=True`` (default) runs zero-budget shards in the
        calling process instead of shipping empty jobs to the pool; pass
        ``False`` for tasks whose budget argument is not a sample count
        (e.g. search stages).
        """
        if len(rngs) != len(budgets):
            raise EstimationError("one RNG stream per shard budget is required")
        budgets = [int(b) for b in budgets]
        n = len(rngs)
        if skip_empty:
            local = [i for i in range(n) if budgets[i] == 0]
            pooled_idx = [i for i in range(n) if budgets[i] > 0]
        else:
            local, pooled_idx = [], list(range(n))

        method, blob = self._resolve_method(len(pooled_idx), task)
        if method is None:
            local, pooled_idx = list(range(n)), []
        self.last_mode = method if method is not None else "in-process"

        if method is None and self.timeout is not None and not self._warned_local_timeout:
            warnings.warn(
                "ShardedRunner: shard timeouts are only enforced for pooled "
                "execution; running in-process without timeout enforcement",
                RuntimeWarning,
                stacklevel=2,
            )
            self._warned_local_timeout = True

        results: Dict[int, ShardResult] = {}
        try:
            for i in local:
                try:
                    results[i] = task(i, rngs[i], budgets[i])
                except Exception as exc:
                    raise _shard_error(i, exc) from exc
            if pooled_idx:
                results.update(self._run_pooled(method, task, blob, pooled_idx, rngs, budgets))
        except BaseException:
            # A failed run can leave dead or hung workers (and their
            # registry entry) behind; never hand the next call a broken
            # pool — close now, respawn on demand.
            self.close()
            raise
        if not self.persistent:
            self.close()

        if limit_state is not None:
            # Locally-executed shards billed the parent's limit state
            # while running; pooled shards consumed their evals in a
            # worker process and are credited here.
            limit_state.n_evals += sum(results[i].n_evals for i in pooled_idx)
        return [results[i] for i in range(n)]

    def _resolve_method(self, n_jobs: int, task) -> Tuple[Optional[str], Optional[bytes]]:
        """Pick the execution path for this call: ``(None, None)`` runs
        in-process; a spawn pool also gets the task's pickled bytes, the
        one serialization its jobs ship."""
        if self.workers == 1 or n_jobs <= 1 or _IN_POOL_WORKER:
            # Nested sharding (a shard trying to shard again) would fork
            # from inside a pool worker; run inner plans in-process.
            return None, None
        method = self.start_method
        if method is None:
            if fork_available():
                method = "fork"
            elif spawn_available():
                method = "spawn"
            else:
                return None, None
        elif method == "fork" and not fork_available():
            raise EstimationError("start_method='fork' is unavailable on this platform")
        elif method == "spawn" and not spawn_available():
            raise EstimationError("start_method='spawn' is unavailable on this platform")
        if method == "fork":
            return method, None
        # Pickled *before* the pool exists: a task holding a reference
        # back to this runner would otherwise reach the live (unpicklable)
        # pool object.
        try:
            return method, pickle.dumps(task)
        except Exception as exc:
            warnings.warn(
                "ShardedRunner: task is not picklable "
                f"({type(exc).__name__}: {exc}); running "
                f"{n_jobs} shards in-process instead of on a spawn pool",
                RuntimeWarning,
                stacklevel=3,
            )
            return None, None

    def _run_pooled(
        self,
        method: str,
        task,
        blob: Optional[bytes],
        indices: List[int],
        rngs: Sequence[np.random.Generator],
        budgets: List[int],
    ) -> Dict[int, ShardResult]:
        """Dispatch each shard once and collect the results.

        Every shard is its own ``apply_async`` job, so the loop can watch
        each one: a job that raised, a worker that died (its pid left the
        pool — ``multiprocessing.Pool`` replaces a dead worker but
        silently loses its in-flight job) or a job unfinished at the
        deadline raises :class:`~repro.errors.ShardExecutionError` for
        the lowest such shard index.
        """
        self._ensure_pool(method, task, len(indices))
        # Snapshot before dispatch: a worker that dies on its first job
        # must already be in the set whose shrinking reveals the death.
        pids = self._worker_pids()
        inflight: Dict[int, Any] = {}
        for i in indices:
            if method == "fork":
                job = (_invoke_shard, ((self._pool_key, i, rngs[i], budgets[i]),))
            else:
                job = (_invoke_spawned_shard, ((blob, i, rngs[i], budgets[i]),))
            inflight[i] = self._pool.apply_async(*job)
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        done: Dict[int, ShardResult] = {}
        while inflight:
            self._wait_tick(inflight)
            for i in [i for i, ar in inflight.items() if ar.ready()]:
                try:
                    done[i] = inflight.pop(i).get()
                except Exception as exc:
                    raise _shard_error(i, exc) from exc
            if not inflight:
                break
            first = min(inflight)
            dead = pids - self._worker_pids()
            if dead:
                reason = f"worker process died (pids {sorted(dead)}) with shard {first} in flight"
            elif deadline is not None and time.monotonic() >= deadline:
                reason = f"shard {first} timed out after {self.timeout:.3g}s"
            else:
                continue
            raise _shard_error(first, EstimationError(reason))
        return done


def run_sharded(
    shard_fn: Callable[[np.random.Generator, int], Any],
    rng: np.random.Generator,
    n_shards: int,
    budget: int,
    workers: int,
    limit_state,
    runner: Optional[ShardedRunner] = None,
) -> List[Any]:
    """Run ``shard_fn(shard_rng, shard_budget) -> payload`` over a plan.

    The one dispatch pattern every estimator shares: spawn per-shard RNG
    streams, split the budget, measure each shard's limit-state evals
    against its own process copy, execute via :class:`ShardedRunner`,
    and hand back the payloads in shard order (eval counts already
    reconciled into ``limit_state``).

    ``runner`` lets the caller supply a long-lived (possibly persistent)
    :class:`ShardedRunner`, whose ``timeout`` then applies to every
    estimator round dispatched through it.  Pass a *stable* ``shard_fn``
    (a bound method, not a fresh lambda) so the persistent pool
    recognises repeat runs of the same task and skips the respawn.
    """
    rngs = spawn_generators(rng, n_shards)
    budgets = split_budget(budget, n_shards)
    task = _MeasuredShardTask(shard_fn, limit_state)
    if runner is None:
        runner = ShardedRunner(workers)
    results = runner.run_shards(task, rngs, budgets, limit_state=limit_state)
    return [r.payload for r in results]
