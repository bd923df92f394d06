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

Fault tolerance rides on the same contract.  Shard jobs are dispatched
*individually* (``apply_async`` per shard, not one blocking ``map``), so
the runner can watch each in-flight attempt: a raised exception, a dead
worker, or a timed-out attempt triggers a re-dispatch of the identical
``(index, stream, budget)`` job under a :class:`RetryPolicy` — and
because shard execution is a pure function of that triple, a retried run
merges **bit-identical** to a fault-free one (``tests/engine/test_chaos.py``
pins this with injected faults).  Worker death is detected by pid
snapshots (``multiprocessing.Pool`` replaces dead workers but silently
loses their in-flight jobs); hung workers cannot be cancelled through
the Pool API, so a timeout recycles the whole pool.  Completed shards
can be journaled incrementally (:class:`repro.engine.journal.RunJournal`)
and replayed on resume after an audit.  Failures surface as typed
:class:`~repro.errors.ShardExecutionError`, and every run leaves a
diagnostics dict (:attr:`ShardedRunner.last_diagnostics`) recording
retries, timeouts, worker replacements and per-attempt wall clock.
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import EstimationError, ShardExecutionError

__all__ = [
    "RetryPolicy",
    "ShardResult",
    "ShardedRunner",
    "current_attempt",
    "fork_available",
    "in_pool_worker",
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


@dataclass(frozen=True)
class RetryPolicy:
    """How :class:`ShardedRunner` reacts when a shard attempt fails.

    ``max_attempts`` bounds the total executions of one shard (``1``
    disables retries).  ``timeout`` (seconds, pooled execution only)
    declares an in-flight attempt lost and recycles the pool — a hung
    worker cannot be cancelled through the Pool API, so the whole pool is
    torn down and respawned.  ``backoff`` sleeps
    ``backoff * 2**(failures-1)`` seconds before a re-dispatch.
    ``validate`` inspects a completed :class:`ShardResult` and returns a
    rejection reason (or ``None`` to accept); a rejected payload counts
    as a failed attempt — the hook that turns silently-corrupt results
    (NaN payloads) into retries.

    Retries preserve determinism by construction: a re-dispatched shard
    re-runs the identical ``(index, stream, budget)`` job, so a run with
    retries merges bit-identical to a fault-free run of the same plan.
    """

    max_attempts: int = 1
    timeout: Optional[float] = None
    backoff: float = 0.0
    validate: Optional[Callable[[ShardResult], Optional[str]]] = None

    def __post_init__(self) -> None:
        if int(self.max_attempts) < 1:
            raise EstimationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and not float(self.timeout) > 0:
            raise EstimationError(f"timeout must be positive, got {self.timeout}")
        if float(self.backoff) < 0:
            raise EstimationError(f"backoff must be >= 0, got {self.backoff}")

    def delay(self, failures: int) -> float:
        """Seconds to wait before the dispatch following ``failures``."""
        if self.backoff <= 0 or failures < 1:
            return 0.0
        return float(self.backoff) * (2.0 ** (failures - 1))


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
# Which execution attempt (0-based) of its shard the currently-running
# task belongs to — set around every task invocation (worker or
# in-process) so deterministic fault injection can key on it.
_CURRENT_ATTEMPT = 0


def _mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def in_pool_worker() -> bool:
    """Whether this process is a ShardedRunner pool worker."""
    return _IN_POOL_WORKER


def current_attempt() -> int:
    """The 0-based attempt number of the shard task currently running."""
    return _CURRENT_ATTEMPT


def _run_attempt(task, index: int, rng, budget: int, attempt: int) -> ShardResult:
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = int(attempt)
    try:
        return task(index, rng, int(budget))
    finally:
        _CURRENT_ATTEMPT = 0


def _invoke_shard(args) -> ShardResult:
    # Older journals/jobs carry 4-tuples; the attempt number is optional.
    key, index, rng, budget, *rest = args
    return _run_attempt(_POOL_TASKS[key], index, rng, budget, rest[0] if rest else 0)


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
    task, index, rng, budget, *rest = args
    if isinstance(task, bytes):
        digest = hashlib.sha256(task).hexdigest()
        memo = _SPAWN_TASK_MEMO.get(digest)
        if memo is None:
            memo = pickle.loads(task)
            _SPAWN_TASK_MEMO.clear()
            _SPAWN_TASK_MEMO[digest] = memo
        task = memo
    return _run_attempt(task, index, rng, budget, rest[0] if rest else 0)


def _clone_generator(rng):
    """A state-identical copy of ``rng`` for one execution attempt.

    Pool dispatch gets this for free (the parent-side generator is
    pickled into every job, so a failed attempt dies with its worker's
    copy); the in-process path must clone explicitly, or a failed
    attempt would advance the plan's stream and the retry would draw
    different samples than the fault-free run.
    """
    try:
        return pickle.loads(pickle.dumps(rng))
    except Exception:
        return rng


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


# Counters rolled up from per-run diagnostics into the runner-lifetime
# ``fault_stats`` total.
_FAULT_COUNTERS = (
    "retries",
    "timeouts",
    "worker_deaths",
    "worker_replacements",
    "pool_recycles",
    "replayed",
    "skipped_empty",
)


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
    retry:
        A :class:`RetryPolicy`; ``None`` means one attempt, no timeout.
    journal:
        A :class:`repro.engine.journal.RunJournal`.  Completed shards
        are recorded incrementally; on a resume journal, already-recorded
        shards of the identical plan are replayed instead of re-executed
        (the plan passes ``assert_shard_plan_clean`` plus the journal's
        own D005–D007 audit before any replay).
    chaos:
        A sequence of :class:`repro.engine.chaos.FaultSpec` — the
        deterministic fault-injection harness.  Faults are keyed by
        ``(shard, attempt)``, so a faulted run with retries must merge
        bit-identical to a fault-free run.  Test/benchmark machinery;
        never set in production paths.

    After every :meth:`run_shards` call, :attr:`last_mode` records which
    execution path actually ran (``"in-process"``, ``"fork"`` or
    ``"spawn"``) and :attr:`last_diagnostics` the run's fault-tolerance
    diagnostics (retries, timeouts, worker deaths/replacements, pool
    recycles, journal replays, per-shard attempt wall clock).
    :attr:`fault_stats` accumulates the counters over the runner's
    lifetime.
    """

    def __init__(
        self,
        workers: int = 1,
        persistent: bool = False,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        journal=None,
        chaos: Sequence[Any] = (),
    ):
        if start_method not in (None, "fork", "spawn"):
            raise EstimationError(
                f"start_method must be None, 'fork' or 'spawn', got {start_method!r}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise EstimationError(
                f"retry must be a RetryPolicy, got {type(retry).__name__}"
            )
        self.workers = max(1, int(workers))
        self.persistent = bool(persistent)
        self.start_method = start_method
        self.retry = retry
        self.journal = journal
        self.chaos = tuple(chaos)
        self.last_mode: Optional[str] = None
        self.last_diagnostics: Dict[str, Any] = {}
        self.fault_stats: Dict[str, int] = {k: 0 for k in _FAULT_COUNTERS}
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

    def _respawn_pool(self, method: str, task, n_jobs: int) -> None:
        self.close()
        self._ensure_pool(method, task, n_jobs)

    def _worker_pids(self) -> Set[int]:
        pool = self._pool
        if pool is None:
            return set()
        return {p.pid for p in list(getattr(pool, "_pool", [])) if p.is_alive()}

    def _wait_tick(self, inflight: Dict[int, list]) -> None:
        """One scheduler pause: block briefly on some in-flight result.

        Isolated as a seam so tests can inject ``KeyboardInterrupt``
        mid-run and pin the cleanup behavior.
        """
        if inflight:
            next(iter(inflight.values()))[0].wait(self._poll_s)
        else:
            time.sleep(self._poll_s)

    # -- execution -----------------------------------------------------

    def run_shards(
        self,
        task: Callable[[int, np.random.Generator, int], ShardResult],
        rngs: Sequence[np.random.Generator],
        budgets: Sequence[int],
        limit_state=None,
        total: Optional[int] = None,
        parent: Optional[np.random.Generator] = None,
        skip_empty: bool = True,
    ) -> List[ShardResult]:
        """Run ``task(i, rngs[i], budgets[i])`` for every shard.

        Results come back ordered by shard index regardless of execution
        order, retries, journal replay or worker churn.  When shards ran
        outside the calling process (pool workers, or replayed from a
        journal) and ``limit_state`` is given, their evaluation counts
        are added to ``limit_state.n_evals``; shards executed in-process
        bill it directly while running — either way the final count
        reconciles exactly with a fault-free ``workers=1`` run.

        ``total``/``parent`` feed the D002/D004 checks of the plan audit
        that gates journal use.  ``skip_empty=True`` (default) runs
        zero-budget shards in the calling process instead of shipping
        empty jobs to the pool; pass ``False`` for tasks whose budget
        argument is not a sample count (e.g. search stages).
        """
        if len(rngs) != len(budgets):
            raise EstimationError("one RNG stream per shard budget is required")
        budgets = [int(b) for b in budgets]
        n = len(rngs)
        retry = self.retry if self.retry is not None else RetryPolicy()
        if self.chaos:
            # Imported lazily: the chaos module imports this one.
            from repro.engine.chaos import ChaosTask

            task = ChaosTask(task, self.chaos)

        stats: Dict[str, Any] = {
            "shards": n,
            "mode": None,
            "attempt_wall": {},
            "failures": {},
        }
        for key in _FAULT_COUNTERS:
            stats[key] = 0
        self.last_diagnostics = stats

        results: Dict[int, ShardResult] = {}
        if self.journal is not None:
            # Admission gate: a journaled plan is an out-of-process plan.
            # Imported lazily: the audit module imports this one.
            from repro.engine.audit import assert_shard_plan_clean

            assert_shard_plan_clean(rngs, budgets, total=total, parent=parent)
            replayed = self.journal.begin_round(rngs, budgets)
            if retry.validate is not None:
                replayed = {
                    i: r for i, r in replayed.items() if retry.validate(r) is None
                }
            results.update(replayed)
            stats["replayed"] = len(replayed)

        pending = [i for i in range(n) if i not in results]
        if skip_empty:
            local = [i for i in pending if budgets[i] == 0]
            pooled_idx = [i for i in pending if budgets[i] > 0]
        else:
            local, pooled_idx = [], list(pending)

        method = self._resolve_method(len(pooled_idx), task) if pooled_idx else None
        if method is None:
            local, pooled_idx = pending, []
        else:
            stats["skipped_empty"] = len(local)
        stats["mode"] = self.last_mode = method if method is not None else "in-process"

        if (
            method is None
            and retry.timeout is not None
            and pending
            and not self._warned_local_timeout
        ):
            warnings.warn(
                "ShardedRunner: shard timeouts are only enforced for pooled "
                "execution; running in-process without timeout enforcement",
                RuntimeWarning,
                stacklevel=2,
            )
            self._warned_local_timeout = True

        executed_locally: Set[int] = set()
        try:
            for i in local:
                results[i] = self._run_local(
                    task, i, rngs[i], budgets[i], retry, limit_state, stats
                )
                executed_locally.add(i)
            if pooled_idx:
                jobs = {i: (rngs[i], budgets[i]) for i in pooled_idx}
                results.update(self._run_pooled(method, task, jobs, retry, stats))
        except BaseException:
            # A failed run can leave dead or hung workers (and their
            # registry entry) behind; never hand the next call a broken
            # pool — close now, respawn on demand.
            self.close()
            raise
        finally:
            for key in _FAULT_COUNTERS:
                self.fault_stats[key] += stats[key]
        if not self.persistent:
            self.close()

        ordered = [results[i] for i in range(n)]
        if limit_state is not None:
            # Locally-executed shards billed the parent's limit state
            # while running; pooled and journal-replayed shards consumed
            # their evals elsewhere (a worker process, the interrupted
            # run) and are credited here.
            limit_state.n_evals += sum(
                r.n_evals for i, r in results.items() if i not in executed_locally
            )
        return ordered

    def _resolve_method(self, n_jobs: int, task) -> Optional[str]:
        """Pick the execution path for this call (None = in-process)."""
        if self.workers == 1 or n_jobs <= 1 or _IN_POOL_WORKER:
            # Nested sharding (a shard trying to shard again) would fork
            # from inside a pool worker; run inner plans in-process.
            return None
        method = self.start_method
        if method is None:
            if fork_available():
                method = "fork"
            elif spawn_available():
                method = "spawn"
            else:
                return None
        elif method == "fork" and not fork_available():
            raise EstimationError("start_method='fork' is unavailable on this platform")
        elif method == "spawn" and not spawn_available():
            raise EstimationError("start_method='spawn' is unavailable on this platform")
        if method == "spawn":
            try:
                pickle.dumps(task)
            except Exception as exc:
                warnings.warn(
                    "ShardedRunner: task is not picklable "
                    f"({type(exc).__name__}: {exc}); running "
                    f"{n_jobs} shards in-process instead of on a spawn pool",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return None
        return method

    def _journal_record(self, result: ShardResult) -> None:
        if self.journal is not None:
            self.journal.record(result)

    def _run_local(
        self, task, index: int, rng, budget: int, retry: RetryPolicy, limit_state, stats
    ) -> ShardResult:
        """Execute one shard in the calling process under the retry policy.

        A failed attempt must leave no trace: the RNG is cloned per
        attempt (the stream must not advance), and the parent limit
        state's eval count is snapshot-restored, so the eventual
        successful attempt reproduces the fault-free run bit for bit —
        including its accounting.
        """
        walls = stats["attempt_wall"].setdefault(index, [])
        failures = 0
        while True:
            snap_evals = None if limit_state is None else limit_state.n_evals
            start = time.perf_counter()
            try:
                result = _run_attempt(task, index, _clone_generator(rng), budget, failures)
                reason = None if retry.validate is None else retry.validate(result)
                if reason is not None:
                    raise EstimationError(f"shard {index} payload rejected: {reason}")
            except Exception as exc:
                walls.append(time.perf_counter() - start)
                failures += 1
                stats["failures"][index] = failures
                if snap_evals is not None:
                    limit_state.n_evals = snap_evals
                if failures >= retry.max_attempts:
                    raise ShardExecutionError(
                        f"shard {index} failed after {failures} attempt(s): "
                        f"{type(exc).__name__}: {exc}",
                        shard_index=index,
                        attempts=failures,
                        cause=exc,
                    ) from exc
                stats["retries"] += 1
                if retry.delay(failures) > 0:
                    time.sleep(retry.delay(failures))
                continue
            walls.append(time.perf_counter() - start)
            self._journal_record(result)
            return result

    def _dispatch(
        self,
        method: str,
        index: int,
        job,
        attempt: int,
        retry: RetryPolicy,
        task_blob: Optional[bytes],
    ) -> list:
        rng, budget = job
        if method == "fork":
            payload = (self._pool_key, index, rng, int(budget), int(attempt))
            ar = self._pool.apply_async(_invoke_shard, (payload,))
        else:
            payload = (task_blob, index, rng, int(budget), int(attempt))
            ar = self._pool.apply_async(_invoke_spawned_shard, (payload,))
        started = time.monotonic()
        deadline = None if retry.timeout is None else started + float(retry.timeout)
        return [ar, deadline, started]

    def _shard_failed(
        self,
        index: int,
        exc: BaseException,
        failures: Dict[int, int],
        ready_at: Dict[int, float],
        retry: RetryPolicy,
        stats: Dict[str, Any],
    ) -> None:
        """Count one failed attempt; raise typed when the budget is spent."""
        failures[index] += 1
        stats["failures"][index] = failures[index]
        if failures[index] >= retry.max_attempts:
            raise ShardExecutionError(
                f"shard {index} failed after {failures[index]} attempt(s): "
                f"{type(exc).__name__}: {exc}",
                shard_index=index,
                attempts=failures[index],
                cause=exc,
            ) from exc
        stats["retries"] += 1
        ready_at[index] = time.monotonic() + retry.delay(failures[index])

    def _run_pooled(
        self, method: str, task, jobs: Dict[int, tuple], retry: RetryPolicy, stats
    ) -> Dict[int, ShardResult]:
        """Per-shard async dispatch with retries, timeouts and death watch.

        Every shard is its own ``apply_async`` job carrying its attempt
        number.  The loop collects completions, re-dispatches failures
        (after backoff), declares attempts past their deadline lost
        (recycling the pool — hung workers cannot be cancelled), and
        watches worker pids: ``multiprocessing.Pool`` replaces a dead
        worker but silently loses its in-flight job, so every incomplete
        in-flight shard is conservatively re-dispatched on a death.
        First result wins; duplicate executions of a deterministic shard
        are bit-identical, so re-dispatching possibly-lost work is safe.
        """
        # Spawn jobs carry the task as a pre-serialized blob: it must be
        # pickled *before* the pool exists, because a task holding a
        # reference back to this runner would otherwise reach the live
        # (unpicklable) pool object.
        task_blob = pickle.dumps(task) if method == "spawn" else None
        self._ensure_pool(method, task, len(jobs))
        done: Dict[int, ShardResult] = {}
        inflight: Dict[int, list] = {}
        failures: Dict[int, int] = {i: 0 for i in jobs}
        ready_at: Dict[int, float] = {i: 0.0 for i in jobs}
        pids = self._worker_pids()
        while len(done) < len(jobs):
            now = time.monotonic()
            for i in sorted(jobs):
                if i in done or i in inflight or now < ready_at[i]:
                    continue
                inflight[i] = self._dispatch(
                    method, i, jobs[i], failures[i], retry, task_blob
                )
            self._wait_tick(inflight)
            now = time.monotonic()
            recycle = False
            for i in list(inflight):
                ar, deadline, started = inflight[i]
                if ar.ready():
                    del inflight[i]
                    stats["attempt_wall"].setdefault(i, []).append(now - started)
                    try:
                        result = ar.get()
                        reason = None if retry.validate is None else retry.validate(result)
                        if reason is not None:
                            raise EstimationError(
                                f"shard {i} payload rejected: {reason}"
                            )
                    except Exception as exc:
                        self._shard_failed(i, exc, failures, ready_at, retry, stats)
                        continue
                    if i not in done:
                        done[i] = result
                        self._journal_record(result)
                elif deadline is not None and now >= deadline:
                    del inflight[i]
                    stats["attempt_wall"].setdefault(i, []).append(now - started)
                    stats["timeouts"] += 1
                    recycle = True
                    self._shard_failed(
                        i,
                        EstimationError(
                            f"shard {i} attempt timed out after {retry.timeout:.3g}s"
                        ),
                        failures,
                        ready_at,
                        retry,
                        stats,
                    )
            live = self._worker_pids()
            dead = pids - live
            if dead:
                stats["worker_deaths"] += len(dead)
                stats["worker_replacements"] += len(dead)
                for i in list(inflight):
                    ar, deadline, started = inflight[i]
                    if ar.ready():
                        continue
                    del inflight[i]
                    stats["attempt_wall"].setdefault(i, []).append(
                        time.monotonic() - started
                    )
                    self._shard_failed(
                        i,
                        EstimationError(
                            f"worker process died (pids {sorted(dead)}) with "
                            f"shard {i} in flight"
                        ),
                        failures,
                        ready_at,
                        retry,
                        stats,
                    )
            if recycle:
                stats["pool_recycles"] += 1
                stats["worker_replacements"] += max(len(live), 1)
                # Jobs still in flight on the doomed pool die with it;
                # they return to pending at their current attempt count.
                inflight.clear()
                self._respawn_pool(method, task, len(jobs))
            pids = self._worker_pids()
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
    :class:`ShardedRunner` — also the hook for fault tolerance: a runner
    carrying a :class:`RetryPolicy` and/or a journal applies them to
    every estimator round dispatched through it.  Pass a *stable*
    ``shard_fn`` (a bound method, not a fresh lambda) so the persistent
    pool recognises repeat runs of the same task and skips the respawn.
    """
    rngs = spawn_generators(rng, n_shards)
    budgets = split_budget(budget, n_shards)
    task = _MeasuredShardTask(shard_fn, limit_state)
    if runner is None:
        runner = ShardedRunner(workers)
    results = runner.run_shards(
        task,
        rngs,
        budgets,
        limit_state=limit_state,
        total=int(budget),
        parent=rng,
    )
    return [r.payload for r in results]
