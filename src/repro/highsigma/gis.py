"""Gradient Importance Sampling — the method under reproduction.

The two-stage structure:

**Stage 1 — gradient search.**  An iHL-RF gradient descent
(:class:`~repro.highsigma.mpfp.MpfpSearch`) walks from the nominal point
to the most probable failure point u*.  Gradients come from finite
differences (or SPSA for high dimensions) on the very same transient
simulations the sampler bills for — typically a few tens of simulations,
versus the *thousands* a blind pre-sampling stage needs to see its first
failure at 5 sigma.

**Stage 2 — mean-shifted defensive IS.**  A Gaussian centred at u*
(optionally stretched along the failure direction and widened) mixed with
a small standard-normal "defensive" component samples the failure region;
the unnormalised IS estimator with exact mixture weights gives the
failure probability with a confidence interval.

Multiple failure regions are handled by multi-start: extra gradient
searches from random directions collect distinct MPFPs, and stage 2 uses
a mixture with one component per MPFP (weighted by their Gaussian mass
``exp(-beta_k^2/2)``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.sharding import ShardedRunner, ShardResult, spawn_generators
from repro.errors import SearchError
from repro.highsigma.estimators import MeanShiftISCore
from repro.highsigma.limitstate import LimitState
from repro.highsigma.mpfp import MpfpOptions, MpfpResult, MpfpSearch
from repro.highsigma.results import EstimateResult

__all__ = ["GradientImportanceSampling"]


class _MpfpStartTask:
    """Shard task wrapper for one multi-start gradient search.

    Comparable so a persistent runner can recognise repeat submissions;
    measures the limit-state evaluations its start consumed so pooled
    searches reconcile into the parent counter exactly like sampling
    shards do.
    """

    __slots__ = ("gis",)

    def __init__(self, gis: "GradientImportanceSampling"):
        self.gis = gis

    def __call__(self, i: int, rng: np.random.Generator, budget: int) -> ShardResult:
        before = self.gis.ls.n_evals
        res = self.gis._run_one_start(i, rng)
        return ShardResult(
            index=i, n_evals=self.gis.ls.n_evals - before, payload=res
        )

    def __eq__(self, other):
        return type(other) is _MpfpStartTask and other.gis is self.gis

    __hash__ = None  # identity/equality only; never used as a dict key


class GradientImportanceSampling:
    """Gradient IS estimator.

    Parameters
    ----------
    limit_state:
        Failure oracle (``g <= 0`` fails).
    n_max:
        Stage-2 sampling budget (search cost comes on top and is included
        in the reported ``n_evals``).
    batch_size:
        Stage-2 samples per block.
    target_rel_err:
        Early-stop threshold on the relative standard error.
    alpha:
        Defensive mixture weight on the standard-normal component.
    cov_widen:
        Isotropic proposal variance multiplier (1.0 = unit variance).
    cov_stretch_radial:
        Additional variance stretch along the MPFP direction; values
        slightly above 1 help when the boundary is curved *toward* the
        origin. 1.0 disables the stretch.
    shift_scale:
        Scales the mean shift (1.0 places the proposal mean exactly at
        the MPFP; >1 pushes it into the failure region).
    n_starts:
        Gradient searches to run (1 = single MPFP; more enables
        multi-region coverage).
    mpfp_options / grad_fn:
        Forwarded to :class:`~repro.highsigma.mpfp.MpfpSearch`.
    dedup_distance:
        Two found MPFPs closer than this are considered the same region.
    beta_window:
        Keep only MPFPs with ``beta <= beta_min + beta_window`` (farther
        regions contribute negligibly).
    workers / n_shards / runner:
        Stage-2 sampling parallelism, forwarded to
        :class:`~repro.highsigma.estimators.MeanShiftISCore`.  With
        ``n_starts > 1`` the stage-1 searches also fan out over
        ``workers`` (one start per shard, deterministic selection in
        start order — see :meth:`search_mpfps`).  ``runner`` may be a
        persistent :class:`~repro.engine.sharding.ShardedRunner` shared
        across runs; it is used for the sampling stage only.
    """

    method_name = "gis"

    def __init__(
        self,
        limit_state: LimitState,
        n_max: int = 4000,
        batch_size: int = 256,
        target_rel_err: Optional[float] = 0.1,
        alpha: float = 0.1,
        cov_widen: float = 1.0,
        cov_stretch_radial: float = 1.0,
        shift_scale: float = 1.0,
        n_starts: int = 1,
        mpfp_options: Optional[MpfpOptions] = None,
        grad_fn=None,
        dedup_distance: float = 0.8,
        beta_window: float = 1.5,
        workers: int = 1,
        n_shards: Optional[int] = None,
        runner=None,
    ):
        self.ls = limit_state
        self.n_max = int(n_max)
        self.batch_size = int(batch_size)
        self.target_rel_err = target_rel_err
        self.alpha = float(alpha)
        self.cov_widen = float(cov_widen)
        self.cov_stretch_radial = float(cov_stretch_radial)
        self.shift_scale = float(shift_scale)
        self.n_starts = int(n_starts)
        self.mpfp_options = mpfp_options or MpfpOptions()
        self.grad_fn = grad_fn
        self.dedup_distance = float(dedup_distance)
        self.beta_window = float(beta_window)
        self.workers = max(1, int(workers))
        self.n_shards = n_shards
        self.runner = runner
        self.search_calls = 0

    # ------------------------------------------------------------------

    def _run_one_start(self, start: int, rng: np.random.Generator) -> MpfpResult:
        """One gradient search: start 0 from the origin, the rest from a
        random direction at radius 2 drawn from the start's own stream."""
        search = MpfpSearch(self.ls, options=self.mpfp_options, grad_fn=self.grad_fn)
        if start == 0:
            u0 = None
        else:
            direction = rng.standard_normal(self.ls.dim)
            direction /= np.linalg.norm(direction)
            u0 = 2.0 * direction
        return search.run(u0=u0, rng=rng)

    def search_mpfps(self, rng: np.random.Generator) -> List[MpfpResult]:
        """Stage 1: run the gradient searches and dedupe the results.

        Multi-start runs shard one search per start over a
        :class:`~repro.engine.sharding.ShardedRunner`.  Determinism
        contract: each start draws from its own ``SeedSequence``-spawned
        stream and the dedup/beta-window selection runs in fixed start
        order, so the kept MPFPs and their evaluation counts depend only
        on ``n_starts`` — never on ``workers``.  The single-start default
        keeps the classic single-stream RNG consumption.  The oracle
        calls of every start, kept or not, are left summed in
        ``self.search_calls``.
        """
        if self.n_starts == 1:
            results_all = [self._run_one_start(0, rng)]
        else:
            rngs = spawn_generators(rng, self.n_starts)
            # A transient runner, deliberately not self.runner: the search
            # task differs from the sampling task, and submitting it to a
            # shared persistent pool would evict the (far more reused)
            # sampling snapshot.  The shard timeout (if any) carries over
            # so a hung search start is caught like a hung sampling shard;
            # the budget entries are placeholders (searches are not
            # sample-count bounded), so ``skip_empty=False``.
            timeout = getattr(self.runner, "timeout", None)
            with ShardedRunner(min(self.workers, self.n_starts), timeout=timeout) as runner:
                shard_results = runner.run_shards(
                    _MpfpStartTask(self),
                    rngs,
                    [0] * self.n_starts,
                    limit_state=self.ls,
                    skip_empty=False,
                )
            results_all = [r.payload for r in shard_results]
        self.search_calls = sum(r.n_calls for r in results_all)

        results: List[MpfpResult] = []
        for res in results_all:
            if res.beta <= 1e-9 or not res.near_boundary():
                # Search never left the origin, or never got anywhere near
                # the failure boundary (flat metric, unreachable failure):
                # a shift there would only pollute the mixture.
                continue
            if any(np.linalg.norm(res.u_star - r.u_star) < self.dedup_distance for r in results):
                continue
            results.append(res)
        if not results:
            raise SearchError(
                f"{self.ls.name}: no usable MPFP found in {self.n_starts} starts"
            )
        beta_min = min(r.beta for r in results)
        kept = [r for r in results if r.beta <= beta_min + self.beta_window]
        return kept

    def _covariance(self, u_star: np.ndarray) -> np.ndarray:
        d = u_star.size
        cov = np.eye(d) * self.cov_widen
        s2 = self.cov_stretch_radial**2
        if s2 != 1.0 and np.linalg.norm(u_star) > 0:
            e = u_star / np.linalg.norm(u_star)
            cov += self.cov_widen * (s2 - 1.0) * np.outer(e, e)
        return cov

    def run(self, rng: Optional[np.random.Generator] = None) -> EstimateResult:
        """Full two-stage estimation."""
        rng = rng if rng is not None else np.random.default_rng()
        evals_before = self.ls.n_evals
        mpfps = self.search_mpfps(rng)
        search_evals = self.ls.n_evals - evals_before

        shifts = [self.shift_scale * r.u_star for r in mpfps]
        # Weight components by their Gaussian mass so a dominant region
        # receives proportionally more samples.
        betas = np.array([r.beta for r in mpfps])
        masses = np.exp(-0.5 * (betas**2 - betas.min() ** 2))
        weights = masses / masses.sum()

        # MeanShiftISCore builds one mixture over all components; its cov
        # argument is shared, so use the first MPFP for the stretch
        # direction only when there is a single region.
        cov = self._covariance(mpfps[0].u_star) if len(mpfps) == 1 else self.cov_widen

        core = MeanShiftISCore(
            self.ls,
            shifts=shifts,
            cov=cov,
            alpha=self.alpha,
            batch_size=self.batch_size,
            n_max=self.n_max,
            target_rel_err=self.target_rel_err,
            workers=self.workers,
            n_shards=self.n_shards,
            runner=self.runner,
        )
        core.proposal.weights = weights * (1.0 - self.alpha)

        diagnostics = {
            "mpfp_beta": [float(r.beta) for r in mpfps],
            "mpfp_u": [r.u_star.tolist() for r in mpfps],
            "mpfp_converged": [bool(r.converged) for r in mpfps],
            "search_evals": int(search_evals),
            "search_calls": int(self.search_calls),
            "search_iterations": [int(r.iterations) for r in mpfps],
        }
        return core.run(
            rng, method=self.method_name, extra_evals=search_evals, diagnostics=diagnostics
        )
