"""Importance-sampling math shared by every sampler in this package.

Contents:

* log-densities of the standard normal, shifted Gaussians and defensive
  mixtures (all in log space — importance weights at 6 sigma span hundreds
  of orders of magnitude);
* the unnormalised IS estimator with its variance, effective sample size
  and figure of merit;
* :class:`MeanShiftISCore`, the estimation stage shared by gradient IS,
  minimum-norm IS and spherical-search IS — the three methods differ only
  in *how they find the shift vector*, so sharing the sampler is both less
  code and a fairer comparison.

The estimation stage streams its batches into a
:class:`repro.engine.accumulator.StreamingAccumulator` (O(1) state per
batch) and can split its budget across worker processes through
:class:`repro.engine.sharding.ShardedRunner`; see :mod:`repro.engine`
for the determinism contract.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats
from scipy.special import logsumexp

from repro.engine.accumulator import StreamingAccumulator
from repro.engine.sharding import (
    ShardedRunner,
    resolve_shards,
    run_sharded,
    scale_shard_target,
)
from repro.errors import EstimationError
from repro.highsigma.limitstate import LimitState
from repro.highsigma.results import EstimateResult

__all__ = [
    "log_std_normal_pdf",
    "GaussianProposal",
    "DefensiveMixture",
    "is_estimate",
    "effective_sample_size",
    "MeanShiftISCore",
]


def log_std_normal_pdf(u: np.ndarray) -> np.ndarray:
    """Log-density of the d-dimensional standard normal, row-wise."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    d = u.shape[1]
    return -0.5 * d * np.log(2.0 * np.pi) - 0.5 * np.sum(u * u, axis=1)


class GaussianProposal:
    """A multivariate normal proposal ``N(mean, cov)``.

    ``cov`` may be a scalar (isotropic), a 1-D array (diagonal) or a full
    matrix.  Sampling and log-density go through a Cholesky factor
    computed once.
    """

    def __init__(self, mean: np.ndarray, cov=1.0):
        self.mean = np.asarray(mean, dtype=float)
        d = self.mean.size
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov_mat = np.eye(d) * float(cov)
        elif cov.ndim == 1:
            if cov.size != d:
                raise EstimationError(f"diagonal cov size {cov.size} != dim {d}")
            cov_mat = np.diag(cov)
        else:
            if cov.shape != (d, d):
                raise EstimationError(f"cov shape {cov.shape} != ({d}, {d})")
            cov_mat = cov
        try:
            self._chol = np.linalg.cholesky(cov_mat)
        except np.linalg.LinAlgError:
            raise EstimationError("proposal covariance is not positive definite") from None
        self._log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))
        self.dim = d

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` samples, shape ``(n, d)``."""
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T

    def logpdf(self, u: np.ndarray) -> np.ndarray:
        """Row-wise log-density."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        diff = u - self.mean
        # Solve L y = diff^T for the Mahalanobis norm.
        y = np.linalg.solve(self._chol, diff.T)
        maha = np.sum(y * y, axis=0)
        return -0.5 * (self.dim * np.log(2.0 * np.pi) + self._log_det + maha)


class DefensiveMixture:
    """Defensive mixture ``alpha * N(0, I) + sum_k w_k * N(mu_k, cov_k)``.

    The standard-normal component bounds the importance weights by
    ``1/alpha`` (Owen & Zhou's "safe" construction), which keeps the
    estimator variance finite even when the shift misjudges the failure
    region — the practical difference between an IS run that degrades
    gracefully and one that silently reports garbage.
    """

    def __init__(
        self,
        shifted: Sequence[GaussianProposal],
        alpha: float = 0.1,
        weights: Optional[Sequence[float]] = None,
    ):
        if not 0.0 <= alpha < 1.0:
            raise EstimationError(f"defensive weight alpha must be in [0, 1), got {alpha!r}")
        if not shifted:
            raise EstimationError("mixture needs at least one shifted component")
        self.alpha = float(alpha)
        self.components: List[GaussianProposal] = list(shifted)
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise EstimationError("mixture components disagree on dimension")
        self.dim = dims.pop()
        if weights is None:
            w = np.full(len(self.components), (1.0 - alpha) / len(self.components))
        else:
            w = np.asarray(weights, dtype=float)
            if w.size != len(self.components) or np.any(w < 0):
                raise EstimationError("bad mixture weights")
            w = w / w.sum() * (1.0 - alpha)
        self.weights = w

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` samples from the mixture (``n=0`` gives an empty block)."""
        if n <= 0:
            return np.empty((0, self.dim))
        probs = np.concatenate(([self.alpha], self.weights))
        counts = rng.multinomial(n, probs / probs.sum())
        parts = []
        if counts[0] > 0:
            parts.append(rng.standard_normal((counts[0], self.dim)))
        for c, k in zip(self.components, counts[1:]):
            if k > 0:
                parts.append(c.sample(int(k), rng))
        out = np.concatenate(parts, axis=0)
        rng.shuffle(out)
        return out

    def sample_qmc(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Quasi-random mixture samples (scrambled Sobol).

        Components get a *deterministic proportional* share of the points
        (Owen's stratified-mixture allocation) and each share is a
        scrambled Sobol sequence pushed through the component's Gaussian
        transform.  Combined with the exact mixture-density weights this
        stays consistent while cutting the estimator variance on smooth
        integrands — the QMC ablation quantifies by how much.
        """
        if n <= 0:
            return np.empty((0, self.dim))
        probs = np.concatenate(([self.alpha], self.weights))
        probs = probs / probs.sum()
        counts = np.floor(probs * n).astype(int)
        # Distribute the remainder to the largest fractional parts.
        remainder = n - counts.sum()
        if remainder > 0:
            frac = probs * n - counts
            counts[np.argsort(frac)[::-1][:remainder]] += 1
        parts = []
        for idx, k in enumerate(counts):
            if k <= 0:
                continue
            engine = stats.qmc.Sobol(
                d=self.dim, scramble=True, seed=rng.integers(1 << 31)
            )
            # Sobol balance wants powers of two: draw the next one up and
            # truncate (the scramble keeps the truncation unbiased).
            pow2 = 1 << (int(k) - 1).bit_length()
            quantiles = engine.random(pow2)[: int(k)]
            # Guard the open interval for the probit transform.
            quantiles = np.clip(quantiles, 1e-12, 1.0 - 1e-12)
            z = stats.norm.ppf(quantiles)
            if idx == 0:
                parts.append(z)
            else:
                comp = self.components[idx - 1]
                parts.append(comp.mean + z @ comp._chol.T)
        return np.concatenate(parts, axis=0)

    def logpdf(self, u: np.ndarray) -> np.ndarray:
        """Row-wise log-density of the mixture."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        logs = [np.log(max(self.alpha, 1e-300)) + log_std_normal_pdf(u)]
        for c, w in zip(self.components, self.weights):
            logs.append(np.log(max(w, 1e-300)) + c.logpdf(u))
        return logsumexp(np.stack(logs, axis=0), axis=0)

    def log_weights(self, u: np.ndarray) -> np.ndarray:
        """Log importance weights ``log phi(u) - log q(u)``."""
        return log_std_normal_pdf(u) - self.logpdf(u)


def is_estimate(log_w: np.ndarray, fails: np.ndarray) -> Tuple[float, float]:
    """Unnormalised IS estimate of the failure probability and its std error.

    ``log_w`` are log importance weights, ``fails`` boolean indicators.
    The estimator is ``mean(w * I)``; its variance is the sample variance
    of ``w * I`` over n.  Weights of non-failing samples contribute zeros
    (but still count in n, as they must).
    """
    log_w = np.asarray(log_w, dtype=float)
    fails = np.asarray(fails, dtype=bool)
    if log_w.shape != fails.shape:
        raise EstimationError("log-weights and indicators must have equal shapes")
    n = log_w.size
    if n == 0:
        raise EstimationError("cannot estimate from zero samples")
    contrib = np.zeros(n)
    contrib[fails] = np.exp(log_w[fails])
    p = float(np.mean(contrib))
    if n > 1:
        var = float(np.var(contrib, ddof=1)) / n
    else:
        var = float("inf")
    return p, float(np.sqrt(var))


def effective_sample_size(log_w: np.ndarray, fails: np.ndarray) -> float:
    """Kish effective sample size of the *failing* weights.

    ``(sum w)^2 / sum w^2`` over failure contributions — the usual sanity
    check that the estimate is not carried by a handful of huge weights.
    Returns 0.0 when nothing failed.
    """
    log_w = np.asarray(log_w, dtype=float)[np.asarray(fails, dtype=bool)]
    if log_w.size == 0:
        return 0.0
    num = 2.0 * logsumexp(log_w)
    den = logsumexp(2.0 * log_w)
    return float(np.exp(num - den))


def _meets_target(p: float, se: float, target: Optional[float]) -> bool:
    """The relative-error stop, met only by a probability (0 < p <= 1)."""
    return target is not None and 0.0 < p <= 1.0 and se / p <= target


class MeanShiftISCore:
    """Estimation stage shared by the mean-shift importance samplers.

    Given one or more shift vectors (from a gradient MPFP search, a
    minimum-norm pre-search, or a spherical search), build the defensive
    mixture proposal and run batched sampling until the target relative
    error or the evaluation budget is reached.

    The sampling loop streams every batch into a
    :class:`~repro.engine.accumulator.StreamingAccumulator` — O(batch)
    work per batch, no re-reduction of the history — and optionally
    splits the budget into deterministic shards executed by a
    :class:`~repro.engine.sharding.ShardedRunner`.  The estimate depends
    on the shard plan (``n_shards``), never on ``workers``: the same
    plan run serially or on four processes is bit-identical.

    Parameters
    ----------
    workers:
        Worker processes for the sharded path (1 = in-process).
    n_shards:
        Number of budget shards.  ``None`` means ``workers`` (so the
        default single-worker run keeps the classic single-stream RNG
        consumption); pin it explicitly when comparing runs across
        machines with different worker counts.
    runner:
        Optional caller-owned :class:`~repro.engine.sharding.ShardedRunner`
        (e.g. a persistent one) used for the sharded sampling rounds;
        ``None`` forks a fresh pool per round.
    """

    def __init__(
        self,
        limit_state: LimitState,
        shifts: Sequence[np.ndarray],
        cov=1.0,
        alpha: float = 0.1,
        batch_size: int = 256,
        n_max: int = 20000,
        target_rel_err: Optional[float] = 0.1,
        min_batches: int = 2,
        sampler: str = "random",
        workers: int = 1,
        n_shards: Optional[int] = None,
        runner: Optional[ShardedRunner] = None,
    ):
        if sampler not in ("random", "qmc"):
            raise EstimationError(f"unknown sampler {sampler!r}")
        self.ls = limit_state
        comps = [GaussianProposal(np.asarray(s, dtype=float), cov) for s in shifts]
        self.proposal = DefensiveMixture(comps, alpha=alpha)
        self.batch_size = int(batch_size)
        self.n_max = int(n_max)
        self.target_rel_err = target_rel_err
        self.min_batches = int(min_batches)
        self.sampler = sampler
        self.workers = max(1, int(workers))
        self.n_shards = None if n_shards is None else max(1, int(n_shards))
        self.runner = runner

    def _sample_shard(
        self, rng: np.random.Generator, budget: int, target: Optional[float] = None
    ) -> Tuple[StreamingAccumulator, int, bool]:
        """One shard's batched sampling loop: O(1) state per batch.

        ``target`` is the shard-local relative-error stop.  A sharded run
        passes ``target_rel_err * sqrt(n_shards)``: each shard holds 1/N
        of the samples, so a shard-level relative error of ``t*sqrt(N)``
        merges to ≈``t`` overall — without the scaling, no shard could
        ever meet the global target on its fraction of the budget and
        sharding would silently disable early stopping.
        """
        acc = StreamingAccumulator()
        n_drawn = 0
        batches = 0
        converged = False
        while n_drawn < budget:
            k = min(self.batch_size, budget - n_drawn)
            if self.sampler == "qmc":
                u = self.proposal.sample_qmc(k, rng)
            else:
                u = self.proposal.sample(k, rng)
            fails = self.ls.fails_batch(u)
            log_w = self.proposal.log_weights(u)
            acc.update(log_w, fails)
            n_drawn += k
            batches += 1
            if target is not None and batches >= self.min_batches:
                if _meets_target(*acc.estimate(), target):
                    converged = True
                    break
        return acc, n_drawn, converged

    def _shard_entry(self, shard_rng: np.random.Generator, budget: int):
        """Stable sharded-sampling entry point (one per estimator object,
        so persistent runners recognise repeat rounds of the same task)."""
        shards = resolve_shards(self.n_shards, self.workers)
        return self._sample_shard(
            shard_rng, budget, scale_shard_target(self.target_rel_err, shards)
        )

    def run(self, rng: np.random.Generator, method: str, extra_evals: int = 0,
            diagnostics: Optional[dict] = None) -> EstimateResult:
        """Sample until converged or out of budget; return the result.

        ``extra_evals`` is the search-phase cost to fold into ``n_evals``.

        Sharded runs stop cooperatively: shards stop independently at the
        ``sqrt(N)``-scaled shard target, so after the merge the global
        target can be missed while shard budget sits stranded; in that
        case one top-up round re-shards the stranded budget instead of
        returning ``converged=False`` with samples unspent.

        The relative-error stop counts only an estimate in (0, 1], so a
        run above 1 samples to its budget; one that ends there is
        reported ``converged=False`` with
        ``diagnostics["diagnostic_codes"] == ["E001"]``.
        """
        shards = resolve_shards(self.n_shards, self.workers)
        diag = dict(diagnostics or {})
        if shards <= 1:
            acc, n_drawn, converged = self._sample_shard(
                rng, self.n_max, self.target_rel_err
            )
        else:
            acc = StreamingAccumulator()
            n_drawn = 0
            shard_converged = []

            def sample_round(budget: int) -> int:
                drawn = 0
                payloads = run_sharded(
                    self._shard_entry, rng, shards, budget,
                    self.workers, self.ls, runner=self.runner,
                )
                for shard_acc, nd, conv in payloads:
                    acc.merge(shard_acc)
                    drawn += nd
                    shard_converged.append(bool(conv))
                return drawn

            n_drawn += sample_round(self.n_max)
            topup = 0
            if self.target_rel_err is not None:
                stranded = self.n_max - n_drawn
                p, se = acc.estimate()
                if stranded > 0 and not _meets_target(p, se, self.target_rel_err):
                    topup = stranded
                    n_drawn += sample_round(stranded)
            converged = False  # decided from the merged moments below
            diag.update(
                n_shards=shards,
                workers=self.workers,
                shard_converged=shard_converged,
                topup_samples=topup,
            )
        p, se = acc.estimate()
        if shards > 1:
            converged = _meets_target(p, se, self.target_rel_err)
        if p > 1.0:
            # Not a probability: sampled to its budget, never converged.
            diag["diagnostic_codes"] = ["E001"]
        diag.update(
            n_sampling=n_drawn,
            alpha=self.proposal.alpha,
            n_components=len(self.proposal.components),
        )
        return EstimateResult(
            p_fail=p,
            std_err=se,
            n_evals=n_drawn + extra_evals,
            n_failures=acc.n_fail,
            method=method,
            converged=converged,
            ess=acc.ess(),
            diagnostics=diag,
        )
