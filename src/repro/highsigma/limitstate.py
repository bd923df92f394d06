"""The limit-state abstraction: ``g(u) <= 0  ⇔  failure``.

All samplers see the world through a :class:`LimitState`: a scalar field
over standard-normal u-space whose non-positive region is the failure
set.  This is the structural-reliability convention; for a performance
metric with an upper spec (read access time must not exceed ``t_spec``)
the margin is ``g(u) = t_spec - t_access(u)``.

The class also owns the bookkeeping every honest comparison needs: an
**evaluation counter**.  Simulator calls are the cost unit of every
table in the paper, and hiding search-phase calls is the classic way
such comparisons go wrong, so every evaluation is billed, a repeated
point included.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import EstimationError

__all__ = ["LimitState"]


class LimitState:
    """Wrap a metric function into a counted margin field.

    Parameters
    ----------
    fn:
        Scalar metric over u-space, ``fn(u) -> float``.  May be ``None``
        when ``batch_fn`` is given: scalar evaluations then route through
        the batched evaluator as one-row batches — the natural shape for
        compiled batched simulators, which have no scalar path of their
        own.
    spec:
        Specification the metric is compared against.
    direction:
        ``"upper"`` — failure when ``metric >= spec`` (delay too large);
        ``"lower"`` — failure when ``metric <= spec`` (margin too small).
    name:
        Label used in reports.
    batch_fn:
        Optional vectorised evaluator ``(n, d) -> (n,)`` metric values;
        when present, samplers call :meth:`g_batch` on whole sample
        blocks (the batched 6T engine plugs in here).
    dim:
        Dimensionality of u-space.
    """

    def __init__(
        self,
        fn: Optional[Callable[[np.ndarray], float]],
        spec: float,
        dim: int,
        direction: str = "upper",
        name: str = "limit-state",
        batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if direction not in ("upper", "lower"):
            raise EstimationError(f"direction must be 'upper' or 'lower', got {direction!r}")
        if dim < 1:
            raise EstimationError(f"dim must be >= 1, got {dim!r}")
        if fn is None and batch_fn is None:
            raise EstimationError("a limit state needs fn, batch_fn or both")
        self._fn = fn
        self._batch_fn = batch_fn
        self.spec = float(spec)
        self.dim = int(dim)
        self.direction = direction
        self.name = name
        self.n_evals = 0

    # ------------------------------------------------------------------

    def _margin(self, metric):
        if self.direction == "upper":
            return self.spec - metric
        return metric - self.spec

    def metric(self, u: np.ndarray) -> float:
        """Raw (un-margined) metric at ``u``; counted like any evaluation."""
        u = np.asarray(u, dtype=float)
        self._check(u)
        if self._fn is not None:
            value = float(self._fn(u))
        else:
            value = float(np.asarray(self._batch_fn(u[None, :]), dtype=float)[0])
        self.n_evals += 1
        return value

    def g(self, u: np.ndarray) -> float:
        """Margin at ``u``; ``g <= 0`` is failure."""
        return self._margin(self.metric(u))

    def g_batch(self, u_batch: np.ndarray) -> np.ndarray:
        """Margins for a block of samples (uses ``batch_fn`` when given);
        every row is billed and simulated."""
        u_batch = np.atleast_2d(np.asarray(u_batch, dtype=float))
        if u_batch.shape[1] != self.dim:
            raise EstimationError(
                f"{self.name}: batch has {u_batch.shape[1]} columns, expected {self.dim}"
            )
        if self._batch_fn is not None:
            metrics = np.asarray(self._batch_fn(u_batch), dtype=float)
            if metrics.shape != (u_batch.shape[0],):
                raise EstimationError(
                    f"{self.name}: batch_fn returned shape {metrics.shape}, "
                    f"expected ({u_batch.shape[0]},)"
                )
            self.n_evals += u_batch.shape[0]
            return self._margin(metrics)
        # Fallback: one metric() pass per row (billed there), margined
        # once as a block rather than re-entering g() per row.
        metrics = np.array([self.metric(u) for u in u_batch])
        return self._margin(metrics)

    def fails(self, u: np.ndarray) -> bool:
        """Failure indicator at one point."""
        return self.g(u) <= 0.0

    def fails_batch(self, u_batch: np.ndarray) -> np.ndarray:
        """Failure indicators for a block."""
        return self.g_batch(u_batch) <= 0.0

    def fd_gradient(
        self,
        u: np.ndarray,
        step: float = 0.05,
        scheme: str = "central",
        g0: Optional[float] = None,
    ) -> np.ndarray:
        """Finite-difference gradient of ``g`` using one batched call.

        The whole stencil (2d points for central, d for forward) is
        evaluated through :meth:`g_batch`, so a vectorised engine prices
        a full gradient at roughly the cost of a handful of scalar
        simulations — the key economy behind the gradient MPFP search.
        The forward scheme also needs ``g0 = g(u)``, evaluated here when
        not given.
        """
        stencil = self.fd_stencil(u, step, scheme)
        if scheme == "forward" and g0 is None:
            g0 = self.g(u)
        return self.fd_difference(self.g_batch(stencil), step, scheme, g0)

    def fd_stencil(self, u: np.ndarray, step: float = 0.05, scheme: str = "central") -> np.ndarray:
        """The rows :meth:`fd_gradient` evaluates around ``u``.

        Central: ``u + step e_i`` and ``u - step e_i`` interleaved (2d
        rows); forward: ``u + step e_i`` (d rows).  Callers that batch the
        stencil with other points (the MPFP search does) pass its margins
        to :meth:`fd_difference`, so their gradient is bit-equal to
        :meth:`fd_gradient`'s.
        """
        u = np.asarray(u, dtype=float)
        self._check(u)
        if scheme not in ("central", "forward"):
            raise EstimationError(f"unknown finite-difference scheme {scheme!r}")
        d = self.dim
        if scheme == "forward":
            stencil = np.repeat(u[None, :], d, axis=0)
            stencil[np.arange(d), np.arange(d)] += step
            return stencil
        stencil = np.repeat(u[None, :], 2 * d, axis=0)
        for i in range(d):
            stencil[2 * i, i] += step
            stencil[2 * i + 1, i] -= step
        return stencil

    @staticmethod
    def fd_difference(
        vals: np.ndarray, step: float, scheme: str = "central", g0: Optional[float] = None
    ) -> np.ndarray:
        """Gradient from the margins at :meth:`fd_stencil`'s rows (and, for
        the forward scheme, the margin ``g0`` at its centre)."""
        if scheme == "central":
            return (vals[0::2] - vals[1::2]) / (2.0 * step)
        return (vals - g0) / step

    def spsa_gradient(
        self,
        u: np.ndarray,
        rng: np.random.Generator,
        step: float = 0.1,
        repeats: int = 4,
    ) -> np.ndarray:
        """Simultaneous-perturbation gradient (2×repeats batched evals).

        Cost independent of dimension — the option the paper's scaling
        argument needs once peripheral transistors push d past ~20.
        """
        u = np.asarray(u, dtype=float)
        self._check(u)
        deltas = rng.choice([-1.0, 1.0], size=(repeats, self.dim))
        stencil = np.concatenate([u + step * deltas, u - step * deltas], axis=0)
        vals = self.g_batch(stencil)
        fp, fm = vals[:repeats], vals[repeats:]
        grad = ((fp - fm)[:, None] / (2.0 * step * deltas)).mean(axis=0)
        return grad

    # ------------------------------------------------------------------

    def _check(self, u: np.ndarray) -> None:
        if u.shape != (self.dim,):
            raise EstimationError(
                f"{self.name}: u-vector shape {u.shape} does not match dim {self.dim}"
            )

    def reset_counter(self) -> None:
        """Zero the evaluation counter."""
        self.n_evals = 0

    def warmup(self) -> None:
        """Build the compiled plans behind ``batch_fn`` without evaluating.

        Calls ``batch_fn.prepare()`` when the evaluator has one: the
        compiled SRAM workloads' evaluators build (or fetch from the plan
        cache) exactly the transient plans their ``__call__`` uses, and
        run none of them.  Nothing is evaluated, so the evaluation
        counter is untouched and an estimator run after ``warmup()`` is
        bit-identical to one on a cold limit state.  Limit states with
        nothing to compile (the analytic ones) warm nothing.
        """
        prepare = getattr(self._batch_fn, "prepare", None)
        if prepare is not None:
            prepare()

    def __repr__(self) -> str:
        return (
            f"LimitState({self.name!r}, dim={self.dim}, spec={self.spec:.4g}, "
            f"direction={self.direction!r}, evals={self.n_evals})"
        )
