"""Limit states with closed-form failure probabilities.

Judging an estimator's accuracy requires truth, and "truth" from a finite
golden Monte Carlo run is itself noisy exactly where it matters (at 5–6
sigma even 10^7 samples see nothing).  These limit states provide exact
references:

* :class:`LinearLimitState` — a hyperplane at distance ``beta``;
  ``P = Phi(-beta)``.  The canonical single-failure-region case.
* :class:`HypersphereLimitState` — failure outside radius ``R``;
  ``P = P(chi^2_d > R^2)``.  Radially symmetric: the worst case for any
  single mean-shift method, an honest stress test.
* :class:`UnionLimitState` — union of hyperplanes with *orthonormal*
  normals, exact by inclusion–exclusion over independent events.  The
  multi-failure-region case that breaks single-MPFP samplers.
* :class:`QuadraticLimitState` — curved boundary
  ``g = beta + (kappa/2)*||u_perp||^2 - u_para``; exact probability by
  1-D quadrature over the chi-square radial density.  Curvature is what
  separates FORM (which would report ``Phi(-beta)``) from sampling
  methods, so this is the key accuracy workload.
* :class:`SramSurrogateLimitState` — a quadratic-response surrogate with
  coefficients shaped like the 6T read-access response; same quadrature
  trick for the exact reference.  Used where thousands of repeated runs
  would make the real simulator benches too slow (estimator-stability
  and dimension-scaling experiments).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import integrate, stats

from repro.errors import EstimationError
from repro.highsigma.limitstate import LimitState

__all__ = [
    "LinearLimitState",
    "HypersphereLimitState",
    "UnionLimitState",
    "QuadraticLimitState",
    "SramSurrogateLimitState",
]


def _unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0:
        raise EstimationError("direction vector must be non-zero")
    return v / n


class LinearLimitState(LimitState):
    """Hyperplane failure boundary: ``g(u) = beta - a^T u``.

    Failure is the half-space ``a^T u >= beta`` with ``a`` a unit vector,
    so ``exact_pfail() = Phi(-beta)`` for any dimension.
    """

    def __init__(self, beta: float, dim: int, direction: Optional[np.ndarray] = None):
        if beta <= 0:
            raise EstimationError(f"beta must be positive, got {beta!r}")
        self.beta = float(beta)
        if direction is None:
            a = np.zeros(dim)
            a[0] = 1.0
        else:
            a = _unit(direction)
            if a.size != dim:
                raise EstimationError("direction length does not match dim")
        self.a = a
        # Bound methods (not closures) keep the limit state picklable, so
        # it can cross a spawn pool's pickle pipe.
        super().__init__(
            fn=self._metric,
            batch_fn=self._metric_batch,
            spec=self.beta,
            dim=dim,
            direction="upper",
            name=f"linear(beta={beta:g}, d={dim})",
        )

    def _metric(self, u):
        return float(self.a @ u)

    def _metric_batch(self, ub):
        return ub @ self.a

    def exact_pfail(self) -> float:
        """Closed-form failure probability."""
        return float(stats.norm.sf(self.beta))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Exact gradient of g (constant ``-a``)."""
        return -self.a


class HypersphereLimitState(LimitState):
    """Failure outside the sphere of radius ``R``: ``g(u) = R - ||u||``."""

    def __init__(self, radius: float, dim: int):
        if radius <= 0:
            raise EstimationError(f"radius must be positive, got {radius!r}")
        self.radius = float(radius)
        super().__init__(
            fn=self._metric,
            batch_fn=self._metric_batch,
            spec=self.radius,
            dim=dim,
            direction="upper",
            name=f"sphere(R={radius:g}, d={dim})",
        )

    def _metric(self, u):
        return float(np.linalg.norm(u))

    def _metric_batch(self, ub):
        return np.linalg.norm(ub, axis=1)

    def exact_pfail(self) -> float:
        """``P(chi^2_d > R^2)`` — exact for any dimension."""
        return float(stats.chi2.sf(self.radius**2, self.dim))


class UnionLimitState(LimitState):
    """Union of hyperplane failure regions with orthonormal normals.

    ``g(u) = min_k (beta_k - a_k^T u)``; because the normals are
    orthonormal, the events ``{a_k^T u >= beta_k}`` are independent and
    ``P = 1 - prod_k (1 - Phi(-beta_k))`` exactly.  With well-separated
    betas this is the canonical multiple-failure-region stress case.
    """

    def __init__(self, betas: Sequence[float], dim: int):
        betas = np.asarray(betas, dtype=float)
        if betas.ndim != 1 or betas.size < 1:
            raise EstimationError("betas must be a non-empty 1-D sequence")
        if betas.size > dim:
            raise EstimationError("cannot have more orthonormal normals than dimensions")
        if np.any(betas <= 0):
            raise EstimationError("all betas must be positive")
        self.betas = betas
        k = betas.size
        # Normals are the first k coordinate axes: orthonormal by construction.
        self.normals = np.eye(dim)[:k]

        super().__init__(
            fn=self._margin_metric,
            batch_fn=self._margin_metric_batch,
            spec=0.0,
            dim=dim,
            direction="lower",
            name=f"union(betas={list(map(float, betas))}, d={dim})",
        )

    def _margin_metric(self, u):
        return float(np.min(self.betas - self.normals @ u))

    def _margin_metric_batch(self, ub):
        return np.min(self.betas[None, :] - ub @ self.normals.T, axis=1)

    def exact_pfail(self) -> float:
        """Inclusion–exclusion over independent half-spaces."""
        return float(1.0 - np.prod(stats.norm.cdf(self.betas)))

    def mpfp_points(self) -> np.ndarray:
        """All local most-probable failure points (one per hyperplane)."""
        return self.normals * self.betas[:, None]


class QuadraticLimitState(LimitState):
    """Curved failure boundary: ``g(u) = beta + (kappa/2)||u_perp||^2 - u_1``.

    ``u_1`` is the coordinate along the failure direction and ``u_perp``
    the remaining ``d-1`` coordinates.  ``kappa > 0`` curves the boundary
    away from the origin (failure region is convex, smaller than the FORM
    half-space estimate); ``kappa < 0`` curves it toward the origin.

    Conditioning on ``Q = ||u_perp||^2 ~ chi^2_{d-1}``:
    ``P = E[ Phi(-(beta + kappa/2 * Q)) ]`` — evaluated by adaptive
    quadrature to ~1e-12 relative accuracy, which is "exact" for every
    comparison in this repository.
    """

    def __init__(self, beta: float, dim: int, kappa: float = 0.1):
        if beta <= 0:
            raise EstimationError(f"beta must be positive, got {beta!r}")
        if dim < 2:
            raise EstimationError("quadratic limit state needs dim >= 2")
        self.beta = float(beta)
        self.kappa = float(kappa)

        super().__init__(
            fn=self._metric,
            batch_fn=self._metric_batch,
            spec=self.beta,
            dim=dim,
            direction="upper",
            name=f"quadratic(beta={beta:g}, kappa={kappa:g}, d={dim})",
        )

    def _metric(self, u):
        return float(u[0] - 0.5 * self.kappa * np.sum(u[1:] ** 2))

    def _metric_batch(self, ub):
        return ub[:, 0] - 0.5 * self.kappa * np.sum(ub[:, 1:] ** 2, axis=1)

    def exact_pfail(self) -> float:
        """Quadrature of ``Phi(-(beta + kappa/2 q))`` against chi^2_{d-1}."""
        df = self.dim - 1

        def integrand(q):
            return stats.norm.sf(self.beta + 0.5 * self.kappa * q) * stats.chi2.pdf(q, df)

        upper = stats.chi2.isf(1e-14, df)
        value, _err = integrate.quad(integrand, 0.0, upper, limit=400)
        return float(value)


class SramSurrogateLimitState(LimitState):
    """Quadratic-response surrogate of the 6T read-access metric.

    The modelled metric is::

        T(u) = t0 + a * s + b * s^2 + c * ||u_perp||^2,   s = w^T u

    with ``w`` the dominant sensitivity direction (pass-gate and pull-down
    threshold shifts slow the read; their signs are baked into the default
    ``w``).  This is the shape a second-order response-surface fit of the
    real bench produces, at ~10^6 times the evaluation speed.

    Exact reference: conditioning on ``Q = ||u_perp||^2 ~ chi^2_{d-1}``
    (independent of ``s ~ N(0,1)``), the failure event is a quadratic
    inequality in ``s`` solved in closed form per ``q`` and integrated by
    quadrature.
    """

    #: Default direction, shaped like the read-access sensitivity of the
    #: 6T cell in canonical device order (pg/pd of the low side dominate).
    DEFAULT_W6 = np.array([0.05, 0.45, 0.70, -0.10, -0.25, 0.47])

    def __init__(
        self,
        spec: float,
        dim: int = 6,
        t0: float = 32e-12,
        a: float = 4.2e-12,
        b: float = 0.55e-12,
        c: float = 0.12e-12,
        w: Optional[np.ndarray] = None,
    ):
        if w is None:
            if dim == 6:
                w = self.DEFAULT_W6.copy()
            else:
                w = np.ones(dim)
        self.w = _unit(np.asarray(w, dtype=float))
        if self.w.size != dim:
            raise EstimationError("w length does not match dim")
        self.t0, self.a, self.b, self.c = float(t0), float(a), float(b), float(c)
        if self.b < 0 or self.c < 0:
            raise EstimationError("surrogate curvature coefficients must be >= 0")

        super().__init__(
            fn=self._metric,
            batch_fn=self._metric_batch,
            spec=float(spec),
            dim=dim,
            direction="upper",
            name=f"sram-surrogate(spec={spec:.3e}, d={dim})",
        )

    def _metric(self, u):
        s = float(self.w @ u)
        perp2 = float(u @ u) - s * s
        return self.t0 + self.a * s + self.b * s * s + self.c * perp2

    def _metric_batch(self, ub):
        s = ub @ self.w
        perp2 = np.sum(ub * ub, axis=1) - s * s
        return self.t0 + self.a * s + self.b * s * s + self.c * perp2

    def exact_pfail(self) -> float:
        """Quadrature over the perpendicular chi-square radius."""
        df = self.dim - 1
        a, b, c, t0 = self.a, self.b, self.c, self.t0
        tau = self.spec

        def p_fail_given_q(q):
            # Solve a*s + b*s^2 >= tau - t0 - c*q for s ~ N(0, 1).
            rhs = tau - t0 - c * q
            if b == 0.0:
                if a == 0.0:
                    return 1.0 if rhs <= 0 else 0.0
                edge = rhs / a
                return stats.norm.sf(edge) if a > 0 else stats.norm.cdf(edge)
            disc = a * a + 4.0 * b * rhs
            if disc <= 0.0:
                # Parabola entirely above rhs: always failing.
                return 1.0
            root = np.sqrt(disc)
            s_lo = (-a - root) / (2.0 * b)
            s_hi = (-a + root) / (2.0 * b)
            # b > 0: failure outside [s_lo, s_hi].
            return stats.norm.cdf(s_lo) + stats.norm.sf(s_hi)

        def integrand(q):
            return p_fail_given_q(q) * stats.chi2.pdf(q, df)

        upper = stats.chi2.isf(1e-14, df)
        value, _err = integrate.quad(integrand, 0.0, upper, limit=400)
        return float(value)

    @classmethod
    def spec_for_sigma(cls, sigma_target: float, dim: int = 6, **kwargs) -> float:
        """Find the spec whose exact failure probability sits at ``sigma_target``.

        Bisection on the monotone spec → P_fail map; used by experiments
        to place workloads at exactly 4, 5 or 6 sigma.
        """
        target = float(stats.norm.sf(sigma_target))
        lo, hi = 20e-12, 200e-12
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            p = cls(spec=mid, dim=dim, **kwargs).exact_pfail()
            if p > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
