"""Gradient-driven most-probable-failure-point (MPFP) search.

The MPFP (design point, in structural-reliability language) is the
failure-region point closest to the origin in u-space:

    u* = argmin ||u||  subject to  g(u) <= 0.

Because the standard-normal density decays with ``exp(-||u||^2/2)``, the
failure probability mass concentrates around u*, which is why a Gaussian
mean-shifted there is a near-optimal importance distribution.

The search is the improved Hasofer–Lind–Rackwitz–Fiessler (iHL-RF)
iteration: each step linearises ``g`` with a (finite-difference or
user-supplied) gradient, jumps to the closest point of the linearised
boundary, and damps the jump with an Armijo backtracking line search on
the standard merit function ``m(u) = ||u||^2 / 2 + c |g(u)|``.  This is
the *gradient* part of gradient importance sampling: where blind
pre-sampling methods spend thousands of simulations hunting for a first
failure, the gradient walks straight down the margin surface in tens.

An iteration normally costs one oracle call.  A compiled batched
simulator prices a call mostly by its time-step loop, not by its width
(a 13-row 6T call costs little more than a 1-row one), so the search's
wall time follows its sequential calls.  One
:meth:`~repro.highsigma.limitstate.LimitState.g_batch` call therefore
holds the Armijo trial steps ``lambda = 1, 1/2, 1/4`` that can still
pass together with the finite-difference stencil around the first of
them, which becomes the next iteration's gradient when that step is
accepted.  Smaller steps are evaluated one at a time.  A trial step
whose norm alone fails the sufficient-decrease test is never
simulated: the merit only adds ``c |g| >= 0`` to ``||u||^2 / 2``.  The
accepted iterates are exactly those of a search that evaluates one
point at a time; only the set of simulated points differs.

All limit-state evaluations (including speculative stencils and the
finite-difference gradients) are billed through the limit state's
counter — search cost is part of every reported evaluation count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SearchError
from repro.highsigma.limitstate import LimitState

__all__ = ["MpfpOptions", "MpfpResult", "MpfpSearch"]

#: Armijo steps ``lambda = 1, shrink, shrink^2`` share one oracle call
#: with the stencil around the largest of them that can still pass.
#: Every iteration of the 6T read and write searches (200 and 400
#: steps) accepted one of these three; the 0.3 V disturb search
#: accepted 1/16 in its first.  Batching all eight levels made the read
#: and write searches no fewer calls and cost them 20-25 more
#: simulations.
_LADDER = 3


@dataclass(frozen=True)
class MpfpOptions:
    """Search controls.

    ``fd_step`` must comfortably exceed the simulator's metric noise
    (adaptive-timestep jitter is ~0.1 % of a delay; a 0.05-sigma
    parameter step moves a 6T read delay by percents, so the default is
    safely above the noise floor).
    """

    max_iterations: int = 60
    fd_step: float = 0.05
    grad_mode: str = "central"  # "central" | "forward" | "spsa"
    spsa_repeats: int = 4
    tol_g: float = 1e-3         # |g|/scale at convergence
    tol_align: float = 5e-3     # 1 - cos(u, -grad) at convergence
    min_grad_norm: float = 1e-12
    armijo_shrink: float = 0.5
    armijo_max_backtracks: int = 8


@dataclass
class MpfpResult:
    """Search outcome.

    ``beta`` is the reliability index ``||u*||`` — the headline number a
    FORM analysis would report as the sigma level.  ``trajectory`` holds
    ``(u, g)`` pairs per accepted iterate for the search-cost figure.
    ``n_calls`` counts the oracle calls (``g`` or ``g_batch``) the search
    made one after another; on a compiled simulator its wall time follows
    them rather than ``n_evals``.
    """

    u_star: np.ndarray
    beta: float
    g_value: float
    iterations: int
    n_evals: int
    converged: bool
    trajectory: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    message: str = ""
    g_start: float = float("nan")
    n_calls: int = 0

    def near_boundary(self, rel: float = 0.2) -> bool:
        """Whether the returned point actually sits near ``g = 0``.

        ``converged=False`` results can still be serviceable shift points
        — but only if the margin shrank substantially relative to where
        the search started; a flat or failure-free metric never passes.
        """
        if self.converged or self.g_value <= 0.0:
            return True
        scale = abs(self.g_start)
        if not np.isfinite(scale) or scale == 0.0:
            return False
        return abs(self.g_value) < rel * scale


class MpfpSearch:
    """iHL-RF search over a :class:`~repro.highsigma.limitstate.LimitState`.

    Parameters
    ----------
    limit_state:
        The margin field; failure is ``g <= 0``.
    options:
        Iteration controls.  An unknown ``grad_mode`` raises
        :class:`~repro.errors.SearchError` here, before anything is
        simulated.
    grad_fn:
        Optional exact gradient ``grad_fn(u) -> array`` (analytic limit
        states); otherwise finite differences per ``options.grad_mode``.
    """

    def __init__(
        self,
        limit_state: LimitState,
        options: Optional[MpfpOptions] = None,
        grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self.ls = limit_state
        self.opts = options or MpfpOptions()
        if self.opts.grad_mode not in ("central", "forward", "spsa"):
            raise SearchError(f"unknown grad_mode {self.opts.grad_mode!r}")
        self._grad_fn = grad_fn
        # Finite-difference stencils ride along with the oracle calls;
        # SPSA draws its perturbations from the RNG at gradient time.
        self._fd = grad_fn is None and self.opts.grad_mode != "spsa"
        self._n_calls = 0

    # ------------------------------------------------------------------

    def _g(self, u: np.ndarray) -> float:
        self._n_calls += 1
        return self.ls.g(u)

    def _evaluate(self, rows: List[np.ndarray]) -> Tuple[List[float], Optional[np.ndarray]]:
        """One oracle call: the margins at ``rows`` and, in
        finite-difference mode, at the stencil around ``rows[0]``.

        Returns the row margins and the gradient at ``rows[0]`` (``None``
        without a stencil).
        """
        opts = self.opts
        n = len(rows)
        batch = np.array(rows)
        if self._fd:
            stencil = self.ls.fd_stencil(rows[0], opts.fd_step, opts.grad_mode)
            batch = np.concatenate([batch, stencil])
        vals = self.ls.g_batch(batch)
        self._n_calls += 1
        g_rows = [float(v) for v in vals[:n]]
        if not self._fd:
            return g_rows, None
        grad = self.ls.fd_difference(vals[n:], opts.fd_step, opts.grad_mode, g_rows[0])
        return g_rows, grad

    def _gradient(self, u: np.ndarray, g_u: float, rng: np.random.Generator) -> np.ndarray:
        """Gradient at an iterate that arrived without its stencil."""
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(u), dtype=float)
        opts = self.opts
        self._n_calls += 1
        if opts.grad_mode == "spsa":
            return self.ls.spsa_gradient(u, rng, step=opts.fd_step, repeats=opts.spsa_repeats)
        return self.ls.fd_gradient(u, step=opts.fd_step, scheme=opts.grad_mode, g0=g_u)

    def _line_search(
        self,
        u: np.ndarray,
        direction: np.ndarray,
        c_merit: float,
        m_u: float,
        scale: float,
    ) -> Tuple[np.ndarray, float, Optional[np.ndarray]]:
        """Armijo backtracking on the merit ``||u||^2 / 2 + c |g| / scale``.

        Returns the new iterate, its margin and, when its stencil was
        evaluated with it, its gradient.
        """
        opts = self.opts
        dd = float(direction @ direction)
        # Per level: (step, its ||u||^2 / 2, the sufficient-decrease
        # bound), or None where the norm alone fails the bound.  The
        # merit only adds c |g| >= 0 and IEEE addition never lowers a
        # sum, so such a step could never pass and is not simulated.
        steps: List[Optional[Tuple[np.ndarray, float, float]]] = []
        lam = 1.0
        for _ in range(opts.armijo_max_backtracks):
            u_try = u + lam * direction
            half_sq = 0.5 * float(u_try @ u_try)
            bound = m_u - 1e-4 * lam * dd
            steps.append((u_try, half_sq, bound) if half_sq < bound else None)
            lam *= opts.armijo_shrink

        live = [k for k, step in enumerate(steps[:_LADDER]) if step is not None]
        g_ladder: Dict[int, float] = {}
        lead_grad = None
        if live:
            g_rows, lead_grad = self._evaluate([steps[k][0] for k in live])
            g_ladder = dict(zip(live, g_rows))

        for k, step in enumerate(steps):
            if step is None:
                continue
            u_try, half_sq, bound = step
            g_try = g_ladder[k] if k < _LADDER else self._g(u_try)
            if half_sq + c_merit * abs(g_try / scale) < bound:
                return u_try, g_try, lead_grad if live and k == live[0] else None
        # Take the smallest step anyway; stagnation is handled by the
        # iteration cap.
        u = u + lam * direction
        return u, self._g(u), None

    def run(
        self,
        u0: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> MpfpResult:
        """Search from ``u0`` (origin by default); returns the design point.

        Raises :class:`~repro.errors.SearchError` only for setup problems;
        a search that merely fails to meet tolerances returns with
        ``converged=False`` so callers can decide (the GIS driver falls
        back to the best iterate, which is usually serviceable).
        """
        rng = rng if rng is not None else np.random.default_rng()
        opts = self.opts
        evals_before = self.ls.n_evals
        self._n_calls = 0

        u = np.zeros(self.ls.dim) if u0 is None else np.asarray(u0, dtype=float).copy()
        grad: Optional[np.ndarray] = None
        if self._fd:
            (g_u,), grad = self._evaluate([u])
        else:
            g_u = self._g(u)
        # Normalise g by its magnitude at the start point so tolerances and
        # the merit function are scale-free (metrics are seconds or volts).
        scale = abs(g_u)
        if scale < 1e-300:
            scale = 1.0
        trajectory: List[Tuple[np.ndarray, float]] = [(u.copy(), g_u)]
        converged = False
        message = "max iterations reached"
        best = (float("inf"), u.copy(), g_u)

        for iteration in range(1, opts.max_iterations + 1):
            if grad is None:
                grad = self._gradient(u, g_u, rng)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < opts.min_grad_norm * scale:
                # Flat spot (deep in a penalty plateau or a dead metric):
                # kick in a random direction rather than dividing by ~0.
                u = u + rng.standard_normal(self.ls.dim) * 0.5
                g_u, grad = self._g(u), None
                trajectory.append((u.copy(), g_u))
                continue

            gn = g_u / scale
            gradn = grad / scale

            # Convergence check: on the boundary and anti-aligned with grad.
            u_norm = float(np.linalg.norm(u))
            if u_norm > 0:
                cos = float(-(u @ gradn) / (u_norm * np.linalg.norm(gradn)))
                aligned = (1.0 - cos) < opts.tol_align
            else:
                aligned = False
            if abs(gn) < opts.tol_g and aligned:
                converged = True
                message = f"converged in {iteration - 1} iterations"
                break

            # HL-RF step target: closest point on the linearised boundary.
            target = ((gradn @ u - gn) / float(gradn @ gradn)) * gradn
            direction = target - u

            # Armijo backtracking on the merit function
            # m(u) = 0.5 ||u||^2 + c |g(u)| with the standard c rule.
            c_merit = 2.0 * u_norm / np.linalg.norm(gradn) + 10.0
            m_u = 0.5 * u_norm**2 + c_merit * abs(gn)
            u, g_u, grad = self._line_search(u, direction, c_merit, m_u, scale)

            trajectory.append((u.copy(), g_u))
            if abs(g_u / scale) < 10 * opts.tol_g:
                norm_now = float(np.linalg.norm(u))
                if norm_now < best[0]:
                    best = (norm_now, u.copy(), g_u)

        if not converged and best[0] < float("inf"):
            # Fall back to the best near-boundary iterate seen.
            _norm, u, g_u = best
            message += "; returning best near-boundary iterate"

        return MpfpResult(
            u_star=u,
            beta=float(np.linalg.norm(u)),
            g_value=g_u,
            iterations=len(trajectory) - 1,
            n_evals=self.ls.n_evals - evals_before,
            converged=converged,
            trajectory=trajectory,
            message=message,
            g_start=trajectory[0][1],
            n_calls=self._n_calls,
        )
