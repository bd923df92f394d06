"""High-sigma failure-probability estimation.

The paper's contribution and its comparison set:

* :mod:`repro.highsigma.limitstate` — the ``g(u) <= 0 ⇔ failure``
  abstraction with evaluation counting.
* :mod:`repro.highsigma.results` — the result record every estimator
  returns.
* :mod:`repro.highsigma.analytic` — limit states with closed-form failure
  probabilities, the exactness anchor for every accuracy experiment.
* :mod:`repro.highsigma.estimators` — importance-weight math, effective
  sample size, figure of merit, confidence intervals.
* :mod:`repro.highsigma.mc` — plain Monte Carlo (baseline).
* :mod:`repro.highsigma.mpfp` — gradient-driven most-probable-failure-
  point search (HL-RF with Armijo damping).
* :mod:`repro.highsigma.gis` — **Gradient Importance Sampling**, the
  method under reproduction: gradient MPFP search + mean-shifted
  defensive-mixture Gaussian IS.
* :mod:`repro.highsigma.mnis` — minimum-norm / mixture importance
  sampling (Kanj-style pre-sampling baseline).
* :mod:`repro.highsigma.sss` — scaled-sigma sampling (Sun/Li-style
  extrapolation baseline).
* :mod:`repro.highsigma.spherical` — spherical radius-search IS
  (blind-search baseline and ablation reference).
* :mod:`repro.highsigma.ce` — cross-entropy adaptive IS (the
  adaptive-IS baseline of the sampler-variant comparison).
* :mod:`repro.highsigma.sigma` — P_fail ↔ sigma-level and array-yield
  conversions.
"""

from repro.highsigma.limitstate import LimitState
from repro.highsigma.results import EstimateResult
from repro.highsigma.analytic import (
    HypersphereLimitState,
    LinearLimitState,
    QuadraticLimitState,
    SramSurrogateLimitState,
    UnionLimitState,
)
from repro.highsigma.mc import MonteCarloEstimator
from repro.highsigma.mpfp import MpfpResult, MpfpSearch
from repro.highsigma.gis import GradientImportanceSampling
from repro.highsigma.ce import CrossEntropyIS
from repro.highsigma.mnis import MinimumNormIS
from repro.highsigma.sss import ScaledSigmaSampling
from repro.highsigma.spherical import SphericalSearchIS
from repro.highsigma.sigma import (
    pfail_to_sigma,
    sigma_to_pfail,
    array_yield,
    cells_per_failure,
)

__all__ = [
    "LimitState",
    "EstimateResult",
    "LinearLimitState",
    "QuadraticLimitState",
    "HypersphereLimitState",
    "UnionLimitState",
    "SramSurrogateLimitState",
    "MonteCarloEstimator",
    "MpfpSearch",
    "MpfpResult",
    "GradientImportanceSampling",
    "MinimumNormIS",
    "CrossEntropyIS",
    "ScaledSigmaSampling",
    "SphericalSearchIS",
    "pfail_to_sigma",
    "sigma_to_pfail",
    "array_yield",
    "cells_per_failure",
]
