"""Process-variation modelling.

The statistical layer every sampler in :mod:`repro.highsigma` stands on:

* :mod:`repro.variation.pelgrom` — mismatch sigmas from device geometry
  via the Pelgrom area law.
* :mod:`repro.variation.space` — the :class:`VariationSpace` mapping
  between the standard-normal **u-space** the samplers operate in and the
  per-device parameter perturbations the simulator consumes.
"""

from repro.variation.pelgrom import beta_mismatch_sigma, vth_mismatch_sigma
from repro.variation.space import DeviceAxis, VariationSpace

__all__ = [
    "DeviceAxis",
    "VariationSpace",
    "vth_mismatch_sigma",
    "beta_mismatch_sigma",
]
