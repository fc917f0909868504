"""Gamma distribution.

Sums of exponential phases (multi-stage repairs, staged wear-out) are gamma
distributed, so this rounds out the repair/failure model toolbox.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._validation import require_non_negative, require_positive
from .base import ArrayLike, Distribution


class Gamma(Distribution):
    """Gamma distribution with shape ``k``, scale ``theta`` and a location shift.

    Parameters
    ----------
    shape:
        Shape parameter ``k`` (> 0); ``k = 1`` recovers the exponential.
    scale:
        Scale parameter ``theta`` (> 0), in hours.
    location:
        Failure-free time shift (>= 0).
    """

    def __init__(self, shape: float, scale: float, location: float = 0.0) -> None:
        self.shape = require_positive("shape", shape)
        self.scale = require_positive("scale", scale)
        self.location = require_non_negative("location", location)
        from scipy import special

        # Cached separately (not pre-summed) so `pdf` keeps the exact
        # subtraction order — and therefore bit-identical output — of the
        # uncached expression.
        self._gammaln_shape = float(special.gammaln(self.shape))
        self._log_scale = float(np.log(self.scale))

    def _z(self, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.maximum(t - self.location, 0.0) / self.scale

    def cdf(self, t: ArrayLike) -> ArrayLike:
        from scipy import special

        out = special.gammainc(self.shape, self._z(t))
        return out if np.ndim(out) else float(out)

    def pdf(self, t: ArrayLike) -> ArrayLike:
        t_arr = np.asarray(t, dtype=float)
        z = self._z(t_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pdf = (
                (self.shape - 1.0) * np.log(np.where(z > 0, z, np.nan))
                - z
                - self._gammaln_shape
                - self._log_scale
            )
            out = np.exp(log_pdf)
        if self.shape == 1.0:
            out = np.where(z == 0, 1.0 / self.scale, out)
        elif self.shape < 1.0:
            out = np.where(z == 0, np.inf, out)
        else:
            out = np.where(z == 0, 0.0, out)
        out = np.where(t_arr < self.location, 0.0, np.nan_to_num(out, nan=0.0, posinf=np.inf))
        return out if out.ndim else float(out)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError(f"quantile levels must be in [0, 1], got {q!r}")
        from scipy import special

        out = self.location + self.scale * special.gammaincinv(self.shape, q_arr)
        return out if np.ndim(out) else float(out)

    def sample(self, rng: np.random.Generator, size: Union[int, None] = None) -> ArrayLike:
        draw = self.location + rng.gamma(self.shape, self.scale, size)
        return draw if np.ndim(draw) else float(draw)

    def mean(self) -> float:
        return self.location + self.shape * self.scale

    def var(self) -> float:
        return self.shape * self.scale**2

    def _repr_params(self) -> dict:
        return {"shape": self.shape, "scale": self.scale, "location": self.location}
