"""Log-normal distribution.

A standard alternative for repair/restore times: technician response plus
data reconstruction naturally produces right-skewed, multiplicative delays.
Included so users can test the sensitivity of DDF estimates to the restore
model the paper chose (a three-parameter Weibull with ``beta = 2``).
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .._validation import require_non_negative, require_positive
from .base import ArrayLike, Distribution

_SQRT2 = math.sqrt(2.0)


class LogNormal(Distribution):
    """Log-normal distribution with optional location shift.

    ``ln(T - location)`` is normal with mean ``mu`` and standard deviation
    ``sigma``.

    Parameters
    ----------
    mu:
        Mean of the underlying normal (log-hours).
    sigma:
        Standard deviation of the underlying normal (> 0).
    location:
        Failure-free time shift (>= 0).
    """

    def __init__(self, mu: float, sigma: float, location: float = 0.0) -> None:
        self.mu = float(mu)
        self.sigma = require_positive("sigma", sigma)
        self.location = require_non_negative("location", location)

    @classmethod
    def from_median_and_sigma(
        cls, median: float, sigma: float, location: float = 0.0
    ) -> "LogNormal":
        """Construct from the (shifted) median, which is ``exp(mu)``."""
        median = require_positive("median", median)
        if median <= location:
            raise ValueError(f"median ({median}) must exceed location ({location})")
        return cls(mu=math.log(median - location), sigma=sigma, location=location)

    def _z(self, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        shifted = t - self.location
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(np.where(shifted > 0, shifted, np.nan)) - self.mu) / self.sigma
        return z

    def cdf(self, t: ArrayLike) -> ArrayLike:
        from scipy import special

        t_arr = np.asarray(t, dtype=float)
        z = self._z(t_arr)
        out = 0.5 * (1.0 + special.erf(np.nan_to_num(z, nan=-np.inf) / _SQRT2))
        out = np.where(t_arr <= self.location, 0.0, out)
        return out if out.ndim else float(out)

    def pdf(self, t: ArrayLike) -> ArrayLike:
        t_arr = np.asarray(t, dtype=float)
        shifted = t_arr - self.location
        z = self._z(t_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(-0.5 * z * z) / (shifted * self.sigma * math.sqrt(2.0 * math.pi))
        out = np.where(t_arr <= self.location, 0.0, np.nan_to_num(out, nan=0.0))
        return out if out.ndim else float(out)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError(f"quantile levels must be in [0, 1], got {q!r}")
        from scipy import special

        with np.errstate(divide="ignore"):
            z = _SQRT2 * special.erfinv(2.0 * q_arr - 1.0)
            out = self.location + np.exp(self.mu + self.sigma * z)
        out = np.where(q_arr == 0.0, self.location, out)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: Union[int, None] = None) -> ArrayLike:
        draw = self.location + rng.lognormal(self.mu, self.sigma, size)
        return draw if np.ndim(draw) else float(draw)

    def mean(self) -> float:
        return self.location + math.exp(self.mu + 0.5 * self.sigma**2)

    def var(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def median(self) -> float:
        return self.location + math.exp(self.mu)

    def _repr_params(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma, "location": self.location}
