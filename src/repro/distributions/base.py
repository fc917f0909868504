"""Abstract base class for failure-time distributions.

All distributions in :mod:`repro.distributions` model a non-negative random
variable ``T`` ("time to event", in hours throughout this package).  The
base class defines the reliability-engineering vocabulary used by the rest
of the library — survival function, hazard rate, cumulative hazard — and
provides numerically robust generic fallbacks so concrete subclasses only
*must* implement :meth:`cdf` and :meth:`pdf`.

Design notes
------------
* All probability methods are vectorized: they accept scalars or array-likes
  and return a ``numpy`` scalar or array of the same shape.
* :meth:`sample` takes an explicit ``numpy.random.Generator``.  Nothing in
  this package touches global random state; reproducibility is a first-class
  requirement for a Monte Carlo reliability model.
* :meth:`sample_conditional` draws remaining life given survival to an age,
  which the simulator needs when a process is observed mid-life.
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np

from ..exceptions import DistributionError

ArrayLike = Union[float, np.ndarray]

#: Smallest probability treated as distinguishable from 0/1 when inverting
#: CDFs numerically.
_EPS = 1e-12


class Distribution(abc.ABC):
    """A non-negative continuous failure-time distribution.

    Subclasses must implement :meth:`cdf` and :meth:`pdf` and should
    override :meth:`ppf`, :meth:`sample`, :meth:`mean` and :meth:`var` with
    closed forms when available; the base class supplies numeric fallbacks.
    """

    #: Lower end of the support (location/threshold parameter); times below
    #: this have probability zero.  Subclasses may override as an attribute.
    location: float = 0.0

    # ------------------------------------------------------------------
    # Abstract core
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cdf(self, t: ArrayLike) -> ArrayLike:
        """Probability that the event has occurred by time ``t``: ``P(T <= t)``."""

    @abc.abstractmethod
    def pdf(self, t: ArrayLike) -> ArrayLike:
        """Probability density at time ``t``."""

    # ------------------------------------------------------------------
    # Reliability vocabulary
    # ------------------------------------------------------------------
    def sf(self, t: ArrayLike) -> ArrayLike:
        """Survival (reliability) function ``P(T > t) = 1 - cdf(t)``."""
        return 1.0 - np.asarray(self.cdf(t))

    def hazard(self, t: ArrayLike) -> ArrayLike:
        """Instantaneous hazard rate ``h(t) = pdf(t) / sf(t)``.

        This is the *component* hazard the paper distinguishes from the
        system-level rate of occurrence of failure (ROCOF).  Where the
        survival function underflows to zero the hazard is reported as
        ``inf``.
        """
        t = np.asarray(t, dtype=float)
        surv = np.asarray(self.sf(t), dtype=float)
        dens = np.asarray(self.pdf(t), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            haz = np.where(surv > 0, dens / np.where(surv > 0, surv, 1.0), np.inf)
        # 0/0 (density and survival both zero, e.g. below the location
        # parameter) is a hazard of zero, not NaN.
        haz = np.where((dens == 0) & (surv == 0), np.inf, haz)
        haz = np.where((dens == 0) & (surv > 0), 0.0, haz)
        return haz if haz.ndim else float(haz)

    def cumulative_hazard(self, t: ArrayLike) -> ArrayLike:
        """Cumulative hazard ``H(t) = -ln(sf(t))``."""
        surv = np.asarray(self.sf(t), dtype=float)
        with np.errstate(divide="ignore"):
            cum = -np.log(np.clip(surv, 0.0, 1.0))
        return cum if cum.ndim else float(cum)

    # ------------------------------------------------------------------
    # Inversion and sampling
    # ------------------------------------------------------------------
    def ppf(self, q: ArrayLike) -> ArrayLike:
        """Quantile function: smallest ``t`` with ``cdf(t) >= q``.

        Generic implementation via bracketing + Brent root finding on the
        CDF.  Subclasses with closed-form quantiles should override.
        """
        q_arr = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise DistributionError(f"quantile levels must be in [0, 1], got {q!r}")
        out = np.empty_like(q_arr)
        for i, level in enumerate(q_arr):
            out[i] = self._ppf_scalar(float(level))
        return out if np.ndim(q) else float(out[0])

    def _ppf_scalar(self, q: float) -> float:
        if q <= _EPS:
            return self.location
        if q >= 1.0 - _EPS:
            q = 1.0 - _EPS
        lo = self.location
        hi = max(lo + 1.0, lo * 2.0 + 1.0)
        # Expand the bracket geometrically until the CDF exceeds q.
        for _ in range(200):
            if self.cdf(hi) >= q:
                break
            hi = (hi - lo) * 2.0 + lo
        else:  # pragma: no cover - pathological distributions only
            raise DistributionError("could not bracket quantile; CDF never reaches q")
        from scipy import optimize

        return float(optimize.brentq(lambda t: self.cdf(t) - q, lo, hi, xtol=1e-9, rtol=1e-12))

    def sample(self, rng: np.random.Generator, size: Union[int, None] = None) -> ArrayLike:
        """Draw samples by inverse-transform from :meth:`ppf`.

        Parameters
        ----------
        rng:
            Source of randomness; callers own seeding.
        size:
            ``None`` for a single float, otherwise the number of draws.
        """
        u = rng.random(size)
        return self.ppf(u)

    def sample_conditional(
        self,
        rng: np.random.Generator,
        age: float,
        size: Union[int, None] = None,
    ) -> ArrayLike:
        """Draw *remaining* life given survival to ``age``.

        Returns samples of ``T - age`` conditioned on ``T > age``, by
        inverting the conditional CDF
        ``F(t | T > age) = (F(age + t) - F(age)) / sf(age)``.
        """
        if age < 0:
            raise DistributionError(f"age must be >= 0, got {age!r}")
        surv = float(self.sf(age))
        if surv <= 0:
            raise DistributionError(
                f"cannot condition on survival to age {age!r}: survival probability is 0"
            )
        base = float(self.cdf(age))
        u = rng.random(size)
        total = self.ppf(base + np.asarray(u) * surv)
        remaining = np.asarray(total, dtype=float) - age
        remaining = np.maximum(remaining, 0.0)
        return remaining if np.ndim(u) else float(remaining)

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Expected value, computed as the integral of the survival function."""
        from scipy import integrate

        upper = self._moment_upper_bound()
        value, _ = integrate.quad(lambda t: float(self.sf(t)), 0.0, upper, limit=200)
        return float(value)

    def var(self) -> float:
        """Variance, via ``E[T^2] = 2 * int t * sf(t) dt``."""
        from scipy import integrate

        upper = self._moment_upper_bound()
        second, _ = integrate.quad(
            lambda t: 2.0 * t * float(self.sf(t)), 0.0, upper, limit=200
        )
        mu = self.mean()
        return float(max(second - mu * mu, 0.0))

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.var()))

    def median(self) -> float:
        """The 0.5 quantile."""
        return float(self.ppf(0.5))

    def _moment_upper_bound(self) -> float:
        """A time by which virtually all probability mass has been spent."""
        return float(self.ppf(1.0 - 1e-10))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in self._repr_params().items())
        return f"{type(self).__name__}({params})"

    def _repr_params(self) -> dict:
        return {}
