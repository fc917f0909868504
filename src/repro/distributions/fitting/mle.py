"""Censored maximum-likelihood estimation for the Weibull distribution.

Field populations like the paper's Fig. 2 vintages are dominated by
suspensions (e.g. 992 failures among 24,056 drives for Vintage 2): most
units are still running when the data are analysed.  Rank-regression handles
this through adjusted plotting positions; MLE handles it exactly, through
the censored likelihood

``L = prod_fail f(t_i) * prod_susp S(t_j)``

For the two-parameter Weibull the scale profile-maximises in closed form for
a fixed shape, leaving a one-dimensional root-find in the shape.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..._validation import as_float_array
from ...exceptions import FittingError
from ..weibull import Weibull


@dataclasses.dataclass(frozen=True)
class WeibullMLEResult:
    """Maximum-likelihood Weibull estimate with fit metadata.

    Attributes
    ----------
    shape, scale:
        The MLE ``beta`` and ``eta``.
    log_likelihood:
        Maximised censored log-likelihood.
    n_failures, n_suspensions:
        Sample composition.
    covariance:
        2x2 asymptotic covariance of (shape, scale) from the observed
        Fisher information, or ``None`` when the information matrix was
        not invertible.
    """

    shape: float
    scale: float
    log_likelihood: float
    n_failures: int
    n_suspensions: int
    covariance: "np.ndarray | None" = None

    @property
    def distribution(self) -> Weibull:
        """The fitted two-parameter Weibull."""
        return Weibull(shape=self.shape, scale=self.scale)

    @property
    def shape_se(self) -> float:
        """Asymptotic standard error of the shape estimate."""
        if self.covariance is None:
            return float("nan")
        return float(np.sqrt(self.covariance[0, 0]))

    @property
    def scale_se(self) -> float:
        """Asymptotic standard error of the scale estimate."""
        if self.covariance is None:
            return float("nan")
        return float(np.sqrt(self.covariance[1, 1]))

    def _log_normal_ci(self, value: float, se: float, confidence: float):
        from scipy.special import erfinv

        z = float(np.sqrt(2.0) * erfinv(confidence))
        factor = np.exp(z * se / value)
        return value / factor, value * factor

    def shape_ci(self, confidence: float = 0.95):
        """Log-normal confidence interval for the shape (standard practice
        for positive parameters; see e.g. Meeker & Escobar)."""
        return self._log_normal_ci(self.shape, self.shape_se, confidence)

    def scale_ci(self, confidence: float = 0.95):
        """Log-normal confidence interval for the scale."""
        return self._log_normal_ci(self.scale, self.scale_se, confidence)


def _profile_scale(shape: float, fails: np.ndarray, cens: np.ndarray) -> float:
    """Scale that maximises the likelihood for a fixed shape.

    ``eta^beta = (sum_all t^beta) / r`` with ``r`` the failure count.
    Times are normalised by their maximum before powering so large shapes
    do not overflow.
    """
    all_times = np.concatenate([fails, cens]) if cens.size else fails
    t_max = float(np.max(all_times))
    total = float(np.sum((all_times / t_max) ** shape))
    return float(t_max * (total / fails.size) ** (1.0 / shape))


def _shape_equation(shape: float, fails: np.ndarray, cens: np.ndarray) -> float:
    """Score equation in the shape parameter (zero at the MLE).

    d logL / d beta = 0 reduces, after profiling eta, to::

        sum_all t^b ln t / sum_all t^b - 1/b - mean(ln t_fail) = 0

    The equation is invariant under rescaling every time by a constant, so
    times are normalised by their maximum to keep ``t**shape`` finite even
    for large trial shapes.
    """
    all_times = np.concatenate([fails, cens]) if cens.size else fails
    log_all = np.log(all_times)
    log_max = float(np.max(log_all))
    powered = np.exp(shape * (log_all - log_max))
    weighted = float(np.sum(powered * (log_all - log_max)) / np.sum(powered)) + log_max
    return weighted - 1.0 / shape - float(np.mean(np.log(fails)))


def fit_weibull_mle(
    failure_times: np.ndarray,
    censor_times: Optional[np.ndarray] = None,
    shape_bounds: tuple = (0.05, 50.0),
) -> WeibullMLEResult:
    """Fit a two-parameter Weibull by censored maximum likelihood.

    Parameters
    ----------
    failure_times:
        Observed failure times (> 0).
    censor_times:
        Right-censoring (suspension) times, if any.
    shape_bounds:
        Bracket for the shape root-find; widen only for pathological data.

    Raises
    ------
    FittingError:
        Fewer than two failures, non-positive times, or no root in bounds.
    """
    fails = as_float_array("failure_times", failure_times)
    if fails.size < 2:
        raise FittingError("Weibull MLE requires at least two failures")
    if np.any(fails <= 0):
        raise FittingError("failure times must be positive")
    if censor_times is None:
        cens = np.empty(0, dtype=float)
    else:
        cens = as_float_array("censor_times", censor_times, allow_empty=True)
        if np.any(cens <= 0):
            raise FittingError("censor times must be positive")
    if np.all(fails == fails[0]) and cens.size == 0:
        raise FittingError("all failure times identical; shape is unbounded")

    lo, hi = shape_bounds
    f_lo = _shape_equation(lo, fails, cens)
    f_hi = _shape_equation(hi, fails, cens)
    if f_lo * f_hi > 0:
        raise FittingError(
            f"no MLE shape in bounds {shape_bounds!r}; score endpoints "
            f"({f_lo:.3g}, {f_hi:.3g}) do not bracket zero"
        )
    from scipy import optimize

    shape = float(
        optimize.brentq(_shape_equation, lo, hi, args=(fails, cens), xtol=1e-10)
    )
    scale = _profile_scale(shape, fails, cens)

    def loglik(params: np.ndarray) -> float:
        dist = Weibull(shape=float(params[0]), scale=float(params[1]))
        value = float(np.sum(np.log(dist.pdf(fails))))
        if cens.size:
            value -= float(np.sum(np.asarray(dist.cumulative_hazard(cens))))
        return value

    log_lik = loglik(np.array([shape, scale]))
    covariance = _observed_information_covariance(loglik, shape, scale)
    return WeibullMLEResult(
        shape=shape,
        scale=scale,
        log_likelihood=log_lik,
        n_failures=int(fails.size),
        n_suspensions=int(cens.size),
        covariance=covariance,
    )


def _observed_information_covariance(
    loglik, shape: float, scale: float
) -> "np.ndarray | None":
    """Asymptotic covariance from a finite-difference observed information.

    Central second differences of the log-likelihood at the MLE with
    relative steps; returns ``None`` if the resulting information matrix
    is not positive definite (degenerate fits).
    """
    theta = np.array([shape, scale], dtype=float)
    steps = 1e-4 * theta
    hessian = np.empty((2, 2), dtype=float)
    for i in range(2):
        for j in range(i, 2):
            ei = np.zeros(2)
            ej = np.zeros(2)
            ei[i] = steps[i]
            ej[j] = steps[j]
            if i == j:
                value = (
                    loglik(theta + ei) - 2.0 * loglik(theta) + loglik(theta - ei)
                ) / steps[i] ** 2
            else:
                value = (
                    loglik(theta + ei + ej)
                    - loglik(theta + ei - ej)
                    - loglik(theta - ei + ej)
                    + loglik(theta - ei - ej)
                ) / (4.0 * steps[i] * steps[j])
            hessian[i, j] = hessian[j, i] = value
    information = -hessian
    try:
        covariance = np.linalg.inv(information)
    except np.linalg.LinAlgError:  # pragma: no cover - degenerate data
        return None
    if np.any(np.diag(covariance) <= 0):  # pragma: no cover - degenerate data
        return None
    return covariance
