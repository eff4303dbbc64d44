"""Log-densities, scale estimators, and the likelihood-ratio score.

The score of a residual vector is the mean log-likelihood ratio between
the fitted non-Gaussian density and a moment-matched mean-zero normal
density: a measure of how non-Gaussian the residual is.  For the Laplace
family the ratio collapses to log(sigma_hat / eta_hat) plus a constant, so
an equivalent norm-ratio shortcut is provided.
"""
from __future__ import annotations

import math
import numpy as np

from .model import GAUSSIAN, LAPLACE, LOGISTIC, SCALED_T, NoiseFamily

LOG_2PI = math.log(2.0 * math.pi)

# Residual mean square below this is treated as numerically zero: the
# residual is degenerate, its node explained exactly by its regressors.
DEGENERATE_MEAN_SQUARE = 1e-12


class DegenerateResidual(ValueError):
    """A residual vector is identically zero and carries no information."""

    def __init__(self, node: int | None = None):
        tail = "" if node is None else f" (node {node})"
        super().__init__(f"residual vector is identically zero{tail}")
        self.node = node


def log_density(family: NoiseFamily, r: np.ndarray | float, eta: float) -> np.ndarray | float:
    """log g(r; eta) for the family, vectorized over r.

    eta is the scale parameter; for the Gaussian branch it is the standard
    deviation of a mean-zero normal.
    """
    if eta <= 0:
        raise ValueError("scale must be positive")
    r = np.asarray(r, dtype=float)
    z = r / eta
    tag = family.tag
    if tag == LAPLACE:
        out = -np.log(2.0 * eta) - np.abs(z)
    elif tag == LOGISTIC:
        # symmetric in z; the |z| form keeps exp() from overflowing
        az = np.abs(z)
        out = -az - math.log(eta) - 2.0 * np.log1p(np.exp(-az))
    elif tag == SCALED_T:
        nu = family.df
        const = (
            math.lgamma((nu + 1.0) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - math.log(eta)
        )
        out = const - ((nu + 1.0) / 2.0) * np.log1p(z * z / nu)
    elif tag == GAUSSIAN:
        out = -0.5 * LOG_2PI - math.log(eta) - 0.5 * z * z
    else:
        raise ValueError(f"unknown family {tag!r}")
    return out if out.ndim else float(out)


def fit_scale(family: NoiseFamily, residual: np.ndarray) -> tuple[float, float]:
    """(eta_hat, sigma_hat) for a mean-zero residual vector.

    sigma_hat is always sqrt(mean(r^2)).  eta_hat is the Laplace maximum
    likelihood estimate mean(|r|), or the moment plug-in for the other
    families: sqrt(3)/pi * sigma_hat (Logistic), sigma_hat *
    sqrt((df-2)/df) (Scaled-t), sigma_hat itself (Gaussian).  No mean is
    subtracted; residuals are mean-zero by construction.
    """
    residual = np.asarray(residual, dtype=float)
    sigma = math.sqrt(float(residual @ residual) / residual.size)
    if sigma == 0.0:
        raise DegenerateResidual()
    tag = family.tag
    if tag == LAPLACE:
        eta = float(np.abs(residual).mean())
    elif tag == LOGISTIC:
        eta = math.sqrt(3.0) / math.pi * sigma
    elif tag == SCALED_T:
        eta = sigma * math.sqrt((family.df - 2.0) / family.df)
    elif tag == GAUSSIAN:
        eta = sigma
    else:
        raise ValueError(f"unknown family {tag!r}")
    return eta, sigma


def llr_score(family: NoiseFamily, residual: np.ndarray) -> float:
    """Mean log-likelihood ratio of the fitted family over a matched normal.

    value = mean_i [ log g(r_i; eta_hat) - log phi(r_i; sigma_hat) ], with
    phi the mean-zero normal density at standard deviation sigma_hat.
    Invariant under positive rescaling of the residual.
    """
    residual = np.asarray(residual, dtype=float)
    eta, sigma = fit_scale(family, residual)
    gauss = -0.5 * LOG_2PI - math.log(sigma) - 0.5 * (residual / sigma) ** 2
    return float(np.mean(log_density(family, residual, eta) - gauss))


def laplace_fast_score(residual: np.ndarray) -> float:
    """log(sigma_hat / eta_hat) = log(sqrt(n) ||r||_2 / ||r||_1).

    Ranks candidates identically to the full Laplace likelihood-ratio
    score, from which it differs by the constant log(pi/2)/2 - 1/2.
    """
    residual = np.asarray(residual, dtype=float)
    norm2 = math.sqrt(float(residual @ residual))
    if norm2 == 0.0:
        raise DegenerateResidual()
    norm1 = float(np.abs(residual).sum())
    return math.log(math.sqrt(residual.size) * norm2 / norm1)
