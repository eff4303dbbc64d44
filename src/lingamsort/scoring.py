"""Log-densities, scale estimators, and the likelihood-ratio score.

The score of a residual vector is the mean log-likelihood ratio between
the fitted non-Gaussian density and a moment-matched mean-zero normal
density: a measure of how non-Gaussian the residual is (Hyvarinen & Smith,
JMLR 2013).  :func:`llr_score` computes it from that definition for one
vector, and for an n x K block of residuals in one pass per block, which
is how the sorter calls it.  The block form builds no Gaussian
log-density array: with sigma_hat^2 = mean(r^2), the normal term is
exactly -log(2 pi)/2 - log(sigma_hat) - 1/2 for every column.  For the
Laplace family the whole ratio collapses to the norm ratio
log(sqrt(n) ||r||_2 / ||r||_1) plus the constant log(pi/2)/2 - 1/2
(:func:`laplace_fast_score`), which is the block form's Laplace path.
"""
from __future__ import annotations

import math
import numpy as np

from .model import GAUSSIAN, LAPLACE, LOGISTIC, SCALED_T, NoiseFamily

LOG_2PI = math.log(2.0 * math.pi)

# Residual mean square below this is treated as numerically zero: the
# residual is degenerate, its node explained exactly by its regressors.
DEGENERATE_MEAN_SQUARE = 1e-12

# Laplace score minus the norm-ratio shortcut, for every vector:
# log(pi/2)/2 - 1/2.
LAPLACE_GAP = 0.5 * math.log(math.pi / 2.0) - 0.5


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


def llr_score(family: NoiseFamily, residual: np.ndarray) -> float | np.ndarray:
    """Mean log-likelihood ratio of the fitted family over a matched normal.

    value = mean_i [ log g(r_i; eta_hat) - log phi(r_i; sigma_hat) ], with
    phi the mean-zero normal density at standard deviation sigma_hat.
    Invariant under positive rescaling of the residual.

    A vector gives a float and raises :class:`DegenerateResidual` when it
    is identically zero.  An n x K block gives the K column scores, from
    the closed forms set out in the module docstring; a block never raises,
    and a column whose mean square is under ``DEGENERATE_MEAN_SQUARE``
    scores -inf.
    """
    residual = np.asarray(residual, dtype=float)
    if residual.ndim == 2:
        return _block_scores(family, residual)
    eta, sigma = fit_scale(family, residual)
    gauss = -0.5 * LOG_2PI - math.log(sigma) - 0.5 * (residual / sigma) ** 2
    return float(np.mean(log_density(family, residual, eta) - gauss))


def _block_scores(family: NoiseFamily, block: np.ndarray) -> np.ndarray:
    cols = block.T
    mean_square = (cols[:, None, :] @ cols[:, :, None]).ravel() / block.shape[0]
    if not np.minimum.reduce(mean_square, initial=np.inf) >= DEGENERATE_MEAN_SQUARE:  # NaN too
        live = mean_square >= DEGENERATE_MEAN_SQUARE
        out = np.full(block.shape[1], -np.inf)
        out[live] = _block_scores(family, block[:, live])
        return out
    tag = family.tag
    if tag == LAPLACE:
        return _log_norm_ratio(block, mean_square) + LAPLACE_GAP
    if tag == GAUSSIAN:
        return np.zeros(block.shape[1])
    sigma = np.sqrt(mean_square)
    work = np.empty_like(block)
    if tag == LOGISTIC:
        eta = math.sqrt(3.0) / math.pi * sigma
        np.abs(block, out=work)
        work /= eta
        mean_abs = work.mean(axis=0)
        np.negative(work, out=work)
        np.exp(work, out=work)
        np.log1p(work, out=work)
        log_g = -mean_abs - np.log(eta) - 2.0 * work.mean(axis=0)
    elif tag == SCALED_T:
        nu = family.df
        eta = sigma * math.sqrt((nu - 2.0) / nu)
        np.multiply(block, block, out=work)
        work /= eta * eta * nu
        np.log1p(work, out=work)
        log_g = (
            math.lgamma((nu + 1.0) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - np.log(eta)
            - ((nu + 1.0) / 2.0) * work.mean(axis=0)
        )
    else:
        raise ValueError(f"unknown family {tag!r}")
    return log_g + 0.5 * LOG_2PI + np.log(sigma) + 0.5


def laplace_fast_score(residual: np.ndarray) -> float | np.ndarray:
    """log(sigma_hat / eta_hat) = log(sqrt(n) ||r||_2 / ||r||_1).

    Ranks candidates identically to the full Laplace likelihood-ratio
    score, from which it differs by the constant ``LAPLACE_GAP``.  A vector
    gives a float; an n x K block gives one value per column.  Raises
    :class:`DegenerateResidual` when any column is identically zero.
    """
    residual = np.asarray(residual, dtype=float)
    sum_squares = np.einsum("i...,i...->...", residual, residual)
    if np.any(sum_squares == 0.0):
        raise DegenerateResidual()
    out = _log_norm_ratio(residual, sum_squares / residual.shape[0])
    return out if out.ndim else float(out)


def _log_norm_ratio(residual: np.ndarray, mean_square) -> np.ndarray:
    """log(sigma_hat / eta_hat) per column, given sigma_hat^2 = mean_square."""
    return np.log(np.sqrt(mean_square) * residual.shape[0] / np.add.reduce(np.abs(residual.T), axis=-1))
