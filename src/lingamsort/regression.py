"""Least-squares kernels: standardization, joint OLS, incremental Cholesky.

No intercepts appear anywhere: columns are standardized to mean zero
before any fitting, so regressions go through the origin.  Joint OLS
checks the rank by a Cholesky factorization with a relative pivot floor
and solves the normal equations; neighborhoods are small, so this is both
fast and numerically adequate.  Only numpy is used.

The sorter keeps each node's joint-OLS residual current as its regressor
set grows one column at a time.  :class:`ResidualState` holds the raw
columns, their residuals and the count of inner products spent.  Each
regressor set Z (m columns) keeps the inverse W = L^-1 of the lower
Cholesky factor L of its Gram matrix G = Z'Z (Golub & Van Loan, *Matrix
Computations* 6.5), so that G^-1 = W'W and no triangular solve is needed.
:func:`partial_update` extends one factor by one column x and returns the
new direction u::

    c = Z'x,  beta = W'(W c),  u = x - Z beta,  delta = u'u
    W gains the row (-beta', 1) / sqrt(delta)

W c and W'(W c) are m x m products, not length-n ones.

``update_count`` counts the length-n inner products spent on residual
updates.  Each update event (one node gaining one regressor) costs 1, for
u'r_k.  Extending a factor by ``sel`` costs |S_k| + 1 more, for Z_k'x_sel
and delta = u'u, and serves every node that shares the factor: an event
costs |S_k| + 2 when it extends a factor and 1 when the factor is shared.
When k's factor is the one ``sel`` was regressed on, u = r_sel and the
extension costs 1, for delta alone; such a factor defers its own Cholesky
row, and filling it in later, if an extension needs it, costs |S| once.
Work therefore grows as O(p d) for neighborhoods of size at most d.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DataMatrix

# Relative floor for the Cholesky pivots of Z'Z: below it the design is
# treated as rank deficient.
PIVOT_RTOL = 1e-10


class ZeroVarianceColumn(ValueError):
    """A data column is constant and cannot be standardized."""

    def __init__(self, column: int):
        super().__init__(f"column {column} has zero variance")
        self.column = column


class RankDeficient(ValueError):
    """The regression design matrix is numerically rank deficient."""

    def __init__(self, message: str = "design matrix is rank deficient",
                 node: int | None = None):
        super().__init__(message)
        self.node = node


def column_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation (denominator n)."""
    values = np.asarray(values, dtype=float)
    return values.mean(axis=0), values.std(axis=0)


def standardize(x: DataMatrix) -> DataMatrix:
    """Center and scale every column to mean 0, sd 1 (denominator n).

    The result is column-major, the layout the residual engine works in.
    """
    if x.n < 2:
        raise ValueError("standardization needs at least two rows")
    mean, sd = column_moments(x.values)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise ZeroVarianceColumn(int(bad[0]))
    if not np.isfinite(sd).all():
        raise ValueError("column variance overflows")
    # a finite sd makes every entry finite, with |z| <= sqrt(n), so the result
    # is flagged without DataMatrix's second pass over the moments
    out = np.empty(x.values.shape, order="F")
    np.subtract(x.values, mean, out=out)
    out /= sd
    return DataMatrix._standardized(out)


def apply_moments(x: DataMatrix, mean: np.ndarray, sd: np.ndarray) -> DataMatrix:
    """Apply a previously fitted standardization (e.g. training statistics).

    The result is not flagged ``standardized``: its columns are centered by
    the supplied moments, not its own.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if mean.shape != (x.p,) or sd.shape != (x.p,):
        raise ValueError("moments do not match the data's column count")
    if not np.all(sd > 0):
        raise ValueError("standard deviations must be positive")
    return DataMatrix((x.values - mean) / sd)


def ols_residual(y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares residual and coefficients of y on the columns of z.

    Solves the normal equations (z'z) beta = z'y; raises
    :class:`RankDeficient` when the Cholesky factorization of z'z fails or
    its smallest pivot falls below ``PIVOT_RTOL`` times the largest
    diagonal entry of z'z.  An empty z (zero columns) returns y unchanged.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("z must be 2-d")
    n, m = z.shape
    if m == 0:
        return y.copy(), np.empty(0)
    if y.shape != (n,):
        raise ValueError("y and z disagree on the sample count")
    if m > n:
        raise RankDeficient(f"more regressors ({m}) than samples ({n})")
    gram = z.T @ z
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(str(exc)) from exc
    # classical pivots are the squared factor diagonals; compare on the
    # Gram matrix's own scale
    pivots = np.diag(lower) ** 2
    if pivots.min() < PIVOT_RTOL * np.max(np.diag(gram)):
        raise RankDeficient("Cholesky pivot below the relative floor")
    beta = np.linalg.solve(gram, z.T @ y)
    return y - z @ beta, beta


@dataclass(eq=False, slots=True)
class _Factor:
    """Inverse lower Cholesky factor W = L^-1 of the Gram matrix of some
    raw columns.

    ``cols`` lists the columns in the order they joined.  A factor made
    through the shared direction u = r_sel leaves ``inv`` unset and keeps
    its ``parent`` and ``delta`` = u'u instead; its last row is computed
    only if a later extension needs the whole factor.  Factors compare by
    identity: nodes share a factor exactly when they hold the same object.
    """

    cols: np.ndarray
    inv: np.ndarray | None = None
    parent: _Factor | None = None
    delta: float = 0.0


class ResidualState:
    """Raw columns, their evolving residuals, and the inner products spent.

    ``values`` are the standardized columns; ``r`` is a private copy of
    them that the caller updates into residuals.  ``root`` is the empty
    factor every node starts from.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.r = values.copy(order="F")
        self.pivot_floor = PIVOT_RTOL * values.shape[0]
        self.inner_products = 0
        self.root = _Factor(np.empty(0, dtype=np.int64), np.empty((0, 0)))

    def inverse(self, factor: _Factor) -> np.ndarray:
        """The factor's W = L^-1, filling in deferred rows."""
        pending = []
        while factor.inv is None:
            pending.append(factor)
            factor = factor.parent
        for f in reversed(pending):
            w = f.parent.inv
            c = self.values[:, f.parent.cols].T @ self.values[:, f.cols[-1]]
            self.inner_products += c.size
            f.inv = _append_row(w, w.T @ (w @ c), f.delta)
            f.parent = None
            factor = f
        return factor.inv


def partial_update(state: ResidualState, factor: _Factor, sel: int, shared: bool):
    """(child factor, u, delta) for ``factor`` extended by column ``sel``,
    or None when x_sel is numerically in the span of its columns.

    u is x_sel's residual on the factor's columns and delta = u'u; a
    regressor with ``delta <= PIVOT_RTOL * n`` counts as collinear.  When
    the factor is the one ``sel`` itself was regressed on (``shared``),
    that residual is r_sel and nothing is computed but delta.  A node on
    the factor then takes ``r_k <- r_k - (u'r_k / delta) u``.
    """
    if shared:
        u = state.r[:, sel]
    else:
        w = state.inverse(factor)
        z = state.values[:, factor.cols]
        c = z.T @ state.values[:, sel]
        state.inner_products += c.size
        beta = w.T @ (w @ c)
        u = state.values[:, sel] - z @ beta
    delta = float(u @ u)
    state.inner_products += 1
    if delta <= state.pivot_floor:
        return None
    cols = np.append(factor.cols, sel)
    if shared:
        return _Factor(cols, parent=factor, delta=delta), u, delta
    return _Factor(cols, _append_row(w, beta, delta)), u, delta


def _append_row(w: np.ndarray, beta: np.ndarray, delta: float) -> np.ndarray:
    """W extended by the row (-beta', 1) / sqrt(delta)."""
    m = beta.size
    scale = 1.0 / np.sqrt(delta)
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = w
    out[m, :m] = -scale * beta
    out[m, m] = scale
    return out
