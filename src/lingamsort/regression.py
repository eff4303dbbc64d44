"""Least-squares kernels: standardization, chained QR, incremental Cholesky.

No intercepts appear anywhere: columns are standardized to mean zero
before any fitting, so regressions go through the origin.  Only numpy is
used.

:func:`ols_residual` fits along an ordering: regressor sets that are
nested prefixes of one chain of columns share one Householder QR, whose
pivots give every member's rank check and residual sum of squares and
whose inverse triangular factor gives every member's coefficients.
Chains of one shape go through numpy's stacked QR in one call.

Column moments are computed a chunk of columns at a time, on the data's
own layout, so that they equal ``np.mean`` and ``np.std`` over axis 0 bit
for bit without an n x p temporary; :func:`standardize_pass` standardizes
in the same pass, into a whole array for :func:`standardize` or one chunk
at a time for the sorter's first scoring.

The sorter keeps each node's joint-OLS residual current as its regressor
set grows one column at a time.  :class:`ResidualState` holds a pool of
column slots, a node -> slot map, the factors, and the count of inner
products spent.  A node holds a slot only while some live (unsorted)
node needs its values: from its first update to its selection it holds
its current residual, and once it is sorted, while live nodes have it as
a neighbor, its standardized values x_k, which are all a regressor
needs.  Every regressor is such a node, so the regressor columns Z are
read from the pool too.  Each regressor set Z (m
columns) keeps the inverse W = L^-1 of the lower Cholesky factor L of
its Gram matrix G = Z'Z (Golub & Van Loan, *Matrix Computations* 6.5),
so that G^-1 = W'W and no triangular solve is needed.
:func:`partial_update` extends every factor of one sorter step by the
selected column x, in one batch, and returns each factor's new direction
u::

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

import math
from array import array
from collections.abc import Callable

import numpy as np

from .model import DataMatrix

# Relative floor for the pivots of Z'Z (a regressor's squared residual norm
# on the regressors before it), on the scale n of a standardized column's
# squared norm: below it the design is treated as rank deficient.
PIVOT_RTOL = 1e-10

# Bytes of one column chunk of the moment pass, and so of its temporary.
MOMENT_CHUNK_BYTES = 2 << 20


class ZeroVarianceColumn(ValueError):
    """A data column is constant and cannot be standardized."""

    def __init__(self, column: int):
        super().__init__(f"column {column} has zero variance")
        self.column = column


class VarianceOverflow(ValueError):
    """A data column's variance overflows double precision."""

    def __init__(self, column: int):
        super().__init__(f"column {column} variance overflows")
        self.column = column


class RankDeficient(ValueError):
    """The regression design matrix is numerically rank deficient."""

    def __init__(self, message: str = "design matrix is rank deficient",
                 node: int | None = None):
        super().__init__(message)
        self.node = node


def _chunks(n: int, p: int, nbytes: int):
    """Column ranges [lo, hi) of about ``nbytes`` each.

    None is one column wide unless p is 1: numpy sums a lone column of a
    row-major array pairwise, but the columns of a wider block one row at a
    time, as ``np.mean`` does over the whole array.
    """
    width = max(2, nbytes // (8 * n))
    bounds = list(range(0, p, width))
    if p > 1 and p % width == 1:
        bounds.pop()  # the one-column tail joins the chunk before it
    bounds.append(p)
    return zip(bounds[:-1], bounds[1:])


def _moments(values: np.ndarray, out: np.ndarray | None = None,
             visit: Callable[[int, np.ndarray], None] | None = None,
             nbytes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations (denominator n), equal bit for
    bit to ``values.mean(axis=0)`` and ``values.std(axis=0)``.

    ``out`` alone receives ``(values - mean) / sd``.  With ``visit`` too,
    ``out`` is column-major scratch: each chunk's standardized columns
    lo.. are written to its leading columns, as z, and ``visit(lo, z)`` is
    called, unless one of them is constant or overflows, which the callers
    refuse; the next chunk overwrites z.

    Works one chunk of about ``nbytes`` (``MOMENT_CHUNK_BYTES`` by default)
    at a time and repeats numpy's arithmetic: the sum over rows divided by
    n, then the same for the squared deviations, which are formed in the
    source's layout because that sets numpy's summation order.  An
    overflow leaves an infinite or NaN sd and raises no warning; the
    callers check.
    """
    n, p = values.shape
    mean = np.empty(p)
    sd = np.empty(p)
    for lo, hi in _chunks(n, p, nbytes or MOMENT_CHUNK_BYTES):
        block = values[:, lo:hi]
        z = None if out is None else out[:, :hi - lo] if visit else out[:, lo:hi]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = np.add.reduce(block, axis=0) / n
            if z is None:
                dev = block - m
                np.multiply(dev, dev, out=dev)
            else:
                np.subtract(block, m, out=z)
                dev = np.multiply(z, z, out=np.empty_like(block))
            s = np.sqrt(np.add.reduce(dev, axis=0) / n)
            if z is not None:
                z /= s
        del dev  # the squares are not kept while visit scores the chunk
        mean[lo:hi] = m
        sd[lo:hi] = s
        if visit is not None and ((0.0 < s) & (s < np.inf)).all():
            visit(lo, z)
    return mean, sd


def _check_finite(sd: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(sd))
    if bad.size:
        raise VarianceOverflow(int(bad[0]))


def column_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation (denominator n).

    Bit for bit ``values.mean(axis=0)`` and ``values.std(axis=0)``, for
    row- and column-major input, without an n x p temporary.  Raises
    :class:`VarianceOverflow` when a column's variance overflows.
    """
    mean, sd = _moments(np.asarray(values, dtype=float))
    _check_finite(sd)
    return mean, sd


def standardize_pass(values: np.ndarray, out: np.ndarray | None = None,
                     visit: Callable[[int, np.ndarray], None] | None = None,
                     nbytes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One chunked pass over an n x p array: its column moments (mean, sd),
    equal bit for bit to :func:`column_moments`, with its standardized
    columns ``(values - mean) / sd`` written to ``out``, or handed to
    ``visit`` a chunk of about ``nbytes`` at a time through the scratch
    ``out``, as ``_moments`` sets out.

    Raises ValueError for fewer than two rows, then
    :class:`ZeroVarianceColumn` for the lowest constant column, then
    :class:`VarianceOverflow` for a column whose variance overflows.
    """
    if values.shape[0] < 2:
        raise ValueError("standardization needs at least two rows")
    mean, sd = _moments(values, out, visit, nbytes)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise ZeroVarianceColumn(int(bad[0]))
    _check_finite(sd)
    return mean, sd


def standardize(x: DataMatrix) -> DataMatrix:
    """Center and scale every column to mean 0, sd 1 (denominator n).

    The result is a fresh column-major array, written by
    :func:`standardize_pass`, whose errors it raises; its ``moments`` are
    the input's (mean, sd), equal bit for bit to :func:`column_moments`.
    """
    out = np.empty(x.values.shape, order="F")
    moments = standardize_pass(x.values, out)
    # a finite sd makes every entry finite, with |z| <= sqrt(n), so the result
    # skips DataMatrix's finiteness pass
    return DataMatrix._standardized(out, moments)


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


def ols_residual(z: np.ndarray, lead: int,
                 floor: float) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Least squares along a stack of chains of nested regressor sets.

    ``z`` is c x w x n: chain i's w columns, one per row, as a ``take`` of
    rows of ``x.T`` gives them.  Column t of a chain is regressed on the
    chain's columns before it.  One Householder QR per chain, Z = QR
    (Golub & Van Loan, *Matrix Computations* 5.2), gives every column's
    pivot R[t, t]^2: its residual sum of squares on columns 0..t-1.  A
    column past the n-th has pivot 0.

    When every pivot is at least ``floor`` (> 0), the inverse V = R^-1
    gives the regressions of columns ``lead``..w-1 at once: column t of V
    divided by V[t, t] is (-beta_t, 1, 0, ...), and Z times it is column
    t's residual.  Returns (pivots, coef, resid): pivots c x w; coef
    c x m x w, m = w - lead, whose row j is that vector for column
    lead + j; resid = coef @ z, c x m x n.  Under the floor, coef and
    resid are None.
    """
    c, w, n = z.shape
    r = np.linalg.qr(z.transpose(0, 2, 1), mode="r")
    pivots = np.zeros((c, w))
    pivots[:, :min(n, w)] = np.diagonal(r, axis1=1, axis2=2) ** 2
    if pivots.min() < floor:
        return pivots, None, None
    v = np.linalg.inv(r)
    coef = (v[:, :, lead:] / np.diagonal(v, axis1=1, axis2=2)[:, None, lead:]).transpose(0, 2, 1)
    return pivots, coef, coef @ z


class ResidualState:
    """The sorter's pool of column slots, its factors and the inner products spent.

    ``pool`` is a column-major n x s array, and ``slot[k]`` the slot
    (column of ``pool``) that holds node k's values, or -1 when k holds
    none; ``rows`` is ``pool.T``, with the slots as contiguous rows.  The
    pool becomes the state's own: it is updated in place, not copied.  A
    live node's slot holds its current residual.  When ``sel``'s step
    extends a factor, the caller writes x_sel, ``sel``'s standardized
    values, into ``sel``'s slot at the end of the step, so every factor's
    columns are read through ``slot``.  :meth:`acquire` gives a node the
    slot freed last, or else the lowest one never used, so the slots in
    use, and so the pages ever written, stay under the high-water mark
    ``slots_used``; :meth:`release` frees a node's slot.

    Factors are numbered and form a tree: factor ``ROOT`` is the empty one
    every node starts from, and factor f extends ``parent[f]`` by the one
    column ``col[f]``, so its columns, in the order they joined, are the
    ``col`` of the factors on its path from the root.  Its W is the rows
    that those factors added: the row of a factor m columns deep holds its
    m entries at ``w[row[f]:row[f] + m]``, so an extension stores m numbers
    and the factors hold O(total factor size) in all.  A factor made
    through the direction u = r_sel has ``row[f]`` None: its row is
    deferred, and ``deferred[f]`` keeps its delta until an extension needs
    the whole factor.
    """

    ROOT = 0

    def __init__(self, pool: np.ndarray, slot: list[int]):
        self.pool = pool
        self.rows = pool.T
        self.slot = slot
        self.free: list[int] = []
        self.slots_used = 1 + max(slot, default=-1)
        self.pivot_floor = PIVOT_RTOL * pool.shape[0]
        self.inner_products = 0
        self.parent = [-1]
        self.col = [-1]
        self.row: list[int | None] = [0]  # the root has no row; its 0 is never read
        self.deferred: dict[int, float] = {}
        self.w = array("d")

    def acquire(self, node: int) -> int:
        """Give ``node`` a slot and return it; its contents are the caller's to write."""
        if self.free:
            at = self.free.pop()
        else:
            at = self.slots_used
            self.slots_used += 1
        self.slot[node] = at
        return at

    def release(self, node: int) -> None:
        self.free.append(self.slot[node])
        self.slot[node] = -1

    def path(self, factor: int) -> list[int]:
        """The factors from the root's first child down to ``factor``."""
        out = []
        while factor != self.ROOT:
            out.append(factor)
            factor = self.parent[factor]
        out.reverse()
        return out

    def complete(self, factor: int) -> None:
        """Fill in the deferred rows of ``factor`` and its ancestors: each
        costs |S| inner products, for the Gram column of its last member."""
        pending = []
        while self.row[factor] is None:
            pending.append(factor)
            factor = self.parent[factor]
        for f in reversed(pending):
            path = self.path(self.parent[f])
            at = [self.slot[self.col[g]] for g in path]
            c = self.pool[:, at].T @ self.pool[:, self.slot[self.col[f]]]
            self.inner_products += c.size
            coef = _solve(self.w, [self.row[g] for g in path], c.tolist())
            self.row[f] = self._append(coef, self.deferred.pop(f))

    def _append(self, coef: list[float], delta: float) -> int:
        """Store the row (-beta', 1) / sqrt(delta), given coef = -beta, and
        return its offset in ``w``."""
        scale = 1.0 / math.sqrt(delta)
        at = len(self.w)
        self.w.extend([scale * b for b in coef])
        self.w.append(scale)
        return at


def _solve(w, rows: list[int], c: list[float]) -> list[float]:
    """-beta = -W'(W c) for the lower-triangular W whose row i holds its
    i + 1 entries at ``w[rows[i]:]``: the coefficients of u = x - Z beta on
    the columns of Z."""
    t = []
    for i, at in enumerate(rows):
        acc = 0.0
        for j in range(i + 1):
            acc += w[at + j] * c[j]
        t.append(acc)
    beta = [0.0] * len(rows)
    for i, at in enumerate(rows):
        for j in range(i + 1):
            beta[j] += w[at + j] * t[i]
    return [-b for b in beta]


def partial_update(state: ResidualState, factors: list[int], sel: int, x: np.ndarray,
                   own: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Extend every factor in ``factors`` by column ``sel``, in one batch.

    ``x`` is x_sel, ``sel``'s standardized column.  Group g, on factor
    ``factors[g]``, gets ``u[g]``, x_sel's residual on the factor's columns
    Z (read from their slots), and ``delta[g]`` = u'u, as the module
    docstring sets out.  One gather puts every group's columns under x_sel
    in a matrix z; c for all groups is one product, beta = W'(W c) is an
    m x m product per group on Python floats (at neighborhood sizes, less
    work than a padded batch of W's), and u for all groups is one product
    ``mix @ z``, whose row g holds 1 for x_sel and -beta for the group's
    columns.  The root factor is a group with no columns, whose u is x_sel.
    The factor ``own``, if listed, is the one ``sel`` itself was regressed
    on: its u is r_sel, still in ``sel``'s slot, which joins z for it, and
    its child defers its row of W.

    Returns (children, u, delta), u as a groups x n array.  A regressor
    with ``delta <= PIVOT_RTOL * n`` is collinear with its group's columns:
    the group keeps its factor as its child and gets delta = inf, so that
    the update ``r_k <- r_k - (u'r_k / delta) u`` leaves its nodes as they
    are.
    """
    paths = []
    for f in factors:
        if f == own:
            paths.append([])
            continue
        if state.row[f] is None:
            state.complete(f)
        paths.append(state.path(f))
    slot, col = state.slot, state.col
    head = 1 + (own in factors)  # rows of z before the groups' columns
    at = [slot[sel]] * (head - 1) + [slot[col[g]] for path in paths for g in path]
    z = np.empty((1 + len(at), len(x)))
    z[0] = x
    state.rows.take(at, axis=0, out=z[1:], mode="clip")
    c = (z[head:] @ x).tolist()
    state.inner_products += len(c) + len(factors)
    coefs, mix = [], []  # -beta per group; u = mix @ z
    lo = 0
    for f, path in zip(factors, paths):
        hi = lo + len(path)
        coefs.append(_solve(state.w, [state.row[g] for g in path], c[lo:hi]))
        row = [0.0] * len(z)
        row[f == own] = 1.0
        row[head + lo:head + hi] = coefs[-1]
        mix.append(row)
        lo = hi
    u = np.array(mix) @ z
    delta = (u[:, None, :] @ u[:, :, None]).ravel()  # one u'u per group
    children = []
    for g, (f, d) in enumerate(zip(factors, delta.tolist())):
        if d <= state.pivot_floor:
            delta[g] = np.inf
            children.append(f)
            continue
        children.append(len(state.parent))
        state.parent.append(f)
        state.col.append(sel)
        if f == own:
            state.row.append(None)
            state.deferred[children[-1]] = d
        else:
            state.row.append(state._append(coefs[g], d))
    return children, u, delta
