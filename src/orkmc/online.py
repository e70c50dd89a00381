"""Online regularized K-means for streaming multi-view data.

The solver warm-starts on the first ``chushi`` samples (``max(k, n // 10)``
of n when ``chushi`` is None, :func:`~orkmc.model.with_initial_batch`), then
consumes arrivals one at a time: the new sample's assignment row is obtained
by a few projected-gradient steps on its simplex-constrained QP, the winning
cluster's centers move by a counts-weighted running mean, and the view-weight
vector alpha is refreshed from the cumulative per-view residuals.  The first
arrival whose center move is at most ``epsilon`` freezes the centers and
weights; later arrivals are only assigned and counted.  The state holds
only sufficient statistics plus the rows emitted so far.

An arrival is one stacked row, its sum(J_v) values in view order as in
``MultiViewDataset.stacked``.  It is validated once; everything after runs
on it and on the centers' K x sum(J_v) block (``CenterSet.stacked``): the
row QP in O(K^2 sum(J_v)) by one :func:`~orkmc.kernels.assignment_qp`,
n_grad sweeps at O(K^2) each, one residual reduced per view and one move of
the winning row.  Outside the sweeps an arrival makes about 40 small numpy
calls (30 once the centers are frozen), for any number of views.

An :class:`OnlineState` is single-writer: steps mutate it sequentially in
arrival order.  Distinct states may run in parallel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._util import select_initial_rows
from .errors import ValidationError
from .kernels import _pgd_rows, assignment_qp, cluster_means, pg_step
from .model import (
    CenterSet,
    ClusterResult,
    HyperParams,
    MultiViewDataset,
    _sq_norm,
    _view_of_column,
    center_drift,
    fit_result,
    view_residuals,
    with_initial_batch,
)

DEFAULT_N_GRAD = 10


def weights_from_residuals(d: np.ndarray, r: float) -> np.ndarray:
    """View weights alpha that minimize ``sum_v alpha_v ** r * D_v`` on the simplex.

    Views with zero residual split the whole weight evenly, for any r.
    Otherwise, for ``r <= 1`` the sum is concave in alpha and its minimum is
    the vertex of the smallest residual (the lowest index on exact ties); for
    ``r > 1`` it is strictly convex and ``alpha_v propto D_v ** (1/(1-r))``
    (computed in log space).  The V residuals are handled as Python floats,
    since each arrival refreshes the weights once.
    """
    d = np.asarray(d, dtype=np.float64).tolist()
    n_zero = sum(x <= 0.0 for x in d)
    if n_zero:
        return np.array([1.0 / n_zero if x <= 0.0 else 0.0 for x in d])
    if r <= 1.0:
        best = d.index(min(d))
        return np.array([1.0 if v == best else 0.0 for v in range(len(d))])
    log_a = [math.log(x) / (1.0 - r) for x in d]
    top = max(log_a)
    a = [math.exp(la - top) for la in log_a]
    total = sum(a)
    return np.array([ai / total for ai in a])


@dataclass
class OnlineState:
    """Streaming solver state; ``t`` samples processed so far, one row each
    in ``U_rows`` (``t`` is read-only: it is ``len(U_rows)``).

    ``weights`` is the view-weight vector alpha of shape (V,); each view's
    residual enters the objective weighted by ``alpha_v ** hyper.r``.
    ``n_grad`` (read-only) is the number of projected-gradient sweeps each
    arrival's row gets, ``min(DEFAULT_N_GRAD, hyper.max_iter)``.
    ``frozen_at`` is the ``t`` after the arrival that froze the centers and
    weights, or ``None`` while they still move.
    """

    hyper: HyperParams
    U_rows: list
    centers: CenterSet
    weights: np.ndarray
    counts: np.ndarray
    resid_sums: np.ndarray
    u_sq_sum: float
    frozen_at: Optional[int] = None

    @property
    def t(self) -> int:
        return len(self.U_rows)

    @property
    def n_grad(self) -> int:
        return min(DEFAULT_N_GRAD, self.hyper.max_iter)

    def surrogate_objective(self) -> float:
        """Cumulative weighted at-assignment residual plus the regularizer.

        Tracked incrementally so reporting stays O(V) per arrival regardless
        of how many samples have streamed past.
        """
        a = self.weights ** self.hyper.r
        return float(a.dot(self.resid_sums) + self.hyper.eta * self.u_sq_sum)


def _row_qp(state: OnlineState, x: np.ndarray) -> tuple:
    """``(H, c, step)`` of the assignment QP of the stacked samples ``x``
    under the state's centers and view weights (``alpha_v ** r`` repeated
    over view v's columns)."""
    hyper = state.hyper
    w = (state.weights ** hyper.r).repeat(state.centers.feature_counts)
    h, c = assignment_qp(x, state.centers.stacked, w, hyper.eta)
    step = hyper.gamma if hyper.gamma is not None else pg_step(h)
    return h, c, step


def orkmc_init(data: MultiViewDataset, hyper: HyperParams) -> OnlineState:
    """Warm-start on the initial batch: the first ``chushi`` rows of ``data``,
    as resolved by :func:`~orkmc.model.with_initial_batch` (the state keeps
    the resolved ``hyper``).

    Centers are seeded by kmeans++ at K distinct batch rows
    (:func:`~orkmc._util.select_initial_rows`) and the view weights start
    uniform at 1/V.  Up to ``max_iter`` times, every batch row gets the
    assignment update (from the uniform row, ``OnlineState.n_grad`` sweeps)
    that arrivals get, and each center moves to the mean of its
    hard-labelled rows, until no center moved by more than ``epsilon`` in any
    view.  The means are taken on the batch's stacked rows and written into
    the centers' block in place.  ``counts`` is the final label histogram.
    The centers are clamped at zero (``CenterSet.nonneg_enforced``) exactly
    when the batch is nonnegative (``MultiViewDataset.nonneg`` of the batch,
    not of all of ``data``).
    """
    hyper = with_initial_batch(hyper, data.n_samples)
    k, t0 = hyper.k, hyper.chushi
    batch = data.take_rows(np.arange(t0))
    x = batch.stacked
    idx = select_initial_rows(x, k, hyper.seed, "orkmc-init")
    centers = CenterSet.from_stacked(x[idx], batch.feature_counts, batch.nonneg)
    m = centers.stacked
    state = OnlineState(
        hyper=hyper,
        U_rows=[],
        centers=centers,
        weights=np.full(data.n_views, 1.0 / data.n_views),
        counts=np.zeros(k, dtype=np.int64),
        resid_sums=np.zeros(data.n_views),
        u_sq_sum=0.0,
    )

    # Centers at their assigned means keep the per-arrival running-mean
    # recurrence of orkmc_step exact.  HyperParams keeps max_iter >= 1, so
    # the loop sets u and hard.
    for _ in range(hyper.max_iter):
        h, c, step = _row_qp(state, x)
        u, _, _ = _pgd_rows(np.full((t0, k), 1.0 / k), h, c, step, state.n_grad)
        hard = np.argmax(u, axis=1)
        means = cluster_means(x, hard, k, m)
        drift = center_drift(means - m, centers.starts)
        m[:] = means
        if drift <= hyper.epsilon:
            break

    state.counts = np.bincount(hard, minlength=k).astype(np.int64)
    state.resid_sums = view_residuals(x, u, m, centers.starts)
    state.u_sq_sum = _sq_norm(u)
    state.U_rows = [u[i] for i in range(t0)]
    return state


def orkmc_step(state: OnlineState, x: np.ndarray) -> OnlineState:
    """Process one arrival, the stacked row ``x``; mutates and returns ``state``.

    ``x`` holds the sample's sum(J_v) values in view order, as
    ``MultiViewDataset.stacked[i]`` does, and is checked once, before any
    mutation: anything but a 1-D row of that length (a 2-D row, a list of
    per-view arrays) raises :class:`ValidationError` giving the length and
    the view widths, and a non-finite entry one that names its view.  One
    build of the row QP, one residual (summed per view by
    ``np.add.reduceat``) and one row move on the stacked centers follow.

    The arrival's row gets ``n_grad`` projected-gradient sweeps from the
    uniform row; its hard label k* is counted and, unless the state is
    frozen, row k* of the centers moves toward the sample by the running-mean
    step and the view weights are refreshed.  Only row k* moves, so the
    step's drift (:func:`~orkmc.model.center_drift`) is the largest norm of
    that row's move over the views; a drift of at most ``epsilon`` freezes the state (``frozen_at = t``), and
    every later arrival is assigned and counted against fixed centers and
    weights.  At K = 5 and two views of 10 (85-88 us an arrival, 2-core
    x86-64, one BLAS thread, numpy 2.4) the ten sweeps take about half of
    it, ``pg_step`` 11-12 % (its tangent-space eigenvalues), the QP build
    7-13 %, and the weights, residual, drift and row check 2-4 % each.

    When the warm-start batch was nonnegative the moved row is clamped at
    zero: its move is raised to at least ``-old``.  On nonnegative arrivals
    the clamp never acts (``old, x >= 0`` and ``c >= 1`` give a rounded
    ``old + (x - old) / c >= 0``); it keeps an arrival with a negative entry
    from pulling a center below zero.  The drift is the norm of the move.
    """
    centers = state.centers
    m = centers.stacked
    try:
        x = np.asarray(x, dtype=np.float64)
    except ValueError:  # ragged, as per-view arrays of unequal widths
        x = np.empty(0)
    if x.shape != m.shape[1:]:
        raise ValidationError(
            f"arrival must be 1-D with {m.shape[1]} values, view widths {centers.feature_counts}"
        )
    finite = np.isfinite(x)
    if not finite.all():
        v = _view_of_column(centers.starts, np.argmin(finite))
        raise ValidationError(f"arrival view {v} has non-finite entries")

    hyper = state.hyper
    h, c, step = _row_qp(state, x)
    u, _, _ = _pgd_rows(np.full(hyper.k, 1.0 / hyper.k), h, c, step, state.n_grad)

    k_star = int(u.argmax())
    state.counts[k_star] += 1
    state.resid_sums += view_residuals(x, u, m, centers.starts)
    state.u_sq_sum += float(u.dot(u))
    state.U_rows.append(u)
    if state.frozen_at is None:
        row = m[k_star]
        move = (x - row) / state.counts[k_star]
        if centers.nonneg_enforced:
            # row + max(move, -row) is exactly max(row + move, 0).
            np.maximum(move, -row, out=move)
        row += move
        state.weights = weights_from_residuals(state.resid_sums, hyper.r)
        if center_drift(move, centers.starts) <= hyper.epsilon:
            state.frozen_at = state.t
    return state


def orkmc_run(
    data: MultiViewDataset,
    hyper: HyperParams,
    progress: Optional[Callable[[int, float, np.ndarray], None]] = None,
) -> ClusterResult:
    """Stream the dataset through the online solver in arrival order.

    Rows ``1..chushi`` form the warm-start batch (:func:`orkmc_init`, which
    resolves ``chushi``); every later row ``data.stacked[row]`` is one
    :func:`orkmc_step` (whose row check passes: the dataset is finite), which
    also decides the freeze.  ``progress(t, objective, alpha)`` is called
    after the warm start and after every arrival.
    """
    t_start = time.perf_counter()
    state = orkmc_init(data, hyper)
    trace = [state.surrogate_objective()]
    if progress is not None:
        progress(state.t, trace[-1], state.weights.copy())
    for row in range(state.t, data.n_samples):
        orkmc_step(state, data.stacked[row])
        trace.append(state.surrogate_objective())
        if progress is not None:
            progress(state.t, trace[-1], state.weights.copy())
    elapsed = time.perf_counter() - t_start

    metadata = {"frozen_at": state.frozen_at, "counts": state.counts.tolist()}
    return fit_result(
        data, state.hyper, "orkmc", np.array(state.U_rows), state.centers, trace, elapsed,
        metadata, state.weights,
    )
