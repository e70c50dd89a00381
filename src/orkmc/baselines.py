"""Comparison algorithms behind the same fit interface.

* :func:`kmeans_fit` -- Lloyd iterations on the column-concatenation of views.
* :func:`pkmeans_fit` -- power K-means: majorization-minimization on the
  power-mean objective with the power annealed toward hard assignments.
* :func:`ogd_fit` -- online gradient-descent K-means (per-arrival nearest
  center, running-mean steps ``1/(n_k+1)``).
* :func:`omu_fit` -- online multiplicative-update NMF clustering with
  streaming sufficient statistics.

Each is called as ``fit(data, hyper)`` with a :class:`~orkmc.model.HyperParams`,
like the RKMC and ORKMC solvers, and reads only the fields its docstring
lists; none reads ``eta``, ``r`` or ``gamma``.  The online two resolve
``chushi`` by :func:`~orkmc.model.with_initial_batch`.  Each returns a
:class:`~orkmc.model.ClusterResult`, built by :func:`~orkmc.model.fit_result`
and so recording ``hyper``, that passes :func:`~orkmc.model.validate`.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from ._util import rng_for, select_initial_rows
from .errors import ConfigError, DataWarning
from .kernels import assignment_qp, cluster_means, one_hot, sq_dists
from .model import (
    CenterSet,
    ClusterResult,
    HyperParams,
    MultiViewDataset,
    center_drift,
    fit_result,
    view_residuals,
    view_starts,
    with_initial_batch,
)

MU_DELTA = 1e-12
ZERO_DIST = 1e-30
POWER_S0 = -1.0
POWER_STEP = 1.1
POWER_S_MIN = -100.0


def nearest_center_labels(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest center (lowest index on ties)."""
    return np.argmin(sq_dists(x, centers), axis=1)


def kmeans_fit(data: MultiViewDataset, hyper: HyperParams) -> ClusterResult:
    """Lloyd K-means on the stacked views; hard one-hot assignments.

    Reads ``hyper.k``, ``seed``, ``epsilon`` and ``max_iter``.  Stops on a
    label fixpoint, once no center moved by more than ``epsilon`` within one
    view (:func:`~orkmc.model.center_drift`), or after ``max_iter``
    iterations.  Empty clusters are re-seeded at the point farthest from its
    assigned center, which only lowers the within-cluster SSE.
    """
    k = hyper.k
    x = data.stacked
    t0 = time.perf_counter()
    centers = x[select_initial_rows(x, k, hyper.seed, "kmeans-init")]
    labels = None
    trace: list[float] = []
    for _ in range(hyper.max_iter):
        d = sq_dists(x, centers)
        new_labels = np.argmin(d, axis=1)
        own = d[np.arange(x.shape[0]), new_labels]
        reseeded = False
        for empty in np.flatnonzero(np.bincount(new_labels, minlength=k) == 0):
            far = int(np.argmax(own))
            centers[empty] = x[far]
            new_labels[far] = empty
            own[far] = 0.0
            reseeded = True
        fixpoint = labels is not None and np.array_equal(new_labels, labels) and not reseeded
        labels = new_labels
        new_centers = cluster_means(x, labels, k, centers)
        trace.append(float(np.sum((x - new_centers[labels]) ** 2)))
        delta = center_drift(new_centers - centers, view_starts(data.feature_counts))
        centers = new_centers
        if fixpoint or delta <= hyper.epsilon:
            break
    elapsed = time.perf_counter() - t0
    return fit_result(
        data, hyper, "kmeans", one_hot(labels, k),
        CenterSet.from_stacked(centers, data.feature_counts), trace, elapsed,
    )


def _log_power_mean(d: np.ndarray, s: float) -> np.ndarray:
    """Row-wise log of the power mean M_s of squared distances (s < 0).

    Rows containing a zero distance get ``-inf`` (the limit of M_s is 0).
    """
    k = d.shape[1]
    out = np.full(d.shape[0], -np.inf)
    ok = d.min(axis=1) > ZERO_DIST
    if np.any(ok):
        ld = np.log(d[ok])
        z = s * ld
        m = z.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
        out[ok] = (lse - np.log(k)) / s
    return out


def power_mean_objective(x: np.ndarray, centers: np.ndarray, s: float) -> float:
    """Sum over samples of the power mean of squared center distances."""
    lpm = _log_power_mean(sq_dists(x, centers), s)
    vals = np.exp(lpm[np.isfinite(lpm)])
    return float(vals.sum())


def _power_weights(d: np.ndarray, s: float) -> np.ndarray:
    """Majorizer coefficients d_ik^(s-1) * M_s(d_i)^(1-s); zero-distance rows
    collapse their mass onto the touching cluster."""
    w = np.zeros_like(d)
    zero_rows = d.min(axis=1) <= ZERO_DIST
    if np.any(zero_rows):
        w[zero_rows, np.argmin(d[zero_rows], axis=1)] = 1.0
    ok = ~zero_rows
    if np.any(ok):
        ld = np.log(d[ok])
        lpm = _log_power_mean(d[ok], s)
        w[ok] = np.exp((s - 1.0) * (ld - lpm[:, None]))
    return w


def power_mm_step(x: np.ndarray, centers: np.ndarray, s: float) -> np.ndarray:
    """One majorization-minimization step at fixed ``s``: centers move to the
    coefficient-weighted means.  The power-mean objective never increases."""
    w = _power_weights(sq_dists(x, centers), s)
    wsum = w.sum(axis=0)
    out = centers.copy()
    live = wsum > 0
    out[live] = (w.T[live] @ x) / wsum[live, None]
    return out


def pkmeans_fit(data: MultiViewDataset, hyper: HyperParams) -> ClusterResult:
    """Power K-means (single view): one MM step per iteration while ``s``
    anneals from ``POWER_S0`` by the factor ``POWER_STEP`` down to
    ``POWER_S_MIN``; as ``s`` grows negative the assignments approach
    nearest-center.

    Reads ``hyper.k``, ``seed`` and ``max_iter``.  Stops once ``s`` is at the
    floor and no center moved by more than a fixed 1e-8 (not ``epsilon``;
    :func:`~orkmc.model.center_drift`), or after ``max_iter`` steps."""
    k = hyper.k
    if data.n_views != 1:
        raise ConfigError("power K-means is a single-view algorithm")
    x = data.views[0]
    t0 = time.perf_counter()
    centers = x[select_initial_rows(x, k, hyper.seed, "pkmeans-init")]
    s = POWER_S0
    trace: list[float] = []
    for _ in range(hyper.max_iter):
        new_centers = power_mm_step(x, centers, s)
        trace.append(power_mean_objective(x, new_centers, s))
        delta = center_drift(new_centers - centers, (0,))
        centers = new_centers
        if delta <= 1e-8 and s == POWER_S_MIN:
            break
        s = max(POWER_S_MIN, s * POWER_STEP)
    elapsed = time.perf_counter() - t0
    labels = nearest_center_labels(x, centers)
    return fit_result(
        data, hyper, "pkmeans", one_hot(labels, k),
        CenterSet.from_stacked(centers, data.feature_counts), trace, elapsed, {"final_s": s},
    )


def ogd_fit(data: MultiViewDataset, hyper: HyperParams) -> ClusterResult:
    """Online gradient-descent K-means (single view).

    Reads ``hyper.k``, ``seed`` and ``chushi`` (resolved by
    :func:`~orkmc.model.with_initial_batch`).  K centers are seeded by
    kmeans++ from the first ``chushi`` rows, each with count ``n_k = 1``;
    every other row arrives in order, is labeled by its nearest center, and
    moves that center by ``(x - center) / (n_k + 1)`` before ``n_k`` grows by
    one, so each center stays the running mean of the rows it has absorbed.
    """
    if data.n_views != 1:
        raise ConfigError("online gradient descent is a single-view algorithm")
    x = data.views[0]
    n = x.shape[0]
    hyper = with_initial_batch(hyper, n)
    k = hyper.k
    t0 = time.perf_counter()
    seeds = select_initial_rows(x[:hyper.chushi], k, hyper.seed, "ogd-init")
    centers = x[seeds]
    counts = np.ones(k)
    labels = np.zeros(n, dtype=np.intp)
    labels[seeds] = np.arange(k)
    seed_mask = np.zeros(n, dtype=bool)
    seed_mask[seeds] = True
    cum = 0.0
    trace: list[float] = []
    for i in range(n):
        if seed_mask[i]:
            continue
        d = ((centers - x[i]) ** 2).sum(axis=1)
        k_star = int(np.argmin(d))
        labels[i] = k_star
        cum += float(d[k_star])
        trace.append(cum)
        centers[k_star] += 1.0 / (counts[k_star] + 1.0) * (x[i] - centers[k_star])
        counts[k_star] += 1.0
    elapsed = time.perf_counter() - t0
    return fit_result(
        data, hyper, "ogd", one_hot(labels, k),
        CenterSet.from_stacked(centers, data.feature_counts), trace, elapsed,
    )


def mu_update_rows(u: np.ndarray, h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Multiplicative update of assignment rows for the joint reconstruction
    error over views; preserves nonnegativity.  ``(h, c)`` is the rows' QP,
    ``assignment_qp(x, m, np.ones(sum(J_v)), 0.0)`` on the stacked data and
    centers, whose sums are doubled, so ``MU_DELTA`` is doubled too."""
    return u * c / (u @ h + 2.0 * MU_DELTA)


def mu_update_centers(m: np.ndarray, utx: np.ndarray, utu: np.ndarray) -> np.ndarray:
    """Multiplicative update of the centers from (accumulated) sufficient
    statistics U'X and U'U; preserves nonnegativity.  Each column is updated
    on its own, so one call updates the stacked centers of every view."""
    return m * utx / (utu @ m + MU_DELTA)


def _normalize_rows(u: np.ndarray) -> np.ndarray:
    sums = u.sum(axis=1, keepdims=True)
    out = np.where(sums > 0, u / np.where(sums > 0, sums, 1.0), 1.0 / u.shape[1])
    return out


def omu_fit(data: MultiViewDataset, hyper: HyperParams) -> ClusterResult:
    """Online multiplicative-update NMF clustering.

    Reads ``hyper.k``, ``seed``, ``max_iter`` and ``chushi`` (resolved by
    :func:`~orkmc.model.with_initial_batch`).  Negative inputs are min-shifted
    per view (flagged).  The first ``chushi`` rows are fitted as a batch with
    ``max_iter`` rounds of alternating multiplicative updates; each later
    arrival gets its own row updates against the current centers, and the
    centers follow via streaming U'X / U'U accumulators.  Assignment rows are
    renormalized to the simplex when the result is assembled, keeping the
    batch iterations on the plain multiplicative descent path.
    """
    n = data.n_samples
    hyper = with_initial_batch(hyper, n)
    k, max_iter, chushi = hyper.k, hyper.max_iter, hyper.chushi

    shifts = []
    views = []
    for v, x in enumerate(data.views):
        lo = float(x.min())
        if lo < 0:
            warnings.warn(
                f"view {v} has negative entries; min-shifting by {-lo:g} for the "
                "multiplicative updates",
                DataWarning,
                stacklevel=2,
            )
            views.append(x - lo)
            shifts.append(-lo)
        else:
            views.append(x)
            shifts.append(0.0)

    t0 = time.perf_counter()
    rng = rng_for(hyper.seed, "omu-init")
    u_batch = rng.uniform(0.1, 1.0, size=(chushi, k))
    center_mats = []
    for x in views:
        avg = np.sqrt(max(float(x.mean()), 0.0) / k)
        center_mats.append(avg * np.abs(rng.standard_normal((k, x.shape[1]))) + 1e-9)

    x = np.hstack(views)
    m = np.hstack(center_mats)
    starts = view_starts(data.feature_counts)
    ones = np.ones(x.shape[1])
    xb = x[:chushi]
    trace: list[float] = []
    for _ in range(max_iter):
        u_batch = mu_update_rows(u_batch, *assignment_qp(xb, m, ones, 0.0))
        m = mu_update_centers(m, u_batch.T @ xb, u_batch.T @ u_batch)
        trace.append(float(view_residuals(xb, u_batch, m, starts).sum()))

    rows = [_normalize_rows(u_batch)]
    u_norm = rows[0]
    suu = u_norm.T @ u_norm
    sux = u_norm.T @ xb
    inner = max(1, min(10, max_iter))
    for i in range(chushi, n):
        h, c = assignment_qp(x[i : i + 1], m, ones, 0.0)
        u = np.full(k, 1.0 / k)
        for _ in range(inner):
            u = mu_update_rows(u[None, :], h, c)[0]
        u = _normalize_rows(u[None, :])[0]
        suu += np.outer(u, u)
        sux += np.outer(u, x[i])
        m = mu_update_centers(m, sux, suu)
        rows.append(u[None, :])
    elapsed = time.perf_counter() - t0

    centers = CenterSet.from_stacked(m, data.feature_counts, nonneg_enforced=True)
    return fit_result(
        data, hyper, "omu", np.vstack(rows), centers, trace, elapsed, {"min_shift": shifts},
    )
