"""Offline regularized K-means (block-coordinate descent).

The objective is the penalized matrix-factorization form of K-means,

    sum_v ||X_v - U M_v||_F^2  +  eta * trace(U U'),

minimized over row-stochastic ``U`` and per-view centers ``M_v`` by
alternating exact subproblem solves.  Every row of ``U`` is a small
simplex-constrained QP with the shared Hessian ``2 (sum_v M_v M_v' + eta I)``;
two projected-gradient sweeps from the previous ``U`` pick each row's starting
face, and the batched active-set kernel solves all rows to their KKT
conditions.  Every column of ``M_v`` is a least-squares problem with the
shared Gram matrix ``U_live' U_live``, so every view's columns are solved
together: one Cholesky of the normal equations for mixed-sign data, or, when
the data is nonnegative, one batched NNLS warm-started from the previous
centers.  Both half-steps are monotone, so the objective trace never
increases.  The one empty-cluster rule is ``update_M``'s zero-mass freeze: a
cluster whose soft mass vanished keeps its previous center.  Each solve
decides once, by a rank test on its Hessian or Gram matrix
(``kernels._singular``), whether its systems are singular; a singular one
takes the ridge rule and warns ``RidgeFallbackWarning`` once.

:func:`rkmc_fit` is called as ``rkmc_fit(data, hyper)``, like every other
solver; the data and the hyperparameters alone decide its result.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional

import numpy as np

from ._util import select_initial_rows
from .errors import DataWarning, DegenerateClusterWarning
from .kernels import (
    _active_set,
    _pgd_rows,
    assignment_qp,
    nnls,
    pg_step,
    solve_ridge_normal,
)
from .model import (
    CenterSet,
    ClusterResult,
    HyperParams,
    MultiViewDataset,
    fit_result,
    objective_rkmc,
)

DEAD_MASS = 1e-12
# Projected-gradient sweeps that pick each assignment row's starting face
# before the exact active-set solve (More & Toraldo 1991).
FACE_SWEEPS = 2
# Seeded initializations per fit; the lowest final objective is kept.
N_RESTARTS = 2


def update_U(
    data: MultiViewDataset,
    m: CenterSet,
    u_prev: Optional[np.ndarray],
    eta: float,
) -> np.ndarray:
    """Minimize every assignment row at fixed centers; never increases the objective.

    Takes the previous N x K assignment array (or None) and returns the new
    one.  Each row's simplex QP with Hessian ``2 (sum_v M_v M_v' + eta I)`` is
    solved exactly: ``FACE_SWEEPS`` projected-gradient sweeps from ``u_prev``
    (uniform rows when None) pick each row's starting face, and the batched
    active-set kernel then solves all rows to their KKT conditions.  Per
    round, the rows at full support share one factorization of the base
    (K+1) x (K+1) KKT matrix and the rest take one stacked solve.
    """
    k = m.k
    h, c = assignment_qp(data.views, m.centers, np.ones(data.n_views), eta)
    start = np.full((data.n_samples, k), 1.0 / k) if u_prev is None else u_prev
    u, _, _ = _pgd_rows(start, h, c, pg_step(h), FACE_SWEEPS)
    return _active_set(h, c, u, True)


def update_M(
    data: MultiViewDataset,
    u: np.ndarray,
    *,
    prev: Optional[CenterSet] = None,
) -> CenterSet:
    """Least-squares center update at the fixed N x K assignment array ``u``.

    Per view, ``M_v = argmin ||X_v - U M_v||_F^2``; the views' columns are
    solved together on ``data.stacked``.  When ``data.nonneg`` (every view is
    nonnegative; the dataset decides it once) the centers are kept
    nonnegative: one :func:`~orkmc.kernels.nnls` call solves every column
    exactly, warm-started from ``prev``.  Otherwise the normal equations are
    solved with one Cholesky factorization, or by the ridge rule when the
    rank test finds them singular.  The returned centers record which rule
    applied in ``nonneg_enforced``.  Clusters whose soft mass vanished keep
    their previous centers and a :class:`DegenerateClusterWarning` is
    emitted; this freeze is RKMC's one empty-cluster rule.
    """
    k = u.shape[1]
    mass = u.sum(axis=0)
    live = mass > DEAD_MASS
    dead = np.flatnonzero(~live)
    if dead.size:
        warnings.warn(
            f"clusters {dead.tolist()} have no assigned mass; centers frozen",
            DegenerateClusterWarning,
            stacklevel=2,
        )
    ul = u[:, live]
    x = data.stacked
    m = np.zeros((k, x.shape[1])) if prev is None else np.hstack(prev.centers)
    if np.any(live):
        if data.nonneg:
            m[live] = nnls(ul, x, start=np.maximum(m[live], 0.0))
        else:
            m[live] = solve_ridge_normal(ul.T @ ul, ul.T @ x)
    return CenterSet.from_stacked(m, data.feature_counts, data.nonneg)


def _fit_once(data: MultiViewDataset, hyper: HyperParams, m: CenterSet) -> dict:
    u = update_U(data, m, None, hyper.eta)
    trace = [objective_rkmc(data, u, m, hyper.eta)]
    converged = False
    for _ in range(hyper.max_iter):
        m_new = update_M(data, u, prev=m)
        delta = max(
            float(np.linalg.norm(a - b)) for a, b in zip(m_new.centers, m.centers)
        )
        m = m_new
        u = update_U(data, m, u, hyper.eta)
        trace.append(objective_rkmc(data, u, m, hyper.eta))
        if delta <= hyper.epsilon:
            converged = True
            break
    return {"u": u, "m": m, "trace": trace, "converged": converged}


def rkmc_fit(data: MultiViewDataset, hyper: HyperParams) -> ClusterResult:
    """Fit the regularized K-means model.

    ``hyper`` supplies k, eta, epsilon, max_iter and seed (gamma, chushi and
    the balance parameter r play no role offline; r is recorded only under
    ``metadata["hyper"]``).  Centers are kept nonnegative exactly when the
    data is.  Each of the ``N_RESTARTS`` restarts seeds its centers at K data
    rows chosen by kmeans++ (:func:`~orkmc._util.select_initial_rows`, which
    raises ``ConfigError`` when k exceeds the sample count) and the one with
    the lowest final objective is kept.  The returned trace is the kept run's
    per-iteration objective.
    """
    stacked = data.stacked
    t0 = time.perf_counter()
    best, restart_used = None, -1
    for r in range(N_RESTARTS):
        idx = select_initial_rows(stacked, hyper.k, hyper.seed, f"rkmc-init-{r}")
        m = CenterSet(tuple(x[idx] for x in data.views))
        fit = _fit_once(data, hyper, m)
        if best is None or fit["trace"][-1] < best["trace"][-1]:
            best, restart_used = fit, r
    elapsed = time.perf_counter() - t0
    if np.all(stacked == stacked[0]):
        warnings.warn(
            "all data rows are identical; the fit converges with duplicate centers",
            DataWarning,
            stacklevel=2,
        )

    metadata = {
        "restart_used": restart_used,
        "enforce_center_nonneg": best["m"].nonneg_enforced,
        "converged": best["converged"],
    }
    return fit_result(data, hyper, "rkmc", best["u"], best["m"], best["trace"], elapsed, metadata)
