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
increases outside of logged center re-seed events.  Each solve decides once,
by a rank test on its Hessian or Gram matrix (``kernels._singular``), whether
its systems are singular; a singular one takes the ridge rule and warns
``RidgeFallbackWarning`` once.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import select_initial_rows
from .errors import ConfigError, DataWarning, DegenerateClusterWarning
from .kernels import (
    KKT_TOL,
    _active_set,
    _pgd_rows,
    assignment_qp,
    data_nonneg,
    nnls,
    one_hot,
    pg_step,
    solve_ridge_normal,
    sq_dists,
)
from .model import (
    AssignmentMatrix,
    CenterSet,
    ClusterResult,
    HyperParams,
    MultiViewDataset,
    _check_center_shapes,
    fit_result,
    objective_rkmc,
)

DEAD_MASS = 1e-12
RESEED_AFTER = 3
# Projected-gradient sweeps that pick each assignment row's starting face
# before the exact active-set solve (More & Toraldo 1991).
FACE_SWEEPS = 2
# Seeded initializations per fit; the lowest final objective is kept.
N_RESTARTS = 2


@dataclass(frozen=True)
class RkmcConfig:
    """Configuration of :func:`rkmc_fit`.

    ``hyper`` supplies k, eta, epsilon, max_iter and seed (gamma, chushi and
    the balance parameter r play no role offline; r is recorded only under
    ``metadata["hyper"]``).  Centers are kept nonnegative exactly when the
    data is.  Each of the ``N_RESTARTS`` restarts seeds its centers at K data
    rows chosen by kmeans++ (:func:`~orkmc._util.select_initial_rows`), unless
    ``initial_centers`` is given, which makes a single run from those centers.
    ``assignment="soft"`` solves each row QP over the simplex; ``"hard"``
    restricts rows to the simplex vertices (classic nearest-center updates).
    ``track_labels`` records the hard labels after every iteration under
    ``metadata["label_history"]``.
    """

    hyper: HyperParams
    assignment: str = "soft"
    initial_centers: Optional[CenterSet] = None
    track_labels: bool = False

    def __post_init__(self):
        if self.assignment not in ("soft", "hard"):
            raise ConfigError(f"assignment must be 'soft' or 'hard', got {self.assignment!r}")


def update_U(
    data: MultiViewDataset,
    m: CenterSet,
    u_prev: Optional[AssignmentMatrix],
    eta: float,
    *,
    mode: str = "soft",
) -> AssignmentMatrix:
    """Minimize every assignment row at fixed centers; never increases the objective.

    Soft mode solves the per-row simplex QP with Hessian
    ``2 (sum_v M_v M_v' + eta I)`` exactly: ``FACE_SWEEPS`` projected-gradient
    sweeps from ``u_prev`` (uniform rows when None) pick each row's starting
    face, and the batched active-set kernel then solves all rows to their KKT
    conditions.  Per round, the rows at full support share one factorization
    of the base (K+1) x (K+1) KKT matrix and the rest take one stacked solve.
    Hard mode picks the best simplex vertex, i.e. the nearest center.
    """
    k = m.k
    if mode == "hard":
        d = sum(sq_dists(x, mv) for x, mv in zip(data.views, m.centers))
        labels = np.argmin(d, axis=1)
        return AssignmentMatrix(one_hot(labels, k))

    h, c = assignment_qp(data.views, m.centers, np.ones(data.n_views), eta)
    start = np.full((data.n_samples, k), 1.0 / k) if u_prev is None else u_prev.entries
    u, _, _ = _pgd_rows(start, h, c, pg_step(h), FACE_SWEEPS)
    return AssignmentMatrix(_active_set(h, c, u, True, KKT_TOL))


def update_M(
    data: MultiViewDataset,
    u: AssignmentMatrix,
    *,
    prev: Optional[CenterSet] = None,
) -> CenterSet:
    """Least-squares center update at fixed assignments.

    Per view, ``M_v = argmin ||X_v - U M_v||_F^2``; the views' columns are
    stacked and solved in one call.  When every view of ``data`` is
    nonnegative (:func:`~orkmc.kernels.data_nonneg`, one min-scan of the data
    per call) the centers are kept nonnegative: one
    :func:`~orkmc.kernels.nnls` call solves every column exactly,
    warm-started from ``prev``.  Otherwise the normal equations are solved
    with one Cholesky factorization, or by the ridge rule when the rank test
    finds them singular.  The returned centers record which rule applied in
    ``nonneg_enforced``.  Clusters whose soft mass vanished keep their
    previous centers and a :class:`DegenerateClusterWarning` is emitted.
    """
    uu = u.entries
    k = uu.shape[1]
    mass = uu.sum(axis=0)
    live = mass > DEAD_MASS
    dead = np.flatnonzero(~live)
    if dead.size:
        warnings.warn(
            f"clusters {dead.tolist()} have no assigned mass; centers frozen",
            DegenerateClusterWarning,
            stacklevel=2,
        )
    ul = uu[:, live]
    nonneg = data_nonneg(data.views)
    x = data.stacked()
    m = np.zeros((k, x.shape[1])) if prev is None else np.hstack(prev.centers)
    if np.any(live):
        if nonneg:
            m[live] = nnls(ul, x, start=np.maximum(m[live], 0.0))
        else:
            m[live] = solve_ridge_normal(ul.T @ ul, ul.T @ x)
    splits = np.cumsum(data.feature_counts)[:-1]
    return CenterSet(tuple(np.split(m, splits, axis=1)), nonneg_enforced=nonneg)


def _per_row_residual(data: MultiViewDataset, u: AssignmentMatrix, m: CenterSet) -> np.ndarray:
    r = np.zeros(data.n_samples)
    for x, mv in zip(data.views, m.centers):
        diff = x - u.entries @ mv
        r += (diff * diff).sum(axis=1)
    return r


def _fit_once(data: MultiViewDataset, cfg: RkmcConfig, tag: str) -> dict:
    hyper = cfg.hyper
    m = cfg.initial_centers
    if m is None:
        idx = select_initial_rows(data.stacked(), hyper.k, hyper.seed, tag)
        m = CenterSet(tuple(x[idx].copy() for x in data.views))
    u = update_U(data, m, None, hyper.eta, mode=cfg.assignment)
    trace = [objective_rkmc(data, u, m, hyper.eta)]
    labels_hist = [u.hard_labels.copy()] if cfg.track_labels else None
    empty_streak = np.zeros(hyper.k, dtype=int)
    reseed_steps: list[int] = []
    converged = False
    for _ in range(hyper.max_iter):
        m_new = update_M(data, u, prev=m)
        delta = max(
            float(np.linalg.norm(a - b)) for a, b in zip(m_new.centers, m.centers)
        )
        m = m_new
        u = update_U(data, m, u, hyper.eta, mode=cfg.assignment)
        trace.append(objective_rkmc(data, u, m, hyper.eta))
        if labels_hist is not None:
            labels_hist.append(u.hard_labels.copy())

        counts = np.bincount(u.hard_labels, minlength=hyper.k)
        empty_streak = np.where(counts == 0, empty_streak + 1, 0)
        stale = np.flatnonzero(empty_streak >= RESEED_AFTER)
        if stale.size:
            resid = _per_row_residual(data, u, m)
            centers = [mv.copy() for mv in m.centers]
            for k_idx in stale:
                far = int(np.argmax(resid))
                for v, x in enumerate(data.views):
                    centers[v][k_idx] = x[far]
                resid[far] = -np.inf
                empty_streak[k_idx] = 0
            m = CenterSet(tuple(centers), nonneg_enforced=m.nonneg_enforced)
            reseed_steps.append(len(trace))

        if delta <= hyper.epsilon:
            converged = True
            break
    return {
        "u": u,
        "m": m,
        "trace": trace,
        "reseed_steps": reseed_steps,
        "labels_hist": labels_hist,
        "converged": converged,
    }


def rkmc_fit(data: MultiViewDataset, cfg: RkmcConfig) -> ClusterResult:
    """Fit the regularized K-means model; see :class:`RkmcConfig`.

    Runs ``N_RESTARTS`` seeded initializations (a single run when explicit
    ``initial_centers`` are given) and keeps the one with the lowest final
    objective.  The returned trace is the kept run's per-iteration objective.
    ``initial_centers`` must hold one K x J_v matrix per view
    (``DimensionError`` otherwise).
    """
    hyper = cfg.hyper
    if hyper.k > data.n_samples:
        raise ConfigError(
            f"k={hyper.k} exceeds the number of samples ({data.n_samples})"
        )
    if cfg.initial_centers is not None:
        _check_center_shapes(data, cfg.initial_centers.centers, hyper.k)
    stacked = data.stacked()
    if np.all(stacked == stacked[0]):
        warnings.warn(
            "all data rows are identical; the fit converges with duplicate centers",
            DataWarning,
            stacklevel=2,
        )
    t0 = time.perf_counter()
    if cfg.initial_centers is not None:
        best = _fit_once(data, cfg, "rkmc-init")
        restart_used = 0
    else:
        best, restart_used = None, -1
        for r in range(N_RESTARTS):
            fit = _fit_once(data, cfg, f"rkmc-init-{r}")
            if best is None or fit["trace"][-1] < best["trace"][-1]:
                best, restart_used = fit, r
    elapsed = time.perf_counter() - t0

    metadata = {
        "algorithm": "rkmc",
        "hyper": hyper.as_dict(),
        "assignment": cfg.assignment,
        "n_restarts": N_RESTARTS,
        "restart_used": restart_used,
        "enforce_center_nonneg": best["m"].nonneg_enforced,
        "reseed_steps": list(best["reseed_steps"]),
        "converged": best["converged"],
    }
    if best["labels_hist"] is not None:
        metadata["label_history"] = [h.tolist() for h in best["labels_hist"]]
    return fit_result(data, best["u"].entries, best["m"], best["trace"], elapsed, metadata)
