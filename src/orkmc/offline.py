"""Offline regularized K-means (block-coordinate descent).

The objective is the penalized matrix-factorization form of K-means,

    sum_v ||X_v - U M_v||_F^2  +  eta * trace(U U'),

minimized over row-stochastic ``U`` and per-view centers ``M_v`` by
alternating exact subproblem solves: every row of ``U`` is a small
simplex-constrained QP, every column of ``M_v`` a (nonnegative) least-squares
problem.  Both half-steps are monotone, so the objective trace never
increases outside of logged center re-seed events.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from ._util import select_initial_rows
from .errors import ConfigError, ConvergenceWarning, DataWarning, DegenerateClusterWarning
from .kernels import (
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
    ViewWeights,
    objective_rkmc,
)

DEAD_MASS = 1e-12
RESEED_AFTER = 3
INNER_TOL = 1e-7
MAX_INNER = 2000


@dataclass(frozen=True)
class RkmcConfig:
    """Configuration of :func:`rkmc_fit`.

    ``hyper`` supplies k, eta, epsilon, max_iter and seed (gamma, chushi and
    the balance parameter r play no role offline; r is recorded only under
    ``metadata["hyper"]``).  Centers are kept nonnegative exactly when the
    data is.  ``init`` seeds the centers at K data rows chosen by
    ``"kmeans++"`` or uniformly (``"random-rows"``).  ``assignment="soft"``
    solves each row QP over the simplex; ``"hard"`` restricts rows to the
    simplex vertices (classic nearest-center updates).
    """

    hyper: HyperParams
    init: str = "kmeans++"
    assignment: str = "soft"
    n_restarts: int = 2
    initial_centers: Optional[CenterSet] = None
    track_labels: bool = False

    def __post_init__(self):
        if self.init not in ("kmeans++", "random-rows"):
            raise ConfigError(f"unknown init {self.init!r}")
        if self.assignment not in ("soft", "hard"):
            raise ConfigError(f"assignment must be 'soft' or 'hard', got {self.assignment!r}")
        if self.n_restarts < 1:
            raise ConfigError("n_restarts must be >= 1")


def update_U(
    data: MultiViewDataset,
    m: CenterSet,
    u_prev: Optional[AssignmentMatrix],
    eta: float,
    *,
    mode: str = "soft",
    tol: float = INNER_TOL,
    max_inner: int = MAX_INNER,
) -> AssignmentMatrix:
    """Minimize every assignment row at fixed centers; never increases the objective.

    Soft mode solves the per-row simplex QP with Hessian
    ``2 (sum_v M_v M_v' + eta I)`` by projected gradient (all rows vectorized,
    warm-started from ``u_prev``) and emits :class:`ConvergenceWarning` when
    ``max_inner`` sweeps end before the fixed-point residual reaches ``tol``.
    Hard mode picks the best simplex vertex, i.e. the nearest center.
    """
    k = m.k
    if mode == "hard":
        d = sum(sq_dists(x, mv) for x, mv in zip(data.views, m.centers))
        labels = np.argmin(d, axis=1)
        return AssignmentMatrix(one_hot(labels, k), labels)

    h, c = assignment_qp(data.views, m.centers, np.ones(data.n_views), eta)
    start = np.full((data.n_samples, k), 1.0 / k) if u_prev is None else u_prev.entries
    u, converged, _ = _pgd_rows(start, h, c, pg_step(h), tol, max_inner)
    if not converged:
        warnings.warn(
            f"assignment update unconverged after {max_inner} projected-gradient sweeps",
            ConvergenceWarning,
            stacklevel=2,
        )
    return AssignmentMatrix(u)


def update_M(
    data: MultiViewDataset,
    u: AssignmentMatrix,
    enforce_nonneg: bool,
    *,
    prev: Optional[CenterSet] = None,
) -> CenterSet:
    """Least-squares center update at fixed assignments.

    Per view, ``M_v = argmin ||X_v - U M_v||_F^2`` (column-wise NNLS when
    nonnegativity is enforced, otherwise the normal equations with a ridge
    fallback).  Clusters whose soft mass vanished keep their previous centers
    and a :class:`DegenerateClusterWarning` is emitted.
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
    g = None if enforce_nonneg else ul.T @ ul
    out = []
    for v, x in enumerate(data.views):
        mv = np.zeros((k, x.shape[1])) if prev is None else prev.centers[v].copy()
        if np.any(live):
            if enforce_nonneg:
                mv[live] = np.column_stack([nnls(ul, x[:, j]) for j in range(x.shape[1])])
            else:
                mv[live] = solve_ridge_normal(g, ul.T @ x, what="center normal equations")
        out.append(mv)
    return CenterSet(tuple(out), nonneg_enforced=enforce_nonneg)


def _init_centers(
    data: MultiViewDataset, cfg: RkmcConfig, tag: str, nonneg: bool
) -> CenterSet:
    hyper = cfg.hyper
    method = "uniform" if cfg.init == "random-rows" else "kmeans++"
    idx = select_initial_rows(data.stacked(), hyper.k, hyper.seed, tag, method=method)
    return CenterSet(tuple(x[idx].copy() for x in data.views), nonneg_enforced=nonneg)


def _per_row_residual(data: MultiViewDataset, u: AssignmentMatrix, m: CenterSet) -> np.ndarray:
    r = np.zeros(data.n_samples)
    for x, mv in zip(data.views, m.centers):
        diff = x - u.entries @ mv
        r += (diff * diff).sum(axis=1)
    return r


def _fit_once(data: MultiViewDataset, cfg: RkmcConfig, tag: str, nonneg: bool) -> dict:
    hyper = cfg.hyper
    m = cfg.initial_centers
    if m is None:
        m = _init_centers(data, cfg, tag, nonneg)
    u = update_U(data, m, None, hyper.eta, mode=cfg.assignment)
    trace = [objective_rkmc(data, u, m, hyper.eta)]
    labels_hist = [u.hard_labels.copy()] if cfg.track_labels else None
    empty_streak = np.zeros(hyper.k, dtype=int)
    reseed_steps: list[int] = []
    converged = False
    for _ in range(hyper.max_iter):
        m_new = update_M(data, u, nonneg, prev=m)
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
            m = CenterSet(tuple(centers), nonneg_enforced=nonneg)
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

    Runs ``n_restarts`` seeded initializations (a single run when explicit
    ``initial_centers`` are given) and keeps the one with the lowest final
    objective.  The returned trace is the kept run's per-iteration objective.
    """
    hyper = cfg.hyper
    if hyper.k > data.n_samples:
        raise ConfigError(
            f"k={hyper.k} exceeds the number of samples ({data.n_samples})"
        )
    stacked = data.stacked()
    if np.all(stacked == stacked[0]):
        warnings.warn(
            "all data rows are identical; the fit converges with duplicate centers",
            DataWarning,
            stacklevel=2,
        )
    nonneg = data_nonneg(data.views)
    t0 = time.perf_counter()
    if cfg.initial_centers is not None:
        best = _fit_once(data, cfg, "rkmc-init", nonneg)
        restart_used = 0
    else:
        best, restart_used = None, -1
        for r in range(cfg.n_restarts):
            fit = _fit_once(data, cfg, f"rkmc-init-{r}", nonneg)
            if best is None or fit["trace"][-1] < best["trace"][-1]:
                best, restart_used = fit, r
    elapsed = time.perf_counter() - t0

    metadata = {
        "algorithm": "rkmc",
        "hyper": hyper.as_dict(),
        "init": cfg.init,
        "assignment": cfg.assignment,
        "n_restarts": cfg.n_restarts,
        "restart_used": restart_used,
        "enforce_center_nonneg": nonneg,
        "reseed_steps": list(best["reseed_steps"]),
        "converged": best["converged"],
    }
    if best["labels_hist"] is not None:
        metadata["label_history"] = [h.tolist() for h in best["labels_hist"]]
    score = None
    if data.labels is not None:
        score = metrics.nmi(best["u"].hard_labels, data.labels)
    return ClusterResult(
        assignment=best["u"],
        centers=best["m"],
        weights=ViewWeights.uniform(data.n_views, r=hyper.r),
        objective_trace=tuple(best["trace"]),
        elapsed_seconds=elapsed,
        nmi=score,
        metadata=metadata,
    )
