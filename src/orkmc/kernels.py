"""Constrained-optimization primitives shared by the solvers.

Each operation the offline solver, the online solver and the baselines need
has exactly one implementation here:

* :func:`project_simplex` -- exact Euclidean projection onto the probability
  simplex by the sort-and-threshold method (O(K log K)); ``_project`` is the
  unvalidated form that projects every vector along the last axis.
* :func:`assignment_qp` -- the Hessian ``H = 2 (sum_v w_v M_v M_v' + eta I)``
  and linear terms ``c = 2 sum_v w_v X_v M_v'`` of the assignment rows'
  quadratic ``1/2 u' H u - c' u``.
* :func:`pg_step` -- the projected-gradient step length ``1/lambda_max(H)``.
* ``_pgd_rows`` -- projected gradient on a batch of rows, either to a
  fixed-point tolerance or for a fixed number of sweeps.
* :func:`solve_row_qp` -- minimizer of one row QP over the simplex.
* :func:`solve_ridge_normal` -- Cholesky solve of symmetric PSD normal
  equations, with a flagged ridge fallback when they are singular.
* :func:`nnls` -- nonnegative least squares ``argmin_{m>=0} ||A m - b||``
  by the Lawson-Hanson active-set method (exact termination).
* :func:`sq_dists` -- squared Euclidean distances from rows to centers.
* :func:`cluster_means` -- per-cluster means of the rows with each hard label.
* :func:`one_hot` -- the one-hot assignment matrix of hard labels.
* :func:`data_nonneg` -- the rule that centers are kept nonnegative exactly
  when the data is.

All functions are pure and re-entrant; callers may run rows or columns in
parallel and results do not depend on the schedule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceWarning,
    DimensionError,
    NumericalError,
    RidgeFallbackWarning,
    ValidationError,
)

RIDGE_DELTA = 1e-10


def _project(y: np.ndarray) -> np.ndarray:
    """Project each vector along the last axis of ``y`` onto the simplex (no
    input validation).

    The threshold is ``tau = max_j (s_1 + ... + s_j - 1) / j`` over the
    descending sort ``s`` (Wang & Carreira-Perpinan 2013).
    """
    s = np.sort(y, axis=-1)[..., ::-1]
    css = s.cumsum(axis=-1)
    css -= 1.0
    css /= np.arange(1.0, y.shape[-1] + 1.0)
    out = y - css.max(axis=-1, keepdims=True)
    np.maximum(out, 0.0, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def project_simplex(y) -> np.ndarray:
    """Project ``y`` onto ``{u : u >= 0, sum(u) = 1}``.

    Returns ``argmin_{u in simplex} ||u - y||^2``; the output satisfies the
    constraints exactly (the row sum is renormalized at the end).
    """
    v = np.asarray(y, dtype=np.float64).ravel()
    if v.size < 1:
        raise DimensionError("cannot project an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValidationError("cannot project a vector with non-finite entries")
    return _project(v)


def assignment_qp(xs, centers, w, eta: float) -> tuple:
    """Row-QP data ``(H, c)`` of the assignment update at fixed centers.

    ``H = 2 (sum_v w_v M_v M_v' + eta I)`` is shared by every row and
    ``c = 2 sum_v w_v X_v M_v'`` has one row per data row (a 1-D ``c`` when
    every ``X_v`` is a single sample).  The offline solver uses ``w = 1``, the
    online solver ``w = alpha ** r``.
    """
    k = centers[0].shape[0]
    h = 2.0 * eta * np.eye(k)
    c = 0.0
    for wv, x, mv in zip(w, xs, centers):
        h += 2.0 * wv * (mv @ mv.T)
        c += 2.0 * wv * (x @ mv.T)
    return h, c


def pg_step(h: np.ndarray) -> float:
    """Projected-gradient step ``1 / lambda_max(H)`` for a symmetric PSD ``H``.

    Each step with this length never increases the row objective.
    """
    lmax = float(np.linalg.eigvalsh(h)[-1])
    return 1.0 / max(lmax * (1.0 + 1e-12), np.finfo(float).tiny)


@dataclass(frozen=True)
class RowQP:
    """Quadratic-minimization data for one assignment row.

    ``h`` is the K x K symmetric positive-definite Hessian
    (``2 * (sum_v w_v M_v M_v' + eta I)``) and ``c`` the linear term built
    from the data row.
    """

    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64).ravel()
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionError(f"H must be square, got shape {h.shape}")
        if c.shape[0] != h.shape[0]:
            raise DimensionError(
                f"c has length {c.shape[0]}, H is {h.shape[0]} x {h.shape[0]}"
            )
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(c))):
            raise ValidationError("RowQP inputs must be finite")
        if np.max(np.abs(h - h.T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
            raise ValidationError("H must be symmetric")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", c)

    @property
    def k(self) -> int:
        return self.h.shape[0]


def _pgd_rows(
    u0: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    step: float,
    tol: float,
    max_inner: int,
) -> tuple:
    """Projected gradient on the rows of ``u0`` (1-D: one row); each row
    minimizes ``1/2 u' H u - c_i' u`` over the simplex.

    Returns ``(u, converged, n_iters)``.  With ``tol > 0`` it stops once the
    fixed-point residual ``||u - P(u - step * (u H - c))||`` of every row is
    at most ``tol``; the residual is non-increasing along the iterates, so the
    returned iterate certifies the tolerance when ``converged``.  With
    ``tol <= 0`` it runs exactly ``max_inner`` sweeps, computes no residual
    and reports ``converged=False``.
    """
    u = u0
    for it in range(max_inner):
        u_next = _project(u - step * (u @ h - c))
        if tol > 0:
            res = np.max(np.sqrt(np.sum((u_next - u) ** 2, axis=-1)))
            if res <= tol:
                return u_next, True, it + 1
        u = u_next
    return u, False, max_inner


def solve_row_qp(qp: RowQP, u0, tol: float = 1e-10, max_inner: int = 100_000) -> np.ndarray:
    """Minimize ``1/2 u' H u - c' u`` over the probability simplex.

    ``u0`` must lie on the simplex; the objective never increases relative to
    ``u0``.  Raises :class:`NumericalError` when ``H`` is not positive
    definite; warns (and returns the best iterate) when ``max_inner`` runs out
    before the projected-gradient fixed-point residual drops below ``tol``.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    try:
        np.linalg.cholesky(qp.h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("row QP Hessian is not positive definite") from exc
    start = np.asarray(u0, dtype=np.float64).ravel()
    if start.shape[0] != qp.k:
        raise DimensionError(f"u0 has length {start.shape[0]}, expected {qp.k}")
    if np.any(start < -1e-9) or abs(float(start.sum()) - 1.0) > 1e-6:
        raise ValidationError("u0 must lie on the probability simplex")
    u, converged, _ = _pgd_rows(_project(start), qp.h, qp.c, pg_step(qp.h), tol, max_inner)
    if not converged:
        warnings.warn(
            f"row QP unconverged after {max_inner} projected-gradient steps",
            ConvergenceWarning,
            stacklevel=2,
        )
    return u


def solve_ridge_normal(g: np.ndarray, rhs: np.ndarray, what: str = "system") -> np.ndarray:
    """Solve ``G x = rhs`` for symmetric PSD ``G``; ridge-fallback when singular."""
    try:
        cf = np.linalg.cholesky(g)
        y = np.linalg.solve(cf, rhs)
        return np.linalg.solve(cf.T, y)
    except np.linalg.LinAlgError:
        warnings.warn(
            f"singular {what}; applying ridge fallback (delta={RIDGE_DELTA})",
            RidgeFallbackWarning,
            stacklevel=2,
        )
        return np.linalg.solve(g + RIDGE_DELTA * np.eye(g.shape[0]), rhs)


def nnls(a, b, tol: float = 1e-10) -> np.ndarray:
    """Solve ``argmin_{m >= 0} ||A m - b||^2`` by Lawson-Hanson active sets.

    The KKT conditions hold within ``tol`` at the solution: ``m >= 0``,
    ``g = A'(A m - b) >= -tol`` and ``m * g <= tol`` element-wise.  Degenerate
    normal equations on the support fall back to a ridge-regularized system
    (delta = 1e-10) and emit :class:`RidgeFallbackWarning`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.ndim != 2:
        raise DimensionError(f"A must be 2-D, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"b has length {b.shape[0]}, A has {a.shape[0]} rows")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("nnls inputs must be finite")

    k = a.shape[1]
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    scale = max(1.0, float(np.max(np.abs(a.T @ b), initial=0.0)))
    dual_tol = min(tol, 10.0 * np.finfo(float).eps * max(a.shape) * scale)
    budget = 200 * (k + 1)
    while budget > 0:
        budget -= 1
        w = a.T @ (b - a @ x)
        candidates = np.where(~passive, w, -np.inf)
        j = int(np.argmax(candidates))
        if candidates[j] <= dual_tol:
            break
        passive[j] = True
        while budget > 0:
            budget -= 1
            support = np.flatnonzero(passive)
            sub = a[:, support]
            z = solve_ridge_normal(sub.T @ sub, sub.T @ b, what="nnls normal equations")
            if np.all(z > 0):
                x[:] = 0.0
                x[support] = z
                break
            x_s = x[support]
            blocking = z <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = x_s[blocking] / (x_s[blocking] - z[blocking])
            ratios = np.nan_to_num(ratios, nan=0.0, posinf=0.0, neginf=0.0)
            alpha = float(np.min(ratios))
            x[support] = x_s + alpha * (z - x_s)
            drop = support[x[support] <= 1e-14]
            passive[drop] = False
            x[drop] = 0.0
    else:
        warnings.warn(
            "nnls hit its iteration budget before exact termination",
            ConvergenceWarning,
            stacklevel=2,
        )
    return x


def sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every row of ``x`` to every center,
    clamped at zero against cancellation."""
    d = (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * x @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def cluster_means(x: np.ndarray, labels: np.ndarray, k: int, prev: np.ndarray) -> np.ndarray:
    """Mean of the rows of ``x`` with each label ``0..k-1``; a label with no
    rows keeps its row of ``prev``."""
    out = prev.copy()
    for kk in range(k):
        mask = labels == kk
        if mask.any():
            out[kk] = x[mask].mean(axis=0)
    return out


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """The N x K assignment matrix with a one at each row's label."""
    u = np.zeros((labels.shape[0], k))
    u[np.arange(labels.shape[0]), labels] = 1.0
    return u


def data_nonneg(views) -> bool:
    """The default center constraint: centers are kept nonnegative exactly
    when every view of the data is nonnegative."""
    return all(float(x.min()) >= 0.0 for x in views)
