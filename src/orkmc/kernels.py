"""Constrained-optimization primitives shared by the solvers.

Each operation the offline solver, the online solver and the baselines need
has exactly one implementation here:

* :func:`project_simplex` -- exact Euclidean projection onto the probability
  simplex by the sort-and-threshold method (O(K log K)); ``_project`` is the
  unvalidated form that projects every vector along the last axis.  One row
  (a 1-D input, as in each ORKMC arrival) is projected on Python floats: at
  K = 5 that costs under a third of the batch form's dozen numpy calls on
  K-element arrays, and its O(K log K) Python arithmetic catches up with them
  only at K of about 40.  The two branches agree to a few ulp.
* :func:`assignment_qp` -- the Hessian ``H = 2 (M W M' + eta I)`` and linear
  terms ``c = 2 X W M'`` of the assignment rows' quadratic ``1/2 u' H u - c' u``,
  built on the stacked data ``X`` and centers ``M`` with the per-column view
  weights ``W = diag(w)``: about five numpy calls for any number of views.
* :func:`pg_step` -- the one projected-gradient step length,
  ``1/lambda_max(Z' H Z)`` on the simplex's tangent space ``{v : sum(v) = 0}``
  with its basis ``Z`` from ``_tangent_basis`` (built once per K), so a
  constant offset of the data, which moves ``H`` only by terms ``Z``
  annihilates, leaves the step alone.  Where ``Z' H Z`` has no curvature above
  the rank test's floor (K = 1, identical centers at eta = 0) the step is
  ``1/lambda_max(H)``.  ORKMC's arrivals and warm start and RKMC's face sweeps
  all take it.
* ``_pgd_rows`` -- a fixed number of projected-gradient sweeps on a batch of
  rows (ORKMC's per-arrival update; RKMC's face-finding start), each in the
  affine form ``u <- P(u A + b)`` with ``A = I - step H`` and ``b = step c``
  built once per call: one O(N K^2) product and one projection per sweep.
* ``_active_set`` -- the exact solver of both RKMC half-steps: a batched
  primal active-set method for ``min 1/2 x'Ax - b_i'x`` over ``x >= 0``
  (optionally with ``sum(x) = 1``) for many ``b_i`` sharing one PSD ``A``.
  It stops at the KKT point of every row, after a few rounds.  In each round
  the rows free in every coordinate share one factorization of the base
  (K+1) x (K+1) KKT matrix, and the other rows are solved as one stack of
  their own KKT matrices.
* :func:`solve_ridge_normal` -- Cholesky solve of symmetric PSD normal
  equations.
* ``_singular`` -- the one singularity rule of both solvers, a rank test
  decided once per call before anything is factored; on the simplex it reads
  the same ``Z' A Z`` as :func:`pg_step`.  A singular call solves
  every system by ``_ridge_solve`` and warns :class:`RidgeFallbackWarning`
  once; a regular call solves them exactly.
* ``_ridge_solve`` -- the one ridge rule: ``RIDGE_DELTA max|A|`` on the
  diagonal, then one refinement step against the unregularized system.
* :func:`nnls` -- nonnegative least squares ``argmin_{m>=0} ||A m - b||``
  for one or many right-hand sides, in Gram form through ``_active_set``.
* :func:`sq_dists` -- squared Euclidean distances from rows to centers.  The
  cross term is numpy's own ``einsum`` loop, never a BLAS gemm: the threaded
  gemm left an OpenBLAS worker spinning after every call, 0.7-0.8 s of CPU
  on other threads over a 100-iteration Lloyd fit on 10 000 x 20 rows.  The
  einsum costs about 0.7 ms more per call at 10 000 x 20 x 10.
* :func:`cluster_means` -- per-cluster means of the rows with each hard label.
* :func:`one_hot` -- the one-hot assignment matrix of hard labels.

The rule that centers are kept nonnegative exactly when the data is belongs
to the data: ``MultiViewDataset.nonneg`` in :mod:`orkmc.model`.
``offline.update_M`` and ``online.orkmc_init`` read it where they build
centers, and record it in ``CenterSet.nonneg_enforced``.

All functions are pure and re-entrant; callers may run rows or columns in
parallel and results do not depend on the schedule.

Products that ORKMC takes once or more per arrival are written
``a.dot(b)``: on K-element operands that costs about half the call
overhead of ``a @ b`` (0.55 against 1.1 us at K = 5 on a 2-core x86-64 VM
with numpy 2.4), with the same bits.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import ConvergenceWarning, DimensionError, RidgeFallbackWarning, ValidationError

# The exact solvers' ridge and KKT multiplier tolerance, relative to the system's size.
RIDGE_DELTA = 1e-10
KKT_TOL = 1e-10
# The active-set kernel gives up (with a ConvergenceWarning) after this many
# rounds per coordinate; exact termination takes far fewer.
MAX_ROUNDS_PER_DIM = 10
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _project(y: np.ndarray) -> np.ndarray:
    """Project each vector along the last axis of ``y`` onto the simplex (no
    input validation).

    The threshold is ``tau = max_j (s_1 + ... + s_j - 1) / j`` over the
    descending sort ``s`` (Wang & Carreira-Perpinan 2013); the result is
    ``max(y - tau, 0)``, renormalized to sum 1.  A 1-D ``y`` (one row) runs
    this on a Python list: at the K of a cluster count, a dozen numpy calls
    on K-element arrays cost more than the arithmetic itself.  It matches the
    N-D branch to a few ulp: the partial sums are sequential in both, and
    only the final sum may associate differently (numpy sums 8 or more
    entries pairwise).
    """
    if y.ndim == 1:
        vals = y.tolist()
        tau = -math.inf
        css = 0.0
        for j, sj in enumerate(sorted(vals, reverse=True), 1):
            css += sj
            t = (css - 1.0) / j
            if t > tau:
                tau = t
        out = [v - tau if v > tau else 0.0 for v in vals]
        total = sum(out)
        return np.array([o / total for o in out])
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


def assignment_qp(x: np.ndarray, m: np.ndarray, w: np.ndarray, eta: float) -> tuple:
    """Row-QP data ``(H, c)`` of the assignment update at fixed centers, from
    the stacked data ``x`` (N x sum(J_v), or one sample as a 1-D row), the
    stacked K x sum(J_v) centers ``m`` and one weight per column ``w``.

    With ``W = diag(w)``, ``H = 2 (M W M' + eta I)`` is shared by every row
    and ``c = 2 X W M'`` has one row per data row (1-D for a 1-D ``x``).  A
    view's weight is repeated over its columns: the offline solver and OMU
    use ``w = 1``, the online solver ``alpha_v ** r`` on view v.
    """
    mw = m * (2.0 * w)
    h = mw.dot(m.T)
    h.flat[:: m.shape[0] + 1] += 2.0 * eta
    return h, x.dot(mw.T)


@functools.lru_cache(maxsize=None)
def _tangent_basis(k: int) -> np.ndarray:
    """The read-only orthonormal basis ``Z`` (K x (K-1)) of ``{v : sum(v) = 0}``,
    built once per K.

    ``Z`` is columns 2..K of the Householder reflector that maps ``e_1`` to
    ``-1/sqrt(K)``, in closed form: columns 2..K of the identity minus
    ``w 1'``, with ``w = (1/sqrt(K), q, ..., q)`` and ``q = 1/(K + sqrt(K))``.
    """
    w = np.full(k, 1.0 / (k + math.sqrt(k)))
    w[0] = 1.0 / math.sqrt(k)
    z = np.eye(k, k - 1, -1) - w[:, None]
    z.flags.writeable = False
    return z


def _on_tangent(a: np.ndarray) -> np.ndarray:
    """``Z' A Z``: the K x K matrix ``A`` restricted to ``{v : sum(v) = 0}``."""
    z = _tangent_basis(a.shape[0])
    return z.T.dot(a).dot(z)


def _curvature_floor(a: np.ndarray) -> float:
    """The rank test's curvature floor for a symmetric PSD ``A``: ``K eps ||A||_F``
    (the bits of ``np.linalg.norm``, without its 1.5 us of argument checks)."""
    return a.shape[0] * _EPS * math.sqrt(a.ravel().dot(a.ravel()))


def pg_step(h: np.ndarray) -> float:
    """Projected-gradient step ``1 / lambda_max(Z' H Z)`` for a symmetric PSD
    ``H``, with ``Z`` the basis of ``{v : sum(v) = 0}`` (:func:`_tangent_basis`).

    Successive simplex iterates differ only inside that subspace, so each step
    of this length never increases the row objective, and the step does not
    move when the data and centers are shifted by one vector (the shift adds
    ``a 1' + 1 a'`` terms to ``H``, which ``Z`` annihilates).  Where ``Z' H Z``
    has no curvature above :func:`_singular`'s floor ``K eps ||H||_F`` (K = 1,
    or identical centers at eta = 0) the step is ``1 / lambda_max(H)``.
    """
    lam = np.linalg.eigvalsh(_on_tangent(h))
    if not (lam.size and lam[-1] > _curvature_floor(h)):
        lam = np.linalg.eigvalsh(h)
    return 1.0 / max(float(lam[-1]) * (1.0 + 1e-12), _TINY)


def _pgd_rows(u0: np.ndarray, h: np.ndarray, c: np.ndarray, step: float, sweeps: int) -> tuple:
    """``sweeps`` projected-gradient sweeps on the rows of ``u0`` (1-D: one
    row); each row descends ``1/2 u' H u - c_i' u`` over the simplex.

    A sweep ``u <- P(u - step (u H - c))`` is computed in its affine form
    ``u <- P(u A + b)``, with ``b = step c`` and ``A = I - step H`` (as
    ``-step H`` plus 1 on the diagonal) built once per call, so it costs one
    O(N K^2) matrix product and one projection.
    Returns ``(u, False, sweeps)``; the last item is the sweep count.
    """
    a = h * -step
    a.flat[:: h.shape[0] + 1] += 1.0
    b = step * c
    u = u0
    for _ in range(sweeps):
        u = _project(u.dot(a) + b)
    return u, False, sweeps


def _ridge_solve(a: np.ndarray, rhs: np.ndarray, k: int, delta: float) -> np.ndarray:
    """Solve ``a x = rhs`` (or a stack of such systems) with ``delta`` (the
    callers' ``RIDGE_DELTA max|a|``) added to the first ``k`` diagonal
    entries, then take one refinement step against the unregularized ``a``,
    which removes the ridge's first-order bias from the solution."""
    ridged = a.copy()
    diag = np.arange(k)
    ridged[..., diag, diag] += delta
    x = np.linalg.solve(ridged, rhs)
    x += np.linalg.solve(ridged, rhs - a @ x)
    return x


def _singular(a: np.ndarray, simplex: bool) -> bool:
    """Whether ``min 1/2 x' A x - b' x`` (subject to ``sum(x) = 1`` when
    ``simplex``) fails to be strictly convex to rounding, for symmetric PSD
    ``A``: the smallest eigenvalue of ``A``, or on the simplex of ``Z' A Z``
    for the basis ``Z`` of ``{v : sum(v) = 0}`` (``_on_tangent``, the
    restriction :func:`pg_step` reads), is at most ``K eps ||A||_F``
    (``_curvature_floor``).

    When it is not, every system built from ``A`` is nonsingular: each
    principal submatrix of a PD ``A``, and each face's KKT matrix when
    ``Z' A Z`` is PD.  On the simplex ``A`` itself may be singular (eta = 0,
    ``m_2 = 2 m_1``) while every KKT matrix is regular, hence the projection.
    The bound scales with ``A``, never with the projection, which is 1 x 1 at
    K = 2.
    """
    lam = np.linalg.eigvalsh(_on_tangent(a) if simplex else a)
    return lam.size > 0 and lam[0] <= _curvature_floor(a)


def _solve_kkt(kkt: np.ndarray, rhs: np.ndarray, k: int, delta: float) -> np.ndarray:
    """Solve the KKT systems of the rows of ``rhs``: ``kkt`` is one matrix
    that every row shares (one factorization, all rows as right-hand sides)
    or a stack with one matrix per row; ``delta > 0`` is :func:`_ridge_solve`'s
    ridge on the ``A`` block, 0 the exact ``np.linalg.solve``."""
    r = rhs.T if kkt.ndim == 2 else rhs[..., None]
    z = _ridge_solve(kkt, r, k, delta) if delta else np.linalg.solve(kkt, r)
    return z.T if kkt.ndim == 2 else z[..., 0]


def _active_set(a: np.ndarray, b: np.ndarray, x0: np.ndarray, simplex: bool) -> np.ndarray:
    """Batched primal active-set solve of ``argmin 1/2 x' A x - b_i' x`` over
    ``x >= 0`` (and ``sum(x) = 1`` when ``simplex``) for every row ``b_i`` of
    ``b``; all rows share the symmetric PSD ``A``.

    ``x0`` holds one feasible start per row, and its support is the row's
    first free set.  Each round solves the (K+1) x (K+1) KKT systems of the
    rows still active (K x K without the simplex).  A row free in every
    coordinate has exactly the base matrix, so all such rows are solved
    against one factorization of it, as the columns of one right-hand side.
    The other rows get their own matrix (a fixed coordinate gets an identity
    row) and are solved in one batched ``np.linalg.solve``.  A call thus costs
    about rounds x (one (K+1)^3 solve per active row below full support, plus
    one shared solve).

    A row whose solution leaves the orthant steps back to the first blocking
    coordinate and fixes it at zero (Lawson-Hanson interpolation); a row at
    its face optimum frees its most negative multiplier, or stops once every
    multiplier is at least ``-KKT_TOL max(max|A| max|x|, max|b|)`` over the
    round's face optima ``x``: a bound in the multipliers' own units.  Every
    round is a descent step, so no row ends above its start.  When
    :func:`_singular` finds ``A`` singular (duplicate centers at eta = 0,
    identical Gram columns), every system of the call takes the ridge rule
    and one :class:`RidgeFallbackWarning` is emitted.
    """
    n, k = b.shape
    amax = float(np.abs(a).max(initial=0.0))
    delta = 0.0
    if _singular(a, simplex):
        # A power of two puts max|A| in [0.5, 1), so the simplex row's unit border
        # pivots alike, and the ridge picks alike among ties, at every data scale.
        s = math.ldexp(1.0, -math.frexp(amax)[1])
        a, b, amax = a * s, b * s, amax * s
        delta = RIDGE_DELTA * (amax or 1.0)
        msg = f"singular QP; applying ridge fallback (delta={delta / s:.3g})"
        warnings.warn(msg, RidgeFallbackWarning, stacklevel=2)
    x = np.array(x0, dtype=np.float64)
    free = x > 0
    d = k + 1 if simplex else k
    base = np.zeros((d, d))
    base[:k, :k] = a
    if simplex:
        base[:k, k] = base[k, :k] = 1.0
    bmax = float(np.abs(b).max(initial=0.0))
    pending = np.ones(n, dtype=bool)
    for _ in range(MAX_ROUNDS_PER_DIM * (k + 1)):
        rows = np.flatnonzero(pending)
        if rows.size == 0:
            break
        f = free[rows]
        rhs = np.ones((rows.size, d))  # the simplex row's right-hand side is 1
        rhs[:, :k] = np.where(f, b[rows], 0.0)
        # A row free in every coordinate has exactly the base system: one
        # factorization serves all of them.
        full = f.all(axis=1)
        part = ~full
        z = np.empty_like(rhs)
        if full.any():
            z[full] = _solve_kkt(base, rhs[full], k, delta)
        if part.any():
            fp = f[part]
            fm = np.ones((fp.shape[0], d))
            fm[:, :k] = fp
            kkt = fm[:, :, None] * fm[:, None, :]
            kkt *= base
            # A fixed coordinate's row and column are zero but for a unit diagonal.
            kkt.reshape(fp.shape[0], -1)[:, : k * (d + 1) : d + 1] += ~fp
            z[part] = _solve_kkt(kkt, rhs[part], k, delta)
        zx = np.where(f, z[:, :k], 0.0)

        # Rows that leave the orthant: step back to the first blocking coordinate.
        block = f & (zx <= 0.0)
        step = block.any(axis=1)
        if step.any():
            xs, zs, bs = x[rows[step]], zx[step], block[step]
            gap = xs - zs
            ratio = np.full_like(xs, np.inf)
            np.divide(xs, gap, out=ratio, where=bs & (gap > 0))
            ratio[bs & (gap <= 0)] = 0.0
            alpha = ratio.min(axis=1, keepdims=True)
            xn = xs + alpha * (zs - xs)
            drop = (bs & (ratio <= alpha)) | (xn <= 0.0)
            xn[drop] = 0.0
            x[rows[step]] = xn
            free[rows[step]] = f[step] & ~drop

        # Rows at their face optimum: free the most negative multiplier, or stop.
        opt = ~step
        if opt.any():
            ro, zo = rows[opt], zx[opt]
            lam = zo @ a - b[ro]
            if simplex:
                lam += z[opt, k:]
            lam[f[opt]] = np.inf
            j = lam.argmin(axis=1)
            add = lam[np.arange(ro.size), j] < -KKT_TOL * max(amax * np.abs(zo).max(), bmax)
            x[ro] = zo
            free[ro[add], j[add]] = True
            pending[ro[~add]] = False
    if pending.any():
        warnings.warn(
            f"active-set solve stopped with {int(pending.sum())} rows short of KKT",
            ConvergenceWarning,
            stacklevel=2,
        )
    if simplex:
        x /= x.sum(axis=1, keepdims=True)
    return x


def solve_ridge_normal(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``G x = rhs`` for symmetric PSD ``G`` by Cholesky.  When
    :func:`_singular` finds ``G`` singular, the solve takes the ridge rule
    (:func:`_ridge_solve`, ``RIDGE_DELTA max|G|``) instead and warns
    :class:`RidgeFallbackWarning`."""
    if _singular(g, False):
        delta = RIDGE_DELTA * (float(np.abs(g).max(initial=0.0)) or 1.0)
        msg = f"singular normal equations; applying ridge fallback (delta={delta:.3g})"
        warnings.warn(msg, RidgeFallbackWarning, stacklevel=2)
        return _ridge_solve(g, rhs, g.shape[0], delta)
    cf = np.linalg.cholesky(g)
    y = np.linalg.solve(cf, rhs)
    return np.linalg.solve(cf.T, y)


def nnls(a, b, start=None) -> np.ndarray:
    """Solve ``argmin_{m >= 0} ||A m - b||^2`` for a 1-D ``b``, or for every
    column of a 2-D ``b`` (the result then has one column per column of ``b``).

    All columns share the Gram matrix ``A'A`` and are solved together by the
    batched active-set kernel, warm-started from ``start`` (same shape as the
    result, nonnegative; zeros by default).  At the solution ``m >= 0``,
    ``g = A'(A m - b) >= -KKT_TOL max(max|A'A| max|m|, max|A'b|)`` and
    ``g = 0`` wherever ``m > 0``.  When ``_singular`` finds ``A'A`` singular
    (identical columns of ``A``), every system of the call takes the ridge
    rule and one :class:`RidgeFallbackWarning` is emitted.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"A must be 2-D, got shape {a.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise DimensionError(f"b has shape {b.shape}, A has {a.shape[0]} rows")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("nnls inputs must be finite")
    shape = (a.shape[1],) + b.shape[1:]
    x0 = np.zeros(shape) if start is None else np.asarray(start, dtype=np.float64)
    if x0.shape != shape or not np.all(x0 >= 0.0):
        raise ValidationError(f"nnls start must be nonnegative with shape {shape}")
    cols = b.reshape(b.shape[0], -1)
    x0 = x0.reshape(a.shape[1], -1).T
    return _active_set(a.T @ a, (a.T @ cols).T, x0, False).T.reshape(shape)


def sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every row of ``x`` to every center,
    clamped at zero against cancellation.

    The cross term ``x centers'`` is taken by ``np.einsum``, which never calls
    BLAS.  OpenBLAS threads the gemm at Lloyd's sizes, and its worker thread
    then spins for far longer than the product takes.  The einsum takes
    about 0.9 instead of 0.2 ms of wall at 10 000 x 20 x 10, and no CPU on
    other threads.
    """
    d = (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * np.einsum("ij,kj->ik", x, centers)
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
