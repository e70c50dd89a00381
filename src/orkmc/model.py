"""Core data types, objective evaluations and invariant checks.

The solvers all speak in terms of these types:

* :class:`MultiViewDataset` -- V aligned per-view sample matrices (one row per
  sample in every view) plus optional ground-truth labels; it also holds the
  two facts the solvers read off the data, its stacked N x sum(J_v) matrix and
  whether every view is nonnegative.
* :class:`CenterSet` -- per-view K x J_v center matrices, held as column views
  of one K x sum(J_v) block.
* :class:`ClusterResult` -- everything a fit returns: the N x K row-stochastic
  soft-assignment matrix U as a plain array, its hard labels (the row argmax,
  derived on read), and the view weights as the plain simplex vector alpha;
  the balance exponent r lives only in :class:`HyperParams`.

Every solver builds its result with :func:`fit_result`, which records the
``HyperParams`` that made it, and :func:`objective_rkmc` is
:func:`objective_online` with unit view weights.

``MultiViewDataset`` validates eagerly (bad data should fail at the door);
the result-side types are cheap containers whose numeric invariants are checked
by :func:`validate`, which reports violations instead of raising.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import metrics
from ._util import check_seed
from .errors import ConfigError, DimensionError, ValidationError

ROW_SUM_TOL = 1e-9
ROW_NONNEG_TOL = -1e-12


def _as_matrix(a, what: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{what} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{what} must be nonempty, got shape {m.shape}")
    return np.ascontiguousarray(m)


@dataclass(frozen=True)
class MultiViewDataset:
    """V aligned sample matrices; view v has shape (N, J_v).

    The dataset owns one read-only float64 block, ``stacked`` (N x sum(J_v),
    the column-concatenation of the views), built at construction; each view
    is a read-only column view of it.  ``nonneg`` (every view is
    nonnegative) is decided from it once.  Changing the caller's arrays
    afterwards changes none of these.
    """

    views: tuple
    labels: Optional[np.ndarray] = None
    name: str = ""
    stacked: np.ndarray = field(init=False, repr=False, compare=False)
    nonneg: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.views) < 1:
            raise DimensionError("dataset needs at least one view")
        views = tuple(_as_matrix(v, f"view {i}") for i, v in enumerate(self.views))
        n = views[0].shape[0]
        for i, v in enumerate(views):
            if v.shape[0] != n:
                raise DimensionError(
                    f"view {i} has {v.shape[0]} rows, expected {n} (all views share samples)"
                )
            if not np.all(np.isfinite(v)):
                bad = np.argwhere(~np.isfinite(v))[0]
                raise ValidationError(
                    f"view {i} has a non-finite entry at row {bad[0]}, column {bad[1]}"
                )
        stacked = np.hstack(views)
        stacked.flags.writeable = False
        cuts = np.cumsum([v.shape[1] for v in views])[:-1]
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "views", tuple(np.split(stacked, cuts, axis=1)))
        object.__setattr__(self, "nonneg", bool(stacked.min() >= 0.0))
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.ndim != 1:
                raise DimensionError("labels must be a 1-D sequence")
            if labels.shape[0] != n:
                raise ValidationError(
                    f"labels have length {labels.shape[0]}, expected {n}"
                )
            object.__setattr__(self, "labels", labels.copy())

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def feature_counts(self) -> tuple:
        return tuple(v.shape[1] for v in self.views)

    def take_rows(self, idx) -> "MultiViewDataset":
        idx = np.asarray(idx)
        return MultiViewDataset(
            views=tuple(v[idx] for v in self.views),
            labels=None if self.labels is None else self.labels[idx],
            name=self.name,
        )

    def single_view(self, v: int) -> "MultiViewDataset":
        return MultiViewDataset(views=(self.views[v],), labels=self.labels, name=self.name)


def view_starts(feature_counts) -> tuple:
    """The column of the stacked block where each view's ``J_v`` columns begin."""
    return tuple(itertools.accumulate(feature_counts[:-1], initial=0))


@dataclass(frozen=True, init=False, eq=False)
class CenterSet:
    """The K x J_v centers of every view, held in one K x sum(J_v) block.

    ``stacked`` is that float64 block; it is writable, and the online solver
    moves centers in place on it.  ``centers`` is derived on every read: the
    per-view matrices as column views of the block, view v at columns
    ``starts[v]`` to ``starts[v] + feature_counts[v]``.  The block is the one
    copy, so a write through either form reaches the other, and a
    ``copy.deepcopy`` of the set (which copies the block) stays one set.

    ``CenterSet(per_view_matrices)`` copies the matrices into a new block;
    :meth:`from_stacked` adopts a block as given.
    """

    stacked: np.ndarray
    feature_counts: tuple
    starts: tuple
    nonneg_enforced: bool

    def __init__(self, centers, nonneg_enforced: bool = False):
        mats = [_as_matrix(m, f"center matrix {v}") for v, m in enumerate(centers)]
        if not mats:
            raise DimensionError("a center set needs at least one view")
        for v, m in enumerate(mats):
            if m.shape[0] != mats[0].shape[0]:
                raise DimensionError(
                    f"center matrix {v} has {m.shape[0]} rows, expected {mats[0].shape[0]}"
                )
        self._adopt(np.hstack(mats), tuple(m.shape[1] for m in mats), nonneg_enforced)

    def _adopt(self, block: np.ndarray, feature_counts: tuple, nonneg_enforced: bool) -> None:
        object.__setattr__(self, "stacked", block)
        object.__setattr__(self, "feature_counts", feature_counts)
        object.__setattr__(self, "starts", view_starts(feature_counts))
        object.__setattr__(self, "nonneg_enforced", bool(nonneg_enforced))

    @classmethod
    def from_stacked(cls, m, feature_counts, nonneg_enforced=False) -> "CenterSet":
        """The set on the K x sum(J_v) block ``m`` itself (not a copy, when
        ``m`` is a contiguous float64 matrix), split into views of
        ``feature_counts`` columns."""
        block = _as_matrix(m, "center block")
        counts = tuple(int(j) for j in feature_counts)
        if min(counts, default=0) < 1 or sum(counts) != block.shape[1]:
            raise DimensionError(
                f"feature counts {counts} do not split {block.shape[1]} center columns"
            )
        out = cls.__new__(cls)
        out._adopt(block, counts, nonneg_enforced)
        return out

    @property
    def centers(self) -> tuple:
        return tuple(
            self.stacked[:, a : a + j] for a, j in zip(self.starts, self.feature_counts)
        )

    @property
    def k(self) -> int:
        return self.stacked.shape[0]

    @property
    def n_views(self) -> int:
        return len(self.feature_counts)


@dataclass(frozen=True)
class HyperParams:
    """Solver hyperparameters, named after the original interface.

    ``gamma=None`` selects the automatic step length of ORKMC's
    projected-gradient sweeps, :func:`~orkmc.kernels.pg_step`: the inverse of
    the largest eigenvalue of the row Hessian restricted to the simplex's
    tangent space ``{v : sum(v) = 0}``, so a constant offset of the data
    leaves it alone.  Where the Hessian has no curvature there (k = 1, or
    identical centers at eta = 0) it is the inverse of the Hessian's own
    largest eigenvalue.  An explicit positive value is used verbatim.
    ``epsilon`` bounds the largest move of one center within one view
    (:func:`center_drift`): RKMC and Lloyd stop, and ORKMC freezes its
    centers, once an update moves no center by more.  Data scaled by c is
    fitted alike with ``epsilon c``, ``eta c^2`` and ``gamma / c^2``: epsilon
    is in the data's units, eta in squared and gamma in inverse squared ones.
    ``chushi`` is the initial batch size of the online solvers (orkmc, ogd,
    omu); ``None`` means ``max(k, n // 10)`` of n samples
    (:func:`with_initial_batch`).  ``r`` is the view-weight balance
    exponent: the online objective weights view v by ``alpha_v ** r``.  Its
    default, 2, keeps every view in play; at ``r <= 1`` the weight refresh
    puts all the weight on the view with the smallest residual
    (:func:`~orkmc.online.weights_from_residuals`).
    """

    k: int
    eta: float = 1.0
    r: float = 2.0
    gamma: Optional[float] = None
    epsilon: float = 1e-4
    max_iter: int = 100
    chushi: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ConfigError(f"eta must be >= 0, got {self.eta!r}")
        if not (np.isfinite(self.r) and self.r > 0):
            raise ConfigError(f"r must be > 0, got {self.r!r}")
        if self.gamma is not None and not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be > 0 (or None for automatic), got {self.gamma!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon!r}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ConfigError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.chushi is not None:
            if not (isinstance(self.chushi, (int, np.integer)) and self.chushi >= 1):
                raise ConfigError(f"chushi must be an integer >= 1, got {self.chushi!r}")
            if self.chushi < self.k:
                raise ConfigError(
                    f"chushi must be >= k (need at least k points to seed k centers), "
                    f"got chushi={self.chushi}, k={self.k}"
                )
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        check_seed(self.seed)

    def as_dict(self) -> dict:
        return {
            "k": int(self.k),
            "eta": float(self.eta),
            "r": float(self.r),
            "gamma": None if self.gamma is None else float(self.gamma),
            "epsilon": float(self.epsilon),
            "max_iter": int(self.max_iter),
            "chushi": None if self.chushi is None else int(self.chushi),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class ClusterResult:
    """Everything a fit returns; see :func:`validate` for the invariants.

    ``assignment`` is the N x K float64 soft-assignment matrix U, and
    ``labels`` its hard labels, the row argmax (lowest index on ties).
    ``weights`` is the float64 view-weight vector alpha of shape (V,): uniform
    1/V for every solver but ORKMC, which refreshes it from the residuals.
    """

    assignment: np.ndarray
    centers: CenterSet
    weights: np.ndarray
    objective_trace: tuple = ()
    elapsed_seconds: float = 0.0
    nmi: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.assignment, axis=1)


def with_initial_batch(hyper: HyperParams, n: int) -> HyperParams:
    """``hyper`` with the online solvers' initial batch size resolved for
    ``n`` samples: ``chushi`` when it is set, else ``max(k, n // 10)``.  A
    batch of more than ``n`` rows is a :class:`ConfigError`."""
    chushi = max(hyper.k, n // 10) if hyper.chushi is None else hyper.chushi
    if chushi > n:
        raise ConfigError(f"chushi={chushi} exceeds the sample count {n} (k={hyper.k})")
    return replace(hyper, chushi=chushi)


def fit_result(
    data: MultiViewDataset, hyper: HyperParams, algorithm: str, u: np.ndarray,
    centers: CenterSet, trace, elapsed: float, metadata: Optional[dict] = None,
    weights: Optional[np.ndarray] = None,
) -> ClusterResult:
    """The result of every fit of ``data``: ``u`` as a nonempty 2-D float64
    array, the NMI of its hard labels when ``data`` has labels, and uniform
    1/V view weights unless ``weights`` is given.

    Its metadata is ``{"algorithm": algorithm, "hyper": hyper.as_dict()}``
    followed by the solver's own ``metadata`` entries, so every result
    records the hyperparameters that made it (the online solvers pass
    ``hyper`` with ``chushi`` resolved by :func:`with_initial_batch`)."""
    u = _as_matrix(u, "assignment matrix")
    score = None
    if data.labels is not None:
        score = metrics.nmi(np.argmax(u, axis=1), data.labels)
    if weights is None:
        weights = np.full(data.n_views, 1.0 / data.n_views)
    return ClusterResult(
        assignment=u,
        centers=centers,
        weights=weights,
        objective_trace=tuple(trace),
        elapsed_seconds=elapsed,
        nmi=score,
        metadata={"algorithm": algorithm, "hyper": hyper.as_dict(), **(metadata or {})},
    )


def _conforming(data: MultiViewDataset, u: np.ndarray, m: CenterSet) -> np.ndarray:
    """``U`` as a float64 array, checked with ``m`` against ``data``'s shapes
    (one K x J_v center matrix per view) and for finiteness."""
    u = np.asarray(u, dtype=np.float64)
    n, k = u.shape
    if n != data.n_samples:
        raise DimensionError(f"assignment has {n} rows, dataset has {data.n_samples}")
    if m.n_views != data.n_views:
        raise DimensionError(f"{m.n_views} center matrices for {data.n_views} views")
    for v, (j, jd) in enumerate(zip(m.feature_counts, data.feature_counts)):
        if (m.k, j) != (k, jd):
            raise DimensionError(
                f"center matrix {v} has shape {(m.k, j)}, expected {(k, jd)}"
            )
    if not np.all(np.isfinite(u)):
        raise ValidationError("assignment matrix has non-finite entries")
    bad = np.flatnonzero(~np.isfinite(m.stacked).all(axis=0))
    if bad.size:
        raise ValidationError(
            f"center matrix {_view_of_column(m.starts, bad[0])} has non-finite entries"
        )
    return u


def _view_of_column(starts, col: int) -> int:
    """The view whose columns of the stacked block hold column ``col``."""
    return bisect.bisect_right(starts, int(col)) - 1


def _sq_norm(a: np.ndarray) -> float:
    """Sum of the squared entries of ``a``, reduced by numpy's own einsum
    loop (never BLAS; see :func:`view_residuals`)."""
    flat = a.ravel()
    return float(np.einsum("i,i->", flat, flat))


def view_residuals(x: np.ndarray, u: np.ndarray, m: np.ndarray, starts) -> np.ndarray:
    """Squared residual ``||X_v - U M_v||^2`` of each view, from the stacked
    data ``x`` (N x sum(J_v); 1-D ``x`` and ``u`` for a single sample) and the
    stacked K x sum(J_v) centers ``m``, with view v's columns beginning at
    ``starts[v]``.

    One residual ``x - u m`` is squared, summed over the rows, and summed
    per view by ``np.add.reduceat``.  No reduction calls BLAS: OpenBLAS
    threads a ``ddot`` above 10 000 elements, and the worker thread then
    spins for far longer than the few microseconds of work.
    """
    r = x - u.dot(m)
    r *= r
    if r.ndim == 2:
        r = r.sum(axis=0)
    return np.add.reduceat(r, starts)


def center_drift(d: np.ndarray, starts) -> float:
    """The largest norm of one center's move within one view, from the move
    ``d`` of the stacked centers (K x sum(J_v), or 1-D for one center) with
    view v's columns beginning at ``starts[v]``.  Every stop and freeze rule
    compares this against ``HyperParams.epsilon``."""
    return math.sqrt(float(np.add.reduceat(d * d, starts, axis=-1).max()))


def objective_rkmc(
    data: MultiViewDataset, u: np.ndarray, m: CenterSet, eta: float
) -> float:
    """Squared reconstruction error summed over views plus ``eta * sum(U**2)``:
    :func:`objective_online` with every view weight 1, bit for bit."""
    return objective_online(data, u, m, np.ones(data.n_views), 1.0, eta)


def objective_online(
    data_prefix: MultiViewDataset,
    u: np.ndarray,
    m: CenterSet,
    alpha,
    r: float,
    eta: float,
) -> float:
    """Reconstruction error over the processed prefix, view v weighted by
    ``alpha_v ** r``, plus the regularizer ``eta * sum(U**2)``; the views are
    summed in order."""
    uu = _conforming(data_prefix, u, m)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (data_prefix.n_views,):
        raise DimensionError(
            f"weights of shape {alpha.shape} for {data_prefix.n_views} views"
        )
    resid = view_residuals(data_prefix.stacked, uu, m.stacked, m.starts)
    total = float(sum(float(a) ** float(r) * d for a, d in zip(alpha, resid)))
    return total + float(eta) * _sq_norm(uu)


def _check_rows(entries: np.ndarray, out: list) -> None:
    """Report every assignment row off the simplex."""
    for i, k in np.argwhere(entries < ROW_NONNEG_TOL):
        out.append(("row-nonneg", (int(i), int(k))))
    sums = entries.sum(axis=1)
    for i in np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL)):
        out.append(("row-sum", int(i)))


def _check_centers(c: CenterSet, out: list) -> None:
    for v, m in enumerate(c.centers):
        for idx in np.argwhere(~np.isfinite(m)):
            out.append(("center-finite", (int(v), int(idx[0]), int(idx[1]))))
        if c.nonneg_enforced:
            for idx in np.argwhere(m < 0):
                out.append(("center-nonneg", (int(v), int(idx[0]), int(idx[1]))))


def _check_weights(alpha, out: list) -> None:
    alpha = np.asarray(alpha, dtype=np.float64)
    for v in np.flatnonzero(alpha < ROW_NONNEG_TOL):
        out.append(("weight-nonneg", int(v)))
    if not abs(float(alpha.sum()) - 1.0) <= ROW_SUM_TOL:
        out.append(("weight-sum", None))


def validate(obj) -> list:
    """Check every invariant of a :class:`ClusterResult` (or of an online
    solver state) and return ``(invariant-name, offending-index)`` pairs.

    Reports instead of raising; an empty list means the object is well formed.
    Every tolerance test reads ``not (within tolerance)``, so a NaN fails it.
    """
    out: list = []
    if hasattr(obj, "U_rows"):  # online state (duck-typed to avoid an import cycle)
        counts = np.asarray(obj.counts)
        if counts.sum() != obj.t:
            out.append(("counts-sum", None))
        for k in np.flatnonzero(counts < 0):
            out.append(("counts-nonneg", int(k)))
        _check_centers(obj.centers, out)
        _check_weights(obj.weights, out)
        _check_rows(np.asarray(obj.U_rows, dtype=np.float64).reshape(obj.t, obj.centers.k), out)
        return out

    _check_rows(obj.assignment, out)
    _check_centers(obj.centers, out)
    _check_weights(obj.weights, out)
    if obj.assignment.shape[1] != obj.centers.k:
        out.append(("shape", None))
    if np.shape(obj.weights) != (obj.centers.n_views,):
        out.append(("weight-length", None))
    if not obj.elapsed_seconds >= 0:
        out.append(("elapsed", None))
    if obj.nmi is not None and not (0.0 <= obj.nmi <= 1.0):
        out.append(("nmi-range", None))
    if obj.metadata.get("algorithm") == "rkmc":
        trace = obj.objective_trace
        for i in range(1, len(trace)):
            if not trace[i] <= trace[i - 1] + 1e-12 * abs(trace[i - 1]):
                out.append(("objective-trace", int(i)))
    return out
