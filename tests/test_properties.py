"""Property tests: the exact half-steps meet their KKT conditions and agree
with the stacked-only reference kernel, the stacked row-QP and residual
builders agree with per-view sums, every singular problem takes the
ridge rule once, RKMC and Lloyd fits and the ORKMC warm start are
equivariant under row permutations, RKMC, Lloyd and the whole ORKMC stream
are equivariant under a shift of the data's columns, and the streaming
solver keeps nonnegative centers nonnegative.

The enumeration oracles stop at K = 3 or so; these draw K up to 17, eta = 0
with duplicate centers, identical Gram columns, 1-D and 2-D right-hand sides
and starts on a vertex or in the interior, and check every solution against
the KKT certificates in ``oracles``.  A ``ConvergenceWarning`` (a solve cut
off by its round budget) fails the test.  The draws are derandomized so that
the suite gives the same verdict on every run.
"""

import copy
import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orkmc.baselines import kmeans_fit
from orkmc.errors import ConvergenceWarning, RidgeFallbackWarning
from orkmc.kernels import (
    KKT_TOL,
    RIDGE_DELTA,
    _active_set,
    assignment_qp,
    nnls,
    solve_ridge_normal,
)
from orkmc.model import (
    CenterSet,
    HyperParams,
    MultiViewDataset,
    validate,
    view_residuals,
    view_starts,
)
from orkmc.offline import rkmc_fit, update_M, update_U
from orkmc.online import orkmc_init, orkmc_run, orkmc_step

pytestmark = [
    pytest.mark.filterwarnings("error::orkmc.errors.ConvergenceWarning"),
    # On a failure hypothesis's pytest plugin imports libcst to write a patch,
    # and libcst's import warns; as an error it would abort the whole session.
    pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
]
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
KKT = 1e-9


def _start(rng, kind, n, k):
    """Feasible simplex rows: a random vertex, an interior point or uniform."""
    if kind == "vertex":
        return np.eye(k)[rng.integers(0, k, size=n)]
    if kind == "interior":
        return rng.dirichlet(np.ones(k), size=n)
    return np.full((n, k), 1.0 / k)


def _assert_rows_kkt(h, c, u):
    for row, ci in zip(u, c):
        assert max(oracles.simplex_qp_kkt(h, ci, row)) <= KKT


@st.composite
def centers_and_rows(draw):
    k = draw(st.integers(1, 17))
    j = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(k, j)) * 3
    dups = draw(st.integers(0, k - 1))
    m[1 : dups + 1] = m[0]
    x = rng.normal(size=(draw(st.integers(1, 6)), j)) * 3
    eta = draw(st.sampled_from([0.0, 1e-3, 0.5, 5.0]))
    start = _start(rng, draw(st.sampled_from(["vertex", "interior", "uniform"])), x.shape[0], k)
    return m, x, eta, start


@pytest.mark.filterwarnings("ignore::orkmc.errors.RidgeFallbackWarning")
@PROPERTY
@given(centers_and_rows())
def test_simplex_kernel_meets_kkt(case):
    m, x, eta, start = case
    h, c = assignment_qp(x, m, np.ones(m.shape[1]), eta)
    u = _active_set(h, c, start, True)
    _assert_rows_kkt(h, c, u)
    f = lambda v: np.einsum("ij,jk,ik->i", v, h, v) / 2 - np.einsum("ij,ij->i", c, v)
    assert np.all(f(u) <= f(start) + 1e-9 * max(1.0, np.abs(h).max(), np.abs(c).max()))


@pytest.mark.filterwarnings("ignore::orkmc.errors.RidgeFallbackWarning")
@PROPERTY
@given(centers_and_rows())
def test_update_u_rows_meet_kkt(case):
    m, x, eta, start = case
    data = MultiViewDataset(views=(x,))
    u = update_U(data, CenterSet((m,)), start, eta)
    h, c = assignment_qp(x, m, np.ones(m.shape[1]), eta)
    _assert_rows_kkt(h, c, u)


@st.composite
def stacked_problems(draw):
    """Per-view samples and centers of 1-3 views of unequal widths, K 1-8,
    view weights with possibly one at zero, and assignment rows; ``one_row``
    asks for the single-sample (1-D) form."""
    k = draw(st.integers(1, 8))
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    one_row = draw(st.booleans())
    n = 1 if one_row else draw(st.integers(1, 6))
    xs = [rng.normal(size=(n, j)) * 3 for j in widths]
    ms = [rng.normal(size=(k, j)) * 3 for j in widths]
    w = rng.uniform(0.1, 2.0, size=len(widths))
    if draw(st.booleans()):
        w[draw(st.integers(0, len(widths) - 1))] = 0.0
    u = rng.dirichlet(np.ones(k), size=n)
    return xs, ms, w, u, draw(st.sampled_from([0.0, 0.5])), one_row


@PROPERTY
@given(stacked_problems())
def test_stacked_builders_match_per_view_sums(case):
    # assignment_qp and view_residuals work on the stacked data and centers;
    # each agrees with the per-view sums to 1e-12 of the size of its terms.
    xs, ms, w, u, eta, one_row = case
    widths = [xv.shape[1] for xv in xs]
    want_h, want_c = oracles.assignment_qp_per_view(xs, ms, w, eta)
    size_h, size_c = oracles.assignment_qp_per_view(
        [np.abs(xv) for xv in xs], [np.abs(mv) for mv in ms], w, eta
    )
    want_r = oracles.view_residuals_per_view(xs, u, ms)
    # With U >= 0, |X| and -|M| give every residual entry its largest size.
    size_r = oracles.view_residuals_per_view(
        [np.abs(xv) for xv in xs], u, [-np.abs(mv) for mv in ms]
    )
    x, m = np.hstack(xs), np.hstack(ms)
    if one_row:
        x, u, want_c, size_c = x[0], u[0], want_c[0], size_c[0]

    h, c = assignment_qp(x, m, np.repeat(w, widths), eta)
    assert h.shape == want_h.shape and c.shape == want_c.shape
    assert np.all(np.abs(h - want_h) <= 1e-12 * size_h)
    assert np.all(np.abs(c - want_c) <= 1e-12 * size_c)
    r = view_residuals(x, u, m, view_starts(widths))
    assert r.shape == (len(xs),)
    assert np.all(np.abs(r - want_r) <= 1e-12 * size_r)


@st.composite
def split_problems(draw):
    """A batched active-set problem (simplex or NNLS form) whose rows start at
    full support in all, none or some rows.  A singular draw makes the base
    KKT matrix singular: eta = 0 with duplicate centers, or duplicate NNLS
    columns; a regular draw keeps it nonsingular."""
    simplex, singular = draw(st.booleans()), draw(st.booleans())
    k, n = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dups = draw(st.integers(1, k - 1))
    if simplex:
        m = rng.normal(size=(k, draw(st.integers(1, k + 2)))) * 3
        if singular:
            m[1 : dups + 1] = m[0]
        eta = 0.0 if singular else draw(st.sampled_from([1e-3, 0.5, 5.0]))
        x = rng.normal(size=(n, m.shape[1])) * 3
        a, b = assignment_qp(x, m, np.ones(m.shape[1]), eta)
        x0 = rng.dirichlet(np.ones(k), size=n)
    else:
        cols = rng.normal(size=(k + draw(st.integers(2, 8)), k))
        if singular:
            cols[:, 1 : dups + 1] = cols[:, :1]
        a = cols.T @ cols
        b = (cols.T @ rng.normal(size=(cols.shape[0], n))).T * 2
        x0 = rng.uniform(0.1, 2.0, size=(n, k))
    full = {
        "all": np.ones(n, dtype=bool),
        "none": np.zeros(n, dtype=bool),
        "some": rng.random(n) < 0.5,
    }[draw(st.sampled_from(["all", "none", "some"]))]
    for i in np.flatnonzero(~full):
        # At least one zero, and on the simplex at least one positive entry.
        x0[i, rng.permutation(k)[: rng.integers(1, k if simplex else k + 1)]] = 0.0
    if simplex:
        x0 /= x0.sum(axis=1, keepdims=True)
    return a, b, x0, simplex, singular


@PROPERTY
@given(split_problems())
def test_full_support_split_matches_the_stacked_kernel(case):
    # Rows at full support share one factorization of the base KKT matrix;
    # the stacked-only reference builds one matrix per row.  On a regular
    # base both give the same rows to rounding, and no fallback is taken.  On
    # a singular base the minimizer need not be unique, so the rows are
    # checked by their KKT conditions and objective, and the call warns once.
    a, b, x0, simplex, singular = case
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        x = _active_set(a, b, x0, simplex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RidgeFallbackWarning)
        ref = oracles.active_set_stacked(a, b, x0, simplex, KKT_TOL, RIDGE_DELTA)
    categories = [w.category for w in got]
    assert ConvergenceWarning not in categories
    assert categories.count(RidgeFallbackWarning) == int(singular)
    assert np.isfinite(x).all()
    for row, bi in zip(x, b):
        cert = oracles.simplex_qp_kkt(a, bi, row) if simplex else oracles.nnls_kkt(a, bi, row)
        assert max(cert) <= KKT
    if simplex:
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    if not singular:
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))
        return
    f = lambda v: np.einsum("ij,jk,ik->i", v, a, v) / 2 - np.einsum("ij,ij->i", b, v)
    scale = max(1.0, np.abs(a).max(), np.abs(b).max()) * max(1.0, np.abs(ref).max()) ** 2
    np.testing.assert_allclose(f(x), f(ref), rtol=0, atol=1e-9 * scale)


@st.composite
def singular_problems(draw):
    """A problem singular by construction, as ``(form, g, rhs, call)``.

    ``call()`` solves it through the package and returns what is certified:
    the rows of a simplex row QP or of an NNLS in Gram form (one per row of
    ``rhs``), or the solution of the normal equations ``g x = rhs``.  The
    constructions are duplicate centers at eta = 0 (row QPs), identical Gram
    columns (NNLS), two identical live U columns beside a dead one
    (``update_M`` by the normal equations or by NNLS), and the K = 2
    rank-one ``a [[1, 1], [1, 1]]`` in each of the three solvers."""
    kind = draw(st.sampled_from(["centers", "gram", "u-columns", "rank-one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    if kind == "centers":
        k = draw(st.integers(2, 12))
        m = rng.normal(size=(k, draw(st.integers(1, k + 2)))) * 3
        m[1 : draw(st.integers(1, k - 1)) + 1] = m[0]
        h, c = assignment_qp(rng.normal(size=(n, m.shape[1])) * 3, m, np.ones(m.shape[1]), 0.0)
        start = _start(rng, draw(st.sampled_from(["vertex", "interior", "uniform"])), n, k)
        return "simplex", h, c, lambda: _active_set(h, c, start, True)
    if kind == "gram":
        k = draw(st.integers(2, 12))
        a = rng.normal(size=(draw(st.integers(1, k + 8)), k))
        a[:, 1 : draw(st.integers(1, k - 1)) + 1] = a[:, :1]
        b = rng.normal(size=(a.shape[0], draw(st.integers(1, 3)))) * 2
        start = rng.uniform(0.0, 2.0, size=(k, b.shape[1]))
        return "nnls", a.T @ a, (a.T @ b).T, lambda: nnls(a, b, start=start).T
    if kind == "u-columns":
        k = draw(st.integers(3, 8))
        n = draw(st.integers(k, k + 20))
        w = rng.dirichlet(np.ones(k - 2), size=n)
        u = np.zeros((n, k))
        u[:, 0] = u[:, 1] = w[:, 0] / 2.0  # halving is exact; column 2 is dead
        u[:, 3:] = w[:, 1:]
        x = rng.normal(size=(n, draw(st.integers(1, 5)))) * 3
        nonneg = draw(st.booleans())
        if nonneg:
            x = np.abs(x)
        data, prev = MultiViewDataset(views=(x,)), CenterSet((rng.normal(size=(k, x.shape[1])),))
        live = u.sum(axis=0) > 0.0
        ul = u[:, live]

        def call():
            return update_M(data, u, prev=prev).centers[0][live]

        if nonneg:
            return "nnls", ul.T @ ul, (ul.T @ x).T, lambda: call().T
        return "normal", ul.T @ ul, ul.T @ x, call
    a = draw(st.sampled_from([1e-3, 1.0, 1e3])) * np.ones((2, 2))
    b = rng.normal(size=(n, 2)) * 2
    form = draw(st.sampled_from(["simplex", "nnls", "normal"]))
    if form == "normal":
        rhs = a @ b.T  # consistent
        return form, a, rhs, lambda: solve_ridge_normal(a, rhs)
    start = np.full((n, 2), 0.5)
    return form, a, b, lambda: _active_set(a, b, start, form == "simplex")


@PROPERTY
@given(singular_problems())
def test_singular_problems_warn_once_and_meet_kkt(case):
    # The rank test decides once per call: every call on a singular problem
    # takes the ridge rule, warns exactly once and returns a finite KKT point.
    form, g, rhs, call = case
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        x = call()
    categories = [w.category for w in got]
    assert categories.count(RidgeFallbackWarning) == 1
    assert ConvergenceWarning not in categories
    assert np.isfinite(x).all()
    if form == "simplex":
        _assert_rows_kkt(g, rhs, x)
    elif form == "nnls":
        for row, bi in zip(x, rhs):
            assert max(oracles.nnls_kkt(g, bi, row)) <= KKT
    else:
        scale = max(np.abs(g).max() * np.abs(x).max(), np.abs(rhs).max())
        assert np.abs(g @ x - rhs).max() <= 1e-13 * scale


@st.composite
def nnls_problems(draw):
    k = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(draw(st.integers(1, 10)), k))
    same = draw(st.integers(0, k - 1))
    a[:, 1 : same + 1] = a[:, :1]
    cols = draw(st.sampled_from([None, 1, 3]))
    b = rng.normal(size=a.shape[0] if cols is None else (a.shape[0], cols)) * 2
    shape = (k,) + b.shape[1:]
    kind = draw(st.sampled_from(["zeros", "vertex", "interior"]))
    start = np.zeros(shape)
    if kind == "interior":
        start = rng.uniform(0.1, 2.0, size=shape)
    elif kind == "vertex":
        start[rng.integers(0, k)] = 1.0
    return a, b, start


@pytest.mark.filterwarnings("ignore::orkmc.errors.RidgeFallbackWarning")
@PROPERTY
@given(nnls_problems())
def test_nnls_meets_kkt(case):
    a, b, start = case
    x = nnls(a, b, start=start)
    assert x.shape == start.shape
    g, rhs = a.T @ a, a.T @ b
    for col in range(1 if b.ndim == 1 else b.shape[1]):
        xc = x if b.ndim == 1 else x[:, col]
        bc = rhs if b.ndim == 1 else rhs[:, col]
        assert max(oracles.nnls_kkt(g, bc, xc)) <= KKT


@st.composite
def soft_assignments(draw):
    k = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(k, k + 20))
    u = rng.dirichlet(np.ones(k), size=n)
    if k > 1 and draw(st.booleans()):
        u[:, 1] = u[:, 0]
        u /= u.sum(axis=1, keepdims=True)
    x = np.abs(rng.normal(size=(n, draw(st.integers(1, 5))))) * 3
    prev = np.abs(rng.normal(size=(k, x.shape[1]))) * draw(st.sampled_from([0.0, 1.0]))
    return u, x, prev


@pytest.mark.filterwarnings("ignore::orkmc.errors.RidgeFallbackWarning")
@PROPERTY
@given(soft_assignments())
def test_nonneg_update_m_columns_meet_kkt(case):
    u, x, prev = case
    data = MultiViewDataset(views=(x,))
    m = update_M(data, u, prev=CenterSet((prev,)))
    g, rhs = u.T @ u, u.T @ x
    for col in range(x.shape[1]):
        assert max(oracles.nnls_kkt(g, rhs[:, col], m.centers[0][:, col])) <= KKT


@st.composite
def permuted_fits(draw):
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(k + 2, 30))
    labels = rng.integers(0, k, size=n)
    views = tuple(
        rng.normal(size=(k, j))[labels] * 4 + rng.normal(size=(n, j))
        for j in rng.integers(1, 4, size=draw(st.integers(1, 2)))
    )
    hyper = HyperParams(
        k=k,
        eta=draw(st.sampled_from([0.1, 1.0])),
        max_iter=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return MultiViewDataset(views=views), hyper, rng.permutation(n)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(permuted_fits())
def test_rkmc_fit_is_row_permutation_equivariant(case):
    # Permuting the rows permutes U's rows and leaves the centers and the
    # final objective in place, up to a relabelling of the clusters (the two
    # restarts may tie and be kept in either order).
    data, hyper, perm = case
    res = rkmc_fit(data, hyper)
    res_p = rkmc_fit(data.take_rows(perm), hyper)
    m, m_p = np.hstack(res.centers.centers), np.hstack(res_p.centers.centers)
    relabel = np.array([np.argmin(((m_p - row) ** 2).sum(axis=1)) for row in m])
    assert sorted(relabel.tolist()) == list(range(hyper.k))
    scale = max(1.0, np.abs(m).max())
    np.testing.assert_allclose(m_p[relabel], m, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(res_p.assignment[:, relabel], res.assignment[perm],
                               rtol=0, atol=1e-9)
    np.testing.assert_array_equal(
        relabel[res.labels[perm]], res_p.labels
    )
    assert res_p.objective_trace[-1] == pytest.approx(res.objective_trace[-1], rel=1e-9, abs=0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(permuted_fits())
def test_orkmc_init_is_row_permutation_equivariant(case):
    # The warm start seeds at the same data points in any row order and
    # assigns every row on its own, so permuting the prefix permutes the rows
    # of U and leaves the centers and the label counts in place, up to a
    # relabelling of the clusters.  Two clusters may end on one center, so
    # the relabelling is searched over all K! candidates (K <= 4).
    data, hyper, perm = case
    hyper = replace(hyper, chushi=data.n_samples)
    state = orkmc_init(data, hyper)
    state_p = orkmc_init(data.take_rows(perm), hyper)
    m, m_p = np.hstack(state.centers.centers), np.hstack(state_p.centers.centers)
    u, u_p = np.array(state.U_rows)[perm], np.array(state_p.U_rows)
    atol = 1e-9 * max(1.0, np.abs(m).max())

    def relabels(sigma):
        return (
            np.allclose(m_p[sigma], m, rtol=0, atol=atol)
            and np.array_equal(state_p.counts[sigma], state.counts)
            and np.allclose(u_p[:, sigma], u, rtol=0, atol=1e-9)
        )

    assert any(relabels(list(sigma)) for sigma in itertools.permutations(range(hyper.k)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(permuted_fits())
def test_kmeans_fit_is_row_permutation_equivariant(case):
    # Seeding picks the same data points in any row order, so Lloyd's centers
    # stay in place up to a relabelling and each row keeps its hard label.
    data, hyper, perm = case
    hyper = replace(hyper, epsilon=1e-6)
    res = kmeans_fit(data, hyper)
    res_p = kmeans_fit(data.take_rows(perm), hyper)
    m, m_p = np.hstack(res.centers.centers), np.hstack(res_p.centers.centers)
    relabel = np.array([np.argmin(((m_p - row) ** 2).sum(axis=1)) for row in m])
    assert sorted(relabel.tolist()) == list(range(hyper.k))
    scale = max(1.0, np.abs(m).max())
    np.testing.assert_allclose(m_p[relabel], m, rtol=0, atol=1e-9 * scale)
    np.testing.assert_array_equal(
        relabel[res.labels[perm]], res_p.labels
    )
    np.testing.assert_array_equal(res_p.assignment[:, relabel], res.assignment[perm])
    assert len(res_p.objective_trace) == len(res.objective_trace)
    assert res_p.objective_trace[-1] == pytest.approx(res.objective_trace[-1], rel=1e-9, abs=0)


@st.composite
def shifted_fits(draw):
    """Well-separated mixed-sign data and the same data with every column
    shifted by one draw.

    The clusters sit 10 apart along one direction with unit noise, and each
    has at least three rows in the warm-start batch and a third of the rest.
    With two rows, kmeans++ seeding would tie exactly between them (either
    gives the same potential), and a cluster short of rows can end on
    another's center, which ties its rows' labels; rounding breaks such ties,
    and a shift changes the rounding.  The columns are centered on the batch
    and column 0 moves down, so the batch, and with it the dataset, stays
    mixed-sign: a shift that made the data nonnegative would change the
    model (clamp, NNLS)."""
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6 * k, 60))
    hyper = HyperParams(
        k=k,
        eta=draw(st.sampled_from([0.1, 1.0])),
        max_iter=draw(st.integers(1, 8)),
        chushi=draw(st.integers(3 * k, n // 2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    widths = rng.integers(1, 4, size=draw(st.integers(1, 2)))
    direction = rng.normal(size=widths.sum())
    means = 10.0 * np.arange(k)[:, None] * direction / np.linalg.norm(direction)
    labels = [rng.permutation(np.arange(t) % k) for t in (hyper.chushi, n - hyper.chushi)]
    x = means[np.concatenate(labels)] + rng.normal(size=(n, widths.sum()))
    x -= x[: hyper.chushi].mean(axis=0)
    shift = rng.normal(size=x.shape[1]) * draw(st.sampled_from([5.0, 50.0]))
    shift[0] = -abs(shift[0])
    cuts = np.cumsum(widths)[:-1]
    data = MultiViewDataset(views=tuple(np.split(x, cuts, axis=1)))
    shifted = MultiViewDataset(views=tuple(np.split(x + shift, cuts, axis=1)))
    assert not data.take_rows(np.arange(hyper.chushi)).nonneg and not shifted.nonneg
    return data, shifted, shift, hyper


def _assert_shift_equivariant(res, res_s, shift, relabel=None, tol=(1e-9, 1e-12)):
    # U and the labels stay (up to ``relabel``), the centers move by the
    # shift, and the objective, which the shift leaves alone on the simplex,
    # stays: U and the centers (relative to their largest entry) within
    # tol[0], the objective within tol[1] relative.
    relabel = np.arange(res.centers.k) if relabel is None else relabel
    np.testing.assert_allclose(res_s.assignment[:, relabel], res.assignment, rtol=0, atol=tol[0])
    np.testing.assert_array_equal(relabel[res.labels], res_s.labels)
    m = res.centers.stacked + shift
    np.testing.assert_allclose(
        res_s.centers.stacked[relabel], m, rtol=0, atol=tol[0] * np.abs(m).max()
    )
    assert len(res_s.objective_trace) == len(res.objective_trace)
    assert res_s.objective_trace[-1] == pytest.approx(res.objective_trace[-1], rel=tol[1], abs=0)


@PROPERTY
@given(shifted_fits())
def test_orkmc_run_is_shift_equivariant(case):
    data, shifted, shift, hyper = case
    res, res_s = orkmc_run(data, hyper), orkmc_run(shifted, hyper)
    _assert_shift_equivariant(res, res_s, shift)
    np.testing.assert_allclose(res_s.weights, res.weights, rtol=0, atol=1e-12)
    assert res_s.metadata["frozen_at"] == res.metadata["frozen_at"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shifted_fits())
def test_rkmc_fit_is_shift_equivariant(case):
    # The two restarts may reach one partition under two labellings; their
    # objectives then tie to rounding, and either may be kept.  update_M's
    # normal equations on the shifted data lose about cond(U'U) eps |shift|,
    # the same at every commit so far: up to 4.7e-6 in U, 3.1e-5 of the
    # largest center entry and 2.3e-11 in the objective over 300 draws of
    # this strategy (K = 4 on one-column views).
    data, shifted, shift, hyper = case
    res, res_s = rkmc_fit(data, hyper), rkmc_fit(shifted, hyper)
    m, m_s = res.centers.stacked + shift, res_s.centers.stacked
    relabel = np.array([np.argmin(((m_s - row) ** 2).sum(axis=1)) for row in m])
    assert sorted(relabel.tolist()) == list(range(hyper.k))
    _assert_shift_equivariant(res, res_s, shift, relabel, tol=(1e-4, 1e-10))


@PROPERTY
@given(shifted_fits())
def test_kmeans_fit_is_shift_equivariant(case):
    data, shifted, shift, hyper = case
    _assert_shift_equivariant(kmeans_fit(data, hyper), kmeans_fit(shifted, hyper), shift)


@st.composite
def scaled_fits(draw):
    """Well-separated data, mixed-sign or nonnegative, and the same data
    scaled by c in {2^-20, 2^20} with the hyperparameters in its units:
    ``epsilon c``, ``eta c^2`` and ``gamma / c^2``.

    A power of two scales every input exactly, so any difference between
    the two fits comes from the code.  At eta = 0 with K - 1 > sum(J) the
    RKMC fits run on the ridge path.  The clusters are drawn as in
    :func:`shifted_fits`, whose docstring gives the reasons for their sizes."""
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6 * k, 40))
    gamma = draw(st.sampled_from([None, 1e-3]))
    hyper = HyperParams(
        k=k,
        eta=draw(st.sampled_from([0.0, 1.0])),
        gamma=gamma,
        max_iter=draw(st.integers(1, 8)),
        chushi=draw(st.integers(3 * k, n // 2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    widths = rng.integers(1, 4, size=draw(st.integers(1, 2)))
    direction = rng.normal(size=widths.sum())
    means = 10.0 * np.arange(k)[:, None] * direction / np.linalg.norm(direction)
    labels = [rng.permutation(np.arange(t) % k) for t in (hyper.chushi, n - hyper.chushi)]
    x = means[np.concatenate(labels)] + rng.normal(size=(n, widths.sum()))
    if draw(st.booleans()):
        x = np.abs(x)
    c = draw(st.sampled_from([2.0**-20, 2.0**20]))
    scaled = replace(
        hyper,
        eta=hyper.eta * c * c,
        epsilon=hyper.epsilon * c,
        gamma=None if gamma is None else gamma / (c * c),
    )
    cuts = np.cumsum(widths)[:-1]
    data = MultiViewDataset(views=tuple(np.split(x, cuts, axis=1)))
    data_s = MultiViewDataset(views=tuple(np.split(x * c, cuts, axis=1)))
    return data, data_s, c, hyper, scaled


def _scaled_fits(fit, case):
    data, data_s, c, hyper, scaled = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RidgeFallbackWarning)
        return fit(data, hyper), fit(data_s, scaled), c, float(np.sum(data_s.stacked**2))


def _assert_scale_equivariant(res, res_s, c, energy, relabel=None):
    # Equal labels (up to ``relabel``), U within 1e-9, and the objective
    # scaled by c^2 within 1e-12 relative, or within 1e-12 of the scaled
    # data's sum of squares (the objective at U = 0) where the fit drives the
    # objective towards 0 and it is a small difference of large terms.
    relabel = np.arange(res.centers.k) if relabel is None else relabel
    np.testing.assert_array_equal(relabel[res.labels], res_s.labels)
    np.testing.assert_allclose(res_s.assignment[:, relabel], res.assignment, rtol=0, atol=1e-9)
    assert len(res_s.objective_trace) == len(res.objective_trace)
    want = res.objective_trace[-1] * c * c
    assert res_s.objective_trace[-1] == pytest.approx(want, rel=1e-12, abs=1e-12 * energy)


@PROPERTY
@given(scaled_fits())
def test_rkmc_fit_is_scale_equivariant(case):
    # The two restarts may reach one partition under two labellings; their
    # objectives then tie to rounding, and either may be kept.  Off the ridge
    # path the scaled fit is exact only to rounding: the simplex row's unit
    # border pivots differently once max|H| is far below 1.  Where U'U is
    # singular (U's rows on one affine piece, as on one-column views),
    # update_M's ridge can carry that rounding past 1e-9 in U: 1 of 1000
    # draws of this strategy did, by 1.5e-6 at c = 2^-20.
    res, res_s, c, energy = _scaled_fits(rkmc_fit, case)
    m, m_s = res.centers.stacked * c, res_s.centers.stacked
    relabel = np.array([np.argmin(((m_s - row) ** 2).sum(axis=1)) for row in m])
    assert sorted(relabel.tolist()) == list(range(res.centers.k))
    _assert_scale_equivariant(res, res_s, c, energy, relabel)


@PROPERTY
@given(scaled_fits())
def test_orkmc_run_is_scale_equivariant(case):
    _assert_scale_equivariant(*_scaled_fits(orkmc_run, case))


@PROPERTY
@given(scaled_fits())
def test_kmeans_fit_is_scale_equivariant(case):
    _assert_scale_equivariant(*_scaled_fits(kmeans_fit, case))


@st.composite
def nonneg_streams(draw):
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(k, k + 6)) + draw(st.integers(1, 30))
    views = []
    for _ in range(draw(st.integers(1, 2))):
        x = rng.uniform(size=(n, draw(st.integers(1, 3)))) * draw(
            st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8])
        )
        x[rng.uniform(size=x.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
        views.append(x)
    hyper = HyperParams(
        k=k,
        eta=draw(st.sampled_from([0.0, 1.0])),
        epsilon=draw(st.sampled_from([1e-300, 1e-4])),
        chushi=draw(st.integers(k, n - 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return MultiViewDataset(views=tuple(views)), hyper


@PROPERTY
@given(nonneg_streams())
def test_orkmc_centers_stay_nonneg_without_clamping(case):
    # On nonnegative streams the running-mean step cannot leave the orthant,
    # so the step's clamp at zero changes no bit: a copy of the state with the
    # clamp switched off ends with identical centers.
    data, hyper = case
    res = orkmc_run(data, hyper)
    assert all(np.all(m >= 0.0) for m in res.centers.centers)
    assert validate(res) == []

    state = orkmc_init(data, hyper)
    assert state.centers.nonneg_enforced
    free = copy.deepcopy(state)
    free.centers = CenterSet(free.centers.centers, nonneg_enforced=False)
    for row in range(hyper.chushi, data.n_samples):
        orkmc_step(state, data.stacked[row])
        orkmc_step(free, data.stacked[row])
    for a, b in zip(state.centers.centers, free.centers.centers):
        np.testing.assert_array_equal(a, b)
    assert validate(state) == []
