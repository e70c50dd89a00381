"""Property tests: the exact half-steps meet their KKT conditions, and the
streaming solver keeps nonnegative centers nonnegative.

The enumeration oracles stop at K = 3 or so; these draw K up to 17, eta = 0
with duplicate centers, identical Gram columns, 1-D and 2-D right-hand sides
and starts on a vertex or in the interior, and check every solution against
the KKT certificates in ``oracles``.  A ``ConvergenceWarning`` (a solve cut
off by its round budget) fails the test.  The draws are derandomized so that
the suite gives the same verdict on every run.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orkmc.kernels import _active_set, assignment_qp, nnls
from orkmc.model import AssignmentMatrix, CenterSet, HyperParams, MultiViewDataset, validate
from orkmc.offline import update_M, update_U
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


@PROPERTY
@given(centers_and_rows())
def test_simplex_kernel_meets_kkt(case):
    m, x, eta, start = case
    h, c = assignment_qp((x,), (m,), np.ones(1), eta)
    u = _active_set(h, c, start, True, 1e-10)
    _assert_rows_kkt(h, c, u)
    f = lambda v: np.einsum("ij,jk,ik->i", v, h, v) / 2 - np.einsum("ij,ij->i", c, v)
    assert np.all(f(u) <= f(start) + 1e-9 * max(1.0, np.abs(h).max(), np.abs(c).max()))


@PROPERTY
@given(centers_and_rows())
def test_update_u_rows_meet_kkt(case):
    m, x, eta, start = case
    data = MultiViewDataset(views=(x,))
    u = update_U(data, CenterSet((m,)), AssignmentMatrix(start), eta)
    h, c = assignment_qp((x,), (m,), np.ones(1), eta)
    _assert_rows_kkt(h, c, u.entries)


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


@PROPERTY
@given(soft_assignments())
def test_nonneg_update_m_columns_meet_kkt(case):
    u, x, prev = case
    data = MultiViewDataset(views=(x,))
    m = update_M(data, AssignmentMatrix(u), prev=CenterSet((prev,)))
    g, rhs = u.T @ u, u.T @ x
    for col in range(x.shape[1]):
        assert max(oracles.nnls_kkt(g, rhs[:, col], m.centers[0][:, col])) <= KKT


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

    state = orkmc_init(data.take_rows(np.arange(hyper.chushi)), hyper)
    assert state.centers.nonneg_enforced
    free = copy.deepcopy(state)
    free.centers = CenterSet(free.centers.centers, nonneg_enforced=False)
    for row in range(hyper.chushi, data.n_samples):
        orkmc_step(state, [x[row] for x in data.views])
        orkmc_step(free, [x[row] for x in data.views])
    for a, b in zip(state.centers.centers, free.centers.centers):
        np.testing.assert_array_equal(a, b)
    assert validate(state) == []
