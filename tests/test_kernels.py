"""Simplex projection, row QP and NNLS against enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orkmc.errors import NumericalError, RidgeFallbackWarning, ValidationError
from orkmc.kernels import (
    RowQP,
    _project,
    _solve_kkt,
    nnls,
    project_simplex,
    solve_ridge_normal,
    solve_row_qp,
)


def random_pd_qp(rng, k):
    b = rng.normal(size=(k, k))
    eta = float(rng.uniform(0.05, 2.0))
    h = b @ b.T + 2.0 * eta * np.eye(k)
    c = rng.normal(size=k) * rng.uniform(0.5, 3.0)
    return RowQP(h, c)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5], atol=1e-15)

    def test_vertex_case(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-12)

    def test_uniform_shift_case(self):
        np.testing.assert_allclose(project_simplex([0.3, 0.9]), [0.2, 0.8], atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            project_simplex([np.nan, 0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = rng.normal(size=rng.integers(1, 8)) * 3
            once = project_simplex(y)
            twice = project_simplex(once)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_constraints_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            u = project_simplex(rng.normal(size=rng.integers(1, 10)) * 5)
            assert abs(u.sum() - 1.0) <= 1e-15
            assert np.all(u >= 0.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            y = rng.normal(size=rng.integers(1, 6)) * rng.uniform(0.5, 4)
            np.testing.assert_allclose(
                project_simplex(y), oracles.project_simplex_enum(y), atol=1e-10
            )
        for _ in range(100):
            batch = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 6))))
            batch[:, -1] = batch[:, 0]  # tied entries
            batch *= rng.uniform(0.5, 4)
            out = _project(batch)
            for y, row in zip(batch, out):
                np.testing.assert_allclose(row, oracles.project_simplex_enum(y), atol=1e-10)
                assert np.array_equal(row, project_simplex(y))


@st.composite
def projection_inputs(draw):
    """One vector of length 1-40: random, heavily tied, already on the
    simplex (interior or a vertex), or of magnitude up to 1e8."""
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "tied", "on-simplex", "vertex", "large"]))
    y = rng.normal(size=k) * draw(st.sampled_from([0.01, 1.0, 10.0]))
    if kind == "tied":
        y = rng.choice(y[: max(1, k // 4)], size=k)
    elif kind == "on-simplex":
        y = rng.dirichlet(np.full(k, draw(st.sampled_from([0.1, 1.0, 10.0]))))
    elif kind == "vertex":
        y = np.eye(k)[rng.integers(k)]
    elif kind == "large":
        y *= 1e8
    return y


# On a failure hypothesis's pytest plugin imports libcst to write a patch, and
# libcst's import warns; as an error it would abort the whole session.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(projection_inputs())
def test_one_row_projection_matches_the_batch_branch(y):
    # Both branches compute the same sequential partial sums and threshold;
    # only the final renormalizing sum may associate differently (numpy sums
    # 8 or more entries pairwise), which moves each entry by at most about
    # K ulp.  The batch branch is the reference.
    one = _project(y)
    batch = _project(y[None])[0]
    assert one.shape == y.shape and one.dtype == np.float64
    np.testing.assert_array_equal(one == 0.0, batch == 0.0)
    np.testing.assert_array_max_ulp(one, batch, maxulp=y.size + 1)
    if y.size <= 8:
        want = oracles.project_simplex_enum(y)
        np.testing.assert_allclose(one, want, atol=1e-10)
        np.testing.assert_allclose(batch, want, atol=1e-10)


class TestSolveRowQP:
    def test_feasible_vertex_optimum(self):
        qp = RowQP(2.0 * np.eye(3), 2.0 * np.array([1.0, 0.0, 0.0]))
        u = solve_row_qp(qp, np.full(3, 1 / 3))
        np.testing.assert_allclose(u, [1.0, 0.0, 0.0], atol=1e-9)

    def test_symmetric_uniform(self):
        qp = RowQP(2.0 * np.eye(3), np.zeros(3))
        u = solve_row_qp(qp, np.array([0.7, 0.2, 0.1]))
        np.testing.assert_allclose(u, np.full(3, 1 / 3), atol=1e-9)

    def test_non_pd_raises(self):
        h = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalError):
            solve_row_qp(RowQP(h, np.zeros(2)), np.array([0.5, 0.5]))

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            qp = random_pd_qp(rng, 3)
            u = solve_row_qp(qp, np.full(3, 1 / 3), tol=1e-12)
            u_ref, val_ref = oracles.row_qp_enum(qp.h, qp.c)
            val = 0.5 * u @ qp.h @ u - qp.c @ u
            assert val == pytest.approx(val_ref, abs=1e-8)
            np.testing.assert_allclose(u, u_ref, atol=1e-6)

    def test_objective_not_above_random_feasible_points(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            qp = random_pd_qp(rng, 4)
            u = solve_row_qp(qp, np.full(4, 0.25), tol=1e-11)
            val = 0.5 * u @ qp.h @ u - qp.c @ u
            pts = rng.dirichlet(np.ones(4), size=100)
            vals = 0.5 * np.einsum("ij,jk,ik->i", pts, qp.h, pts) - pts @ qp.c
            assert val <= vals.min() + 1e-9

    def test_objective_never_increases_from_start(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            qp = random_pd_qp(rng, 3)
            u0 = rng.dirichlet(np.ones(3))
            u = solve_row_qp(qp, u0, tol=1e-10)
            f = lambda v: 0.5 * v @ qp.h @ v - qp.c @ v
            assert f(u) <= f(u0) + 1e-12


class TestRidgeFallback:
    def test_singular_system_warns_and_stays_finite(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.warns(RidgeFallbackWarning):
            x = solve_ridge_normal(g, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(x))

    def test_singular_kkt_stack_is_solved_without_ridge_bias(self):
        kkt = np.array([[[4.0, 4.0], [4.0, 4.0]], [[2.0, 0.0], [0.0, 3.0]]])
        rhs = np.array([[2.0, 2.0], [2.0, 3.0]])  # the singular system is consistent
        with pytest.warns(RidgeFallbackWarning):
            z = _solve_kkt(kkt, rhs, 2)
        np.testing.assert_allclose(np.einsum("nij,nj->ni", kkt, z), rhs, rtol=0, atol=1e-14)


class TestNnls:
    def test_clamp_of_independent_coordinates(self):
        x = nnls(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(x, [3.0, 0.0], atol=1e-12)

    def test_feasible_unconstrained_optimum(self):
        x = nnls(np.eye(2), np.array([2.0, 5.0]))
        np.testing.assert_allclose(x, [2.0, 5.0], atol=1e-12)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.normal(size=(5, 3))
            b = rng.normal(size=5)
            x = nnls(a, b, tol=1e-8)
            g = a.T @ (a @ x - b)
            assert np.all(x >= 0)
            assert np.all(g >= -1e-8)
            assert np.all(np.abs(x * g) <= 1e-8)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.normal(size=(4, 2))
            b = rng.normal(size=4)
            x = nnls(a, b)
            x_ref = oracles.nnls_enum(a, b)
            r = float(np.sum((a @ x - b) ** 2))
            r_ref = float(np.sum((a @ x_ref - b) ** 2))
            assert r == pytest.approx(r_ref, abs=1e-8)

    def test_not_worse_than_clamped_least_squares(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.normal(size=(6, 3))
            b = rng.normal(size=6)
            x = nnls(a, b)
            ls, *_ = np.linalg.lstsq(a, b, rcond=None)
            clamped = np.maximum(ls, 0.0)
            assert np.sum((a @ x - b) ** 2) <= np.sum((a @ clamped - b) ** 2) + 1e-10
