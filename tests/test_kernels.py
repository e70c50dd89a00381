"""Simplex projection, row QP and NNLS against enumeration oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orkmc.errors import RidgeFallbackWarning, ValidationError
from orkmc.kernels import (
    _active_set,
    _pgd_rows,
    _project,
    _solve_kkt,
    assignment_qp,
    nnls,
    pg_step,
    project_simplex,
    solve_ridge_normal,
)


def random_pd_qp(rng, k):
    b = rng.normal(size=(k, k))
    eta = float(rng.uniform(0.05, 2.0))
    h = b @ b.T + 2.0 * eta * np.eye(k)
    c = rng.normal(size=k) * rng.uniform(0.5, 3.0)
    return h, c


def solve_row(h, c, u0):
    """One row QP ``min 1/2 u'Hu - c'u`` over the simplex, from ``u0``."""
    return _active_set(h, c[None], u0[None], True)[0]


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
        u = solve_row(2.0 * np.eye(3), 2.0 * np.array([1.0, 0.0, 0.0]), np.full(3, 1 / 3))
        np.testing.assert_allclose(u, [1.0, 0.0, 0.0], atol=1e-9)

    def test_symmetric_uniform(self):
        u = solve_row(2.0 * np.eye(3), np.zeros(3), np.array([0.7, 0.2, 0.1]))
        np.testing.assert_allclose(u, np.full(3, 1 / 3), atol=1e-9)

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h, c = random_pd_qp(rng, 3)
            u = solve_row(h, c, np.full(3, 1 / 3))
            u_ref, val_ref = oracles.row_qp_enum(h, c)
            val = 0.5 * u @ h @ u - c @ u
            assert val == pytest.approx(val_ref, abs=1e-8)
            np.testing.assert_allclose(u, u_ref, atol=1e-6)

    def test_objective_not_above_random_feasible_points(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            h, c = random_pd_qp(rng, 4)
            u = solve_row(h, c, np.full(4, 0.25))
            val = 0.5 * u @ h @ u - c @ u
            pts = rng.dirichlet(np.ones(4), size=100)
            vals = 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts) - pts @ c
            assert val <= vals.min() + 1e-9

    def test_objective_never_increases_from_start(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            h, c = random_pd_qp(rng, 3)
            u0 = rng.dirichlet(np.ones(3))
            u = solve_row(h, c, u0)
            f = lambda v: 0.5 * v @ h @ v - c @ v
            assert f(u) <= f(u0) + 1e-12


class TestStepRule:
    def test_step_is_the_inverse_curvature_on_the_tangent_space(self):
        # P = I - 11'/K projects onto {sum(v) = 0}; P H P has the eigenvalues
        # of H restricted there, plus a zero along 1.
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            h, _ = random_pd_qp(rng, k)
            p = np.eye(k) - 1.0 / k
            want = 1.0 / np.linalg.eigvalsh(p @ h @ p)[-1]
            assert pg_step(h) == pytest.approx(want, rel=1e-12)
            assert pg_step(h) >= 1.0 / np.linalg.eigvalsh(h)[-1]

    def test_step_ignores_the_terms_an_offset_adds(self):
        # Shifting the data and every center by b adds a 1' + 1 a' to H, with
        # a = 2 M W b + (b' W b) 1: constant or linear on the simplex.
        rng = np.random.default_rng(12)
        for _ in range(200):
            k, j = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            m = rng.normal(size=(k, j)) * 3
            w = rng.uniform(0.1, 1.0, size=j)
            eta = float(rng.uniform(0.0, 2.0))
            h, _ = assignment_qp(np.zeros(j), m, w, eta)
            b = rng.normal(size=j) * rng.choice([5.0, 50.0, 500.0])
            h_b, _ = assignment_qp(np.zeros(j), m + b, w, eta)
            a = rng.normal(size=k) * 1e3
            for shifted in (h_b, h + a[:, None] + a[None, :]):
                assert pg_step(shifted) == pytest.approx(pg_step(h), rel=1e-9)

    @pytest.mark.parametrize(
        "m",
        [np.array([[0.5, -2.0]]), np.array([[1.0, 2.0, -1.0]] * 3)],
        ids=["k1", "identical-centers"],
    )
    def test_step_without_tangent_curvature_is_finite(self, m):
        # K = 1 has no tangent space, and identical centers at eta = 0 give
        # Z'HZ = 0: the step falls back to 1/lambda_max(H).
        x = np.array([[0.3, 1.0, -0.5][: m.shape[1]], [2.0, -1.0, 0.5][: m.shape[1]]])
        h, c = assignment_qp(x, m, np.ones(m.shape[1]), 0.0)
        step = pg_step(h)
        assert step == pytest.approx(1.0 / np.linalg.eigvalsh(h)[-1], rel=1e-12)
        k = m.shape[0]
        for u0, ci in ((np.full((2, k), 1.0 / k), c), (np.full(k, 1.0 / k), c[0])):
            u, _, _ = _pgd_rows(u0, h, ci, step, 10)
            assert np.all(np.isfinite(u)) and np.all(u >= 0.0)
            np.testing.assert_allclose(u.sum(axis=-1), 1.0, rtol=0, atol=1e-15)


class TestRidgeFallback:
    def test_singular_system_warns_and_stays_finite(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.warns(RidgeFallbackWarning):
            x = solve_ridge_normal(g, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(x))

    def test_singular_kkt_stack_is_solved_without_ridge_bias(self):
        kkt = np.array([[[4.0, 4.0], [4.0, 4.0]], [[2.0, 0.0], [0.0, 3.0]]])
        rhs = np.array([[2.0, 2.0], [2.0, 3.0]])  # the singular system is consistent
        z = _solve_kkt(kkt, rhs, 2, True)
        np.testing.assert_allclose(np.einsum("nij,nj->ni", kkt, z), rhs, rtol=0, atol=1e-14)

    def test_singular_shared_kkt_is_solved_for_every_row(self):
        kkt = np.array([[4.0, 4.0], [4.0, 4.0]])
        rhs = np.array([[2.0, 2.0], [1.0, 1.0]])  # consistent right-hand sides
        z = _solve_kkt(kkt, rhs, 2, True)
        np.testing.assert_allclose(z @ kkt.T, rhs, rtol=0, atol=1e-14)

    def test_regular_ill_conditioned_problems_take_the_exact_path(self):
        # Condition number 1e12 lies far above the rank test's K eps cut: no
        # fallback, and the very bits of a plain LU or Cholesky solve.
        rng = np.random.default_rng(31)
        k = 6
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        a = (q * np.logspace(0, -12, k)) @ q.T
        a = (a + a.T) / 2.0
        assert np.linalg.cond(a) == pytest.approx(1e12, rel=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rhs = rng.normal(size=(k, 3))
            cf = np.linalg.cholesky(a)
            np.testing.assert_array_equal(
                solve_ridge_normal(a, rhs), np.linalg.solve(cf.T, np.linalg.solve(cf, rhs))
            )
            # Optima inside the orthant and the simplex: one full-support round.
            b = a @ rng.uniform(1.0, 2.0, size=k)
            want = np.linalg.solve(a, b[:, None])[:, 0]
            assert np.all(want > 0.0)
            x = _active_set(a, b[None], np.ones((1, k)), False)[0]
            np.testing.assert_array_equal(x, want)
            u = rng.uniform(0.5, 1.5, size=k)
            c = a @ (u / u.sum()) + 0.3
            kkt = np.block([[a, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
            want = np.linalg.solve(kkt, np.append(c, 1.0)[:, None])[:k, 0]
            assert np.all(want > 0.0)
            np.testing.assert_array_equal(solve_row(a, c, np.full(k, 1.0 / k)), want / want.sum())

    def test_singular_hessian_with_regular_kkt_takes_the_exact_path(self):
        # eta = 0 and m_2 = 2 m_1: H has rank one, but it is positive definite
        # on sum(u) = 0, so every KKT matrix is regular and no ridge is taken.
        m = np.array([[1.0, -0.5], [2.0, -1.0]])
        x = np.array([[1.4, -0.8], [0.3, 0.1], [2.5, -1.2]])
        h, c = assignment_qp(x, m, np.ones(m.shape[1]), 0.0)
        assert np.linalg.matrix_rank(h) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _active_set(h, c, np.full((3, 2), 0.5), True)
        for row, ci in zip(u, c):
            assert max(oracles.simplex_qp_kkt(h, ci, row)) <= 1e-12

    def test_singular_base_warns_for_full_support_rows(self):
        # eta = 0 and two equal centers: the base KKT matrix, which every row
        # at full support shares, is exactly singular.
        m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        x = np.array([[0.9, 0.3], [0.2, 1.5], [2.0, -1.0]])
        h, c = assignment_qp(x, m, np.ones(m.shape[1]), 0.0)
        with pytest.warns(RidgeFallbackWarning):
            u = _active_set(h, c, np.full((3, 3), 1.0 / 3.0), True)
        assert np.all(np.isfinite(u)) and np.all(u >= 0.0)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        for row, ci in zip(u, c):
            assert max(oracles.simplex_qp_kkt(h, ci, row)) <= 1e-12


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
            x = nnls(a, b)
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
