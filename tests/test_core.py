"""Core types, objectives and the invariant checker."""

import math

import numpy as np
import pytest

import oracles
from orkmc.errors import ConfigError, DimensionError, ValidationError
from orkmc.model import (
    CenterSet,
    ClusterResult,
    HyperParams,
    MultiViewDataset,
    fit_result,
    objective_online,
    objective_rkmc,
    validate,
    view_residuals,
    with_initial_batch,
)


def make_result(u, centers, alpha=None, **kwargs):
    a = np.asarray(u, dtype=float)
    c = CenterSet(tuple(np.asarray(m, dtype=float) for m in centers),
                  nonneg_enforced=kwargs.pop("nonneg", False))
    w = np.full(len(centers), 1.0 / len(centers)) if alpha is None else np.asarray(alpha)
    return ClusterResult(assignment=a, centers=c, weights=w, **kwargs)


class TestMultiViewDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            MultiViewDataset(views=(np.zeros((3, 2)), np.zeros((4, 2))))

    def test_non_finite_rejected(self):
        bad = np.zeros((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValidationError, match="row 1, column 1"):
            MultiViewDataset(views=(bad,))

    def test_label_length(self):
        with pytest.raises(ValidationError):
            MultiViewDataset(views=(np.zeros((3, 2)),), labels=np.array([1, 2]))

    def test_single_view_is_allowed(self):
        data = MultiViewDataset(views=(np.ones((2, 1)),))
        assert data.n_views == 1 and data.n_samples == 2

    def test_stacked_is_one_read_only_array(self):
        x, y = np.arange(6.0).reshape(3, 2), np.ones((3, 1))
        data = MultiViewDataset(views=(x, y))
        assert data.stacked is data.stacked
        assert not data.stacked.flags.writeable
        np.testing.assert_array_equal(data.stacked, np.hstack(data.views))
        for v in data.views:
            assert not v.flags.writeable
            assert np.shares_memory(v, data.stacked)
        before = [x.copy(), y.copy()]
        x[0, 0], y[1, 0] = -5.0, 7.0
        for v, want in zip(data.views, before):
            np.testing.assert_array_equal(v, want)
        np.testing.assert_array_equal(data.stacked, np.hstack(before))
        assert data.nonneg


class TestCenterSet:
    def test_per_view_matrices_are_copied_into_one_block(self):
        m1, m2 = np.arange(6.0).reshape(2, 3), np.array([[7.0], [8.0]])
        c = CenterSet((m1, m2))
        np.testing.assert_array_equal(c.stacked, np.hstack((m1, m2)))
        assert (c.k, c.n_views, c.feature_counts, c.starts) == (2, 2, (3, 1), (0, 3))
        assert not np.shares_memory(c.stacked, m1)
        c.centers[1][0, 0] = -1.0
        assert c.stacked[0, 3] == -1.0 and m2[0, 0] == 7.0

    def test_from_stacked_adopts_the_block(self):
        block = np.arange(8.0).reshape(2, 4)
        c = CenterSet.from_stacked(block, (1, 3), nonneg_enforced=True)
        assert c.stacked is block and c.nonneg_enforced
        np.testing.assert_array_equal(c.centers[1], block[:, 1:])
        with pytest.raises(DimensionError):
            CenterSet.from_stacked(block, (1, 2))

    def test_views_must_share_k(self):
        with pytest.raises(DimensionError, match="center matrix 1 has 3 rows"):
            CenterSet((np.zeros((2, 1)), np.zeros((3, 1))))
        with pytest.raises(DimensionError):
            CenterSet(())


class TestClusterResult:
    def test_labels_are_argmax_with_low_tie(self):
        res = make_result([[0.5, 0.5], [0.2, 0.8]], [np.eye(2)])
        assert res.labels.tolist() == [0, 1]

    def test_fit_result_rejects_a_1d_assignment(self):
        data = MultiViewDataset(views=(np.eye(3),))
        with pytest.raises(DimensionError):
            fit_result(data, HyperParams(k=1), "kmeans", np.ones(3),
                       CenterSet((np.ones((1, 3)),)), (), 0.0)


class TestHyperParams:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            HyperParams(k=0)
        with pytest.raises(ConfigError):
            HyperParams(k=2, eta=-1.0)
        with pytest.raises(ConfigError):
            HyperParams(k=2, epsilon=0.0)
        with pytest.raises(ConfigError):
            HyperParams(k=2, gamma=0.0)

    def test_chushi_at_least_k(self):
        with pytest.raises(ConfigError):
            HyperParams(k=5, chushi=3)
        HyperParams(k=5, chushi=5)

    @pytest.mark.parametrize(
        "k, chushi, n, want",
        [(3, None, 100, 10), (5, None, 40, 5), (3, 7, 100, 7), (3, 40, 40, 40)],
    )
    def test_with_initial_batch(self, k, chushi, n, want):
        # None is max(k, n // 10): n // 10 when it is larger, else k.
        hyper = HyperParams(k=k, chushi=chushi, seed=4)
        assert with_initial_batch(hyper, n) == HyperParams(k=k, chushi=want, seed=4)

    @pytest.mark.parametrize("k, chushi, n", [(3, 41, 40), (5, None, 4)])
    def test_initial_batch_beyond_n_is_rejected(self, k, chushi, n):
        with pytest.raises(ConfigError, match="exceeds the sample count"):
            with_initial_batch(HyperParams(k=k, chushi=chushi), n)


class TestObjectiveRkmc:
    def test_exact_factorization_is_zero(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = MultiViewDataset(views=(u @ m,))
        assert objective_rkmc(data, u, CenterSet((m,)), 0.0) == 0.0

    def test_one_hot_regularizer_is_eta_times_n(self):
        rng = np.random.default_rng(0)
        n, k = 6, 3
        labels = rng.integers(0, k, size=n)
        u = np.zeros((n, k))
        u[np.arange(n), labels] = 1.0
        x = rng.normal(size=(n, 2))
        m = rng.normal(size=(k, 2))
        data = MultiViewDataset(views=(x,))
        with_reg = objective_rkmc(data, u, CenterSet((m,)), 2.5)
        without = objective_rkmc(data, u, CenterSet((m,)), 0.0)
        assert with_reg == pytest.approx(without + 2.5 * n, abs=1e-12)

    def test_hand_expanded_2x2(self):
        # residual 1.0 plus regularizer 1.0 (expected value frozen from the
        # element-wise summation oracle)
        data = MultiViewDataset(views=(np.array([[1.0, 0.0], [0.0, 1.0]]),))
        u = np.array([[0.5, 0.5], [0.5, 0.5]])
        m = CenterSet((np.array([[1.0, 0.0], [0.0, 1.0]]),))
        assert objective_rkmc(data, u, m, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, k = rng.integers(2, 6), rng.integers(1, 4)
            views = tuple(rng.normal(size=(n, rng.integers(1, 4))) for _ in range(rng.integers(1, 3)))
            u = rng.dirichlet(np.ones(k), size=n)
            ms = tuple(rng.normal(size=(k, x.shape[1])) for x in views)
            eta = float(rng.uniform(0, 3))
            data = MultiViewDataset(views=views)
            got = objective_rkmc(data, u, CenterSet(ms), eta)
            want = oracles.objective_rkmc_bruteforce(views, u.tolist(), [m.tolist() for m in ms], eta)
            assert got == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch_raises(self):
        data = MultiViewDataset(views=(np.zeros((3, 2)),))
        u = np.full((3, 2), 0.5)
        m = CenterSet((np.zeros((2, 5)),))
        with pytest.raises(DimensionError):
            objective_rkmc(data, u, m, 0.0)


class TestObjectiveOnline:
    def test_single_view_reduces_to_rkmc(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            x = rng.normal(size=(n, 3))
            u = rng.dirichlet(np.ones(k), size=n)
            m = rng.normal(size=(k, 3))
            eta = float(rng.uniform(0, 2))
            data = MultiViewDataset(views=(x,))
            c = CenterSet((m,))
            r = float(rng.uniform(0.2, 3))
            assert objective_online(data, u, c, np.array([1.0]), r, eta) == pytest.approx(
                objective_rkmc(data, u, c, eta), abs=1e-12, rel=1e-12
            )

    def test_symmetric_views(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2))
        u = rng.dirichlet(np.ones(2), size=4)
        m = rng.normal(size=(2, 2))
        data = MultiViewDataset(views=(x, x.copy()))
        resid = float(np.sum((x - u @ m) ** 2))
        got = objective_online(
            data, u, CenterSet((m, m.copy())), np.array([0.5, 0.5]), 2.0, 0.0
        )
        assert got == pytest.approx(2 * 0.25 * resid, rel=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=(3, 2))
        x2 = rng.normal(size=(3, 4))
        u = rng.dirichlet(np.ones(2), size=3)
        m1 = rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 4))
        alpha = np.array([0.3, 0.7])
        data = MultiViewDataset(views=(x1, x2))
        got = objective_online(
            data, u, CenterSet((m1, m2)), alpha, 1.7, 0.9
        )
        want = oracles.objective_online_bruteforce(
            (x1, x2), u.tolist(), (m1.tolist(), m2.tolist()), alpha, 1.7, 0.9
        )
        assert got == pytest.approx(want, rel=1e-12)


class TestSquaredSums:
    # OpenBLAS threads a ddot above 10 000 elements; the sums must not depend
    # on which side of that size an input falls, so each is pinned to the
    # correctly rounded sum on both sides of it.
    @pytest.mark.parametrize("n", [900, 1200])
    def test_two_views_and_objective_match_fsum(self, n):
        rng = np.random.default_rng(n)
        k = 10
        views = tuple(rng.normal(size=(n, 10)) * 3 for _ in range(2))
        u = rng.dirichlet(np.ones(k), size=n)
        centers = tuple(rng.normal(size=(k, 10)) for _ in range(2))
        resid = [x - u @ m for x, m in zip(views, centers)]
        want = [oracles.sq_sum_fsum(r) for r in resid]
        got = view_residuals(np.hstack(views), u, np.hstack(centers), (0, 10))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

        alpha, r, eta = np.array([0.3, 0.7]), 1.7, 0.9
        got = objective_online(
            MultiViewDataset(views=views), u, CenterSet(centers), alpha, r, eta
        )
        terms = [a**r * d for a, d in zip(alpha, want)] + [eta * oracles.sq_sum_fsum(u)]
        assert got == pytest.approx(math.fsum(terms), rel=1e-13, abs=0)

    @pytest.mark.parametrize("j", [9000, 12000])
    def test_single_sample_matches_fsum(self, j):
        rng = np.random.default_rng(j)
        x = rng.normal(size=j) * 3
        u = rng.dirichlet(np.ones(4))
        m = rng.normal(size=(4, j))
        want = oracles.sq_sum_fsum(x - u @ m)
        got = view_residuals(x, u, m, (0,))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-13, abs=0)


class TestValidate:
    def test_well_formed_result(self):
        res = make_result([[1.0, 0.0], [0.0, 1.0]], [np.eye(2)])
        assert validate(res) == []

    def test_row_sum_violation(self):
        res = make_result([[0.5, 0.3], [0.5, 0.5]], [np.eye(2)])
        assert ("row-sum", 0) in validate(res)

    def test_negative_center_with_nonneg_enforced(self):
        res = make_result(
            [[1.0, 0.0], [0.0, 1.0]], [np.array([[1.0, -0.5], [0.0, 1.0]])], nonneg=True
        )
        assert ("center-nonneg", (0, 0, 1)) in validate(res)

    def test_trace_monotonicity_checked_for_rkmc(self):
        res = make_result(
            [[1.0, 0.0], [0.0, 1.0]], [np.eye(2)],
            objective_trace=(3.0, 1.0, 2.0),
            metadata={"algorithm": "rkmc"},
        )
        assert ("objective-trace", 2) in validate(res)

    # NaN compares False with every tolerance, so each of these once passed.
    def test_nan_assignment_entry_reported(self):
        res = make_result([[np.nan, 1.0], [0.0, 1.0]], [np.eye(2)])
        assert validate(res) == [("row-sum", 0)]

    def test_nan_weights_reported(self):
        res = make_result([[1.0, 0.0], [0.0, 1.0]], [np.eye(2), np.eye(2)], alpha=[np.nan, np.nan])
        assert validate(res) == [("weight-sum", None)]

    def test_nan_in_rkmc_objective_trace_reported(self):
        res = make_result(
            [[1.0, 0.0], [0.0, 1.0]], [np.eye(2)],
            objective_trace=(3.0, np.nan, 2.0),
            metadata={"algorithm": "rkmc"},
        )
        assert ("objective-trace", 1) in validate(res)

    def test_nan_elapsed_reported(self):
        res = make_result([[1.0, 0.0], [0.0, 1.0]], [np.eye(2)], elapsed_seconds=np.nan)
        assert validate(res) == [("elapsed", None)]
