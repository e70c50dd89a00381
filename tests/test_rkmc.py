"""Offline solver: monotonicity, Lloyd reduction, update oracles, determinism."""

import warnings

import numpy as np
import pytest

import oracles
from orkmc.baselines import nearest_center_labels
from orkmc.datagen import SimSpec, generate
from orkmc.errors import (
    ConfigError,
    DataWarning,
    DimensionError,
    DegenerateClusterWarning,
    RidgeFallbackWarning,
)
from orkmc.kernels import assignment_qp, cluster_means, one_hot
from orkmc.model import (
    CenterSet,
    HyperParams,
    MultiViewDataset,
    objective_rkmc,
    validate,
)
from orkmc.offline import rkmc_fit, update_M, update_U


def random_instance(rng, n_max=60, k_max=4, v_max=3):
    n = int(rng.integers(8, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    v = int(rng.integers(1, v_max + 1))
    views = tuple(rng.normal(size=(n, int(rng.integers(1, 4)))) * 2 for _ in range(v))
    return MultiViewDataset(views=views), k


def labels_match_up_to_permutation(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    mapping = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestRkmcFit:
    def test_two_separated_pairs(self):
        data = MultiViewDataset(views=(np.array([[0.0], [0.1], [10.0], [10.1]]),))
        res = rkmc_fit(data, HyperParams(k=2, eta=0.01, seed=0))
        assert labels_match_up_to_permutation(res.labels, [0, 0, 1, 1])
        assert validate(res) == []

    def test_k_larger_than_n(self):
        data = MultiViewDataset(views=(np.zeros((2, 1)),))
        with pytest.raises(ConfigError):
            rkmc_fit(data, HyperParams(k=5))

    def test_initial_centers_with_wrong_k_rejected(self):
        data = MultiViewDataset(views=(np.arange(12.0).reshape(4, 3),))
        u = np.full((4, 3), 1.0 / 3)
        centers = CenterSet((np.zeros((4, 3)),))
        with pytest.raises(DimensionError, match="center matrix 0 has shape"):
            objective_rkmc(data, u, centers, 1.0)

    def test_initial_centers_with_wrong_features_or_views_rejected(self):
        x = np.arange(12.0).reshape(4, 3)
        data = MultiViewDataset(views=(x, x[:, :2]))
        u = np.full((4, 2), 0.5)
        evaluate = lambda *centers: objective_rkmc(data, u, CenterSet(centers), 1.0)
        with pytest.raises(DimensionError, match="center matrix 1 has shape"):
            evaluate(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DimensionError, match="1 center matrices for 2 views"):
            evaluate(np.zeros((2, 3)))

    def test_identical_rows_warn(self):
        data = MultiViewDataset(views=(np.ones((6, 2)),))
        # Every center starts at the same row, so the row QPs are singular.
        with pytest.warns(DataWarning), pytest.warns(RidgeFallbackWarning):
            rkmc_fit(data, HyperParams(k=2, max_iter=3))

    @pytest.mark.filterwarnings("ignore::orkmc.errors.RidgeFallbackWarning")
    def test_monotone_trace_small_instances(self):
        rng = np.random.default_rng(0)
        for eta in (0.0, 0.5, 5.0):
            for _ in range(6):
                data, k = random_instance(rng)
                res = rkmc_fit(data, HyperParams(k=k, eta=eta, max_iter=25, seed=1))
                trace = res.objective_trace
                for i in range(1, len(trace)):
                    assert trace[i] <= trace[i - 1] + 1e-9

    @pytest.mark.filterwarnings("ignore::orkmc.errors.RidgeFallbackWarning")
    def test_returned_centers_give_the_final_objective(self):
        rng = np.random.default_rng(12)
        cases = [(generate(SimSpec(n=60, k=2, v=1, j=2, seed=0)), 4, 20.0, 30)]
        for eta in (0.0, 1.0, 20.0):
            for _ in range(6):
                data, k = random_instance(rng)
                cases.append((data, k, eta, 30))
        for data, k, eta, max_iter in cases:
            res = rkmc_fit(data, HyperParams(k=k, eta=eta, max_iter=max_iter))
            assert objective_rkmc(data, res.assignment, res.centers, eta) == res.objective_trace[-1]
            assert sorted(res.metadata) == [
                "algorithm", "converged", "enforce_center_nonneg", "hyper", "restart_used",
            ]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        data, k = random_instance(rng)
        hyper = HyperParams(k=k, eta=0.5, max_iter=15, seed=42)
        a = rkmc_fit(data, hyper)
        b = rkmc_fit(data, hyper)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.objective_trace == b.objective_trace
        for ma, mb in zip(a.centers.centers, b.centers.centers):
            assert np.array_equal(ma, mb)

    def test_weights_are_uniform(self):
        rng = np.random.default_rng(6)
        data, k = random_instance(rng, v_max=3)
        res = rkmc_fit(data, HyperParams(k=k, max_iter=5))
        np.testing.assert_allclose(res.weights, 1.0 / data.n_views)

    def test_permutation_equivariance_kmeanspp_init(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 2)) * 3
        data = MultiViewDataset(views=(x,))
        perm = rng.permutation(30)
        data_perm = MultiViewDataset(views=(x[perm],))
        hyper = HyperParams(k=3, eta=0.5, max_iter=20, seed=9)
        res = rkmc_fit(data, hyper)
        res_perm = rkmc_fit(data_perm, hyper)
        assert np.array_equal(res.labels[perm], res_perm.labels)


class TestLloydReduction:
    def test_hard_mode_tracks_reference_lloyd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, k = int(rng.integers(12, 40)), int(rng.integers(2, 5))
            x = rng.normal(size=(n, 2)) * 2.5
            centers0 = x[rng.choice(n, size=k, replace=False)].copy()
            data, m = MultiViewDataset(views=(x,)), CenterSet((centers0.copy(),))
            # Iteration 0 is the first assignment; iteration t follows t center steps.
            ours = [nearest_center_labels(x, m.centers[0])]
            for _ in range(12):
                m = update_M(data, one_hot(ours[-1], k), prev=m)
                ours.append(nearest_center_labels(x, m.centers[0]))
            reference = oracles.lloyd_reference(x, centers0, len(ours))
            for t, (got, want) in enumerate(zip(ours, reference)):
                assert np.array_equal(got, want), t


class TestUpdateU:
    def test_row_at_center_goes_to_vertex(self):
        m = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        data = MultiViewDataset(views=(m[[1]],))
        u = update_U(data, CenterSet((m,)), None, eta=0.0)
        np.testing.assert_allclose(u[0], [0.0, 1.0, 0.0], atol=1e-6)

    def test_huge_eta_pushes_uniform(self):
        rng = np.random.default_rng(12)
        data = MultiViewDataset(views=(rng.normal(size=(5, 3)),))
        m = CenterSet((rng.normal(size=(4, 3)),))
        u = update_U(data, m, None, eta=1e6)
        np.testing.assert_allclose(u, 0.25, atol=1e-3)

    def test_rows_match_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 2))
        m = rng.normal(size=(3, 2))
        eta = 0.7
        data = MultiViewDataset(views=(x,))
        u = update_U(data, CenterSet((m,)), None, eta=eta)
        h = 2.0 * (m @ m.T + eta * np.eye(3))
        for i in range(5):
            c = 2.0 * (m @ x[i])
            _, val_ref = oracles.row_qp_enum(h, c)
            row = u[i]
            val = 0.5 * row @ h @ row - c @ row
            assert val == pytest.approx(val_ref, abs=1e-8)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(14)
        data = MultiViewDataset(views=(rng.normal(size=(20, 2)),))
        m = CenterSet((rng.normal(size=(3, 2)),))
        u0 = rng.dirichlet(np.ones(3), size=20)
        before = objective_rkmc(data, u0, m, 0.5)
        u1 = update_U(data, m, u0, eta=0.5)
        after = objective_rkmc(data, u1, m, 0.5)
        assert after <= before + 1e-9

    @pytest.mark.filterwarnings("ignore::orkmc.errors.DegenerateClusterWarning")
    def test_rows_and_columns_meet_kkt_certificates(self):
        rng = np.random.default_rng(19)
        for eta in (0.0, 0.5, 5.0):
            x = np.abs(rng.normal(size=(30, 3))) * 2
            data = MultiViewDataset(views=(x, np.abs(rng.normal(size=(30, 2)))))
            m = CenterSet(tuple(np.abs(rng.normal(size=(5, v.shape[1]))) for v in data.views))
            u = update_U(data, m, None, eta=eta)
            h, c = assignment_qp(data.stacked, m.stacked, np.ones(m.stacked.shape[1]), eta)
            for row, ci in zip(u, c):
                assert max(oracles.simplex_qp_kkt(h, ci, row)) <= 1e-9
            new = update_M(data, u, prev=m)
            for xv, mv in zip(data.views, new.centers):
                g, b = u.T @ u, u.T @ xv
                for col in range(xv.shape[1]):
                    assert max(oracles.nnls_kkt(g, b[:, col], mv[:, col])) <= 1e-9


class TestSingularKktFallback:
    @pytest.mark.filterwarnings("error::orkmc.errors.ConvergenceWarning")
    def test_rank_one_hessian_terminates_at_kkt(self):
        # One feature and eta = 0: every face has flat directions, and a
        # multiplier at rounding level once made the active set cycle.
        m = np.array([[3.1593472634602744], [5.329473911450979], [-7.65987551537104],
                      [-0.41389518413522425], [3.04115822715983], [4.056425476145973]])
        x = np.array([[1.9613651532486167], [4.491353557763513], [0.8698727740990441]])
        u0 = np.array([
            [0.2783883884287355, 0.0021499100678414795, 0.4327550165883857,
             0.23037980760473825, 0.04921221840259072, 0.007114658907708441],
            [0.018361042407418867, 0.06418219228472707, 0.7080170315407588,
             0.08656869325700682, 0.06899119209265231, 0.053879848417436316],
            [0.2992143005378238, 0.12390366080122169, 0.14792071980933408,
             0.041996095134398774, 0.34034811205629933, 0.046617111660922535],
        ])
        data = MultiViewDataset(views=(x,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RidgeFallbackWarning)
            u = update_U(data, CenterSet((m,)), u0, eta=0.0)
        h, c = assignment_qp(x, m, np.ones(m.shape[1]), 0.0)
        for row, ci in zip(u, c):
            assert max(oracles.simplex_qp_kkt(h, ci, row)) <= 1e-9

    def test_duplicate_centers_at_eta_zero(self):
        rng = np.random.default_rng(21)
        m = np.tile([1.0, 2.0], (3, 1))  # exact entries: every KKT row is equal
        data = MultiViewDataset(views=(rng.normal(size=(12, 2)),))
        with pytest.warns(RidgeFallbackWarning):
            u = update_U(data, CenterSet((m,)), None, eta=0.0)
        assert np.all(u >= 0.0)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)

    def test_identical_live_columns_in_nnls(self):
        rng = np.random.default_rng(22)
        x = np.abs(rng.normal(size=(8, 2)))
        half = rng.integers(1, 4, size=(8, 1)) / 8.0  # dyadic: U'U has two equal rows
        u = np.hstack([half, half, 1.0 - 2.0 * half])
        prev = CenterSet((np.abs(rng.normal(size=(3, 2))) + 0.5,), nonneg_enforced=True)
        data = MultiViewDataset(views=(x,))
        with pytest.warns(RidgeFallbackWarning):
            m = update_M(data, u, prev=prev)
        assert np.all(np.isfinite(m.centers[0])) and np.all(m.centers[0] >= 0.0)
        before = float(np.sum((x - u @ prev.centers[0]) ** 2))
        assert float(np.sum((x - u @ m.centers[0]) ** 2)) <= before


class TestUpdateM:
    def test_one_hot_gives_cluster_means(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(10, 3))
        labels = rng.integers(0, 2, size=10)
        u = np.zeros((10, 2))
        u[np.arange(10), labels] = 1.0
        data = MultiViewDataset(views=(x,))
        m = update_M(data, u)
        for kk in range(2):
            np.testing.assert_allclose(
                m.centers[0][kk], x[labels == kk].mean(axis=0), atol=1e-10
            )
        means = cluster_means(x, labels, 2, np.zeros((2, 3)))
        np.testing.assert_allclose(means, m.centers[0], rtol=0, atol=1e-12)

        # A third label with no rows keeps its previous center on both paths.
        prev = CenterSet((rng.normal(size=(3, 3)),))
        with pytest.warns(DegenerateClusterWarning):
            m3 = update_M(data, one_hot(labels, 3), prev=prev)
        means3 = cluster_means(x, labels, 3, prev.centers[0])
        np.testing.assert_allclose(means3, m3.centers[0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(means3[2], prev.centers[0][2])

    def test_empty_cluster_keeps_previous_center(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        u = np.array([[1.0, 0.0], [1.0, 0.0]])
        prev = CenterSet((np.array([[0.0, 0.0], [7.0, 7.0]]),))
        data = MultiViewDataset(views=(x,))
        with pytest.warns(DegenerateClusterWarning):
            m = update_M(data, u, prev=prev)
        np.testing.assert_allclose(m.centers[0][1], [7.0, 7.0])
        np.testing.assert_allclose(m.centers[0][0], x.mean(axis=0), atol=1e-12)

    def test_soft_u_matches_pseudo_inverse(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(6, 2))
        u = rng.dirichlet(np.ones(3), size=6)
        data = MultiViewDataset(views=(x,))
        m = update_M(data, u)
        ref = np.linalg.pinv(u) @ x
        np.testing.assert_allclose(m.centers[0], ref, atol=1e-10)

    def test_identical_live_columns_take_the_ridge_fallback(self):
        # Two identical live columns make U'U singular: every seed takes the
        # ridge rule, which still solves the normal equations to rounding.
        for seed in range(20, 60):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(8, 2))
            half = rng.uniform(0.1, 0.9, size=(8, 1)) / 2.0
            u = np.hstack([half, half, 1.0 - 2.0 * half])
            data = MultiViewDataset(views=(x,))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RidgeFallbackWarning)
                m = update_M(data, u)
            mv = m.centers[0]
            assert np.all(np.isfinite(mv))
            assert [w.category for w in caught] == [RidgeFallbackWarning], seed
            scale = max(np.abs(u.T @ u).max() * np.abs(mv).max(), np.abs(u.T @ x).max())
            assert np.abs(u.T @ (u @ mv - x)).max() <= 1e-13 * scale, seed

    def test_nonneg_constraint_respected(self):
        rng = np.random.default_rng(17)
        x = np.abs(rng.normal(size=(12, 2)))
        u = rng.dirichlet(np.ones(3), size=12)
        data = MultiViewDataset(views=(x,))
        m = update_M(data, u)
        assert all(float(mv.min()) >= 0.0 for mv in m.centers)

    def test_nonneg_is_decided_by_the_data(self):
        # U has linearly independent columns, so U'U is regular.
        rng = np.random.default_rng(19)
        views = (np.abs(rng.normal(size=(12, 2))), np.abs(rng.normal(size=(12, 3))))
        u = rng.dirichlet(np.ones(3), size=12)
        data = MultiViewDataset(views=views)
        assert data.nonneg
        assert update_M(data, u).nonneg_enforced
        neg = views[1].copy()
        neg[4, 2] = -1e-3
        data = MultiViewDataset(views=(views[0], neg))
        assert not data.nonneg
        assert not update_M(data, u).nonneg_enforced
    def test_residual_never_increases(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(15, 3))
        u = rng.dirichlet(np.ones(3), size=15)
        data = MultiViewDataset(views=(x,))
        prev = CenterSet((rng.normal(size=(3, 3)),))
        new = update_M(data, u, prev=prev)
        before = float(np.sum((x - u @ prev.centers[0]) ** 2))
        after = float(np.sum((x - u @ new.centers[0]) ** 2))
        assert after <= before + 1e-9
