"""Lloyd, power K-means, OGD and OMU behaviors."""

import os
import time

import numpy as np
import pytest

import oracles
from orkmc.baselines import (
    kmeans_fit,
    mu_update_centers,
    mu_update_rows,
    nearest_center_labels,
    ogd_fit,
    omu_fit,
    pkmeans_fit,
    power_mean_objective,
    power_mm_step,
)
from orkmc.errors import ConfigError
from orkmc.kernels import assignment_qp
from orkmc.model import HyperParams, MultiViewDataset, validate
from orkmc.datagen import SimSpec, generate


def two_pairs():
    return MultiViewDataset(views=(np.array([[0.0], [0.1], [10.0], [10.1]]),))


def perm_match(a, b):
    mapping = {}
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestKmeans:
    def test_two_pairs(self):
        res = kmeans_fit(two_pairs(), HyperParams(k=2, epsilon=1e-6, seed=0))
        assert perm_match(res.labels, [0, 0, 1, 1])
        assert validate(res) == []

    def test_k_one_gives_global_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        res = kmeans_fit(MultiViewDataset(views=(x,)), HyperParams(k=1, epsilon=1e-6, seed=0))
        np.testing.assert_allclose(res.centers.centers[0][0], x.mean(axis=0), atol=1e-10)

    def test_sse_monotone_and_matches_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2)) * 2
        res = kmeans_fit(MultiViewDataset(views=(x,)), HyperParams(k=3, epsilon=1e-6, seed=2))
        trace = res.objective_trace
        for i in range(1, len(trace)):
            assert trace[i] <= trace[i - 1] + 1e-9
        labels = res.labels
        centers = res.centers.centers[0]
        assert trace[-1] == pytest.approx(oracles.sse_direct(x, centers, labels), rel=1e-10)

    def test_multi_view_concatenation(self):
        rng = np.random.default_rng(2)
        data = MultiViewDataset(views=(rng.normal(size=(12, 2)), rng.normal(size=(12, 3))))
        res = kmeans_fit(data, HyperParams(k=2, epsilon=1e-6, seed=0))
        assert res.centers.n_views == 2
        assert res.centers.centers[0].shape == (2, 2)
        assert res.centers.centers[1].shape == (2, 3)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one core")
    def test_fit_spends_no_cpu_on_other_threads(self):
        # A threaded BLAS product leaves its worker spinning after every call;
        # Lloyd's distances must not wake it.  process_time counts every
        # thread of the process, thread_time only this one.
        x = np.random.default_rng(7).normal(size=(10000, 20))
        data = MultiViewDataset(views=(x,))
        time.sleep(0.3)
        others = time.process_time() - time.thread_time()
        kmeans_fit(data, HyperParams(k=10, epsilon=1e-6, seed=3))
        time.sleep(0.3)
        others = time.process_time() - time.thread_time() - others
        assert others < 0.02


class TestPkmeans:
    def test_single_view_only(self):
        rng = np.random.default_rng(3)
        data = MultiViewDataset(views=(rng.normal(size=(8, 2)), rng.normal(size=(8, 2))))
        with pytest.raises(ConfigError):
            pkmeans_fit(data, HyperParams(k=2))

    def test_symmetric_two_points(self):
        data = MultiViewDataset(views=(np.array([[-1.0], [1.0]]),))
        res = pkmeans_fit(data, HyperParams(k=2, max_iter=60, seed=0))
        got = np.sort(res.centers.centers[0].ravel())
        np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-6)

    def test_mm_step_monotone_at_fixed_s(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3)) * 2
        centers = x[rng.choice(40, size=3, replace=False)].copy()
        for s in (-1.0, -3.0, -10.0):
            current = centers.copy()
            for _ in range(25):
                after = power_mm_step(x, current, s)
                assert power_mean_objective(x, after, s) <= (
                    power_mean_objective(x, current, s) + 1e-9
                )
                current = after

    def test_objective_matches_direct_power_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(15, 2))
        centers = rng.normal(size=(3, 2))
        for s in (-0.5, -2.0, -30.0):
            d = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            want = sum(oracles.power_mean_direct(row.tolist(), s) for row in d)
            assert power_mean_objective(x, centers, s) == pytest.approx(want, rel=1e-10)

    def test_hard_limit_matches_lloyd_assignment(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            data = generate(SimSpec(n=40, k=3, v=1, j=2, seed=seed))
            res = pkmeans_fit(data, HyperParams(k=3, max_iter=120, seed=seed))
            centers = res.centers.centers[0]
            lloyd_labels = nearest_center_labels(data.views[0], centers)
            assert np.array_equal(res.labels, lloyd_labels)

    def test_zero_distance_collapses_weight(self):
        x = np.array([[0.0, 0.0], [4.0, 0.0]])
        centers = np.array([[0.0, 0.0], [4.0, 0.0]])
        stepped = power_mm_step(x, centers, -2.0)
        np.testing.assert_allclose(stepped, centers, atol=1e-12)


class TestOgd:
    def test_arrivals_at_one_center_leave_others_alone(self):
        x = np.vstack([[0.0, 0.0], [10.0, 10.0], np.tile([10.0, 10.0], (5, 1))])
        data = MultiViewDataset(views=(x,))
        res = ogd_fit(data, HyperParams(k=2, chushi=2, seed=0))
        centers = res.centers.centers[0]
        assert any(np.allclose(c, [0.0, 0.0], atol=1e-12) for c in centers)
        assert any(np.allclose(c, [10.0, 10.0], atol=1e-12) for c in centers)

    def test_k_one_running_mean(self):
        n = 12
        x = np.arange(1.0, n + 1.0)[:, None]
        data = MultiViewDataset(views=(x,))
        res = ogd_fit(data, HyperParams(k=1, chushi=1, seed=0))
        assert res.centers.centers[0][0, 0] == pytest.approx(x.mean(), abs=1e-12)

    def test_separated_gaussians_quality(self):
        hits = 0
        for seed in range(20):
            data = generate(SimSpec(n=500, k=3, v=1, j=2, seed=seed))
            res = ogd_fit(data, HyperParams(k=3, chushi=50, seed=seed))
            hits += res.nmi >= 0.8
        assert hits >= 18

    def test_single_view_only(self):
        rng = np.random.default_rng(8)
        data = MultiViewDataset(views=(rng.normal(size=(6, 2)), rng.normal(size=(6, 2))))
        with pytest.raises(ConfigError):
            ogd_fit(data, HyperParams(k=2))


class TestOmu:
    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(9)
        u0 = rng.dirichlet(np.ones(2), size=8)
        m0 = np.abs(rng.normal(size=(2, 3))) + 0.1
        x = u0 @ m0
        u1 = mu_update_rows(u0, *assignment_qp(x, m0, np.ones(m0.shape[1]), 0.0))
        np.testing.assert_allclose(u1, u0, atol=1e-9)
        m1 = mu_update_centers(m0, u0.T @ x, u0.T @ u0)
        np.testing.assert_allclose(m1, m0, atol=1e-9)

    def test_updates_preserve_nonnegativity(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n, k, j = 12, 3, 2
            x = np.abs(rng.normal(size=(n, j)))
            u = np.abs(rng.normal(size=(n, k))) + 1e-6
            m = np.abs(rng.normal(size=(k, j))) + 1e-6
            for _ in range(10):
                u = mu_update_rows(u, *assignment_qp(x, m, np.ones(m.shape[1]), 0.0))
                m = mu_update_centers(m, u.T @ x, u.T @ u)
                assert np.all(u >= 0) and np.all(m >= 0)

    def test_offline_reconstruction_error_monotone(self):
        rng = np.random.default_rng(11)
        x = np.abs(rng.normal(size=(20, 4)))
        data = MultiViewDataset(views=(x,))
        res = omu_fit(data, HyperParams(k=2, max_iter=50, chushi=20, seed=0))
        trace = res.objective_trace
        assert len(trace) == 50
        for i in range(1, len(trace)):
            assert trace[i] <= trace[i - 1] + 1e-9

    def test_negative_data_is_shifted_and_flagged(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(10, 2))
        data = MultiViewDataset(views=(x,))
        with pytest.warns(UserWarning, match="min-shift"):
            res = omu_fit(data, HyperParams(k=2, max_iter=5, chushi=10, seed=0))
        assert res.metadata["min_shift"][0] > 0

    def test_streaming_rows_are_simplex(self):
        rng = np.random.default_rng(13)
        x = np.abs(rng.normal(size=(30, 3)))
        data = MultiViewDataset(views=(x,))
        res = omu_fit(data, HyperParams(k=2, chushi=10, max_iter=20, seed=0))
        u = res.assignment
        assert np.all(u >= 0)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)
        assert validate(res) == []
