"""Online solver: state invariants, step math, streaming properties."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from orkmc import online
from orkmc.errors import ConfigError, ValidationError
from orkmc.kernels import pg_step, project_simplex
from orkmc.model import HyperParams, MultiViewDataset, validate
from orkmc.online import (
    orkmc_init,
    orkmc_run,
    orkmc_step,
    weights_from_residuals,
)


def separated_rows(rng, n, k, j=2, sep=8.0):
    labels = rng.integers(0, k, size=n)
    mu = np.zeros((k, j))
    mu[:, 0] = sep * np.arange(k)
    return mu[labels] + rng.normal(size=(n, j)), labels


class TestInit:
    def test_uniform_weights(self):
        rng = np.random.default_rng(0)
        x, _ = separated_rows(rng, 20, 3)
        data = MultiViewDataset(views=(x, x + 1.0))
        state = orkmc_init(data, HyperParams(k=3, chushi=20, seed=0))
        np.testing.assert_allclose(state.weights, [0.5, 0.5])

    @pytest.mark.parametrize("max_iter", [4, 100])
    def test_n_grad_is_read_only(self, max_iter):
        x, _ = separated_rows(np.random.default_rng(1), 20, 3)
        state = orkmc_init(MultiViewDataset(views=(x,)), HyperParams(k=3, max_iter=max_iter))
        assert state.n_grad == min(online.DEFAULT_N_GRAD, max_iter)
        with pytest.raises(AttributeError):
            state.n_grad = 200

    def test_chushi_equals_k_seeds_prefix_rows(self):
        x = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        data = MultiViewDataset(views=(x,))
        state = orkmc_init(data, HyperParams(k=3, chushi=3, seed=1))
        found = {tuple(row) for row in state.centers.centers[0]}
        assert found == {tuple(row) for row in x}
        assert np.all(state.counts >= 0)

    def test_state_passes_validate(self):
        rng = np.random.default_rng(2)
        x, _ = separated_rows(rng, 20, 3)
        state = orkmc_init(MultiViewDataset(views=(x,)), HyperParams(k=3, chushi=20))
        assert state.t == 20
        assert int(state.counts.sum()) == 20
        assert validate(state) == []

    def test_nan_row_in_state_reported(self):
        rng = np.random.default_rng(2)
        x, _ = separated_rows(rng, 20, 3)
        state = orkmc_init(MultiViewDataset(views=(x,)), HyperParams(k=3, chushi=20))
        state.U_rows[4] = np.array([np.nan, 0.5, 0.5])
        assert validate(state) == [("row-sum", 4)]
        # A negative entry is reported as in a result, by entry.
        state.U_rows[4] = np.array([-0.5, 1.0, 0.5])
        assert validate(state) == [("row-nonneg", (4, 0))]

    def test_chushi_below_k_rejected(self):
        with pytest.raises(ConfigError):
            HyperParams(k=5, chushi=3)
        data = MultiViewDataset(views=(np.zeros((2, 1)),))
        with pytest.raises(ConfigError):
            orkmc_init(data, HyperParams(k=3))


class TestStep:
    def make_state(self, rng, n=20, k=3, views=1):
        x, _ = separated_rows(rng, n, k)
        data = MultiViewDataset(views=tuple(x + 2.0 * v for v in range(views)))
        return orkmc_init(data, HyperParams(k=k, chushi=n, eta=0.0, seed=3))

    def test_arrival_at_center_is_fixed_point(self, monkeypatch):
        rng = np.random.default_rng(3)
        state = self.make_state(rng)
        monkeypatch.setattr(online, "DEFAULT_N_GRAD", 200)
        state.hyper = replace(state.hyper, max_iter=200)
        assert state.n_grad == 200
        k_probe = 1
        arrival = state.centers.stacked[k_probe].copy()
        before_counts = state.counts.copy()
        before_center = state.centers.centers[0].copy()
        orkmc_step(state, arrival)
        u = state.U_rows[-1]
        assert int(np.argmax(u)) == k_probe
        assert u[k_probe] > 0.99
        assert state.counts[k_probe] == before_counts[k_probe] + 1
        np.testing.assert_allclose(state.centers.centers[0], before_center, atol=1e-6)

    def test_negative_arrival_after_nonneg_batch_is_clamped(self):
        # The nonneg rule is decided on the warm-start batch; a later arrival
        # with negative entries must not pull a center below zero.
        x = np.abs(np.random.default_rng(0).normal(size=(10, 2)))
        state = orkmc_init(MultiViewDataset(views=(x,)), HyperParams(k=2, chushi=10, epsilon=1e-12))
        assert state.centers.nonneg_enforced
        orkmc_step(state, np.array([-50.0, -50.0]))
        assert np.all(state.centers.centers[0] >= 0.0)
        assert validate(state) == []

    def test_identical_views_keep_uniform_weights(self):
        rng = np.random.default_rng(4)
        x, _ = separated_rows(rng, 15, 3)
        data = MultiViewDataset(views=(x, x.copy()))
        state = orkmc_init(data, HyperParams(k=3, chushi=15, r=2.0, seed=5))
        for _ in range(5):
            row = rng.normal(size=2) + [4.0, 0.0]
            orkmc_step(state, np.concatenate([row, row]))
        np.testing.assert_allclose(state.weights, [0.5, 0.5], atol=1e-12)

    def test_running_mean_recurrence(self):
        # K=1, arrivals 1, 2, 3 with center initialized at 1: final center is
        # the running mean 2.0 (hand-computed M <- M + (x - M)/n recurrence)
        data = MultiViewDataset(views=(np.array([[1.0]]),))
        state = orkmc_init(data, HyperParams(k=1, chushi=1, eta=0.0))
        orkmc_step(state, np.array([2.0]))
        orkmc_step(state, np.array([3.0]))
        assert state.centers.centers[0][0, 0] == pytest.approx(2.0, abs=1e-12)
        assert state.counts.tolist() == [3]

    @pytest.mark.parametrize("seed", range(5))
    def test_running_mean_invariant_for_several_clusters(self, seed):
        # With epsilon tiny the state never freezes, so every center with
        # count n_k stays the mean of the n_k rows hard-labelled to it.
        rng = np.random.default_rng(seed)
        x, _ = separated_rows(rng, 400, 3, sep=4.0)
        data = MultiViewDataset(views=(x - x.mean(axis=0), rng.normal(size=(400, 3))))
        res = orkmc_run(data, HyperParams(k=3, chushi=60, epsilon=1e-300, seed=seed))
        labels = res.labels
        counts = np.asarray(res.metadata["counts"])
        assert res.metadata["frozen_at"] is None
        np.testing.assert_array_equal(counts, np.bincount(labels, minlength=3))
        for kk in np.flatnonzero(counts):
            for xv, mv in zip(data.views, res.centers.centers):
                np.testing.assert_allclose(
                    mv[kk], xv[labels == kk].mean(axis=0), rtol=0, atol=1e-10
                )

    def test_non_finite_arrival_rejected_state_unchanged(self):
        rng = np.random.default_rng(6)
        state = self.make_state(rng)
        snapshot = copy.deepcopy(state)
        with pytest.raises(ValidationError):
            orkmc_step(state, np.array([np.nan, 1.0]))
        assert state.t == snapshot.t
        np.testing.assert_array_equal(state.counts, snapshot.counts)
        np.testing.assert_array_equal(
            state.centers.centers[0], snapshot.centers.centers[0]
        )

    def test_every_row_on_simplex_and_state_valid(self):
        rng = np.random.default_rng(7)
        state = self.make_state(rng, views=2)
        for _ in range(30):
            arrival = np.concatenate([rng.normal(size=2) * 3, rng.normal(size=2) * 3])
            orkmc_step(state, arrival)
            row = state.U_rows[-1]
            assert abs(float(row.sum()) - 1.0) <= 1e-9
            assert np.all(row >= -1e-12)
            assert validate(state) == []

    def test_single_pg_step_never_increases_row_objective(self):
        # Also on data and centers shifted by one offset per view, which the
        # row objective ignores on the simplex but which inflates H.
        rng = np.random.default_rng(8)
        for _ in range(500):
            k = int(rng.integers(2, 5))
            j = int(rng.integers(1, 4))
            v = int(rng.integers(1, 3))
            offsets = [rng.normal(size=j) * rng.choice([0.0, 5.0, 50.0]) for _ in range(v)]
            ms = [rng.normal(size=(k, j)) + b for b in offsets]
            alpha = rng.dirichlet(np.ones(v))
            r = float(rng.uniform(0.3, 3.0))
            eta = float(rng.uniform(0.0, 2.0))
            x = [rng.normal(size=j) * 2 + b for b in offsets]
            u = rng.dirichlet(np.ones(k))
            a = alpha ** r
            b = sum(av * (m @ m.T) for av, m in zip(a, ms))
            h = 2.0 * (b + eta * np.eye(k))
            gamma = pg_step(h)
            c = sum(av * (m @ xv) for av, m, xv in zip(a, ms, x))
            grad = 2.0 * (b @ u + eta * u - c)
            u_next = project_simplex(u - gamma * grad)

            def obj(vec):
                resid = sum(
                    av * float(np.sum((xv - vec @ m) ** 2))
                    for av, m, xv in zip(a, ms, x)
                )
                return resid + eta * float(vec @ vec)

            assert obj(u_next) <= obj(u) + 1e-9


class TestStackedCenters:
    """The centers live in one K x sum(J_v) block; the per-view matrices are
    column views of it, derived on every read."""

    def make(self):
        rng = np.random.default_rng(21)
        x, _ = separated_rows(rng, 120, 3)
        views = (x, rng.normal(size=(120, 3)), rng.normal(size=(120, 1)))
        return MultiViewDataset(views=views), HyperParams(k=3, chushi=40, epsilon=1e-300, seed=4)

    @staticmethod
    def assert_views_are_block_slices(centers):
        block = centers.stacked
        for mv, a, j in zip(centers.centers, centers.starts, centers.feature_counts):
            assert np.shares_memory(mv, block)
            assert mv.tobytes() == block[:, a : a + j].tobytes()

    def test_deepcopy_steps_on_its_own_block(self):
        data, hyper = self.make()
        state = orkmc_init(data, hyper)
        start = state.centers.stacked.copy()
        twin = copy.deepcopy(state)
        assert not np.shares_memory(twin.centers.stacked, state.centers.stacked)
        for i in range(40, 120):
            arrival = data.stacked[i]
            orkmc_step(state, arrival)
            orkmc_step(twin, arrival)
        assert not np.array_equal(state.centers.stacked, start)
        for side in (state, twin):
            self.assert_views_are_block_slices(side.centers)
        assert twin.centers.stacked.tobytes() == state.centers.stacked.tobytes()
        for a, b in zip(state.centers.centers, twin.centers.centers):
            assert a.tobytes() == b.tobytes()

    def test_init_refresh_reaches_the_views(self):
        # One refresh: every center with rows is the mean of the batch rows
        # hard-labelled to it by the returned assignment.
        data, hyper = self.make()
        state = orkmc_init(data, replace(hyper, max_iter=1))
        self.assert_views_are_block_slices(state.centers)
        hard = np.argmax(np.array(state.U_rows), axis=1)
        assert state.counts.max() >= 2
        for kk in np.flatnonzero(state.counts):
            for xv, mv in zip(data.views, state.centers.centers):
                np.testing.assert_allclose(
                    mv[kk], xv[:40][hard == kk].mean(axis=0), rtol=1e-14, atol=1e-14
                )

    def test_bad_second_view_rejected_by_name_state_unchanged(self):
        data, hyper = self.make()
        state = orkmc_init(data, hyper)
        snapshot = copy.deepcopy(state)
        row = data.stacked[50]
        bad = row.copy()
        bad[3] = np.inf  # the second of view 1's columns 2..4
        with pytest.raises(ValidationError, match="arrival view 1 has non-finite entries"):
            orkmc_step(state, bad)
        # Anything but one 1-D row of the 6 stacked values is refused by its
        # expected length and the view widths.
        wrong_shapes = (row[:-1], row[None, :], [xv[50] for xv in data.views])
        for arrival in wrong_shapes:
            with pytest.raises(ValidationError, match=r"must be 1-D with 6 values, view widths \(2, 3, 1\)"):
                orkmc_step(state, arrival)
        assert state.t == snapshot.t and state.frozen_at == snapshot.frozen_at
        assert state.centers.stacked.tobytes() == snapshot.centers.stacked.tobytes()
        for name in ("counts", "weights", "resid_sums"):
            assert getattr(state, name).tobytes() == getattr(snapshot, name).tobytes()
        assert state.u_sq_sum == snapshot.u_sq_sum


class TestWeights:
    def test_r_equal_one_takes_the_smallest_residual(self):
        np.testing.assert_array_equal(weights_from_residuals(np.array([3.0, 1.0]), 1.0), [0.0, 1.0])
        # Below 1 too; the lowest index wins an exact tie.
        np.testing.assert_array_equal(
            weights_from_residuals(np.array([2.0, 1.0, 1.0]), 0.5), [0.0, 1.0, 0.0]
        )

    @pytest.mark.parametrize("r", [0.3, 0.5, 1.0, 1.5, 2.0, 4.0])
    def test_refresh_minimizes_the_weighted_residual_sum(self, r):
        # sum alpha^r D at the rule's alpha is at most its value at every
        # vertex, at the uniform vector and at random simplex points; odd
        # cases draw small integers, so exact ties and zero residuals occur.
        rng = np.random.default_rng(14)
        for case in range(60):
            v = int(rng.integers(1, 6))
            d = rng.integers(0, 4, size=v).astype(float) if case % 2 else rng.uniform(0.1, 10.0, size=v)
            alpha = weights_from_residuals(d, r)
            assert np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= 1e-12
            got = float(np.sum(alpha ** r * d))
            points = np.vstack([np.eye(v), np.full((1, v), 1.0 / v), rng.dirichlet(np.ones(v), size=200)])
            best = float((points ** r @ d).min())
            assert got <= best + 1e-12 * abs(best), (d.tolist(), alpha.tolist())

    def test_zero_residual_views_take_all_weight(self):
        w = weights_from_residuals(np.array([0.0, 2.0, 0.0]), 2.0)
        np.testing.assert_allclose(w, [0.5, 0.0, 0.5])

    def test_r_above_one_prefers_small_residuals(self):
        w = weights_from_residuals(np.array([1.0, 4.0]), 2.0)
        assert w[0] > w[1]
        np.testing.assert_allclose(w, [0.8, 0.2])

    def test_kkt_stationarity_for_r_above_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = int(rng.integers(2, 5))
            d = rng.uniform(0.5, 5.0, size=v)
            r = float(rng.uniform(1.2, 3.0))
            alpha = weights_from_residuals(d, r)
            base = float(np.sum(alpha ** r * d))
            for _ in range(100):
                direction = rng.normal(size=v)
                direction -= direction.mean()
                cand = alpha + 1e-4 * direction
                if np.any(cand < 0):
                    continue
                cand /= cand.sum()
                assert float(np.sum(cand ** r * d)) >= base - 1e-9


class TestRun:
    def test_chushi_equals_n_is_init_only(self):
        rng = np.random.default_rng(10)
        x, labels = separated_rows(rng, 25, 3)
        data = MultiViewDataset(views=(x,), labels=labels + 1)
        res = orkmc_run(data, HyperParams(k=3, chushi=25, seed=0))
        assert res.assignment.shape[0] == 25
        assert len(res.objective_trace) == 1
        assert validate(res) == []

    def test_progress_callback_counts(self):
        rng = np.random.default_rng(11)
        x, _ = separated_rows(rng, 50, 3)
        data = MultiViewDataset(views=(x,))
        calls = []
        orkmc_run(
            data,
            HyperParams(k=3, chushi=20, seed=0),
            progress=lambda t, obj, alpha: calls.append((t, obj, tuple(alpha))),
        )
        # init callback plus one callback per arrival
        assert len(calls) == 1 + 30
        assert [t for t, _, _ in calls] == list(range(20, 51))
        assert all(np.isfinite(obj) and obj >= 0 for _, obj, _ in calls)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        x, labels = separated_rows(rng, 60, 3)
        data = MultiViewDataset(views=(x,), labels=labels + 1)
        hyper = HyperParams(k=3, chushi=30, seed=7)
        a = orkmc_run(data, hyper)
        b = orkmc_run(data, hyper)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.objective_trace == b.objective_trace
        assert np.array_equal(a.weights, b.weights)

    def test_streaming_counters_independent_of_history(self, monkeypatch):
        rng = np.random.default_rng(13)
        x, _ = separated_rows(rng, 200, 3)
        data = MultiViewDataset(views=(x,))
        state = orkmc_init(data, HyperParams(k=3, chushi=50))
        sweeps = []
        pgd_rows = online._pgd_rows

        def counted(*args):
            out = pgd_rows(*args)
            sweeps.append(out[2])
            return out

        monkeypatch.setattr(online, "_pgd_rows", counted)
        for i in range(50, 200):
            orkmc_step(state, x[i])
        # constant work per arrival: every step runs exactly n_grad sweeps
        assert sweeps == [state.n_grad] * 150

    def test_freeze_rule(self):
        rng = np.random.default_rng(15)
        x, _ = separated_rows(rng, 300, 3)
        data = MultiViewDataset(views=(x, 0.5 * x[:, ::-1] + rng.normal(size=(300, 2))))
        hyper = HyperParams(k=3, chushi=40, epsilon=1e-2, seed=2)
        res = orkmc_run(data, hyper)
        frozen_at = res.metadata["frozen_at"]
        assert frozen_at is not None and frozen_at < 250

        state = copy.deepcopy(orkmc_init(data, hyper))
        assert state.frozen_at is None
        first_small = None
        frozen = None
        for i in range(40, 300):
            before = [mv.copy() for mv in state.centers.centers]
            counts = state.counts.copy()
            orkmc_step(state, data.stacked[i])
            k_star = int(np.argmax(state.U_rows[-1]))
            drift = max(
                float(np.linalg.norm(mv[k_star] - b[k_star]))
                for mv, b in zip(state.centers.centers, before)
            )
            if first_small is None and drift <= hyper.epsilon:
                first_small = state.t
                frozen = (
                    [mv.tobytes() for mv in state.centers.centers],
                    state.weights.tobytes(),
                )
            elif frozen is not None:
                assert [mv.tobytes() for mv in state.centers.centers] == frozen[0]
                assert state.weights.tobytes() == frozen[1]
            expected = counts.copy()
            expected[k_star] += 1
            np.testing.assert_array_equal(state.counts, expected)
            assert len(state.U_rows) == state.t == i + 1
        assert first_small == frozen_at == state.frozen_at
        np.testing.assert_array_equal(np.array(state.U_rows), res.assignment)

    def test_state_size_is_sufficient_statistics_plus_rows(self):
        rng = np.random.default_rng(14)
        x, _ = separated_rows(rng, 120, 3)
        data = MultiViewDataset(views=(x,))
        state = orkmc_init(data, HyperParams(k=3, chushi=40))
        for i in range(40, 120):
            orkmc_step(state, x[i])
        k, j, v, t = 3, 2, 1, state.t
        stored = (
            sum(m.size for m in state.centers.centers)
            + sum(row.size for row in state.U_rows)
            + state.counts.size
            + state.resid_sums.size
            + state.weights.size
        )
        assert stored == k * j * v + t * k + k + v + v

    def test_missing_chushi(self):
        # chushi=None warms up on max(k, n // 10) rows; more than n is an error.
        data = MultiViewDataset(views=(np.zeros((4, 1)),))
        assert orkmc_run(data, HyperParams(k=1)).metadata["hyper"]["chushi"] == 1
        with pytest.raises(ConfigError):
            orkmc_run(data, HyperParams(k=1, chushi=5))
