"""Synthetic data generation and scenario presets."""

import numpy as np
import pytest

from orkmc.baselines import kmeans_fit
from orkmc.datagen import (
    ScenarioPreset,
    SimSpec,
    add_shuffled_noise_view,
    generate,
    preset,
)
from orkmc.errors import ConfigError, UsageError
from orkmc.model import HyperParams


class TestSimSpec:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            SimSpec(n=2, k=3)
        with pytest.raises(ConfigError):
            SimSpec(n=10, k=2, separation=0.0)


class TestGenerate:
    @pytest.mark.parametrize("seed", [2**32 + 1, -1])
    def test_seed_outside_32_bits_is_rejected_not_aliased(self, seed):
        with pytest.raises(ConfigError, match=str(seed)):
            generate(SimSpec(n=10, k=2, seed=seed))

    def test_single_component_mean(self):
        data = generate(SimSpec(n=4000, k=1, v=1, j=2, seed=0))
        assert len(set(np.asarray(data.labels).tolist())) == 1
        # mean of the single component is the origin; 4 sigma / sqrt(n) bound
        assert np.linalg.norm(data.views[0].mean(axis=0)) <= 4.0 / np.sqrt(4000) * 2

    def test_separated_clusters_are_recoverable(self):
        hits = 0
        for seed in range(20):
            data = generate(SimSpec(n=300, k=3, v=1, j=2, separation=10.0, seed=seed))
            res = kmeans_fit(data, HyperParams(k=3, epsilon=1e-6, seed=seed))
            hits += res.nmi >= 0.99
        assert hits >= 19

    def test_deterministic_in_seed(self):
        spec = SimSpec(n=50, k=3, v=2, j=3, seed=123)
        a = generate(spec)
        b = generate(spec)
        for xa, xb in zip(a.views, b.views):
            assert np.array_equal(xa, xb)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate(SimSpec(n=50, k=3, seed=1))
        b = generate(SimSpec(n=50, k=3, seed=2))
        assert not np.array_equal(a.views[0], b.views[0])

    def test_labels_are_equally_likely(self):
        data = generate(SimSpec(n=2000, k=3, seed=5))
        labels = np.asarray(data.labels)
        p = 1.0 / 3
        for cls in (1, 2, 3):
            frac = float(np.mean(labels == cls))
            bound = 4.0 * np.sqrt(p * (1 - p) / 2000)
            assert abs(frac - p) <= bound

    def test_empirical_means_separated_by_spec_distance(self):
        spec = SimSpec(n=10_000, k=3, v=1, j=2, separation=6.0, seed=7)
        data = generate(spec)
        labels = np.asarray(data.labels)
        means = np.array([data.views[0][labels == c].mean(axis=0) for c in (1, 2, 3)])
        tol = 5.0 / np.sqrt(10_000 / 3)
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(means[a] - means[b]) == pytest.approx(6.0, abs=4 * tol)

    def test_low_dimension_chain_fallback(self):
        data = generate(SimSpec(n=60, k=4, v=1, j=1, separation=5.0, seed=0))
        labels = np.asarray(data.labels)
        means = sorted(float(data.views[0][labels == c].mean()) for c in range(1, 5))
        for a, b in zip(means, means[1:]):
            assert b - a >= 3.0  # separated along the single axis


class TestNoiseView:
    def test_appends_scale_matched_view(self):
        data = generate(SimSpec(n=200, k=3, v=1, j=2, seed=0))
        noisy = add_shuffled_noise_view(data, seed=0)
        assert noisy.n_views == 2
        assert noisy.views[1].shape == (200, 2)
        base_std = np.sqrt(np.mean(data.views[0].var(axis=0)))
        noise_std = np.sqrt(np.mean(noisy.views[1].var(axis=0)))
        assert noise_std == pytest.approx(base_std, rel=0.3)

    def test_requires_labels(self):
        data = generate(SimSpec(n=20, k=2, seed=0))
        stripped = type(data)(views=data.views, labels=None)
        with pytest.raises(ConfigError):
            add_shuffled_noise_view(stripped)


class TestPresets:
    def test_case1(self):
        p = preset("case1-single")
        assert (p.sim.n, p.sim.k, p.sim.v) == (840, 3, 1)
        assert p.chushi == 620
        assert p.eta == 5.0

    def test_case2(self):
        p = preset("case2-multi")
        assert (p.sim.n, p.sim.k, p.sim.v) == (210, 3, 2)
        assert p.chushi == 130
        assert p.eta == 20.0

    def test_stability_presets_carry_grid(self):
        p = preset("stability-single")
        assert p.n_grid is not None
        assert p.n_grid[0] == 100 and p.n_grid[-1] == 1000

    def test_unknown_preset(self):
        with pytest.raises(UsageError, match="valid presets"):
            preset("nonexistent")
