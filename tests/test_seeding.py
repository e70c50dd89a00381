"""Seeded randomness: ``rng_for`` seeds and kmeans++ row selection."""

import numpy as np
import pytest

from orkmc._util import rng_for, select_initial_rows
from orkmc.baselines import kmeans_fit
from orkmc.datagen import SimSpec, generate
from orkmc.errors import ConfigError
from orkmc.model import HyperParams
from orkmc.offline import RkmcConfig, rkmc_fit


def duplicate_heavy(rng):
    """Small integer rows with many exact duplicates."""
    n = int(rng.integers(1, 25))
    return rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(float)


@pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 1])
def test_rng_for_rejects_seeds_outside_32_bits(seed):
    with pytest.raises(ConfigError, match=str(seed)):
        rng_for(seed, "tag")


def test_rng_for_accepts_both_ends_of_the_range():
    for seed in (0, 2**32 - 1):
        assert 0.0 <= rng_for(seed, "tag").random() < 1.0


def test_a_fit_with_an_out_of_range_seed_is_a_config_error():
    data = generate(SimSpec(n=30, k=2, seed=0))
    with pytest.raises(ConfigError, match="4294967297"):
        rkmc_fit(data, RkmcConfig(HyperParams(k=2, seed=2**32 + 1)))
    with pytest.raises(ConfigError, match="4294967297"):
        kmeans_fit(data, 2, seed=2**32 + 1)


def test_returns_k_distinct_indices():
    rng = np.random.default_rng(0)
    for case in range(200):
        x = duplicate_heavy(rng)
        k = int(rng.integers(1, x.shape[0] + 1))
        idx = select_initial_rows(x, k, case, "t")
        assert idx.shape == (k,)
        assert len(set(idx.tolist())) == k
        assert np.all((0 <= idx) & (idx < x.shape[0]))


def test_k_outside_one_to_n_is_rejected():
    x = np.zeros((3, 2))
    for k in (0, 4):
        with pytest.raises(ValueError):
            select_initial_rows(x, k, 0, "t")


def test_same_seed_and_tag_repeat_and_other_tags_or_seeds_change():
    x = np.random.default_rng(1).normal(size=(300, 3))
    idx = select_initial_rows(x, 8, 5, "a")
    assert np.array_equal(idx, select_initial_rows(x, 8, 5, "a"))
    assert not np.array_equal(idx, select_initial_rows(x, 8, 5, "b"))
    assert not np.array_equal(idx, select_initial_rows(x, 8, 6, "a"))


def test_permuting_rows_selects_the_same_content():
    rng = np.random.default_rng(2)
    cases = [np.ones((6, 2)), np.ones((1, 3))] + [duplicate_heavy(rng) for _ in range(300)]
    for case, x in enumerate(cases):
        n = x.shape[0]
        for k in {1, n, int(rng.integers(1, n + 1))}:
            perm = rng.permutation(n)
            idx = select_initial_rows(x, k, case, "perm")
            idx_p = select_initial_rows(x[perm], k, case, "perm")
            assert np.array_equal(x[idx], x[perm][idx_p]), (case, k)


def test_duplicate_of_a_chosen_row_waits_for_every_distinct_row():
    rng = np.random.default_rng(3)
    for case in range(200):
        x = duplicate_heavy(rng)
        n_distinct = len(np.unique(x, axis=0))
        idx = select_initial_rows(x, x.shape[0], case, "dup")
        for m in range(1, x.shape[0] + 1):
            assert len(np.unique(x[idx[:m]], axis=0)) == min(m, n_distinct), (case, m)
