"""Seeded randomness: ``rng_for`` seeds and kmeans++ row selection."""

import itertools

import numpy as np
import pytest

import oracles
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


@pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 1])
def test_hyperparams_reject_seeds_with_rng_fors_message(seed):
    with pytest.raises(ConfigError) as from_rng:
        rng_for(seed, "tag")
    with pytest.raises(ConfigError) as from_hyper:
        HyperParams(k=2, seed=seed)
    assert str(from_hyper.value) == str(from_rng.value) == f"seed must be in [0, 2**32), got {seed}"


def test_hyperparams_accept_both_ends_of_the_range():
    for seed in (0, 2**32 - 1):
        assert HyperParams(k=2, seed=seed).seed == seed


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


def test_exact_potential_tie_is_broken_the_same_way_in_every_row_order():
    # Rows 1 and 4 are each other's nearest neighbours and every other row is
    # nearer to row 0, so after row 0 the two candidates' potentials tie
    # exactly; their floating sums must not let the row order pick one.
    x = np.array([
        [-2.37648535, 1.02890016, 1.39829621],
        [0.9358776, 4.01664643, -2.42644184],
        [-4.38312234, 0.66983046, -0.41418701],
        [-2.71699073, 0.69192172, 1.69881239],
        [0.3973255, 5.17393004, -4.48558579],
    ])
    want = x[select_initial_rows(x, 3, 22, "rkmc-init-1")]
    for perm in itertools.permutations(range(5)):
        xp = x[list(perm)]
        np.testing.assert_array_equal(xp[select_initial_rows(xp, 3, 22, "rkmc-init-1")], want)


def test_duplicate_of_a_chosen_row_waits_for_every_distinct_row():
    rng = np.random.default_rng(3)
    for case in range(200):
        x = duplicate_heavy(rng)
        n_distinct = len(np.unique(x, axis=0))
        idx = select_initial_rows(x, x.shape[0], case, "dup")
        for m in range(1, x.shape[0] + 1):
            assert len(np.unique(x[idx[:m]], axis=0)) == min(m, n_distinct), (case, m)


def tie_heavy(rng, case):
    """Rows whose content order and candidate cut are easy to get wrong:
    ties in the last column, exact duplicate rows, +0.0 against -0.0, or
    continuous rows; n is often below the candidate count."""
    n, j = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    kind = case % 5
    if kind == 0:
        return rng.integers(0, 3, size=(n, j)).astype(float)
    if kind == 1:
        return np.round(rng.normal(size=(n, j)), 1)
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.0], size=(n, j))
    x = rng.normal(size=(n, j))
    if kind == 3:
        x[:, -1] = np.round(x[:, -1])
    return x


def test_selection_matches_the_full_sort_reference():
    rng = np.random.default_rng(4)
    cases = [np.ones((6, 2)), np.ones((1, 3)), np.array([[0.0], [-0.0], [0.0]])]
    cases += [tie_heavy(rng, case) for case in range(400)]
    for case, x in enumerate(cases):
        n = x.shape[0]
        for k in sorted({1, n, int(rng.integers(1, n + 1))}):
            want = oracles.select_initial_rows_full_sort(x, k, case, "ref")
            np.testing.assert_array_equal(select_initial_rows(x, k, case, "ref"), want,
                                          err_msg=f"case {case}, k {k}")
    # Many rows, half of them duplicated, with the last column in a few values.
    x = rng.normal(size=(3000, 6))
    x[:, -1] = np.round(x[:, -1])
    x[1500:] = x[:1500]
    np.testing.assert_array_equal(select_initial_rows(x, 10, 0, "ref"),
                                  oracles.select_initial_rows_full_sort(x, 10, 0, "ref"))
