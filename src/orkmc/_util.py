"""Seeded randomness helpers.

All randomness in the package flows through one primitive, ``rng_for(seed,
tag)``: independent numpy generators keyed by (seed, purpose), so adding a new
consumer of randomness never shifts the draws of another.  kmeans++ seeding
(:func:`select_initial_rows`) draws from it too, assigning the uniforms to the
rows in a content order, so permuting the rows permutes the draws with them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def check_seed(seed) -> int:
    """Return ``seed`` as an int, or raise :class:`ConfigError` unless it lies
    in [0, 2**32): the one range check for every seed in the package."""
    seed = int(seed)
    if not 0 <= seed < 2**32:
        raise ConfigError(f"seed must be in [0, 2**32), got {seed}")
    return seed


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Return a generator keyed by ``(seed, tag)``; ``seed`` must lie in [0, 2**32)."""
    seed = check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([seed] + list(tag.encode("utf-8"))))


def select_initial_rows(x: np.ndarray, k: int, seed: int, tag: str) -> np.ndarray:
    """Pick ``k`` distinct row indices of ``x`` to seed cluster centers.

    Greedy kmeans++ (D^2) seeding: the first row has the largest key, and each
    later step draws a few D^2-weighted candidates and keeps the one that
    lowers the total squared distance to the chosen rows the most.  Each step's
    keys are fresh uniforms from ``rng_for(seed, tag)`` handed out in
    lexicographic order of the rows, so permuting the rows of ``x`` selects the
    same data points.

    The content order is ``np.lexsort(x.T)``, taken per call as one stable
    sort of the last column plus a lexsort of only the rows whose last value
    ties another (none on continuous data; 0.9 instead of 17.7 ms for a
    20-key lexsort at 10 000 x 20).  Each step finds its candidates with one
    ``np.partition`` of the scores and a stable sort of the few rows at or
    above the cut, which is exactly the prefix of a full stable ``argsort``
    (0.03 instead of 0.85 ms per step at 10 000 rows).
    """
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = rng_for(seed, tag)
    # np.lexsort(x.T): the rows that tie on the last column take every key.
    order = np.argsort(x[:, -1], kind="stable")
    last = x[order, -1]
    eq = last[1:] == last[:-1]
    tie = np.zeros(n, dtype=bool)
    tie[1:] = eq
    tie[:-1] |= eq
    sub = order[tie]
    order[tie] = sub[np.lexsort(x[sub].T)]
    keys = np.empty(n)
    taken = np.zeros(n, dtype=bool)
    chosen: list[int] = []

    keys[order] = rng.random(n)
    i0 = int(np.argmax(keys))
    chosen.append(i0)
    taken[i0] = True
    d2 = np.sum((x - x[i0]) ** 2, axis=1)

    n_candidates = min(2 + int(math.ceil(math.log(max(k, 2)))), n)
    for _ in range(1, k):
        keys[order] = rng.random(n)
        # Efraimidis-Spirakis exponential keys: ordering by log(u)/w draws
        # row i with probability proportional to w_i = d2_i.
        score = np.full(n, -np.inf)
        ok = (~taken) & (d2 > 0)
        score[ok] = np.log(keys[ok]) / d2[ok]
        if not np.any(np.isfinite(score)):
            score[~taken] = keys[~taken]
        # The n_candidates best scores, ties to the lower index, exactly as a
        # stable argsort of -score orders them.
        neg = -score
        cut = np.partition(neg, n_candidates - 1)[n_candidates - 1]
        top = np.flatnonzero(neg <= cut)
        cand = top[np.argsort(neg[top], kind="stable")[:n_candidates]]
        best_i, best_pot, best_d2 = -1, np.inf, d2
        for i in cand:
            if score[i] == -np.inf and best_i >= 0:
                continue
            alt = np.minimum(d2, np.sum((x - x[i]) ** 2, axis=1))
            # Summed in content order: candidates whose potentials tie
            # exactly keep tying however the rows are permuted.
            pot = float(alt[order].sum())
            if pot < best_pot:
                best_i, best_pot, best_d2 = int(i), pot, alt
        chosen.append(best_i)
        taken[best_i] = True
        d2 = best_d2

    return np.asarray(chosen, dtype=np.intp)
