"""Seeded randomness helpers.

All randomness in the package flows through two primitives:

* ``rng_for(seed, tag)`` -- independent numpy generators keyed by (seed, purpose),
  so adding a new consumer of randomness never shifts the draws of another.
* content-keyed row selection -- initial centers are chosen by hashing row
  *contents* together with (seed, tag).  Selection therefore commutes with any
  permutation of the rows, which makes the fitted labels permutation-equivariant
  while staying deterministic in the seed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Return a generator keyed by ``(seed, tag)``."""
    entropy = [int(seed) & 0xFFFFFFFF] + list(tag.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _row_hash01(seed: int, tag: str, row_bytes: bytes) -> float:
    """Uniform-looking value in (0, 1) derived from a row's byte content."""
    key = f"{seed}:{tag}".encode("utf-8")[:64]
    h = hashlib.blake2b(row_bytes, key=key, digest_size=8).digest()
    v = int.from_bytes(h, "big")
    return (v + 0.5) / 2.0**64


def _content_keys(x: np.ndarray, seed: int, tag: str) -> np.ndarray:
    rows = np.ascontiguousarray(x, dtype=np.float64)
    return np.array([_row_hash01(seed, tag, rows[i].tobytes()) for i in range(rows.shape[0])])


def select_initial_rows(
    x: np.ndarray,
    k: int,
    seed: int,
    tag: str,
    method: str = "kmeans++",
) -> np.ndarray:
    """Pick ``k`` distinct row indices of ``x`` to seed cluster centers.

    ``method`` is ``"kmeans++"`` (greedy D^2 seeding) or ``"uniform"``.  Both are
    deterministic in ``(seed, tag)`` and keyed by row content, so permuting the
    rows of ``x`` selects the same data points.
    """
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    taken = np.zeros(n, dtype=bool)
    chosen: list[int] = []

    if method == "uniform":
        keys = _content_keys(x, seed, tag)
        order = np.argsort(keys, kind="stable")
        return order[:k].copy()

    if method != "kmeans++":
        raise ValueError(f"unknown row-selection method {method!r}")

    first_keys = _content_keys(x, seed, tag + ":0")
    i0 = int(np.argmax(first_keys))
    chosen.append(i0)
    taken[i0] = True
    d2 = np.sum((x - x[i0]) ** 2, axis=1)

    n_candidates = 2 + int(math.ceil(math.log(max(k, 2))))
    for step in range(1, k):
        keys = _content_keys(x, seed, f"{tag}:{step}")
        # Efraimidis-Spirakis exponential keys: ordering by log(u)/w draws
        # row i with probability proportional to w_i = d2_i.
        score = np.full(n, -np.inf)
        ok = (~taken) & (d2 > 0)
        score[ok] = np.log(keys[ok]) / d2[ok]
        if not np.any(np.isfinite(score)):
            score[~taken] = keys[~taken]
        cand = np.argsort(-score, kind="stable")[:n_candidates]
        best_i, best_pot = -1, np.inf
        for i in cand:
            if score[i] == -np.inf and best_i >= 0:
                continue
            alt = np.sum((x - x[i]) ** 2, axis=1)
            pot = float(np.minimum(d2, alt).sum())
            if pot < best_pot:
                best_i, best_pot = int(i), pot
        chosen.append(best_i)
        taken[best_i] = True
        d2 = np.minimum(d2, np.sum((x - x[best_i]) ** 2, axis=1))

    return np.asarray(chosen, dtype=np.intp)
