"""Synthetic Gaussian mixture generation for multi/single-view scenarios.

Cluster labels are shared across views; each view draws its samples from
unit-variance Gaussians whose means sit ``separation`` apart along a chain of
randomized orthogonal directions (re-randomized per view).  ``separation`` is
therefore measured in within-cluster standard deviations, and the named
presets reproduce the benchmark scenario sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._util import rng_for
from .errors import ConfigError, UsageError
from .model import MultiViewDataset

# Width and mean spacing of the view add_shuffled_noise_view appends.
NOISE_VIEW_J = 2
NOISE_VIEW_SEPARATION = 1.0


@dataclass(frozen=True)
class SimSpec:
    """Scenario description: sizes and separation; the K clusters are
    equally likely."""

    n: int
    k: int
    v: int = 1
    j: int = 2
    separation: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        if self.v < 1 or self.j < 1:
            raise ConfigError("v and j must be >= 1")
        if not self.separation > 0:
            raise ConfigError("separation must be > 0")


def _simplex_coords(k: int) -> np.ndarray:
    """Centered regular-simplex vertices with unit side length, shape (k, k-1)."""
    pts = np.eye(k) / np.sqrt(2.0)
    pts -= pts.mean(axis=0)
    u, s, _ = np.linalg.svd(pts, full_matrices=False)
    return u[:, : k - 1] * s[: k - 1]


def _chain_means(rng: np.random.Generator, k: int, j: int, separation: float) -> np.ndarray:
    """Means spaced ``separation`` apart along randomized orthogonal directions.

    With j >= k - 1 the means sit at the vertices of a regular simplex
    (every pair exactly ``separation`` apart) embedded along a random
    orthonormal basis.  In lower dimension they fall back to a chain that
    cycles the available orthonormal step directions with positive signs;
    the chain coordinates are then monotone, so every pair still stays at
    least ``separation`` apart.
    """
    mu = np.zeros((k, j))
    if k == 1:
        return mu
    if j >= k - 1:
        q, _ = np.linalg.qr(rng.standard_normal((j, k - 1)))
        return separation * _simplex_coords(k) @ q.T
    q, _ = np.linalg.qr(rng.standard_normal((j, j)))
    for i in range(1, k):
        mu[i] = mu[i - 1] + separation * q[:, (i - 1) % j]
    return mu - mu.mean(axis=0)


def generate(spec: SimSpec) -> MultiViewDataset:
    """Draw a dataset for ``spec``; deterministic in ``spec.seed``.

    Ground-truth labels (1-based) are attached to the returned dataset.
    """
    rng = rng_for(spec.seed, "datagen")
    labels0 = rng.choice(spec.k, size=spec.n, p=np.full(spec.k, 1.0 / spec.k))
    views = []
    for _ in range(spec.v):
        mu = _chain_means(rng, spec.k, spec.j, spec.separation)
        views.append(mu[labels0] + rng.standard_normal((spec.n, spec.j)))
    return MultiViewDataset(
        views=tuple(views),
        labels=labels0 + 1,
        name=f"sim-n{spec.n}-k{spec.k}-v{spec.v}",
    )


def add_shuffled_noise_view(data: MultiViewDataset, seed: int = 0) -> MultiViewDataset:
    """Append a ``NOISE_VIEW_J``-column noise view: weak blob structure
    (means ``NOISE_VIEW_SEPARATION`` apart) on a random permutation of the
    true labels, scale-matched to the existing views.

    Its noise matches the per-dimension RMS spread of the dataset (at least
    1), so the new view is as wide as the real ones but carries no class
    information -- under any class-aligned clustering its residual stays high,
    which is what the view-weight sanity checks rely on."""
    if data.labels is None:
        raise ConfigError("a noise view needs ground-truth labels to shuffle")
    rng = rng_for(seed, "noise-view")
    spread = np.concatenate([x.var(axis=0) for x in data.views])
    sigma = float(np.sqrt(max(spread.mean(), 1.0)))
    perm = rng.permutation(np.asarray(data.labels))
    _, inverse = np.unique(perm, return_inverse=True)
    k = int(inverse.max()) + 1
    mu = _chain_means(rng, k, NOISE_VIEW_J, NOISE_VIEW_SEPARATION)
    noise_view = mu[inverse] + sigma * rng.standard_normal((data.n_samples, NOISE_VIEW_J))
    return MultiViewDataset(
        views=data.views + (noise_view,),
        labels=data.labels,
        name=data.name + "+noise",
    )


@dataclass(frozen=True)
class ScenarioPreset:
    """A named scenario: the data spec plus the solver defaults it carries.

    Fixed presets have ``n_grid=None``; stability presets describe a sweep over
    sample sizes, with the initial batch size tracking ``n // 2``.
    """

    name: str
    sim: SimSpec
    eta: float
    chushi: Optional[int]
    n_grid: Optional[tuple] = None

    def spec_for(self, n: int) -> SimSpec:
        return replace(self.sim, n=n)

    def chushi_for(self, n: Optional[int] = None) -> int:
        if self.chushi is not None:
            return self.chushi
        return (self.sim.n if n is None else n) // 2


_PRESETS = {
    "case1-single": ScenarioPreset(
        name="case1-single",
        sim=SimSpec(n=840, k=3, v=1, j=2),
        eta=5.0,
        chushi=620,
    ),
    "case2-multi": ScenarioPreset(
        name="case2-multi",
        sim=SimSpec(n=210, k=3, v=2, j=2),
        eta=20.0,
        chushi=130,
    ),
    "stability-single": ScenarioPreset(
        name="stability-single",
        sim=SimSpec(n=100, k=3, v=1, j=2),
        eta=5.0,
        chushi=None,
        n_grid=tuple(range(100, 1001, 20)),
    ),
    "stability-multi": ScenarioPreset(
        name="stability-multi",
        sim=SimSpec(n=100, k=3, v=2, j=2),
        eta=20.0,
        chushi=None,
        n_grid=tuple(range(100, 1001, 20)),
    ),
}


def preset(name: str) -> ScenarioPreset:
    """Look up a named scenario preset."""
    if name not in _PRESETS:
        valid = ", ".join(sorted(_PRESETS))
        raise UsageError(f"unknown preset {name!r}; valid presets: {valid}")
    return _PRESETS[name]
