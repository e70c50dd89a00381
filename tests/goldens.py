"""Replay goldens: the exact output of every solver on small generated datasets.

Each case fits one algorithm on a small ``orkmc.datagen`` dataset and keeps
the assignment matrix U, the centers, the view weights, the objective trace,
the NMI and, for ORKMC, ``frozen_at``.  Besides a tiny stream, ORKMC replays
the data of acceptance criteria C5/C7 (``case1-single``) and C6 (a shuffled
noise view, r = 2), the benchmark's ``stream`` shape, and a stream whose
negative arrivals hit the clamp on nonnegative centers.
``tests/test_goldens.py`` compares a fresh fit against the stored values at
1e-12 relative to each array's largest entry, not by hash, because numpy and
its BLAS are not pinned.

The cases are chosen away from ties: the two RKMC restarts end at objectives
that differ by far more than rounding, every ORKMC arrival's center move is
far from ``epsilon`` (so the freeze step cannot shift), and every soft row's
two largest entries are far apart (so no hard label can flip).
:func:`tie_margins` measures all three, and regeneration refuses a case that
comes too close.

Regenerate (only when an output is meant to change) with::

    PYTHONPATH=src python tests/goldens.py [OUT [CASE ...]]

OUT defaults to the committed file.  Named cases are refitted into the
existing OUT and every other entry is kept byte for byte, in its place, so
a change that moves a few goldens diffs only those; with no case named,
every case is refitted and OUT is written anew.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import numpy as np

from orkmc import datagen, kmeans_fit, ogd_fit, omu_fit, orkmc_run, pkmeans_fit, validate
from orkmc._util import select_initial_rows
from orkmc.model import CenterSet, HyperParams, MultiViewDataset
from orkmc.offline import N_RESTARTS, _fit_once, rkmc_fit
from orkmc.online import orkmc_init, orkmc_step

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "replay_goldens.json")
RTOL = 1e-12
# A regenerated case must keep every tie margin above this (relative).
MIN_MARGIN = 1e-4


def _data(n, k, v, j, seed, nonneg=False):
    data = datagen.generate(datagen.SimSpec(n=n, k=k, v=v, j=j, separation=2.0, seed=seed))
    if nonneg:
        data = MultiViewDataset(views=tuple(x - x.min(axis=0) for x in data.views), labels=data.labels)
    return data


def _rkmc_hyper(seed):
    return HyperParams(k=3, eta=1.0, epsilon=1e-6, max_iter=25, seed=seed)


def _orkmc_hyper(seed):
    return HyperParams(k=3, eta=0.5, r=0.5, epsilon=0.1, chushi=12, seed=seed)


def _c5_data(seed):
    """The ``case1-single`` preset that acceptance criteria C5 and C7 run."""
    return datagen.generate(replace(datagen.preset("case1-single").sim, seed=seed))


def _c6_data(seed):
    """Criterion C6's data: one informative view plus a shuffled noise view."""
    base = datagen.generate(datagen.SimSpec(n=210, k=3, v=1, j=2, seed=seed))
    return datagen.add_shuffled_noise_view(base, seed=seed)


def _clamp_data(seed, chushi):
    """Nonnegative warm-start rows followed by arrivals with negative entries,
    so that ``orkmc_step``'s clamp of a moved center row acts."""
    data = datagen.generate(datagen.SimSpec(n=60, k=3, v=2, j=2, separation=2.0, seed=seed))
    return MultiViewDataset(
        views=tuple(x - x[:chushi].min(axis=0) for x in data.views), labels=data.labels
    )


# name -> (dataset, fit).  Every fit is a public entry point called as
# ``fit(data, hyper)``; a HyperParams field not given takes its default.
CASES = {
    "rkmc-mixed": (lambda: _data(24, 3, 2, 3, seed=0), lambda d: rkmc_fit(d, _rkmc_hyper(0))),
    "rkmc-nonneg": (
        lambda: _data(24, 3, 2, 3, seed=10, nonneg=True),
        lambda d: rkmc_fit(d, _rkmc_hyper(10)),
    ),
    "orkmc": (lambda: _data(40, 3, 2, 2, seed=3), lambda d: orkmc_run(d, _orkmc_hyper(3))),
    "orkmc-c5": (lambda: _c5_data(1), lambda d: orkmc_run(d, HyperParams(k=3, eta=5.0, chushi=620, seed=1))),
    "orkmc-c6": (
        lambda: _c6_data(2),
        lambda d: orkmc_run(d, HyperParams(k=3, eta=20.0, r=2.0, chushi=130, seed=2)),
    ),
    # The shape of the benchmark's stream workload: K = 5, two views of 10.
    "orkmc-stream": (
        lambda: datagen.generate(datagen.SimSpec(n=200, k=5, v=2, j=10, seed=11)),
        lambda d: orkmc_run(d, HyperParams(k=5, chushi=50, seed=11)),
    ),
    "orkmc-clamp": (
        lambda: _clamp_data(20, 6),
        lambda d: orkmc_run(d, HyperParams(k=3, eta=0.5, epsilon=1e-3, chushi=6, seed=20)),
    ),
    "kmeans": (
        lambda: _data(30, 3, 2, 2, seed=4),
        lambda d: kmeans_fit(d, HyperParams(k=3, epsilon=1e-6, seed=4)),
    ),
    "pkmeans": (lambda: _data(30, 3, 1, 2, seed=5), lambda d: pkmeans_fit(d, HyperParams(k=3, seed=5))),
    "ogd": (lambda: _data(30, 3, 1, 2, seed=6), lambda d: ogd_fit(d, HyperParams(k=3, chushi=8, seed=6))),
    "omu": (
        lambda: _data(30, 3, 2, 2, seed=7, nonneg=True),
        lambda d: omu_fit(d, HyperParams(k=3, chushi=10, max_iter=20, seed=7)),
    ),
}


def record(result) -> dict:
    """The stored fields of one fit, as plain JSON values."""
    return {
        "U": result.assignment.tolist(),
        "centers": [m.tolist() for m in result.centers.centers],
        "weights": np.asarray(result.weights).tolist(),
        "objective_trace": [float(f) for f in result.objective_trace],
        "nmi": result.nmi,
        "frozen_at": result.metadata.get("frozen_at"),
    }


def _soft_label_margin(u: np.ndarray) -> float:
    """Smallest gap between a row's two largest entries (rows not one-hot)."""
    soft = u[u.max(axis=1) < 1.0]
    if soft.shape[0] == 0:
        return np.inf
    top2 = np.sort(soft, axis=1)[:, -2:]
    return float((top2[:, 1] - top2[:, 0]).min())


def _restart_margin(data, seed) -> float:
    """Relative gap between the final objectives of RKMC's two restarts."""
    hyper = _rkmc_hyper(seed)
    finals = []
    for r in range(N_RESTARTS):
        idx = select_initial_rows(data.stacked, 3, seed, f"rkmc-init-{r}")
        start = CenterSet(tuple(x[idx] for x in data.views))
        finals.append(_fit_once(data, hyper, start)["trace"][-1])
    return abs(finals[0] - finals[1]) / max(abs(f) for f in finals)


def _freeze_margin(data, hyper) -> float:
    """Smallest ``|drift - epsilon| / epsilon`` over the moving ORKMC arrivals."""
    state = orkmc_init(data, hyper)
    margin = np.inf
    for row in range(hyper.chushi, data.n_samples):
        if state.frozen_at is not None:
            break
        before = [m.copy() for m in state.centers.centers]
        orkmc_step(state, data.stacked[row])
        drift = max(float(np.linalg.norm(a - b, axis=1).max()) for a, b in zip(state.centers.centers, before))
        margin = min(margin, abs(drift - hyper.epsilon) / hyper.epsilon)
    return margin


def tie_margins(name: str, data, result) -> dict:
    margins = {"soft_label": _soft_label_margin(result.assignment)}
    if name.startswith("rkmc"):
        margins["restart"] = _restart_margin(data, result.metadata["hyper"]["seed"])
    if name.startswith("orkmc"):
        margins["freeze"] = _freeze_margin(data, HyperParams(**result.metadata["hyper"]))
    return margins


def regenerate(path: str = GOLDEN_PATH, names=()) -> dict:
    """Refit the cases ``names`` (every case when empty) and write them to
    ``path``.  Named cases replace their entries in the file at ``path``;
    the other entries are loaded and dumped again, which keeps their bytes
    because a JSON float round-trips."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; the cases are {list(CASES)}")
    doc = {}
    if names:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    for name in names or CASES:
        make, fit = CASES[name]
        data = make()
        result = fit(data)
        problems = validate(result)
        if problems:
            raise SystemExit(f"{name}: validate reports {problems}")
        margins = tie_margins(name, data, result)
        close = {k: m for k, m in margins.items() if m < MIN_MARGIN}
        if close:
            raise SystemExit(f"{name}: too close to a tie {close}; pick another dataset seed")
        doc[name] = record(result)
        print(name, {k: f"{m:.3g}" for k, m in margins.items()})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return doc


if __name__ == "__main__":
    regenerate(sys.argv[1] if len(sys.argv) > 1 else GOLDEN_PATH, sys.argv[2:])
