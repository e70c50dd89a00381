"""Regularized K-means clustering for multi-view data, offline and streaming.

Public surface:

* data model and objectives: :mod:`orkmc.model`
* optimization kernels: :mod:`orkmc.kernels`
* offline solver: :mod:`orkmc.offline`
* online solver: :mod:`orkmc.online`
* comparison algorithms: :mod:`orkmc.baselines`
* evaluation metrics: :mod:`orkmc.metrics`
* synthetic data: :mod:`orkmc.datagen`
* file formats: :mod:`orkmc.dataio`
* command line: ``orkmc`` (see :mod:`orkmc.cli`)

The names in ``__all__`` load on first use (PEP 562): ``import orkmc`` imports
none of the submodules, nor numpy, and ``orkmc.rkmc_fit`` imports
:mod:`orkmc.offline` the first time it is looked up.  So ``import orkmc.dataio``
leaves the solvers unloaded, and ``python -m orkmc.cli`` runs its own first
lines before numpy loads.
"""

import importlib

# Each public name and the submodule that defines it, for ``__getattr__``.
_EXPORTS = {
    name: module
    for module, names in {
        "baselines": ("kmeans_fit", "ogd_fit", "omu_fit", "pkmeans_fit"),
        "datagen": ("ScenarioPreset", "SimSpec", "add_shuffled_noise_view", "generate", "preset"),
        "dataio": ("DatasetManifest", "load", "load_qcm", "load_result", "save_dataset",
                   "save_result"),
        "kernels": ("nnls", "project_simplex"),
        "metrics": ("ContingencyTable", "index", "nmi", "pair_scores", "purity"),
        "model": ("CenterSet", "ClusterResult", "HyperParams",
                  "MultiViewDataset", "objective_online", "objective_rkmc", "validate"),
        "offline": ("rkmc_fit", "update_M", "update_U"),
        "online": ("OnlineState", "orkmc_init", "orkmc_run", "orkmc_step"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
