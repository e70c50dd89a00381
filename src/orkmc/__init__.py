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
"""

from .baselines import kmeans_fit, ogd_fit, omu_fit, pkmeans_fit
from .datagen import ScenarioPreset, SimSpec, add_shuffled_noise_view, generate, preset
from .dataio import DatasetManifest, load, load_qcm, load_result, save_dataset, save_result
from .kernels import nnls, project_simplex
from .metrics import ContingencyTable, index, nmi, pair_scores, purity
from .model import (
    AssignmentMatrix,
    CenterSet,
    ClusterResult,
    HyperParams,
    MultiViewDataset,
    objective_online,
    objective_rkmc,
    validate,
)
from .offline import RkmcConfig, rkmc_fit, update_M, update_U
from .online import OnlineState, orkmc_init, orkmc_run, orkmc_step

__version__ = "0.1.0"

__all__ = [
    "AssignmentMatrix",
    "CenterSet",
    "ClusterResult",
    "ContingencyTable",
    "DatasetManifest",
    "HyperParams",
    "MultiViewDataset",
    "OnlineState",
    "RkmcConfig",
    "ScenarioPreset",
    "SimSpec",
    "add_shuffled_noise_view",
    "generate",
    "index",
    "kmeans_fit",
    "load",
    "load_qcm",
    "load_result",
    "nmi",
    "nnls",
    "objective_online",
    "objective_rkmc",
    "ogd_fit",
    "omu_fit",
    "orkmc_init",
    "orkmc_run",
    "orkmc_step",
    "pair_scores",
    "pkmeans_fit",
    "preset",
    "project_simplex",
    "purity",
    "rkmc_fit",
    "save_dataset",
    "save_result",
    "update_M",
    "update_U",
    "validate",
]
