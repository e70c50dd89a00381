"""The package's public names."""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import orkmc
from orkmc import errors, kernels, model, offline


def test_every_public_name_resolves():
    for name in orkmc.__all__:
        assert getattr(orkmc, name) is not None, name


def test_star_import_gives_exactly_the_public_names():
    namespace: dict = {}
    exec("from orkmc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(orkmc.__all__)


@pytest.mark.parametrize(
    "name", ["ViewWeights", "RowQP", "solve_row_qp", "NumericalError", "RkmcConfig"]
)
def test_removed_names_stay_gone(name):
    assert name not in orkmc.__all__
    for module in (orkmc, model, kernels, errors, offline):
        assert not hasattr(module, name), module.__name__


# Imports orkmc as a library would and reports what got loaded when.
LIBRARY_IMPORT_PROBE = """
import json, os, sys

def solvers():
    return sorted(m for m in ("orkmc.offline", "orkmc.online", "orkmc.baselines")
                  if m in sys.modules)

import orkmc
report = {"after_import": solvers()}
import orkmc.dataio
report["after_dataio"] = solvers()
orkmc.rkmc_fit
report["after_rkmc_fit"] = solvers()
namespace = {}
exec("from orkmc import *", namespace)
report["after_star"] = solvers()

def at_home(name):
    value = getattr(orkmc, name)
    return namespace[name] is value and getattr(sys.modules[value.__module__], name) is value

report["not_home_object"] = [name for name in orkmc.__all__ if not at_home(name)]
report["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps(report))
"""


def test_library_import_loads_lazily_and_leaves_the_environment_alone():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(orkmc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", LIBRARY_IMPORT_PROBE], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["after_import"] == []
    assert report["after_dataio"] == []
    assert report["after_rkmc_fit"] == ["orkmc.offline"]
    assert report["after_star"] == ["orkmc.baselines", "orkmc.offline", "orkmc.online"]
    assert report["not_home_object"] == []
    assert report["OPENBLAS_NUM_THREADS"] is None


@pytest.mark.parametrize(
    "name", ["rkmc_fit", "orkmc_run", "kmeans_fit", "pkmeans_fit", "ogd_fit", "omu_fit"]
)
def test_every_solver_is_called_with_data_and_hyper(name):
    fit = getattr(orkmc, name)
    params = inspect.signature(fit).parameters
    assert list(params)[:2] == ["data", "hyper"]
    x = orkmc.generate(orkmc.SimSpec(n=40, k=3, v=1, j=2, seed=1)).views[0]
    data = orkmc.MultiViewDataset(views=(x - x.min(),))
    hyper = orkmc.HyperParams(k=3, chushi=10, seed=1)
    result = fit(data, hyper)
    assert orkmc.validate(result) == []
    assert result.metadata["algorithm"] == name.split("_")[0]
    assert result.metadata["hyper"] == hyper.as_dict()
    # Unset, the online solvers' chushi is recorded as max(k, n // 10) = 4.
    unset = replace(hyper, chushi=None)
    want = replace(unset, chushi=4) if name in ("orkmc_run", "ogd_fit", "omu_fit") else unset
    assert fit(data, unset).metadata["hyper"] == want.as_dict()
    with pytest.raises(errors.ConfigError):
        fit(data, orkmc.HyperParams(k=41, chushi=41))
