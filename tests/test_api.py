"""The package's public names."""

import pytest

import orkmc
from orkmc import errors, kernels, model


def test_every_public_name_resolves():
    for name in orkmc.__all__:
        assert getattr(orkmc, name) is not None, name


def test_star_import_gives_exactly_the_public_names():
    namespace: dict = {}
    exec("from orkmc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(orkmc.__all__)


@pytest.mark.parametrize("name", ["ViewWeights", "RowQP", "solve_row_qp", "NumericalError"])
def test_removed_names_stay_gone(name):
    assert name not in orkmc.__all__
    for module in (orkmc, model, kernels, errors):
        assert not hasattr(module, name), module.__name__
