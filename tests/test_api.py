"""The package's public names."""

import orkmc
from orkmc import model


def test_every_public_name_resolves():
    for name in orkmc.__all__:
        assert getattr(orkmc, name) is not None, name


def test_star_import_gives_exactly_the_public_names():
    namespace: dict = {}
    exec("from orkmc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(orkmc.__all__)


def test_view_weights_wrapper_is_gone():
    assert "ViewWeights" not in orkmc.__all__
    assert not hasattr(orkmc, "ViewWeights")
    assert not hasattr(model, "ViewWeights")
