"""Every solver replays its committed golden output (see ``tests/goldens.py``).

The goldens were recorded from the code as it stood before the fit contract
moved into ``orkmc.model``, and the ``orkmc-*`` cases before the one-row fast
path of the per-arrival update; a refactor that keeps outputs identical keeps
these passing.  ``orkmc``, ``orkmc-stream`` and ``orkmc-clamp`` were recorded
again when the view-weight refresh became the minimizer for every r and the
default r moved to 2.  Values are compared at ``goldens.RTOL`` relative to each
array's largest entry; ``frozen_at`` and the hard labels must match exactly.
"""

import json
import shutil

import numpy as np
import pytest

import goldens

with open(goldens.GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _close(got, want, what):
    want = np.asarray(want, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    assert got.shape == want.shape, what
    scale = float(np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=goldens.RTOL, atol=goldens.RTOL * scale, err_msg=what)


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(goldens.CASES)


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_fit_replays_golden(name):
    make, fit = goldens.CASES[name]
    got = goldens.record(fit(make()))
    want = GOLDEN[name]
    np.testing.assert_array_equal(np.argmax(got["U"], axis=1), np.argmax(want["U"], axis=1))
    _close(got["U"], want["U"], f"{name} U")
    assert len(got["centers"]) == len(want["centers"])
    for v, (g, w) in enumerate(zip(got["centers"], want["centers"])):
        _close(g, w, f"{name} centers[{v}]")
    _close(got["weights"], want["weights"], f"{name} weights")
    _close(got["objective_trace"], want["objective_trace"], f"{name} objective trace")
    assert got["frozen_at"] == want["frozen_at"]
    if want["nmi"] is None:
        assert got["nmi"] is None
    else:
        _close([got["nmi"]], [want["nmi"]], f"{name} nmi")


def test_regenerating_one_case_keeps_every_other_entry(tmp_path):
    path = tmp_path / "goldens.json"
    shutil.copyfile(goldens.GOLDEN_PATH, path)
    before = path.read_text(encoding="utf-8")
    goldens.regenerate(str(path), ["orkmc"])
    after = path.read_text(encoding="utf-8")
    new = json.loads(after)
    assert list(new) == list(GOLDEN)
    # The file as it was, with only the "orkmc" entry swapped, byte for byte.
    assert json.dumps(GOLDEN, separators=(",", ":")) + "\n" == before
    assert json.dumps({**GOLDEN, "orkmc": new["orkmc"]}, separators=(",", ":")) + "\n" == after
