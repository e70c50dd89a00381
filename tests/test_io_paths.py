"""The C-backed halves of ``dataio`` against their references.

``read_matrix`` parses with ``np.loadtxt`` and falls back to the row loop
``_read_matrix_rows``; both must give bit-identical arrays or the same
``ParseError`` on every input, whichever of them does the work.
``save_result`` writes its document in ``json.dumps`` pieces; the bytes must
equal ``json.dumps`` of the whole document, at every ``U`` block edge.
"""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orkmc import dataio, metrics
from orkmc.baselines import kmeans_fit
from orkmc.cli import main
from orkmc.dataio import RESULT_BLOCK_ROWS, load_result, read_matrix, save_result
from orkmc.datagen import SimSpec, generate
from orkmc.errors import ParseError
from orkmc.model import HyperParams
from orkmc.offline import rkmc_fit
from orkmc.online import orkmc_run

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def outcome(parse, path, delimiter, has_header):
    """What a parser makes of a file: the array's shape and bytes, or the
    ParseError message.  A warning that leaks out fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m = parse(path, delimiter=delimiter, has_header=has_header)
        except ParseError as exc:
            result = ("error", str(exc))
        else:
            result = ("array", m.shape, m.dtype.str, m.tobytes())
    assert [str(w.message) for w in caught] == []
    return result


def parse_both(monkeypatch, path, delimiter, has_header):
    """Parse with ``read_matrix`` and with the row loop alone; return both
    outcomes and whether ``read_matrix`` had to run the loop."""
    loop_calls = []
    reference = dataio._read_matrix_rows

    def counted(*args, **kwargs):
        loop_calls.append(args)
        return reference(*args, **kwargs)

    monkeypatch.setattr(dataio, "_read_matrix_rows", counted)
    fast = outcome(read_matrix, path, delimiter, has_header)
    monkeypatch.undo()
    loop = outcome(reference, path, delimiter, has_header)
    return fast, loop, bool(loop_calls)


def write_raw(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# (text, delimiter, has_header, path that parses it, rows or error substring)
CORPUS = [
    ("1,2\r\n3,4\r\n", ",", False, "loadtxt", [[1, 2], [3, 4]]),
    ("1,2\r3,4", ",", False, "loadtxt", [[1, 2], [3, 4]]),
    ("1,2\n\n\n3,4\n", ",", False, "loadtxt", [[1, 2], [3, 4]]),
    ("1,2\n \t\n3,4\n", ",", False, "loop", [[1, 2], [3, 4]]),
    ("a,b\n1,2\n", ",", True, "loadtxt", [[1, 2]]),
    ("\n1,2\n3,4\n", ",", True, "loadtxt", [[1, 2], [3, 4]]),
    ("a,b\r\n\r\n1,2\r\n", ",", True, "loadtxt", [[1, 2]]),
    (" 1 , 2 \n3\t,\t4\n", ",", False, "loadtxt", [[1, 2], [3, 4]]),
    ("1\xa0, 2\n", ",", False, "loadtxt", [[1, 2]]),
    ("1_0,2\n", ",", False, "loop", [[10, 2]]),
    ("+1,.5,-0,-0.0\n", ",", False, "loadtxt", [[1, 0.5, -0.0, -0.0]]),
    ("5e-324,2.225073858507201e-308,1.7976931348623157e308\n", ",", False, "loadtxt",
     [[5e-324, 2.225073858507201e-308, 1.7976931348623157e308]]),
    ("0.1,0.30000000000000004\n", ",", False, "loadtxt", [[0.1, 0.30000000000000004]]),
    ("1,2\n3,1e400\n", ",", False, "loop", "non-finite value at row 2, column 2: '1e400'"),
    ("nan,2\n", ",", False, "loop", "non-finite value at row 1, column 1: 'nan'"),
    ("1,-Infinity\n", ",", False, "loop", "non-finite value at row 1, column 2: '-Infinity'"),
    ("0x10,1\n", ",", False, "loop", "non-numeric cell at row 1, column 1: '0x10'"),
    ("\ufeff1,2\n", ",", False, "loop", "non-numeric cell at row 1, column 1: '\\ufeff1'"),
    ("1,2\n#3,4\n", ",", False, "loop", "non-numeric cell at row 2, column 1: '#3'"),
    ('1,"2"\n', ",", False, "loop", "non-numeric cell at row 1, column 2: '\"2\"'"),
    ("1,,2\n", ",", False, "loop", "non-numeric cell at row 1, column 2: ''"),
    ("1,2,\n", ",", False, "loop", "non-numeric cell at row 1, column 3: ''"),
    ("1,2\n3,4,5\n", ",", False, "loop", "row 2 has 3 cells, expected 2 (ragged row)"),
    ("7", ",", False, "loadtxt", [[7]]),
    ("1,2,3\n", ",", False, "loadtxt", [[1, 2, 3]]),
    ("1\n2\n3\n", ",", False, "loadtxt", [[1], [2], [3]]),
    ("1;2\n3;4\n", ";", False, "loadtxt", [[1, 2], [3, 4]]),
    ("1\t2\n3\t4\n", "\t", False, "loadtxt", [[1, 2], [3, 4]]),
    ("1\t2\t\n3\t4\t\n", "\t", False, "loop", [[1, 2], [3, 4]]),
    ("1;;2\n3;;4\n", ";;", False, "loop", [[1, 2], [3, 4]]),
    ("1;;2\n3;4\n", ";;", False, "loop", "row 2 has 1 cells, expected 2 (ragged row)"),
    ("", ",", False, "loop", "no data rows"),
    ("\n \n\r\n", ",", False, "loop", "no data rows"),
    ("a,b\n", ",", True, "loop", "no data rows"),
]


@pytest.mark.parametrize("text, delimiter, has_header, path, expected", CORPUS)
def test_corpus_parses_alike_on_both_paths(tmp_path, monkeypatch, text, delimiter,
                                           has_header, path, expected):
    p = tmp_path / "m.csv"
    write_raw(p, text)
    fast, loop, ran_loop = parse_both(monkeypatch, p, delimiter, has_header)
    assert fast == loop
    assert ran_loop == (path == "loop")
    if isinstance(expected, str):
        assert fast[0] == "error" and expected in fast[1]
    else:
        want = np.array(expected, dtype=np.float64)
        assert fast == ("array", want.shape, want.dtype.str, want.tobytes())


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".6e")),
    st.integers(-(10**20), 10**20).map(str),
)
ODD_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "1_0", "+1", ".5", "-0", "5e-324", "1e400", "-1e-400", "nan", "Infinity", "inf",
        "0x1p3", "\ufeff1", "#1", '"1"', "", " ", "1 2", "-", "e5", "1e", "\u0661", "1\xa0",
    ]),
    st.text(alphabet="0123456789.eE+-_ \t,;#\"x", max_size=6),
)
PADS = st.sampled_from(["", "", "", " ", "\t", "  ", "\xa0"])


@st.composite
def matrix_files(draw):
    """Mostly well-formed files, so that both paths get their share: about
    one cell in twelve is odd and one row in ten has another width."""
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", ";;", " "]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(1, 4))
    lines = []
    for _ in range(n_rows):
        width = n_cols + draw(st.sampled_from([0] * 18 + [-1, 1]))
        cells = []
        for _ in range(max(width, 1)):
            odd = draw(st.integers(0, 11)) == 0
            cells.append(draw(PADS) + draw(ODD_CELLS if odd else NUMBERS) + draw(PADS))
        lines.append(delimiter.join(cells))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "", " ", "\t", " \t "])))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, draw(st.sampled_from(["a,b", "", "x;y;z", "1,2"])))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, delimiter, has_header


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "m.csv"


@PROPERTY
@given(case=matrix_files())
def test_loadtxt_path_matches_row_loop(csv_file, case):
    text, delimiter, has_header = case
    write_raw(csv_file, text)
    with pytest.MonkeyPatch.context() as mp:
        fast, loop, _ = parse_both(mp, csv_file, delimiter, has_header)
    assert fast == loop


def reference_doc(result):
    """The result document, built the way ``save_result`` assembles it."""
    return {
        "result": (result.labels + 1).tolist(),
        "U": result.assignment.tolist(),
        "weight": result.weights.tolist(),
        "center": [m.tolist() for m in result.centers.centers],
        "nmi": None if result.nmi is None else float(result.nmi),
        "objective_trace": [float(v) for v in result.objective_trace],
        "elapsed_seconds": float(result.elapsed_seconds),
        "config": result.metadata,
    }


@pytest.fixture(scope="module")
def fitted_results():
    data = generate(SimSpec(n=90, k=3, v=2, j=3, seed=4))
    frozen = orkmc_run(data, HyperParams(k=3, chushi=30, epsilon=1e2, seed=2))
    streaming = orkmc_run(data, HyperParams(k=3, chushi=30, epsilon=1e-300, seed=2))
    assert frozen.metadata["frozen_at"] is not None
    assert streaming.metadata["frozen_at"] is None
    return {
        "kmeans": kmeans_fit(data, HyperParams(k=3, epsilon=1e-6, seed=1)),
        "rkmc": rkmc_fit(data, HyperParams(k=3, eta=0.5, seed=1)),
        "orkmc-frozen": frozen,
        "orkmc": streaming,
    }


@pytest.mark.parametrize("kind", ["kmeans", "rkmc", "orkmc-frozen", "orkmc"])
@pytest.mark.parametrize(
    "n_rows", [None, 1, RESULT_BLOCK_ROWS, RESULT_BLOCK_ROWS + 1, 2 * RESULT_BLOCK_ROWS + 3]
)
def test_result_bytes_equal_one_shot_dumps(tmp_path, capsys, fitted_results, kind, n_rows):
    result = fitted_results[kind]
    if n_rows is not None:
        k = result.assignment.shape[1]
        u = np.random.default_rng(n_rows).dirichlet(np.ones(k), size=n_rows)
        result = replace(result, assignment=u)
    path = tmp_path / "r.json"
    save_result(result, path)
    doc = reference_doc(result)
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode("utf-8")

    loaded = load_result(path)
    assert loaded == json.loads(json.dumps(doc))
    assert np.array_equal(np.array(loaded["U"]), result.assignment)

    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    labels = np.asarray(loaded["result"])
    pred.write_text("".join(f"{v}\n" for v in labels))
    truth.write_text("".join(f"{v}\n" for v in np.arange(labels.size) % 3 + 1))
    assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--metric", "nmi"]) == 0
    nmi = metrics.nmi(result.labels + 1, np.arange(labels.size) % 3 + 1)
    assert capsys.readouterr().out == f"nmi,{nmi:.7f}\n"


def test_result_write_keeps_memory_to_blocks(tmp_path, monkeypatch, fitted_results):
    """No piece handed to ``json.dumps`` holds more than one block of ``U``."""
    u = np.full((3 * RESULT_BLOCK_ROWS + 5, 3), 1.0 / 3.0)
    result = replace(fitted_results["kmeans"], assignment=u)
    sizes = []
    dumps = json.dumps

    def measured(obj, *args, **kwargs):
        text = dumps(obj, *args, **kwargs)
        sizes.append(len(text))
        return text

    monkeypatch.setattr(dataio.json, "dumps", measured)
    save_result(result, tmp_path / "r.json")
    monkeypatch.undo()
    assert len(sizes) == 2 + 4  # head, tail and four blocks of U
    assert max(sizes) < len(dumps(u.tolist())) / 2
