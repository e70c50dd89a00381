"""Dataset ingestion and result serialization.

Matrices travel as delimiter-separated text (one row per sample), datasets as
a small JSON manifest pointing at one file per view plus an optional label
file, and results as a JSON document.  Floats are written with their shortest
round-tripping representation, so save/load cycles are bit-exact.

Both directions run in C.  :func:`read_matrix` parses with ``np.loadtxt``; its
Python row loop (:func:`_read_matrix_rows`) runs only when that parse fails,
warns or yields no rows or a non-finite cell, and then either accepts the
file (whitespace-only lines, ``1_0`` cells) or raises the :class:`ParseError`
that names the row and column.  :func:`save_result` writes its document in
pieces encoded by ``json.dumps`` (the C encoder; ``json.dump`` would run the
pure-Python one), ``U`` in blocks of :data:`RESULT_BLOCK_ROWS` rows, so the
bytes equal ``json.dumps(document)`` without holding that string in memory.

Cluster labels are 1-based in every file (and in the ``result`` field of a
result document); in memory the hard labels are 0-based row indices.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError
from .model import ClusterResult, MultiViewDataset

QCM_ROWS = 125
QCM_FEATURES = 10
QCM_LABEL_COLS = 5
QCM_BLOCK = 25
RESULT_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class DatasetManifest:
    """Pointer file for a dataset: one matrix file per view, optional labels."""

    name: str
    view_files: tuple
    label_file: Optional[str] = None
    k_true: Optional[int] = None
    delimiter: str = ","
    has_header: bool = False

    def __post_init__(self):
        if len(self.view_files) < 1:
            raise ValidationError("a manifest needs at least one view file")
        object.__setattr__(self, "view_files", tuple(str(p) for p in self.view_files))

    @classmethod
    def read(cls, path) -> "DatasetManifest":
        """Parse a manifest file; a missing key or a value of the wrong JSON
        type (``k_true`` must be a positive integer or null) is a
        :class:`ParseError` that names the key."""
        path = os.fspath(path)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid manifest JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: manifest must be a JSON object")
        if "view_files" not in doc:
            raise ParseError(f"{path}: manifest is missing key 'view_files'")
        view_files = doc["view_files"]
        if not isinstance(view_files, list) or not all(isinstance(p, str) for p in view_files):
            raise ParseError(f"{path}: manifest key 'view_files' must be a list of paths")
        label_file = doc.get("label_file")
        if label_file is not None and not isinstance(label_file, str):
            raise ParseError(f"{path}: manifest key 'label_file' must be a path or null")
        delimiter = doc.get("delimiter", ",")
        if not isinstance(delimiter, str) or not delimiter:
            raise ParseError(f"{path}: manifest key 'delimiter' must be a non-empty string")
        k_true = doc.get("k_true")
        if k_true is not None and (type(k_true) is not int or k_true < 1):
            raise ParseError(f"{path}: manifest key 'k_true' must be a positive integer or null")
        has_header = doc.get("has_header", False)
        if not isinstance(has_header, bool):
            raise ParseError(f"{path}: manifest key 'has_header' must be true or false")
        name = doc.get("name", os.path.basename(path))
        if not isinstance(name, str):
            raise ParseError(f"{path}: manifest key 'name' must be a string")
        base = os.path.dirname(os.path.abspath(path))

        def resolve(p):
            return p if os.path.isabs(p) else os.path.join(base, p)

        return cls(
            name=name,
            view_files=tuple(resolve(p) for p in view_files),
            label_file=resolve(label_file) if label_file else None,
            k_true=k_true,
            delimiter=delimiter,
            has_header=has_header,
        )

    def write(self, path) -> None:
        doc = {
            "name": self.name,
            "view_files": list(self.view_files),
            "label_file": self.label_file,
            "k_true": self.k_true,
            "delimiter": self.delimiter,
            "has_header": self.has_header,
        }
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def read_matrix(path, delimiter: str = ",", has_header: bool = False) -> np.ndarray:
    """Parse a numeric matrix; errors carry the 1-based row/column location.

    ``np.loadtxt`` parses the file.  Its array is returned only when the call
    raised nothing, warned nothing and gave a non-empty, all-finite array;
    every other outcome (a bad cell, a ragged or whitespace-only line, a
    multi-character delimiter, an empty file) reruns the parse in
    :func:`_read_matrix_rows`, which returns the same array where both accept
    a file and otherwise raises the located :class:`ParseError`.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m = np.loadtxt(
                fh, delimiter=delimiter, comments=None, skiprows=int(has_header),
                ndmin=2, dtype=np.float64, encoding="utf-8",
            )
        except (ValueError, TypeError):  # a bad cell or row; a delimiter loadtxt refuses
            m = None
    if m is not None and not caught and m.size and np.isfinite(m).all():
        return m
    return _read_matrix_rows(path, delimiter, has_header)


def _read_matrix_rows(path, delimiter: str = ",", has_header: bool = False) -> np.ndarray:
    """Parse a numeric matrix one line and one cell at a time.

    The reference semantics of :func:`read_matrix`: blank and whitespace-only
    lines are skipped, the header is physical line 1, every cell goes through
    ``float`` and must be finite.  It locates the first bad row or cell.
    """
    path = os.fspath(path)
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if has_header and row_no == 1:
                continue
            cells = line.split(delimiter)
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(
                    f"{path}: row {row_no} has {len(cells)} cells, expected {width} (ragged row)"
                )
            parsed = []
            for col_no, tok in enumerate(cells, start=1):
                try:
                    value = float(tok)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell at row {row_no}, column {col_no}: {tok!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: non-finite value at row {row_no}, column {col_no}: {tok!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_labels(path, delimiter: str = ",", has_header: bool = False) -> np.ndarray:
    """Parse a single-column integer label file (1-based class ids)."""
    m = read_matrix(path, delimiter=delimiter, has_header=has_header)
    if m.shape[1] != 1:
        raise ParseError(f"{path}: label file must have one column, found {m.shape[1]}")
    col = m[:, 0]
    if np.any(col != np.round(col)):
        bad = int(np.flatnonzero(col != np.round(col))[0]) + 1
        raise ParseError(f"{path}: non-integer label at row {bad}")
    return col.astype(np.int64)


def load(manifest: DatasetManifest) -> MultiViewDataset:
    """Materialize the dataset a manifest describes."""
    views = []
    n = None
    for p in manifest.view_files:
        if not os.path.exists(p):
            raise ParseError(f"view file does not exist: {p}")
        m = read_matrix(p, delimiter=manifest.delimiter, has_header=manifest.has_header)
        if n is None:
            n = m.shape[0]
        elif m.shape[0] != n:
            raise ParseError(
                f"{p}: has {m.shape[0]} rows but earlier views have {n}"
            )
        views.append(m)
    labels = None
    if manifest.label_file:
        if not os.path.exists(manifest.label_file):
            raise ParseError(f"label file does not exist: {manifest.label_file}")
        labels = read_labels(
            manifest.label_file, delimiter=manifest.delimiter, has_header=manifest.has_header
        )
        if labels.shape[0] != n:
            raise ParseError(
                f"{manifest.label_file}: has {labels.shape[0]} labels for {n} rows"
            )
    return MultiViewDataset(views=tuple(views), labels=labels, name=manifest.name)


def _sniff_delimiter(path) -> str:
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        first = fh.readline()
    for cand in (";", ",", "\t"):
        if cand in first:
            return cand
    return ","


def load_qcm(path) -> MultiViewDataset:
    """Load the 125-sample QCM sensor table (10 features after dropping the
    five one-hot label columns; classes 1..5 assigned in blocks of 25 rows)."""
    path = os.fspath(path)
    delimiter = _sniff_delimiter(path)
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    has_header = False
    for tok in first.split(delimiter):
        try:
            float(tok)
        except ValueError:
            has_header = True
            break
    m = read_matrix(path, delimiter=delimiter, has_header=has_header)
    if m.shape[0] != QCM_ROWS:
        raise ParseError(
            f"{path}: expected {QCM_ROWS} rows in the QCM table, found {m.shape[0]}"
        )
    if m.shape[1] < QCM_FEATURES + QCM_LABEL_COLS:
        raise ParseError(
            f"{path}: expected at least {QCM_FEATURES + QCM_LABEL_COLS} columns, "
            f"found {m.shape[1]}"
        )
    features = m[:, :QCM_FEATURES]
    labels = 1 + np.arange(QCM_ROWS) // QCM_BLOCK
    return MultiViewDataset(views=(features,), labels=labels, name="qcm")


def save_result(result: ClusterResult, path) -> None:
    """Write a result document: hard labels (1-based), the soft matrix, per-view
    weights and centers, the optional NMI, the objective trace, the elapsed
    time and the configuration echo.

    The file holds ``json.dumps(document) + "\\n"`` byte for byte, written as
    three ``json.dumps`` pieces: the ``"result"`` head, ``U`` in blocks of
    :data:`RESULT_BLOCK_ROWS` rows, and the tail from ``"weight"`` on.  The
    head and tail are encoded before the file is opened, so a metadata value
    JSON cannot encode raises without leaving a partial file.
    """
    head = json.dumps({"result": (np.asarray(result.assignment.hard_labels) + 1).tolist()})
    tail = json.dumps({
        "weight": result.weights.tolist(),
        "center": [m.tolist() for m in result.centers.centers],
        "nmi": None if result.nmi is None else float(result.nmi),
        "objective_trace": [float(v) for v in result.objective_trace],
        "elapsed_seconds": float(result.elapsed_seconds),
        "config": result.metadata,
    })
    u = result.assignment.entries
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "U": [')
        for i in range(0, u.shape[0], RESULT_BLOCK_ROWS):
            if i:
                fh.write(", ")
            fh.write(json.dumps(u[i:i + RESULT_BLOCK_ROWS].tolist())[1:-1])
        fh.write("], " + tail[1:] + "\n")


def load_result(path) -> dict:
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_dataset(data: MultiViewDataset, out_dir) -> str:
    """Write one comma-separated matrix file per view (plus labels when
    present) and a manifest; returns the manifest path."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    view_files = []
    for v, x in enumerate(data.views, start=1):
        fname = f"view_{v}.csv"
        _write_matrix(os.path.join(out_dir, fname), x)
        view_files.append(fname)
    label_file = None
    if data.labels is not None:
        label_file = "labels.csv"
        with open(os.path.join(out_dir, label_file), "w", encoding="utf-8") as fh:
            for value in np.asarray(data.labels):
                fh.write(f"{int(value)}\n")
    manifest = DatasetManifest(
        name=data.name or os.path.basename(out_dir),
        view_files=tuple(view_files),
        label_file=label_file,
    )
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest.write(manifest_path)
    return manifest_path


def _write_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
