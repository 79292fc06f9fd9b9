"""The CSV writer's ``repr`` path and the reader's ``np.loadtxt`` path give
the bytes and bits of the cell-by-cell forms they stand in for."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

import causalstream.stream_io as stream_io
from causalstream.stream_io import (
    StreamFormatError,
    format_value,
    read_stream_csv,
    write_stream_csv,
)

# -0.0, a subnormal, a float whose repr has an exponent, 0.1, a Python int
# and a masked cell; then numpy scalars
EXACT = (-0.0, 5e-324, 1e16, 0.1, 7, None)
NUMPY = (np.float64(0.3), np.int64(-4))
LABELS = (0, True, np.int64(2), 1.5, np.float64(-0.0))


def _reference_bytes(rows, names) -> bytes:
    lines = [",".join(list(names) + ["y"])]
    lines += [",".join(format_value(v) for v in (*features, label)) for features, label in rows]
    return ("\n".join(lines) + "\n").encode()


def _rows():
    """Rows of exact cells, with and without a masked one, and rows with
    numpy scalars, under every label type."""
    rng = np.random.default_rng(0)
    rows = []
    for i, label in enumerate(LABELS * 4):
        cells = [*EXACT, float(rng.normal()), 3]
        if i % 2:
            cells[5] = float(rng.normal())
        if i % 4 == 3:
            cells[-2:] = NUMPY
        rows.append((tuple(np.roll(np.array(cells, dtype=object), i)), label))
    return rows


def test_write_gives_the_format_value_bytes(tmp_path):
    rows = _rows()
    names = tuple(f"x{j + 1}" for j in range(len(rows[0][0])))
    path = tmp_path / "s.csv"
    instances = [SimpleNamespace(features=f, label=y) for f, y in rows]
    assert write_stream_csv(path, instances, names) == len(rows)
    assert path.read_bytes() == _reference_bytes(rows, names)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["feature", "label"])
def test_write_rejects_non_finite_values(tmp_path, bad, where):
    features, label = (0.5, bad, 3), 1
    if where == "label":
        features, label = (0.5, 2.0, 3), bad
    inst = SimpleNamespace(features=features, label=label)
    with pytest.raises(ValueError, match="stream values must be finite"):
        write_stream_csv(tmp_path / "s.csv", [inst], ("x1", "x2", "x3"))


def _written_stream(tmp_path, empty=()):
    """A written stream of 200 rows over four columns of every magnitude,
    with the feature cells ``empty`` (row, column) masked; its X and y."""
    rng = np.random.default_rng(4)
    X = rng.normal(scale=10.0 ** rng.integers(-300, 300, size=(200, 4)))
    X[0] = (-0.0, 5e-324, 1e16, 0.1)
    y = rng.integers(0, 3, size=200)
    for i, j in empty:
        X[i, j] = np.nan
    rows = [
        (tuple(None if np.isnan(v) else v for v in x.tolist()), int(c)) for x, c in zip(X, y)
    ]
    path = tmp_path / "s.csv"
    instances = [SimpleNamespace(features=f, label=v) for f, v in rows]
    write_stream_csv(path, instances, ("a", "b", "c", "d"))
    return path, X, y


def _reads_back(monkeypatch, path, X, y):
    """``path`` reads back the bits of X and y through one ``loadtxt`` call,
    and the per-cell parse, forced, gives the same bits and mask."""
    calls, load = [], stream_io._load_complete

    def spy(*args):
        calls.append(load(*args))
        return calls[-1]

    monkeypatch.setattr(stream_io, "_load_complete", spy)
    frame = read_stream_csv(path)
    assert calls[0] is not None
    missing = np.isnan(X)
    bits = X.view(np.int64)
    assert np.array_equal(frame.missing_mask, missing)
    assert np.array_equal(frame.X.view(np.int64), bits)
    assert frame.y.tolist() == y.tolist()
    monkeypatch.setattr(stream_io, "_load_complete", lambda *a: None)
    slow = read_stream_csv(path)
    assert np.array_equal(slow.X.view(np.int64), bits)
    assert np.array_equal(slow.missing_mask, missing)
    assert np.array_equal(slow.y, frame.y)


@pytest.mark.parametrize("masked", [False, True], ids=["loadtxt", "per-cell"])
def test_a_written_stream_reads_back_bit_for_bit(tmp_path, monkeypatch, masked):
    """A file with or without an empty field reads back the written bits
    through ``loadtxt``, as the per-cell parse, forced, does."""
    path, X, y = _written_stream(tmp_path, [(7, 0)] if masked else [])
    _reads_back(monkeypatch, path, X, y)


@pytest.mark.parametrize(
    "empty",
    [
        [(3, 0), (150, 0)],
        [(5, 1), (6, 2), (199, 3)],
        [(9, 1), (9, 2)],
        [(11, 0), (11, 1), (12, 1), (12, 2), (12, 3)],
        [(20, 0), (20, 1), (20, 2)],
        [(30, 0), (30, 1), (30, 2), (30, 3)],
    ],
    ids=["first", "middle-and-last", "run-of-2", "runs-at-both-ends", "run-of-3", "all-four"],
)
def test_empty_fields_anywhere_read_back_bit_for_bit(tmp_path, monkeypatch, empty):
    _reads_back(monkeypatch, *_written_stream(tmp_path, empty))


@pytest.mark.parametrize(
    "body, message",
    [
        ("0.5,#1,1", "row 3, column x2: not a number: '#1'"),
        ("0.5,0.25,1#0", "row 3: label is not a number: '1#0'"),
        ("0.5,1.0", "row 3 has 2 fields, expected 3"),
        ("1.0,inf,0", "row 3, column x2: not a finite number: inf"),
        ("1.0,2.0,nan", "row 3: label is not a finite number: nan"),
    ],
    ids=["comment-sign", "trailing-comment", "short-row", "inf-feature", "nan-label"],
)
def test_a_file_without_empty_fields_keeps_the_cell_errors(tmp_path, body, message):
    stream = tmp_path / "s.csv"
    stream.write_text(f"x1,x2,y\n0.5,0.25,1\n{body}\n")
    with pytest.raises(StreamFormatError, match=re.escape(message)):
        read_stream_csv(stream)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0.5,nan,,1", "row 3, column x2: not a finite number: nan"),
        ("0.5,inf,,1", "row 3, column x2: not a finite number: inf"),
        ("0.5,1e999,,1", "row 3, column x2: not a finite number: inf"),
        ("0.5,0.25,,", "row 3: label is missing"),
    ],
    ids=["nan-feature", "inf-feature", "overflow-feature", "empty-label"],
)
def test_a_file_with_empty_fields_keeps_the_cell_errors(tmp_path, body, message):
    stream = tmp_path / "s.csv"
    stream.write_text(f"x1,x2,x3,y\n,0.5,0.25,1\n{body}\n")
    with pytest.raises(StreamFormatError, match=re.escape(message)):
        read_stream_csv(stream)
