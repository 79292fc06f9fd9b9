"""CSV emission and ingestion for streams.

Format: header row ``x1..xk,y``; reals in shortest round-trip decimal;
categories as integers; missing values as empty fields.  Ground-truth
metadata (seed, schedule, concept boundaries) lives in a JSON sidecar next
to the data file, never inside it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "StreamFormatError",
    "format_value",
    "write_stream_csv",
    "read_stream_csv",
    "sidecar_path",
    "write_sidecar",
    "read_sidecar",
]


class StreamFormatError(Exception):
    """The input file is not a parseable stream CSV."""


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("stream values must be finite")
    return repr(v)


# the ``repr``s of these types are their ``format_value`` strings, except
# for None, nan and inf: the only ones that hold an "n"
_EXACT = frozenset({float, int, type(None)})


def _csv_line(cells: tuple) -> str:
    """One CSV line of ``cells``, byte for byte ``format_value`` per cell."""

    if _EXACT.issuperset(map(type, cells)):
        line = ",".join(map(repr, cells))
        if "n" not in line:
            return line
        line = line.replace("None", "")
        if "n" not in line:
            return line
    # other types, and nan or inf, which raises
    return ",".join(map(format_value, cells))


def write_stream_csv(path, instances, feature_names) -> int:
    """Write instances to ``path``; returns the row count."""

    path = Path(path)
    k = len(feature_names)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(feature_names) + ["y"]) + "\n")
        count = 0
        for inst in instances:
            if len(inst.features) != k:
                raise ValueError("instance arity does not match the header")
            fh.write(_csv_line((*inst.features, inst.label)) + "\n")
            count += 1
    return count


def read_stream_csv(path):
    """Parse a headered numeric CSV into a StreamFrame.

    The last column is the label; empty fields become NaN and are flagged in
    the missing mask.  The task is the one the metadata sidecar records;
    without a sidecar, integer labels mean classification.  Works on any
    numeric CSV with a header row, not just files this package wrote.
    """

    from .generator import StreamFrame

    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    lines = [line for line in lines if line != ""]
    if not lines:
        raise StreamFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2:
        raise StreamFormatError(f"{path}: need at least one feature column and a label")
    k = len(header) - 1
    n = len(lines) - 1
    X = np.full((n, k), np.nan)
    mask = np.zeros((n, k), dtype=bool)
    y = np.empty(n)
    data = _load_complete(lines[1:], k)
    if data is not None:
        X[:], y[:] = data[:, :-1], data[:, -1]
        # only a filled empty field reads as NaN there
        np.isnan(X, out=mask)
    # the cell-by-cell parse, which names the row and column of a bad cell
    for i, line in enumerate(lines[1:] if data is None else ()):
        parts = line.split(",")
        if len(parts) != k + 1:
            raise StreamFormatError(
                f"{path}: row {i + 2} has {len(parts)} fields, expected {k + 1}"
            )
        for j, raw in enumerate(parts[:-1]):
            if raw == "":
                mask[i, j] = True
                continue
            try:
                X[i, j] = float(raw)
            except ValueError:
                raise StreamFormatError(
                    f"{path}: row {i + 2}, column {header[j]}: not a number: {raw!r}"
                ) from None
        if parts[-1] == "":
            raise StreamFormatError(f"{path}: row {i + 2}: label is missing")
        try:
            y[i] = float(parts[-1])
        except ValueError:
            raise StreamFormatError(
                f"{path}: row {i + 2}: label is not a number: {parts[-1]!r}"
            ) from None
    # float() also parses nan and inf, which the writer never emits
    bad = ~(np.isfinite(X) | mask)
    if bad.any():
        i, j = divmod(int(bad.argmax()), k)
        raise StreamFormatError(
            f"{path}: row {i + 2}, column {header[j]}: not a finite number: {float(X[i, j])!r}"
        )
    bad_y = ~np.isfinite(y)
    if bad_y.any():
        i = int(bad_y.argmax())
        raise StreamFormatError(
            f"{path}: row {i + 2}: label is not a finite number: {float(y[i])!r}"
        )
    integral = bool((y == np.round(y)).all())
    task = _sidecar_task(path)
    if task is None:
        task = "classification" if n and integral else "regression"
    if task == "classification":
        if not integral:
            raise StreamFormatError(f"{path}: classification labels must be integers")
        y = y.astype(int)
    return StreamFrame(
        X=X,
        y=y,
        feature_names=tuple(header[:-1]),
        task=task,
        missing_mask=mask,
        intervened=[()] * n,
        concept_ids=[""] * n,
    )


def _load_complete(rows: list[str], k: int) -> np.ndarray | None:
    """The ``(n, k + 1)`` numbers of ``rows`` from one ``np.loadtxt`` call,
    which parses a cell to the bits ``float()`` gives, with NaN for an empty
    feature field; None for a file with an ``n`` or ``N`` (a nan, inf or
    infinity cell, which the writer never emits) or any cell the call
    rejects, an empty label among them, so that those files keep the
    per-cell parse and its messages.  ``comments=None`` keeps a ``#`` an
    error rather than the start of a dropped comment.
    """

    body = "\n".join(rows)
    if not rows or "n" in body or "N" in body:
        return None
    if ",," in body or any(row[0] == "," for row in rows):
        # two passes fill every run of empty fields, then a leading one
        rows = [r.replace(",,", ",nan,").replace(",,", ",nan,") if ",," in r else r for r in rows]
        rows = ["nan" + r if r[0] == "," else r for r in rows]
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(rows), k + 1) else None


def _sidecar_task(path: Path) -> str | None:
    """The task recorded in the stream's sidecar, or None without a sidecar."""

    side = sidecar_path(path)
    if not side.exists():
        return None
    try:
        task = read_sidecar(path).get("task")
    except (ValueError, AttributeError):  # not JSON, or not an object
        task = None
    if task not in ("classification", "regression"):
        raise StreamFormatError(f"{side}: the sidecar records no valid task")
    return task


def sidecar_path(out_path) -> Path:
    return Path(out_path).with_suffix(".meta.json")


def write_sidecar(out_path, meta: dict) -> Path:
    side = sidecar_path(out_path)
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return side


def read_sidecar(out_path) -> dict:
    with open(sidecar_path(out_path), "r", encoding="utf-8") as fh:
        return json.load(fh)
