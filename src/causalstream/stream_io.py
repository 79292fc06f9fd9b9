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


def write_stream_csv(path, instances, feature_names) -> int:
    """Write instances to ``path``; returns the row count."""

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(feature_names) + ["y"]) + "\n")
        count = 0
        for inst in instances:
            if len(inst.features) != len(feature_names):
                raise ValueError("instance arity does not match the header")
            fields = [format_value(v) for v in inst.features]
            fields.append(format_value(inst.label))
            fh.write(",".join(fields) + "\n")
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
    for i, line in enumerate(lines[1:]):
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
    integral = bool(np.allclose(y, np.round(y)))
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
