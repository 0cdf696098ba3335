"""CSV reading and writing for frames.

The format is plain RFC-4180-ish CSV via the stdlib ``csv`` module.  On
read, columns are type-inferred: values parse as int, then float, then
bool literals (``true``/``false``), falling back to strings; empty cells
are missing.

The reader works a column at a time and parses each distinct cell once.
The rows are transposed in one ``zip`` (rows short of the header's width
are padded with missing cells first).  For each column,
``dict.fromkeys`` lists its distinct cells in first-appearance order;
inference runs on that list — one bulk numpy cast per homogeneous
column, a per-cell fallback only for mixed ones — and every row then
gathers its cell's parsed value by code.  Measurement exports repeat a
handful of ASNs, cities and paths across ~10^5 rows, so the parse cost
follows the number of distinct cells, not rows; a column whose every
cell is distinct is cast as it stands.  Writing formats each column
as one vectorized cast, so the ``simulate → import`` round-trip scales
with columns, not cells.

Rows wider than the header are an error (their extra cells would
otherwise vanish silently); underscore number literals like ``1_000``,
which Python's ``int()`` accepts but no CSV writer emits, stay strings.
An all-int column beyond int64 reads as float.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import FrameError
from repro.frames.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJECT,
    Column,
    _coerce,
    infer_kind,
)
from repro.frames.frame import Frame


def _parse_cell(text: str | None) -> Any:
    if text is None or text == "":
        return None
    if "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            pass
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    return text


def _parse_distinct(cells: list[str | None]) -> tuple[str, np.ndarray]:
    """Infer the kind of a column from its distinct raw cells and parse them.

    Returns ``(kind, parsed)`` with ``parsed[i]`` the value of
    ``cells[i]`` (NaN or ``None`` for a missing cell).  The stages
    cast every present cell or none, so running them on the distinct
    cells yields the kind the whole column would infer: homogeneous
    int, float and bool columns take one numpy cast, and anything
    mixed falls back to the per-cell parser (object kind, inferred
    like the historical row-wise reader).
    """
    missing = np.array([c is None or c == "" for c in cells], dtype=bool)
    present = [c for c in cells if c is not None and c != ""]
    if not present:
        return KIND_OBJECT, np.full(len(cells), None, dtype=object)
    any_missing = len(present) < len(cells)
    # numpy's string-to-number casts accept underscore literals ("1_000")
    # that no CSV writer emits; any underscore disqualifies the bulk
    # numeric stages (the per-cell parser rejects them too).
    if "_" not in "".join(present):
        strings = np.asarray(present)
        if not any_missing:
            try:
                return KIND_INT, strings.astype(np.int64)
            except (ValueError, OverflowError):
                pass  # not all ints, or beyond int64: try float
        try:
            floats = strings.astype(np.float64)
        except ValueError:
            floats = None
        if floats is not None:
            parsed = np.full(len(cells), np.nan)
            parsed[~missing] = floats
            return KIND_FLOAT, parsed
    lowered = [c.lower() for c in present]
    if all(c in ("true", "false") for c in lowered):
        bools = [c == "true" for c in lowered]
        if not any_missing:
            return KIND_BOOL, np.array(bools, dtype=bool)
        parsed = np.full(len(cells), None, dtype=object)
        parsed[~missing] = bools
        return KIND_OBJECT, parsed
    values = [_parse_cell(c) for c in cells]
    kind = infer_kind(values)
    try:
        return kind, _coerce(values, kind)
    except OverflowError:  # an int beyond int64: keep the Python ints
        return KIND_OBJECT, _coerce(values, KIND_OBJECT)


def _parse_column(name: str, raw: Sequence[str | None]) -> Column:
    """Parse one column of raw CSV cells, each distinct cell once.

    Missing cells are ``None``/``""``.  The distinct cells, in
    first-appearance order, go through :func:`_parse_distinct`; each
    row then gathers its cell's parsed value by code.  A column whose
    every cell is distinct skips the codes and is cast as it stands.
    """
    n = len(raw)
    cells = list(dict.fromkeys(raw))
    kind, parsed = _parse_distinct(cells)
    if len(cells) < n:
        index = {c: i for i, c in enumerate(cells)}
        codes = np.fromiter(map(index.__getitem__, raw), dtype=np.intp, count=n)
        parsed = parsed[codes]
    return Column(name, parsed, kind=kind)


def read_csv(path: str | Path) -> Frame:
    """Read a CSV file with a header row into a frame."""
    with open(path, newline="") as f:
        return read_csv_text(f.read())


def read_csv_text(text: str) -> Frame:
    """Parse CSV content (header row required) into a frame.

    Rows with fewer cells than the header are padded with missing
    values; rows with *more* cells raise :class:`FrameError` (the
    surplus cells have no column to land in).
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return Frame()
    header, body = rows[0], rows[1:]
    width = len(header)
    if not {*map(len, body)} <= {width}:
        padded: list[list[str | None]] = []
        for line_no, row in enumerate(body, start=2):
            if not row:
                continue
            if len(row) > width:
                raise FrameError(
                    f"CSV row {line_no} has {len(row)} cells but the header "
                    f"has {width} columns"
                )
            padded.append(row + [None] * (width - len(row)))
        body = padded
    raw = list(zip(*body)) or [()] * width
    return Frame([_parse_column(name, cells) for name, cells in zip(header, raw)])


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        if np.isnan(value):
            return ""
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _format_column(col: Column) -> Any:
    """One column of CSV cell strings, cast in bulk where possible.

    ``float64 -> str`` via numpy's unicode cast is digit-for-digit
    identical to ``repr(float(v))`` (shortest round-trip repr), so float
    columns need no Python-level loop.
    """
    if col.kind == KIND_FLOAT:
        out = col.values.astype("U32")
        nan_mask = np.isnan(col.values)
        if nan_mask.any():
            out[nan_mask] = ""
        return out
    if col.kind == KIND_INT:
        return col.values.astype("U21")
    if col.kind == KIND_BOOL:
        return np.where(col.values, "true", "false")
    return [_format_cell(v) for v in col.values]


def write_csv(frame: Frame, path: str | Path) -> None:
    """Write *frame* to a CSV file with a header row."""
    with open(path, "w", newline="") as f:
        f.write(to_csv_text(frame))


def to_csv_text(frame: Frame) -> str:
    """Render *frame* as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(frame.column_names)
    columns = [_format_column(frame.column(n)) for n in frame.column_names]
    if columns:
        writer.writerows(zip(*columns))
    return buf.getvalue()
