"""Chunked frame construction: the columnar fast path's append API.

Building a million-row :class:`~repro.frames.frame.Frame` row by row
(``Frame.from_records``) spends all its time in per-row Python work.
The builders here accept *chunks* — numpy arrays of any length — and
defer everything to a single ``np.concatenate`` per column at seal
time, so the per-row cost is amortised away entirely.

- :class:`ColumnBuilder` accumulates chunks for one column and unifies
  kinds across chunks with the same rules as :meth:`Column.concat`
  (numeric mixes widen to float, anything else falls back to object).
- :class:`FrameBuilder` manages one :class:`ColumnBuilder` per column
  and enforces that every chunk covers the same columns with equal
  lengths, so the sealed frame is rectangular by construction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import ColumnMismatchError, FrameError
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

_NUMERIC_KINDS = frozenset((KIND_INT, KIND_FLOAT, KIND_BOOL))


def _unify_kinds(a: str, b: str) -> str:
    """The kind a concatenation of an *a*-chunk and a *b*-chunk carries."""
    if a == b:
        return a
    if a in _NUMERIC_KINDS and b in _NUMERIC_KINDS:
        return KIND_FLOAT
    return KIND_OBJECT


class ColumnBuilder:
    """Accumulates value chunks for one column; concatenates once at seal.

    Parameters
    ----------
    name:
        Column name for the sealed :class:`Column`.
    kind:
        Optional declared kind.  When omitted, the kind is inferred per
        chunk and unified across chunks (int+float -> float, mixed ->
        object).  When given, every chunk is coerced to it immediately,
        so a non-conforming chunk fails at append time, not seal time.
    """

    def __init__(self, name: str, kind: str | None = None) -> None:
        self.name = name
        self._declared = kind
        self._kind: str | None = kind
        self._chunks: list[np.ndarray] = []
        self._chunk_kinds: list[str] = []

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)

    @property
    def kind(self) -> str | None:
        """Unified kind so far (None until the first chunk, unless declared)."""
        return self._kind

    def append_chunk(self, values: Sequence[Any] | np.ndarray) -> None:
        """Append one chunk of values (coerced, never per-row Python later)."""
        self.commit_chunk(*self.prepare_chunk(values))

    def prepare_chunk(
        self, values: Sequence[Any] | np.ndarray
    ) -> tuple[np.ndarray, str]:
        """Coerce and validate one chunk without storing it.

        Everything that can fail — kind coercion, shape checks — happens
        here, so :class:`FrameBuilder` can prepare a whole row-chunk
        before committing any column of it: a bad chunk then leaves the
        builder exactly as it was instead of half-appended (which would
        silently misalign every later row).
        """
        kind = self._declared if self._declared is not None else infer_kind(values)
        try:
            chunk = _coerce(values, kind)
        except (TypeError, ValueError) as exc:
            raise FrameError(
                f"chunk for column {self.name!r} does not coerce to "
                f"declared kind {kind!r}: {exc}"
            ) from exc
        if chunk.ndim != 1:
            raise FrameError(
                f"chunk for column {self.name!r} must be 1-D, got shape {chunk.shape}"
            )
        return chunk, kind

    def commit_chunk(self, chunk: np.ndarray, kind: str) -> None:
        """Store a chunk returned by :meth:`prepare_chunk` (cannot fail)."""
        self._chunks.append(chunk)
        self._chunk_kinds.append(kind)
        self._kind = kind if self._kind is None else _unify_kinds(self._kind, kind)

    def build(self) -> Column:
        """Seal: one concatenate (plus kind widening when chunks disagreed)."""
        kind = self._kind if self._kind is not None else KIND_OBJECT
        if not self._chunks:
            return Column(self.name, np.empty(0, dtype=object), kind=kind)
        if len(self._chunks) == 1 and self._chunk_kinds[0] == kind:
            return Column(self.name, self._chunks[0], kind=kind)
        parts = [
            chunk
            if chunk_kind == kind
            else Column(self.name, chunk, kind=chunk_kind).astype(kind).values
            for chunk, chunk_kind in zip(self._chunks, self._chunk_kinds)
        ]
        return Column(self.name, np.concatenate(parts), kind=kind)


class FrameBuilder:
    """Accumulates equal-length column chunks; seals into a :class:`Frame`.

    Parameters
    ----------
    columns:
        Column names in display order.  When omitted, the first chunk's
        key order fixes the schema; later chunks must match it exactly.
    kinds:
        Optional ``{name: kind}`` declarations forwarded to the per-column
        builders.
    """

    def __init__(
        self,
        columns: Sequence[str] | None = None,
        kinds: Mapping[str, str] | None = None,
    ) -> None:
        self._kinds = dict(kinds or {})
        self._builders: dict[str, ColumnBuilder] | None = None
        self._order: list[str] = []
        self._rows = 0
        if columns is not None:
            self._init_schema(list(columns))

    def _init_schema(self, names: list[str]) -> None:
        if len(set(names)) != len(names):
            raise FrameError(f"duplicate column names in {names}")
        self._order = names
        self._builders = {
            name: ColumnBuilder(name, self._kinds.get(name)) for name in names
        }

    @property
    def num_rows(self) -> int:
        """Rows appended so far."""
        return self._rows

    @property
    def column_names(self) -> list[str]:
        """Schema (empty until declared or first chunk)."""
        return list(self._order)

    def append_chunk(self, chunk: Mapping[str, Sequence[Any] | np.ndarray]) -> None:
        """Append one rectangular chunk: every column, all equal lengths."""
        if self._builders is None:
            self._init_schema(list(chunk.keys()))
        assert self._builders is not None
        missing = [n for n in self._order if n not in chunk]
        extra = [n for n in chunk if n not in self._builders]
        if missing or extra:
            raise FrameError(
                f"chunk columns do not match schema {self._order}: "
                f"missing {missing}, unexpected {extra}"
            )
        lengths = {name: len(chunk[name]) for name in self._order}
        distinct = set(lengths.values())
        if len(distinct) > 1:
            raise ColumnMismatchError(
                f"chunk columns have mismatched lengths {lengths}"
            )
        # Two-phase append: prepare (which is where coercion can fail)
        # every column first, then commit all of them.  A chunk that
        # dies mid-coercion must not leave some columns longer than
        # others — that misalignment would only surface rows later.
        staged = [
            (name, self._builders[name].prepare_chunk(chunk[name]))
            for name in self._order
        ]
        for name, (values, kind) in staged:
            self._builders[name].commit_chunk(values, kind)
        self._rows += distinct.pop() if distinct else 0

    def build(self) -> Frame:
        """Seal every column (one concatenate each) and return the frame."""
        if self._builders is None:
            return Frame()
        return Frame([self._builders[name].build() for name in self._order])
