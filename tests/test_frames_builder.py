"""Unit tests for repro.frames.builder (the chunked append API)."""

import numpy as np
import pytest

from repro.errors import ColumnMismatchError, FrameError
from repro.frames import (
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJECT,
    ColumnBuilder,
    FrameBuilder,
)


class TestColumnBuilder:
    def test_single_chunk_roundtrip(self):
        b = ColumnBuilder("x")
        b.append_chunk(np.array([1.0, 2.0, 3.0]))
        col = b.build()
        assert col.name == "x"
        assert col.kind == KIND_FLOAT
        np.testing.assert_array_equal(col.values, [1.0, 2.0, 3.0])

    def test_multiple_chunks_concatenate(self):
        b = ColumnBuilder("x")
        b.append_chunk([1, 2])
        b.append_chunk([3, 4, 5])
        col = b.build()
        assert col.kind == KIND_INT
        np.testing.assert_array_equal(col.values, [1, 2, 3, 4, 5])
        assert len(b) == 5

    def test_empty_builder_seals_to_empty_object_column(self):
        col = ColumnBuilder("x").build()
        assert len(col.values) == 0
        assert col.kind == KIND_OBJECT

    def test_empty_builder_with_declared_kind(self):
        col = ColumnBuilder("x", kind=KIND_FLOAT).build()
        assert len(col.values) == 0
        assert col.kind == KIND_FLOAT

    def test_mixed_numeric_chunks_widen_to_float(self):
        b = ColumnBuilder("x")
        b.append_chunk([1, 2])  # int chunk
        b.append_chunk([3.5])  # float chunk
        col = b.build()
        assert col.kind == KIND_FLOAT
        np.testing.assert_array_equal(col.values, [1.0, 2.0, 3.5])

    def test_numeric_plus_object_falls_back_to_object(self):
        b = ColumnBuilder("x")
        b.append_chunk([1, 2])
        b.append_chunk(["a"])
        col = b.build()
        assert col.kind == KIND_OBJECT
        assert list(col.values) == [1, 2, "a"]

    def test_declared_kind_coerces_every_chunk(self):
        b = ColumnBuilder("x", kind=KIND_FLOAT)
        b.append_chunk([1, 2])  # ints coerce immediately
        col = b.build()
        assert col.kind == KIND_FLOAT
        assert col.values.dtype == np.float64

    def test_2d_chunk_rejected(self):
        b = ColumnBuilder("x")
        with pytest.raises(FrameError):
            b.append_chunk(np.zeros((2, 2)))


class TestFrameBuilder:
    def test_empty_builder_seals_to_empty_frame(self):
        frame = FrameBuilder().build()
        assert frame.num_rows == 0
        assert frame.column_names == []

    def test_declared_schema_empty_frame_keeps_columns(self):
        frame = FrameBuilder(["a", "b"]).build()
        assert frame.column_names == ["a", "b"]
        assert frame.num_rows == 0

    def test_chunks_accumulate(self):
        b = FrameBuilder(["x", "label"])
        b.append_chunk({"x": np.array([1.0, 2.0]), "label": ["a", "b"]})
        b.append_chunk({"x": np.array([3.0]), "label": ["c"]})
        assert b.num_rows == 3
        frame = b.build()
        assert frame.num_rows == 3
        np.testing.assert_array_equal(frame["x"], [1.0, 2.0, 3.0])
        assert list(frame["label"]) == ["a", "b", "c"]

    def test_schema_fixed_by_first_chunk(self):
        b = FrameBuilder()
        b.append_chunk({"x": [1], "y": [2]})
        assert b.column_names == ["x", "y"]
        with pytest.raises(FrameError):
            b.append_chunk({"x": [1], "z": [2]})

    def test_missing_column_rejected(self):
        b = FrameBuilder(["x", "y"])
        with pytest.raises(FrameError):
            b.append_chunk({"x": [1]})

    def test_extra_column_rejected(self):
        b = FrameBuilder(["x"])
        with pytest.raises(FrameError):
            b.append_chunk({"x": [1], "y": [2]})

    def test_length_mismatch_rejected(self):
        b = FrameBuilder(["x", "y"])
        with pytest.raises(ColumnMismatchError):
            b.append_chunk({"x": [1, 2], "y": [3]})

    def test_duplicate_schema_rejected(self):
        with pytest.raises(FrameError):
            FrameBuilder(["x", "x"])

    def test_declared_kinds_forwarded(self):
        b = FrameBuilder(["x"], kinds={"x": KIND_FLOAT})
        b.append_chunk({"x": [1, 2]})
        frame = b.build()
        assert frame.column("x").kind == KIND_FLOAT

    def test_mixed_kind_chunks_widen_in_frame(self):
        b = FrameBuilder(["x"])
        b.append_chunk({"x": [1, 2]})
        b.append_chunk({"x": [2.5]})
        frame = b.build()
        assert frame.column("x").kind == KIND_FLOAT

    def test_failed_chunk_leaves_builder_unchanged(self):
        # A chunk that fails validation must not partially land: a later
        # valid chunk builds an aligned frame, not one with orphaned
        # values in some columns.
        b = FrameBuilder(["a", "b"], kinds={"a": KIND_FLOAT, "b": KIND_FLOAT})
        b.append_chunk({"a": [1.0], "b": [2.0]})
        with pytest.raises(FrameError):
            b.append_chunk({"a": [3.0], "b": ["not a float"]})
        assert b.num_rows == 1
        b.append_chunk({"a": [4.0], "b": [5.0]})
        frame = b.build()
        assert frame.num_rows == 2
        np.testing.assert_array_equal(frame["a"], [1.0, 4.0])
        np.testing.assert_array_equal(frame["b"], [2.0, 5.0])

    def test_error_names_missing_and_extra_columns(self):
        b = FrameBuilder(["x", "y"])
        with pytest.raises(FrameError, match="missing.*'y'"):
            b.append_chunk({"x": [1], "z": [2]})
        with pytest.raises(FrameError, match="unexpected.*'z'"):
            b.append_chunk({"x": [1], "y": [2], "z": [3]})
