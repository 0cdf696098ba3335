"""Differential fuzz of the CSV reader against the per-cell reference.

:func:`repro.frames.read_csv_text` parses each distinct cell of a
column once and gathers the parsed values back by code;
:func:`tests.oracle.oracle_read_csv_text` parses every cell.  On any
CSV text — mixed int/float/bool/string cells, underscore literals,
empty cells, short rows, blank lines, quoted commas and newlines, in
low-cardinality and all-distinct columns — the two must produce the
same frame (same column kinds, same values, same Python types in
object columns) or raise the same :class:`FrameError`.
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError
from repro.frames import read_csv_text
from repro.frames.column import KIND_FLOAT
from tests.oracle import assert_frames_identical, oracle_read_csv_text

cells = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["true", "false", "True", "FALSE", "", "1_000", "1_0.5", "2_x", " 7", "+3",
         "1e5", "nan", "-inf", "-0.0", "0", "00", "١٢", "²"]
    ),
    st.text(alphabet="ab ,\n\"_.1-", max_size=6),
)

@st.composite
def csv_texts(draw, *, allow_wide: bool = False) -> str:
    width = draw(st.integers(min_value=1, max_value=4))
    header = draw(
        st.lists(st.text(alphabet="abcxyz_", min_size=1, max_size=3),
                 min_size=width, max_size=width, unique=True)
    )
    # A column draws its cells from a small pool (low cardinality) or
    # from the whole strategy (mostly distinct).
    pools = [
        draw(st.lists(cells, min_size=1, max_size=3)) if draw(st.booleans()) else None
        for _ in range(width)
    ]
    n_rows = draw(st.integers(min_value=0, max_value=25))
    rows = []
    for _ in range(n_rows):
        row = [
            draw(st.sampled_from(pool)) if pool is not None else draw(cells)
            for pool in pools
        ]
        shape = draw(st.sampled_from(["full"] * 6 + ["short", "blank"]
                                     + (["wide"] if allow_wide else [])))
        if shape == "short":
            row = row[: draw(st.integers(min_value=1, max_value=width))]
        elif shape == "blank":
            row = []
        elif shape == "wide":
            row = row + [draw(cells)]
        rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _outcome(read, text):
    try:
        return read(text), None
    except FrameError as exc:
        return None, str(exc)


def _reference(text):
    """The reference's outcome, or ``None`` where it crashes untyped.

    The per-cell reference casts an all-int column to int64 and so
    raises ``OverflowError`` on an integer beyond int64; the reader
    reads such a column as float (or as Python ints when the column
    is mixed).  There the reader only has to avoid raising anything
    but :class:`FrameError`.
    """
    try:
        return _outcome(oracle_read_csv_text, text)
    except OverflowError:
        return None


def _check_against_reference(text):
    got, got_err = _outcome(read_csv_text, text)
    reference = _reference(text)
    if reference is None:
        return
    want, want_err = reference
    assert got_err == want_err
    if want is not None:
        assert_frames_identical(got, want)


@given(csv_texts())
@settings(max_examples=300, deadline=None)
def test_reader_matches_per_cell_reference(text):
    _check_against_reference(text)


@given(csv_texts(allow_wide=True))
@settings(max_examples=150, deadline=None)
def test_over_wide_rows_raise_frame_error_only(text):
    width = len(next(csv.reader(io.StringIO(text))))
    if any(len(row) > width for row in csv.reader(io.StringIO(text))):
        with pytest.raises(FrameError, match="cells but the header has"):
            read_csv_text(text)
        with pytest.raises(FrameError, match="cells but the header has"):
            oracle_read_csv_text(text)
    else:
        _check_against_reference(text)


def test_integers_beyond_int64_read_without_crashing():
    big = read_csv_text("a\n9223372036854775808\n1\n")
    assert big.column("a").kind == KIND_FLOAT
    assert big["a"].tolist() == [9223372036854775808.0, 1.0]
    mixed = read_csv_text("a\n99999999999999999999\n١٢\n")
    assert mixed.column("a").to_list() == [99999999999999999999, 12]


class TestDistinctCellPass:
    def test_low_cardinality_column_parses_each_cell_once(self, monkeypatch):
        from repro.frames import io as frames_io

        seen: list[str] = []
        real = frames_io._parse_cell

        def counting(text):
            seen.append(text)
            return real(text)

        monkeypatch.setattr(frames_io, "_parse_cell", counting)
        text = "city\n" + "Edenvale\nDurban\n7\n" * 500
        frame = read_csv_text(text)
        assert sorted(seen) == ["7", "Durban", "Edenvale"]
        assert frame.column("city").to_list()[:3] == ["Edenvale", "Durban", 7]
        assert frame.num_rows == 1500

    def test_all_distinct_and_repeated_columns_side_by_side(self):
        body = "".join(f"{i}.5,{i % 3},x{i % 2}\n" for i in range(50))
        text = "f,i,s\n" + body
        assert_frames_identical(read_csv_text(text), oracle_read_csv_text(text))
