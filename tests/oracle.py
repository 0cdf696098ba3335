"""References the parity tests compare the shipped paths against.

Each reference is the straightforward form of an algorithm the package
runs in a faster shape:

- :func:`oracle_study` — the batched-fit study.  The study has one fit
  path: a planning pass batch-factors every robust unit's donor matrix
  and each task carries its unit's prefactor into
  :func:`~repro.pipeline.study._analyse_unit`.  The oracle runs the same
  stages — assignment, panel, plan, each with its fault point — and
  then fits every planned task with ``prefactor=None``, so each unit
  takes the private factorization inside
  :func:`~repro.synthcontrol.placebo.placebo_test`.
- :func:`oracle_read_csv_text` — the CSV reader, parsing every cell of
  every column (the package parses each distinct cell once).
- :func:`oracle_normalise_measurements` — the importer's normaliser,
  deriving each column row by row through :meth:`Frame.derive` (the
  package derives them column-wise).
- :func:`factor_donor_matrix` and :func:`denoise_without_column` — one
  donor matrix's impute-plus-SVD and one leave-one-out downdate, each a
  2-D SVD of its own (the package batches both:
  :func:`~repro.synthcontrol.robust.factor_donor_matrices` and
  :func:`~repro.synthcontrol.robust.denoise_leave_one_out`).

:func:`assert_frames_identical` is the comparison those parity tests
use.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any

import numpy as np

from repro.chaos.runtime import fault_point
from repro.errors import DonorPoolError, FrameError
from repro.frames.column import KIND_BOOL, KIND_FLOAT, KIND_INT, KIND_OBJECT, Column
from repro.frames.frame import Frame
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.importer import REQUIRED_COLUMNS, detect_crossings_from_hops
from repro.pipeline.study import (
    StudyResult,
    StudyRow,
    _analyse_unit,
    _UnitTask,
    prepare_unit_plan,
)
from repro.synthcontrol.robust import (
    DonorFactorization,
    _check_energy,
    _impute_columns,
    _rank_for_energy,
    _rescale_denoised,
    _validate_donor_matrix,
)

FIT_KWARGS = (("energy", 0.99), ("ridge", 1e-2))


def oracle_study(
    frame, ixp_name: str, *, max_placebos: int | None = None
) -> StudyResult:
    """``run_ixp_study(frame, ixp_name)``'s result, one private SVD per unit."""
    assignment = assign_treatment(frame, ixp_name)
    assignment = fault_point("study.assignment", key=ixp_name, value=assignment)
    panel = rtt_panel(frame, period="day", outcome="rtt_ms")
    panel = fault_point("study.panel", key=ixp_name, value=panel)
    plan = prepare_unit_plan(
        panel, assignment, max_placebos=max_placebos, fit_kwargs=FIT_KWARGS
    )
    outcomes = [
        _analyse_unit(step) if isinstance(step, _UnitTask) else step for step in plan
    ]
    return StudyResult(
        rows=tuple(o for o in outcomes if isinstance(o, StudyRow)),
        assignment=assignment,
        skipped=tuple(o for o in outcomes if not isinstance(o, StudyRow)),
    )


def factor_donor_matrix(matrix: np.ndarray) -> DonorFactorization:
    """Impute and factor a donor matrix once, for repeated de-noising."""
    matrix = _validate_donor_matrix(matrix)
    filled, col_means, finite_counts = _impute_columns(matrix)
    u, s, vt = np.linalg.svd(filled, full_matrices=False)
    return DonorFactorization(
        filled=filled,
        col_means=col_means,
        finite_counts=finite_counts,
        u=u,
        s=s,
        vt=vt,
    )


def denoise_without_column(
    fact: DonorFactorization, col: int, energy: float = 0.99, min_rank: int = 1
) -> tuple[np.ndarray, int]:
    """De-noise the donor matrix with column *col* deleted, by downdating.

    Deleting a column of ``A = U S Vt`` leaves ``A' = U (S Vt')`` with
    ``Vt'`` the corresponding column of ``Vt`` removed, so the SVD of
    ``A'`` follows from the SVD of the small ``k x (J-1)`` core
    ``S Vt'`` — the shared ``T x J`` SVD is never recomputed.  The
    placebo loop calls this once per donor instead of running a full
    de-noise per leave-one-out matrix.
    """
    _check_energy(energy)
    j = fact.n_donors
    if not 0 <= col < j:
        raise DonorPoolError(f"column {col} out of range for {j} donors")
    if j < 2:
        raise DonorPoolError("cannot delete the only donor column")
    col_means = np.delete(fact.col_means, col)
    if fact.s.sum() == 0:
        return np.delete(fact.filled, col, axis=1), 0
    core = fact.s[:, None] * np.delete(fact.vt, col, axis=1)
    u_core, s_sub, vt_sub = np.linalg.svd(core, full_matrices=False)
    if s_sub.sum() == 0:
        return np.delete(fact.filled, col, axis=1), 0
    rank = _rank_for_energy(s_sub, energy, min_rank)
    u_sub = fact.u @ u_core[:, :rank]
    denoised = (u_sub * s_sub[:rank]) @ vt_sub[:rank]
    observed = int(fact.finite_counts.sum() - fact.finite_counts[col])
    p_obs = observed / (fact.n_times * (j - 1))
    return _rescale_denoised(denoised, col_means, p_obs), rank


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


def _parse_column(name: str, raw: list[str | None]) -> Column:
    """One column of raw CSV cells, every cell parsed (no distinct-cell pass)."""
    n = len(raw)
    missing = np.array([c is None or c == "" for c in raw], dtype=bool)
    present = [raw[i] for i in np.flatnonzero(~missing)]
    if not present:
        return Column(name, [None] * n)
    if not any("_" in c for c in present):
        strings = np.asarray(present)
        if not missing.any():
            try:
                return Column(name, strings.astype(np.int64), kind=KIND_INT)
            except ValueError:
                pass
        try:
            parsed = strings.astype(np.float64)
        except ValueError:
            parsed = None
        if parsed is not None:
            values = np.empty(n)
            values.fill(np.nan)
            values[~missing] = parsed
            return Column(name, values, kind=KIND_FLOAT)
    lowered = [c.lower() for c in present]
    if all(c in ("true", "false") for c in lowered):
        bools = np.array([c == "true" for c in lowered], dtype=bool)
        if not missing.any():
            return Column(name, bools, kind=KIND_BOOL)
        values_obj: list[Any] = [None] * n
        for i, b in zip(np.flatnonzero(~missing), bools):
            values_obj[i] = bool(b)
        return Column(name, values_obj, kind=KIND_OBJECT)
    return Column(name, [_parse_cell(c) for c in raw])


def oracle_read_csv_text(text: str) -> Frame:
    """``read_csv_text(text)``, padding row by row and parsing every cell."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return Frame()
    header = rows[0]
    width = len(header)
    raw: list[list[str | None]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) > width:
            raise FrameError(
                f"CSV row {line_no} has {len(row)} cells but the header "
                f"has {width} columns"
            )
        if len(row) < width:
            row = row + [None] * (width - len(row))
        raw.append(row)
    return Frame([_parse_column(name, [r[j] for r in raw]) for j, name in enumerate(header)])


def oracle_normalise_measurements(raw: Frame, ixp_prefixes=None) -> Frame:
    """``normalise_measurements(raw, ixp_prefixes)``, one row dict per derived cell."""
    missing = [c for c in REQUIRED_COLUMNS if c not in raw]
    if missing:
        raise FrameError(
            f"measurement import is missing required columns {missing}; "
            f"have {raw.column_names}"
        )
    for col in ("time_hour", "rtt_ms"):
        raw.numeric(col)

    out = raw.drop_missing(["asn", "city", "time_hour", "rtt_ms"])
    if out.num_rows == 0:
        raise FrameError("no complete measurement rows after dropping missing")

    out = out.derive("unit", lambda r: f"AS{int(r['asn'])}/{r['city']}")
    out = out.derive("day", lambda r: int(float(r["time_hour"]) // 24))

    if "ixps" not in out:
        if ixp_prefixes and "hop_ips" in out:
            out = out.derive(
                "ixps",
                lambda r: ",".join(
                    detect_crossings_from_hops(r.get("hop_ips") or "", ixp_prefixes)
                ),
            )
        else:
            out = out.with_column("ixps", [""] * out.num_rows)
    out = out.derive("crosses_ixp", lambda r: bool(r["ixps"]))

    if "trigger" not in out:
        out = out.with_column("trigger", ["unknown"] * out.num_rows)
    if "server_site" not in out:
        out = out.with_column("server_site", ["default"] * out.num_rows)
    if "as_path" not in out:
        out = out.with_column("as_path", [""] * out.num_rows)
    return out


def _same_value(a: Any, b: Any) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def assert_frames_identical(got: Frame, want: Frame) -> None:
    """Equal as frames, and equal cell by cell including Python types.

    ``Frame.__eq__`` compares object columns with ``==``, which treats
    ``1``, ``1.0`` and ``True`` alike and NaN as unequal to itself; a
    parity check must see the reference's exact objects.
    """
    assert got.column_names == want.column_names
    for name in want.column_names:
        g, w = got.column(name), want.column(name)
        assert g.kind == w.kind, name
        assert g.values.dtype == w.values.dtype, name
        assert len(g) == len(w), name
        if w.kind == KIND_FLOAT:
            np.testing.assert_array_equal(g.values, w.values)
        elif w.values.dtype == object:
            assert all(_same_value(a, b) for a, b in zip(g.values, w.values)), name
        else:
            assert np.array_equal(g.values, w.values), name
