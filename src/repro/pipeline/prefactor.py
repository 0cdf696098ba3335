"""Cross-unit batched fit planning (the fit half of the batched engine).

Every treated unit in a study screens the same donor pool and therefore
produces the same ``(T, J)`` donor-matrix shape.  Rather than have each
unit's fit impute, SVD-factor and leave-one-out-decompose its matrix
privately — one LAPACK dispatch per unit plus one per placebo core
batch — a **planning pass** in the parent does that work up front:

- :func:`prefactor_unit_plan` runs each task's own donor screen (with
  tracing off, so the real fits keep recording the canonical spans),
  groups the donor matrices by shape, and feeds them through the
  stacked primitives :func:`~repro.synthcontrol.robust.factor_donor_matrices`
  and :func:`~repro.synthcontrol.robust.denoise_leave_one_out` —
  one 3-D gufunc SVD per shape group instead of one 2-D SVD per unit.
- Each resulting :class:`UnitPrefactor` travels on its unit's task:
  in-process on the serial path, or — for pooled workers — as a
  :class:`PrefactorRef` into shared-memory slabs
  (:func:`publish_prefactors`) that the worker attaches zero-copy.

Bit-identity is the invariant that makes this the only path: the
stacked SVD runs the same LAPACK routine on the same bytes as the
per-unit call, so a fit seeded from a prefactor is indistinguishable —
to the last bit of every :class:`~repro.pipeline.study.StudyRow` field
— from one that factored its own matrix.  A unit whose donor selection
fails, or whose selected donors disagree with the prefactor's (either
means the panel changed under us), simply falls back to the private
factorization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import DonorPoolError, EstimationError
from repro.obs import tracing_disabled
from repro.pipeline.shm import SharedArrayRef, SharedFrameArena
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.robust import (
    DonorFactorization,
    denoise_leave_one_out,
    factor_donor_matrices,
)


class _FitTask(Protocol):
    """The slice of :class:`~repro.pipeline.study._UnitTask` we read."""

    unit: str
    method: str
    max_placebos: int | None
    fit_kwargs: tuple[tuple[str, object], ...]

    def donor_pool(self, panel: Panel) -> tuple[tuple[str, ...], np.ndarray]: ...


@dataclass(frozen=True)
class UnitPrefactor:
    """One unit's pre-computed de-noising work.

    Attributes
    ----------
    donors:
        The donor names the planning pass selected — a fit only uses
        this prefactor if its own selection matches exactly.
    fact:
        The unit's donor-matrix factorization (imputation + thin SVD).
    loo:
        The leave-one-out ``(denoised, rank)`` batch the placebo loop
        needs, or ``None`` when the unit has too few donors (or too
        small a placebo cap) for leave-one-out work to exist.
    """

    donors: tuple[str, ...]
    fact: DonorFactorization
    loo: tuple[tuple[np.ndarray, int], ...] | None


def prefactor_unit_plan(
    panel: Panel, tasks: Sequence[_FitTask]
) -> dict[str, UnitPrefactor]:
    """Batch-factor every robust task's donor matrix across units.

    Runs each task's donor screen (:meth:`_UnitTask.donor_pool`, the
    one the fit itself runs) under :func:`~repro.obs.tracing_disabled`,
    so the canonical ``donors.select`` spans are still recorded (once)
    by the real fits — then stacks same-shaped matrices into single
    gufunc SVD calls.  Units whose screen raises here are left out of
    the table (the real fit records the skip, with tracing on); units
    with an entirely-missing donor column are likewise left to the real
    fit so its error message is the one surfaced.
    """
    entries: list[tuple[_FitTask, tuple[str, ...], np.ndarray]] = []
    with tracing_disabled():
        for task in tasks:
            if task.method != "robust":
                continue
            try:
                donors, matrix = task.donor_pool(panel)
            except (DonorPoolError, EstimationError):
                continue
            if matrix.shape[1] == 0 or not np.isfinite(matrix).any(axis=0).all():
                continue
            entries.append((task, donors, matrix))
    if not entries:
        return {}
    facts = factor_donor_matrices([matrix for _task, _donors, matrix in entries])
    # Leave-one-out batches group across units too — but only for tasks
    # that would compute one (>= 2 donors and a placebo cap above 1),
    # keyed by energy so mixed fit parameters cannot silently share a
    # threshold; each unit asks for its own first `limit` columns.
    loos: list[tuple[tuple[np.ndarray, int], ...] | None] = [None] * len(entries)
    loo_groups: dict[float, list[tuple[int, int]]] = {}
    for i, (task, _donors, matrix) in enumerate(entries):
        j = matrix.shape[1]
        limit = j if task.max_placebos is None else min(int(task.max_placebos), j)
        if j >= 2 and limit > 1:
            energy = float(dict(task.fit_kwargs).get("energy", 0.99))  # type: ignore[arg-type]
            loo_groups.setdefault(energy, []).append((i, limit))
    for energy, members in loo_groups.items():
        batch = denoise_leave_one_out(
            [facts[i] for i, _limit in members],
            energy=energy,
            cols=[range(limit) for _i, limit in members],
        )
        for (i, _limit), loo in zip(members, batch):
            loos[i] = loo
    return {
        task.unit: UnitPrefactor(donors=donors, fact=facts[i], loo=loos[i])
        for i, (task, donors, _matrix) in enumerate(entries)
    }


# --------------------------------------------------------------------------
# Shared-memory transport: the parent packs the table into a few big
# arena blocks (one set per shape group); each pooled task carries a
# reference to its unit's row and attaches the blocks zero-copy.


@dataclass(frozen=True)
class PrefactorRef:
    """A picklable reference to one unit's row in the prefactor slabs.

    The float payload lives in arena blocks shared by the unit's shape
    group (:class:`SharedArrayRef` fields); only block names, the row
    index, and the unit's donor names and integer sidecars (finite
    counts, kept ranks) ride in the pickle — never the arrays.
    """

    row: int
    donors: tuple[str, ...]
    finite_counts: tuple[int, ...]
    loo_ranks: tuple[int, ...]
    filled: SharedArrayRef
    col_means: SharedArrayRef
    u: SharedArrayRef
    s: SharedArrayRef
    vt: SharedArrayRef
    loo: SharedArrayRef | None

    def load(self) -> UnitPrefactor:
        """Attach the slabs (memoised per process) and view this row."""
        i = self.row
        fact = DonorFactorization(
            filled=self.filled.load()[i],
            col_means=self.col_means.load()[i],
            finite_counts=np.array(self.finite_counts, dtype=np.int64),
            u=self.u.load()[i],
            s=self.s.load()[i],
            vt=self.vt.load()[i],
        )
        loo: tuple[tuple[np.ndarray, int], ...] | None = None
        if self.loo is not None:
            slab = self.loo.load()[i]
            loo = tuple((slab[col], rank) for col, rank in enumerate(self.loo_ranks))
        return UnitPrefactor(donors=self.donors, fact=fact, loo=loo)


def publish_prefactors(
    table: dict[str, UnitPrefactor], arena: SharedFrameArena
) -> dict[str, PrefactorRef]:
    """Pack *table* into arena blocks; one :class:`PrefactorRef` per unit.

    Units are regrouped by concrete array shapes — the donor-matrix
    shape and the leave-one-out batch length — and each group's
    factorizations stack into one block per field.  Integer sidecars
    (finite counts, kept ranks) travel in the refs so the float blocks
    round-trip bit-exact without dtype games.
    """
    groups: dict[tuple[tuple[int, int], int], list[str]] = {}
    for unit, pf in table.items():
        shape = (pf.fact.n_times, pf.fact.n_donors)
        n_loo = len(pf.loo) if pf.loo is not None else 0
        groups.setdefault((shape, n_loo), []).append(unit)
    refs: dict[str, PrefactorRef] = {}
    for gi, (((n_times, n_donors), n_loo), units) in enumerate(groups.items()):
        g = len(units)
        k = len(table[units[0]].fact.s)
        shapes = {
            "filled": (g, n_times, n_donors),
            "col_means": (g, n_donors),
            "u": (g, n_times, k),
            "s": (g, k),
            "vt": (g, k, n_donors),
        }
        if n_loo:
            shapes["loo"] = (g, n_loo, n_times, n_donors - 1)
        slabs = {
            field: arena.allocate(f"prefactor.{gi}.{field}", shape)
            for field, shape in shapes.items()
        }
        blocks = {field: arena.ref(f"prefactor.{gi}.{field}") for field in shapes}
        for i, unit in enumerate(units):
            pf = table[unit]
            for field in ("filled", "col_means", "u", "s", "vt"):
                slabs[field][i] = getattr(pf.fact, field)
            loo_ranks: tuple[int, ...] = ()
            if pf.loo:
                for col, (denoised, _rank) in enumerate(pf.loo):
                    slabs["loo"][i, col] = denoised
                loo_ranks = tuple(int(rank) for _d, rank in pf.loo)
            refs[unit] = PrefactorRef(
                row=i,
                donors=pf.donors,
                finite_counts=tuple(int(c) for c in pf.fact.finite_counts),
                loo_ranks=loo_ranks,
                filled=blocks["filled"],
                col_means=blocks["col_means"],
                u=blocks["u"],
                s=blocks["s"],
                vt=blocks["vt"],
                loo=blocks.get("loo"),
            )
    return refs


__all__ = [
    "UnitPrefactor",
    "PrefactorRef",
    "prefactor_unit_plan",
    "publish_prefactors",
]
