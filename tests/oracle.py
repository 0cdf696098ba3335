"""The reference the batched-fit parity tests compare against.

The study has one fit path: a planning pass batch-factors every robust
unit's donor matrix and each task carries its unit's prefactor into
:func:`~repro.pipeline.study._analyse_unit`.  The oracle runs the same
stages — assignment, panel, plan, each with its fault point — and then
fits every planned task with ``prefactor=None``, so each unit takes the
private factorization inside :func:`~repro.synthcontrol.placebo.placebo_test`.
"""

from __future__ import annotations

from repro.chaos.runtime import fault_point
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.study import (
    StudyResult,
    StudyRow,
    _analyse_unit,
    _UnitTask,
    prepare_unit_plan,
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
