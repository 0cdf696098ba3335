"""The end-to-end Table-1 runner.

``run_ixp_study`` goes from a raw measurement frame to the paper's
table: detect which ⟨ASN, city⟩ units began crossing the exchange,
build the daily median-RTT panel, fit a robust synthetic control per
treated unit against a never-crossing donor pool, and report the
estimated RTT change with RMSE-ratio and placebo-p diagnostics.

Treated units are analysed independently, so the per-unit work (donor
screening, the robust fit, and every placebo refit) fans out over the
executor backends in :mod:`repro.pipeline.executor`; ``n_jobs=1`` is
the serial reference and any other worker count produces a numerically
identical :class:`StudyResult`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.pipeline.checkpoint import StudyCheckpoint

from repro.chaos.runtime import fault_point
from repro.errors import DonorPoolError, EstimationError, PipelineError
from repro.frames.frame import Frame
from repro.obs import child_seconds, get_metrics, span
from repro.obs.metrics import COUNT_BUCKETS
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import TreatmentAssignment, assign_treatment
from repro.pipeline.executor import RetryPolicy, get_executor, resolve_n_jobs
from repro.pipeline.prefactor import (
    PrefactorRef,
    UnitPrefactor,
    prefactor_unit_plan,
    publish_prefactors,
)
from repro.pipeline.shm import SharedFrameArena, SharedPanelRef
from repro.synthcontrol.donor import Panel, select_donors
from repro.synthcontrol.placebo import placebo_test

logger = logging.getLogger(__name__)


def parse_unit_label(label: object) -> tuple[int, str]:
    """Split an ``"AS<asn>/<city>"`` unit label into its parts.

    Raises :class:`PipelineError` naming the offending label when it
    does not match the expected shape — a malformed label would
    otherwise surface much later as a bare ``ValueError``/``IndexError``
    from :attr:`StudyRow.asn`.
    """
    text = str(label)
    head, sep, city = text.partition("/")
    if not sep or not city or not head.startswith("AS"):
        raise PipelineError(
            f"malformed unit label {text!r}: expected 'AS<asn>/<city>'"
        )
    try:
        asn = int(head[2:])
    except ValueError:
        raise PipelineError(
            f"malformed unit label {text!r}: {head[2:]!r} is not an ASN"
        ) from None
    return asn, city


@dataclass(frozen=True)
class StudyRow:
    """One Table-1 row: a treated unit's estimated RTT change.

    Attributes
    ----------
    unit:
        ``"AS<asn>/<city>"`` label.
    rtt_delta_ms:
        Mean post-treatment gap (observed minus synthetic): the
        estimated causal RTT change.
    rmse_ratio:
        Post/pre fit-error ratio.
    p_value:
        Placebo-based p.
    pre_periods, post_periods, n_donors:
        Analysis-shape diagnostics.
    n_placebos, n_placebos_skipped:
        How many placebo refits entered the p-value's denominator and
        how many failed (and were excluded) — a p computed over few
        surviving placebos deserves suspicion.
    """

    unit: str
    rtt_delta_ms: float
    rmse_ratio: float
    p_value: float
    pre_periods: int
    post_periods: int
    n_donors: int
    n_placebos: int = 0
    n_placebos_skipped: int = 0

    @property
    def asn(self) -> int:
        """ASN parsed back out of the unit label."""
        return parse_unit_label(self.unit)[0]

    @property
    def city(self) -> str:
        """City parsed back out of the unit label."""
        return parse_unit_label(self.unit)[1]


@dataclass(frozen=True)
class StudyTimings:
    """Wall-clock seconds per study stage, for perf observability.

    Re-derived from the study's trace spans (``assignment``, ``panel``,
    ``fits`` under the ``study`` root) when tracing is on, with plain
    perf-counter segments as the fallback — the API is the same either
    way.  ``generation_s`` is ``None`` when the measurements came from
    disk rather than the simulator.  Timings never participate in
    result equality — two runs of the same study are the *same result*
    however long they took.
    """

    assignment_s: float
    panel_s: float
    fits_s: float
    generation_s: float | None = None

    @property
    def total_s(self) -> float:
        """Sum of all recorded stages."""
        return (
            (self.generation_s or 0.0)
            + self.assignment_s
            + self.panel_s
            + self.fits_s
        )

    def format(self) -> str:
        """One line per stage, aligned, slowest readable at a glance."""
        stages = []
        if self.generation_s is not None:
            stages.append(("generation", self.generation_s))
        stages.extend(
            [
                ("assignment", self.assignment_s),
                ("panel", self.panel_s),
                ("fits", self.fits_s),
                ("total", self.total_s),
            ]
        )
        return "\n".join(f"{name:<12} {seconds:>8.3f}s" for name, seconds in stages)


@dataclass(frozen=True)
class StudyResult:
    """The full study output: one row per treated unit plus context."""

    rows: tuple[StudyRow, ...]
    assignment: TreatmentAssignment
    skipped: tuple[tuple[str, str], ...]  # (unit, reason)
    timings: StudyTimings | None = field(default=None, compare=False)

    def to_frame(self) -> Frame:
        """Rows as a frame (for CSV export or further analysis)."""
        return Frame.from_records(
            [
                {
                    "unit": r.unit,
                    "asn": r.asn,
                    "city": r.city,
                    "rtt_delta_ms": r.rtt_delta_ms,
                    "rmse_ratio": r.rmse_ratio,
                    "p_value": r.p_value,
                    "pre_periods": r.pre_periods,
                    "post_periods": r.post_periods,
                    "n_donors": r.n_donors,
                    "n_placebos": r.n_placebos,
                    "n_placebos_skipped": r.n_placebos_skipped,
                }
                for r in self.rows
            ],
            columns=[
                "unit",
                "asn",
                "city",
                "rtt_delta_ms",
                "rmse_ratio",
                "p_value",
                "pre_periods",
                "post_periods",
                "n_donors",
                "n_placebos",
                "n_placebos_skipped",
            ],
        )

    def format_table(self) -> str:
        """Render in the paper's Table-1 layout."""
        lines = [
            f"{'ASN / City':<28}  {'RTT Δ (ms)':>10}  {'RMSE Ratio':>10}  {'p':>6}",
            "-" * 60,
        ]
        for r in self.rows:
            label = f"{r.asn} / {r.city}"
            lines.append(
                f"{label:<28}  {r.rtt_delta_ms:>+10.2f}  {r.rmse_ratio:>10.2f}  {r.p_value:>6.3f}"
            )
        return "\n".join(lines)

    @property
    def consistent_effect(self) -> bool:
        """The paper's headline check: is the RTT drop consistent & robust?

        True only if *every* unit shows a negative delta significant at
        10% — which Table 1 (and this reproduction) shows is not the
        case.  A study with no analysed rows cannot confirm anything,
        so empty rows are False (not vacuously True).
        """
        if not self.rows:
            return False
        return all(r.rtt_delta_ms < 0 and r.p_value < 0.10 for r in self.rows)


@dataclass(frozen=True)
class _UnitTask:
    """One treated unit's fit work, picklable for process-pool workers.

    ``panel`` is a :class:`SharedPanelRef` when a process pool runs the
    task — the pickled payload is then the unit label, a few scalars,
    the panel's labels and a block name, not the panel matrix — and an
    in-process :class:`Panel` on the serial path.  ``fit_kwargs`` is a
    tuple of sorted items (not a dict) so this frozen dataclass is
    actually hashable and workers cannot mutate shared fit parameters.
    ``prefactor`` is the planning pass's batched SVD work for this unit
    (attached by :func:`execute_unit_plan`): the in-process
    :class:`UnitPrefactor` on the serial path, a :class:`PrefactorRef`
    into shared-memory slabs on a pool, ``None`` for a private SVD.
    """

    unit: str
    pre_periods: int
    post_periods: int
    panel: Panel | SharedPanelRef
    excluded: tuple[str, ...]
    max_donor_missing: float
    method: str
    max_placebos: int | None
    fit_kwargs: tuple[tuple[str, object], ...]
    prefactor: UnitPrefactor | PrefactorRef | None = field(
        default=None, compare=False, repr=False
    )

    def donor_pool(self, panel: Panel) -> tuple[tuple[str, ...], np.ndarray]:
        """The unit's screened donors and their stacked ``T x J`` matrix.

        The one donor screen every fit runs: the study's fit, the
        planning pass, and the campaign's base fit.
        """
        donors = select_donors(
            panel,
            self.unit,
            excluded=self.excluded,
            pre_periods=self.pre_periods,
            max_missing=self.max_donor_missing,
        )
        return tuple(donors), np.column_stack([panel.series(d) for d in donors])


def _analyse_unit(task: _UnitTask) -> StudyRow | tuple[str, str]:
    """Fit one treated unit: a :class:`StudyRow`, or ``(unit, reason)``."""
    metrics = get_metrics()
    panel = (
        task.panel.load() if isinstance(task.panel, SharedPanelRef) else task.panel
    )
    with span("fits.unit", unit=task.unit) as sp:
        fault_point("fits.unit", key=task.unit)
        try:
            donors, donor_matrix = task.donor_pool(panel)
            # The task's prefactor supplies this unit's SVD work
            # ready-made (bit-identical to computing it here); it is only
            # trusted when its donor selection matches ours exactly — any
            # drift means the panel changed and the fit silently
            # recomputes.
            fact = loo = None
            pf = task.prefactor
            if isinstance(pf, PrefactorRef):
                pf = pf.load()
            if pf is not None and pf.donors == donors:
                fact, loo = pf.fact, pf.loo
            summary = placebo_test(
                panel.series(task.unit),
                donor_matrix,
                task.pre_periods,
                treated_name=task.unit,
                donor_names=donors,
                method=task.method,
                max_placebos=task.max_placebos,
                fact=fact,
                loo=loo,
                **dict(task.fit_kwargs),
            )
        except (DonorPoolError, EstimationError) as exc:
            logger.warning("skipping unit %s: %s", task.unit, exc)
            sp.set(status="skipped", reason=str(exc))
            metrics.counter(
                "units_skipped_total", "treated units the study could not fit"
            ).inc()
            return (task.unit, str(exc))
        sp.set(
            status="ok",
            n_donors=len(donors),
            n_placebos=len(summary.placebo_rmse_ratios),
        )
        metrics.counter(
            "units_analysed_total", "treated units with a fitted StudyRow"
        ).inc()
        metrics.histogram(
            "donor_pool_size", COUNT_BUCKETS, "donors surviving the screen, per unit"
        ).observe(len(donors))
        return StudyRow(
            unit=task.unit,
            rtt_delta_ms=summary.fit.effect,
            rmse_ratio=summary.fit.rmse_ratio,
            p_value=summary.p_value,
            pre_periods=task.pre_periods,
            post_periods=task.post_periods,
            n_donors=len(donors),
            n_placebos=len(summary.placebo_rmse_ratios),
            n_placebos_skipped=summary.n_placebos_skipped,
        )


def prepare_unit_plan(
    panel: Panel,
    assignment: TreatmentAssignment,
    *,
    min_pre_periods: int = 7,
    min_post_periods: int = 3,
    max_donor_missing: float = 0.5,
    method: str = "robust",
    max_placebos: int | None = None,
    fit_kwargs: tuple[tuple[str, object], ...] = (),
) -> list[tuple[str, str] | _UnitTask]:
    """Screen treated units into an ordered plan of fits and skips.

    The cheap shape screens (label parse, pre/post-period counts) run
    inline here; every surviving unit becomes a picklable
    :class:`_UnitTask` carrying the in-process *panel*
    (:func:`execute_unit_plan` swaps in a :class:`SharedPanelRef` when
    the fits fan out).  Both the batch study and the streaming engine's
    finalize build their plans here, which is what keeps their rows
    bit-identical: given equal panels and assignments, the plans (and
    therefore every downstream fit) are equal.
    """
    treated = assignment.treated_units
    plan: list[tuple[str, str] | _UnitTask] = []
    for unit in treated:
        parse_unit_label(unit)  # fail loudly on malformed labels
        first_hour = assignment.first_crossing_hour[unit]
        first_day = int(first_hour // 24)
        try:
            pre_periods = _pre_period_count(panel, first_day)
        except EstimationError as exc:
            plan.append((unit, str(exc)))
            continue
        post_periods = panel.n_times - pre_periods
        if pre_periods < min_pre_periods:
            plan.append((unit, f"only {pre_periods} pre-treatment days"))
            continue
        if post_periods < min_post_periods:
            plan.append((unit, f"only {post_periods} post-treatment days"))
            continue
        plan.append(
            _UnitTask(
                unit=unit,
                pre_periods=pre_periods,
                post_periods=post_periods,
                panel=panel,
                excluded=tuple(treated),
                max_donor_missing=max_donor_missing,
                method=method,
                max_placebos=max_placebos,
                fit_kwargs=fit_kwargs,
            )
        )
    n_planned_skips = sum(1 for step in plan if not isinstance(step, _UnitTask))
    if n_planned_skips:
        get_metrics().counter(
            "units_skipped_total", "treated units the study could not fit"
        ).inc(n_planned_skips)
    return plan


def execute_unit_plan(
    plan: list[tuple[str, str] | _UnitTask],
    *,
    n_jobs: int | None = 1,
    retry: RetryPolicy | None = None,
    checkpoint: "StudyCheckpoint | None" = None,
) -> tuple[list[StudyRow], list[tuple[str, str]]]:
    """Run a unit plan's fits and merge outcomes back into plan order.

    *checkpoint*, when given, is an **open**
    :class:`~repro.pipeline.checkpoint.StudyCheckpoint` (the caller
    owns its lifecycle): units already journaled are served from
    ``checkpoint.completed`` and each fresh outcome is appended the
    moment it lands.  Results are order-stable, so serial and pooled
    runs return identical rows.

    A planning pass first batch-factors every robust unit's donor
    matrix across units — one stacked SVD per matrix shape
    (:func:`~repro.pipeline.prefactor.prefactor_unit_plan`) — and each
    task carries its unit's factorization into the fit.  Serial tasks
    carry the in-process panel and factorization objects.  On a pool
    this is the one place a study's data enters shared memory: one
    arena receives a copy of the panel and the prefactor slabs, and
    each task carries a :class:`SharedPanelRef` and a
    :class:`PrefactorRef` instead.  A single unit is a group of one.
    """
    fit_units = [step for step in plan if isinstance(step, _UnitTask)]
    completed: dict[str, StudyRow | tuple[str, str]] = (
        checkpoint.completed if checkpoint is not None else {}
    )
    tasks = [t for t in fit_units if t.unit not in completed]

    def _journal(index: int, result: StudyRow | tuple[str, str]) -> None:
        if checkpoint is not None:
            checkpoint.append_result(result)

    rows: list[StudyRow] = []
    skipped: list[tuple[str, str]] = []
    arena: SharedFrameArena | None = None
    with span(
        "fits",
        n_tasks=len(tasks),
        n_jobs=n_jobs,
        n_resumed=len(fit_units) - len(tasks),
    ):
        try:
            if tasks:
                panel = tasks[0].panel
                prefactors: dict[str, UnitPrefactor] | dict[str, PrefactorRef]
                prefactors = prefactor_unit_plan(panel, tasks)
                task_panel: Panel | SharedPanelRef = panel
                if resolve_n_jobs(n_jobs) > 1:
                    arena = SharedFrameArena(tag="fits")
                    _, task_panel = arena.share_panel(panel)
                    prefactors = publish_prefactors(prefactors, arena)
                tasks = [
                    replace(t, panel=task_panel, prefactor=prefactors.get(t.unit))
                    for t in tasks
                ]
            # Pool workers attach the panel and prefactor blocks on a
            # task's first use, including the respawned workers of a pool
            # rebuilt after BrokenProcessPool.  The blocks outlive any pool.
            with get_executor(n_jobs, retry=retry) as executor:
                outcomes = iter(
                    executor.map(_analyse_unit, tasks, on_result=_journal)
                )
            for step in plan:
                if isinstance(step, _UnitTask):
                    result = completed.get(step.unit)
                    if result is None:
                        result = next(outcomes)
                else:
                    result = step
                if isinstance(result, StudyRow):
                    rows.append(result)
                else:
                    skipped.append(result)
        finally:
            if arena is not None:
                arena.close()
    return rows, skipped


def run_ixp_study(
    measurements: Frame,
    ixp_name: str,
    method: str = "robust",
    min_pre_periods: int = 7,
    min_post_periods: int = 3,
    max_donor_missing: float = 0.5,
    max_placebos: int | None = None,
    energy: float = 0.99,
    ridge: float = 1e-2,
    outcome: str = "rtt_ms",
    n_jobs: int | None = 1,
    generation_seconds: float | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> StudyResult:
    """Run the full IXP case study on a measurement frame.

    Parameters
    ----------
    measurements:
        Frame from :func:`repro.mplatform.measurements_to_frame` (or CSV
        with the same columns).
    ixp_name:
        Exchange whose first crossings define treatment.
    method:
        ``"robust"`` (the paper) or ``"classic"``.
    min_pre_periods, min_post_periods:
        Units with fewer usable days on either side are skipped (with
        the reason recorded) rather than silently mis-fit.
    outcome:
        Measurement column to analyse (default RTT; the paper's Table 1).
        ``"download_mbps"`` runs the throughput variant.
    n_jobs:
        Worker processes for the per-unit fits (``1`` serial, ``-1``
        all cores).  Results are identical across backends: rows stay
        in treatment order and every fit is a pure function of its
        unit's panel slice.
    generation_seconds:
        Wall-clock spent producing *measurements* upstream (simulator or
        CSV import); recorded verbatim in the result's timings.
    retry:
        Retry transiently failed per-unit fits (dead workers, injected
        faults, blown deadlines) under this policy; results are
        unchanged whether or how often retries fire.
    checkpoint:
        JSONL path journaling each finished unit as it completes, so a
        killed run can be resumed.
    resume:
        With *checkpoint*: load previously finished units from the file
        and fit only the rest.  The resumed result is byte-identical to
        an uninterrupted run's.
    """
    logger.info(
        "running IXP study on %d measurements (ixp=%s, method=%s, n_jobs=%s)",
        measurements.num_rows,
        ixp_name,
        method,
        n_jobs,
    )
    with span("study", ixp=ixp_name, method=method) as study_sp:
        t0 = time.perf_counter()
        assignment = assign_treatment(measurements, ixp_name)
        assignment = fault_point("study.assignment", key=ixp_name, value=assignment)
        t1 = time.perf_counter()
        panel = rtt_panel(measurements, period="day", outcome=outcome)
        # A chaos fault may swap in a corrupted copy here; the plan's
        # tasks carry whatever panel this is, so pool workers analyse
        # exactly what a serial run would.
        panel = fault_point("study.panel", key=ixp_name, value=panel)
        t2 = time.perf_counter()
        ckpt = None
        try:
            fit_kwargs: dict[str, object] = {}
            if method == "robust":
                fit_kwargs = {"energy": energy, "ridge": ridge}

            # Cheap shape screens run inline; only real fit work is fanned out.
            plan = prepare_unit_plan(
                panel,
                assignment,
                min_pre_periods=min_pre_periods,
                min_post_periods=min_post_periods,
                max_donor_missing=max_donor_missing,
                method=method,
                max_placebos=max_placebos,
                fit_kwargs=tuple(sorted(fit_kwargs.items())),
            )

            # Units already journaled in a resumed checkpoint are served from
            # the file; only the remainder is fitted.  The final row order is
            # the plan's either way, so a resumed table is byte-identical.
            if checkpoint is not None:
                from repro.pipeline.checkpoint import StudyCheckpoint

                ckpt = StudyCheckpoint(
                    checkpoint,
                    ixp_name=ixp_name,
                    method=method,
                    outcome=outcome,
                    resume=resume,
                )
            rows, skipped = execute_unit_plan(
                plan,
                n_jobs=n_jobs,
                retry=retry,
                checkpoint=ckpt,
            )
        finally:
            if ckpt is not None:
                ckpt.close()
        t3 = time.perf_counter()
        study_sp.set(n_rows=len(rows), n_skipped=len(skipped))

    # Timings re-derive from the trace (the spans the stages recorded);
    # with tracing disabled the perf_counter segments stand in, so the
    # StudyTimings API behaves identically either way.
    timings = StudyTimings(
        assignment_s=_stage_seconds(study_sp, "assignment", t1 - t0),
        panel_s=_stage_seconds(study_sp, "panel", t2 - t1),
        fits_s=_stage_seconds(study_sp, "fits", t3 - t2),
        generation_s=generation_seconds,
    )
    logger.info(
        "study done: %d rows, %d skipped, %.3fs", len(rows), len(skipped), timings.total_s
    )
    return StudyResult(
        rows=tuple(rows),
        assignment=assignment,
        skipped=tuple(skipped),
        timings=timings,
    )


def _stage_seconds(study_sp, name: str, fallback: float) -> float:
    """One stage's duration from the study span's trace, if recorded."""
    recorded = child_seconds(study_sp, name)
    return fallback if recorded is None else recorded


def _pre_period_count(panel: Panel, first_day: int) -> int:
    """Panel rows strictly before the first crossing day."""
    count = sum(1 for t in panel.times if float(t) < first_day)
    if count == 0:
        raise EstimationError("treatment precedes the whole panel")
    return count
