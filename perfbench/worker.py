"""One benchmark operation in a fresh process.

Usage: ``python perfbench/worker.py MODE SPEC_JSON`` with ``src`` on
``PYTHONPATH`` (the driver, ``run.py``, sets that up).  MODE is

- ``op``: feed one workload's input to the study and build the table;
- ``setup``: prepare the input the ``op`` reads (the CSV for the
  ``csv`` feed; an import warm-up otherwise);
- ``reference``: the reference digests, computed on the in-memory
  frame by ``run_ixp_study`` for each seed in ``spec["seeds"]``.

The last line of standard output is one JSON object.  Spans are taken
here, around each call into the program's public functions; nothing
inside ``src`` is traced by the benchmark.
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Recorder, reset_rss_peak, rss_peak_mb  # noqa: E402
from workloads import IXP_NAME  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_program(rec: Recorder):
    """Import the program's public modules, checking they come from ``src``."""
    with rec.span("startup.import"):
        import repro.frames.io
        import repro.mplatform
        import repro.netsim
        import repro.pipeline
        import repro.pipeline.study
        import repro.stream
    origin = Path(repro.netsim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"imported the program from {origin}, not from {SRC}")
    return repro


def _world(repro, spec: dict, rec: Recorder):
    w = spec["world"]
    with rec.span("netsim.world"):
        return repro.netsim.build_table1_scenario(
            n_donor_ases=w["n_donor_ases"],
            duration_days=w["duration_days"],
            join_day=w["join_day"],
            seed=spec["world_seed"],
            user_scale=w["user_scale"],
        )


def _generate(repro, scenario, seed: int, rec: Recorder):
    with rec.span("mplatform.generate"):
        frame = repro.mplatform.measurements_frame(scenario, rng=seed)
    rec.count("mplatform.rows", frame.num_rows)
    if rec.enabled:
        rec.count("mplatform.rss_mb", rss_peak_mb())
    return frame


def _digest(repro, result) -> str:
    text = repro.frames.io.to_csv_text(result.to_frame())
    return hashlib.sha256(text.encode()).hexdigest()


def _count_result(rec: Recorder, result) -> None:
    run = sum(r.n_placebos for r in result.rows)
    skipped = sum(r.n_placebos_skipped for r in result.rows)
    rec.count("pipeline.treated_units", len(result.assignment.treated_units))
    rec.count("pipeline.units_fitted", len(result.rows))
    rec.count("pipeline.units_skipped", len(result.skipped))
    rec.count("synthcontrol.placebos_run", run)
    rec.count("synthcontrol.placebos_skipped", skipped)
    rec.count("synthcontrol.placebo_yield", run / (run + skipped) if run + skipped else 0.0)


def _fit_kwargs(repro) -> tuple:
    """The robust fit's settings: ``run_ixp_study``'s own defaults."""
    params = inspect.signature(repro.pipeline.run_ixp_study).parameters
    return tuple(sorted((name, params[name].default) for name in ("energy", "ridge")))


def _study(repro, frame, rec: Recorder):
    """The batch study, one public call per stage (as ``run_ixp_study``).

    The reference digests come from ``run_ixp_study`` itself, so a
    change to its stages that this sequence misses fails the output
    check instead of passing unmeasured.
    """
    study = repro.pipeline.study
    with rec.span("pipeline.crossing"):
        assignment = repro.pipeline.assign_treatment(frame, IXP_NAME)
    with rec.span("pipeline.panel"):
        panel = repro.pipeline.rtt_panel(frame, period="day")
    if rec.enabled:
        import numpy as np

        rec.count("pipeline.panel_cells", int(np.isfinite(panel.matrix).sum()))
    with rec.span("pipeline.plan"):
        plan = study.prepare_unit_plan(panel, assignment, fit_kwargs=_fit_kwargs(repro))
    with rec.span("pipeline.fits"):
        rows, skipped = study.execute_unit_plan(plan, n_jobs=1)
    if rec.enabled:
        rec.count("pipeline.fits_rss_mb", rss_peak_mb())
    return study.StudyResult(rows=tuple(rows), assignment=assignment, skipped=tuple(skipped))


def _op(spec: dict, rec: Recorder) -> dict:
    out: dict = {}
    with rec.span("op"):
        repro = _import_program(rec)
        seed = spec["seed"]
        if spec["feed"] == "stream":
            t0 = time.perf_counter()
            scenario = _world(repro, spec, rec)
            frame = _generate(repro, scenario, seed, rec)
            with rec.span("stream.slice"):
                batches = repro.stream.slice_frame(frame, batch_hours=spec["batch_hours"])
            del frame
            out["setup_s"] = time.perf_counter() - t0
            if not reset_rss_peak():
                raise RuntimeError(
                    "cannot reset the resident high-water mark, so peak_rss_mb "
                    "would cover set-up instead of the stream loop"
                )
            live = repro.stream.StreamStudy(IXP_NAME, n_jobs=1)
            batch_s = []
            reports = []
            t0 = time.perf_counter()
            for batch in batches:
                t = time.perf_counter()
                with rec.span("stream.ingest"):
                    reports.append(live.ingest(batch))
                batch_s.append(time.perf_counter() - t)
            with rec.span("stream.finalize"):
                result = live.finalize()
            with rec.span("report.table"):
                digest = _digest(repro, result)
            out["work_s"] = time.perf_counter() - t0
            out["batch_s"] = batch_s
            warm = sum(r.warm_refits for r in reports)
            cold = sum(r.cold_refits for r in reports)
            rec.count("stream.batches", len(reports))
            rec.count("stream.dirty_units", sum(r.n_dirty_units for r in reports))
            rec.count("stream.refits_warm", warm)
            rec.count("stream.refits_cold", cold)
            rec.count("stream.warm_ratio", warm / (warm + cold) if warm + cold else 0.0)
            rec.count("stream.placebo_refreshes", sum(r.placebo_refreshes for r in reports))
            if rec.enabled:
                import numpy as np

                rec.count("pipeline.panel_cells", int(np.isfinite(live.panel.matrix).sum()))
        else:
            t0 = time.perf_counter()
            if spec["feed"] == "csv":
                path = spec["csv"]
                with rec.span("frames.read_csv"):
                    raw = repro.pipeline.read_measurement_csv(path)
                rec.count("frames.csv_mb", os.path.getsize(path) / 1e6)
                with rec.span("pipeline.normalise"):
                    frame = repro.pipeline.normalise_measurements(raw)
                del raw
                if rec.enabled:
                    rec.count("pipeline.import_rss_mb", rss_peak_mb())
            else:
                frame = _generate(repro, _world(repro, spec, rec), seed, rec)
            result = _study(repro, frame, rec)
            with rec.span("report.table"):
                digest = _digest(repro, result)
            out["work_s"] = time.perf_counter() - t0
            out["batch_s"] = [out["work_s"]]
        _count_result(rec, result)
    out.update(
        digest=digest,
        table_rows=len(result.rows),
        peak_rss_mb=rss_peak_mb(),
        spans=rec.spans,
        counts=rec.counts,
        blas=_blas_info(),
    )
    return out


def _setup(spec: dict, rec: Recorder) -> dict:
    repro = _import_program(rec)
    scenario = _world(repro, spec, rec)
    if spec["feed"] != "csv":
        return {"rows": None}
    frame = _generate(repro, scenario, spec["seed"], rec)
    repro.frames.io.write_csv(frame, spec["csv"])
    return {"rows": frame.num_rows}


def _reference(spec: dict, rec: Recorder) -> dict:
    repro = _import_program(rec)
    scenario = _world(repro, spec, rec)
    digests = {}
    for seed in spec["seeds"]:
        frame = repro.mplatform.measurements_frame(scenario, rng=seed)
        result = repro.pipeline.run_ixp_study(frame, IXP_NAME, n_jobs=1)
        digests[str(seed)] = _digest(repro, result)
    return {"digests": digests}


def _blas_info() -> dict:
    """The BLAS library this process loaded, and its thread count."""
    info: dict = {"library": None, "threads": None}
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        info["library"] = os.path.basename(path)
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


MODES = {"op": _op, "setup": _setup, "reference": _reference}


def main(argv: list[str]) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    rec = Recorder(run_id=spec.get("run_id", mode), enabled=bool(spec.get("traced")))
    try:
        out = MODES[mode](spec, rec)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
