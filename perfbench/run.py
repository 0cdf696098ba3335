"""The repository's benchmark: end-to-end and per-layer costs of the study.

Run from the repository root::

    python3 perfbench/run.py --workload import-wide --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``; ``BENCHMARK.json`` names the two the
benchmark runs):

- ``import-wide`` — read a 160-donor, 90-day measurement CSV written
  during set-up, normalise it and run the study on a 90x168 panel;
- ``stream-6h`` — generate the 10x Table-1 world (1.7M rows), slice it
  into 240 six-hour batches and feed them through one ``StreamStudy``
  (closed loop: the next batch is offered when ``ingest`` returns),
  then ``finalize``;
- ``table1-10x`` — generate the 10x world, assign, build the panel,
  fit, render the table.  Not in ``BENCHMARK.json``: its time is too
  unsteady between runs on a shared 2-vCPU host for the benchmark's
  bound (see ``README.md``); run it by hand.

Every operation is a fresh process (``worker.py``) with serial fits and
one BLAS thread.  The driver repeats operations until ``--seconds`` is
spent and reports medians.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates traced and untraced operations and
prints the per-layer metrics, computed from spans the worker records
around each public call.

Every operation's table (CSV text of ``StudyResult.to_frame()``) is
checked against a reference digest: pinned in ``references.json``
(computed by ``run_ixp_study`` on the in-memory frame), or computed in
a set-up process when the seed is not pinned.  A mismatch, a crash or
a non-zero exit counts as a failed operation.

The last line of standard output is the result JSON; a manifest line
precedes it, and the full result (manifest, per-operation samples,
spans) is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from ledger import percentile, self_times  # noqa: E402
from workloads import WORKLOADS, WORLD_SEED, tiny  # noqa: E402

REFERENCES = HERE / "references.json"
#: Every run exits within this many seconds, whatever it is asked to do.
RUN_DEADLINE_S = 170.0
#: Operations of each kind (untraced; traced) a run makes at least.
MIN_OPS = 2

#: Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = [
    "mplatform.rows", "frames.csv_mb", "pipeline.treated_units", "pipeline.panel_cells",
    "pipeline.units_fitted", "pipeline.units_skipped", "synthcontrol.placebos_run",
    "synthcontrol.placebos_skipped", "stream.batches", "stream.dirty_units",
    "stream.refits_warm", "stream.refits_cold", "stream.placebo_refreshes",
]


def declared(kind: str) -> list[dict]:
    """The metrics of one kind (``end_to_end``, ``per_layer``) ``BENCHMARK.json`` declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (set-up or reference failed)."""


def child_env() -> dict:
    """The program's environment: ``src`` importable, one BLAS thread.

    Byte-code caching is left on so that, after the first process,
    imports cost what they cost an installed program.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, spec: dict, deadline: float) -> tuple[dict | None, dict, str | None]:
    """Run one worker; returns (its result, process stats, error).

    The stats are the process's wall seconds, start to exit, its CPU
    seconds, and the host's steal time meanwhile (summed over CPUs), so
    a slow operation can be explained: CPU time close to wall time means
    the process ran throughout, steal means the hypervisor held a CPU.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, {"wall_s": 0.0}, "run deadline reached"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec)]
    cpu0, steal0 = children_cpu_s(), host_steal_s()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        stats = {"wall_s": time.perf_counter() - t0}
        return None, stats, f"{mode} timed out after {timeout:.0f}s"
    stats = {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": children_cpu_s() - cpu0,
        "host_steal_s": host_steal_s() - steal0,
    }
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        out = {}
    if proc.returncode != 0 or "error" in out or not out:
        reason = out.get("error") or f"exit code {proc.returncode}"
        return None, stats, f"{mode} failed: {reason}"
    return out, stats, None


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def host_steal_s() -> float:
    """Seconds the hypervisor ran others on this machine's CPUs (Linux)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def source_digest() -> str:
    """SHA-256 over the program's source files: names the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_head() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def manifest(args, workload, seed: int, code: str) -> dict:
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": workload.name,
        "size": args.size,
        "world": workload.world.key(args.world_seed, seed),
        "seeds": {"world": args.world_seed, "measurement": seed},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "versions": versions,
        "git_head": git_head(),
        "source_sha256": code,
        "argv": sys.argv,
    }


def expected_digest(args, workload, spec: dict, seed: int, deadline: float) -> tuple[str, str]:
    """The reference digest for this input, and where it came from."""
    key = workload.world.key(args.world_seed, seed)
    if REFERENCES.is_file():
        pinned = json.loads(REFERENCES.read_text()).get(key)
        if pinned:
            return pinned, "pinned"
    out, _, err = spawn("reference", {**spec, "seeds": [seed]}, deadline)
    if out is None:
        raise BenchmarkError(f"reference computation failed: {err}")
    return out["digests"][str(seed)], "computed"


def run_setup(workload, spec: dict, deadline: float) -> list[float]:
    """Prepare the input ``setup_reps`` times; returns set-up seconds.

    The ``csv`` feed writes its CSV (the same bytes each time); the
    other feeds warm the program up (byte-code, file cache).  A sample
    is the set-up process's wall time, start to exit.
    """
    samples = []
    rows = set()
    for _ in range(workload.setup_reps):
        out, stats, err = spawn("setup", spec, deadline)
        if out is None:
            raise BenchmarkError(f"set-up failed: {err}")
        samples.append(stats["wall_s"])
        rows.add(out.get("rows"))
    if len(rows) > 1:
        raise BenchmarkError(f"set-up is not deterministic: row counts {sorted(rows)}")
    return samples


def measure(args, spec: dict, expected: str, deadline: float) -> list[dict]:
    """Operations until ``--seconds`` is spent; a traced run alternates.

    Another operation starts while at least half a typical one's time
    is left, so a run overshoots ``--seconds`` by half an operation at
    most, on average.  Whatever ``--seconds`` says, a run makes
    ``MIN_OPS`` operations of each kind it reports on: two untraced
    ones, and in a traced run two traced ones as well, so that a median
    never rests on one process and the exact-repeat check on counts
    compares two processes.
    """
    ops: list[dict] = []
    kinds = (False, True) if args.trace else (False,)
    t_begin = time.perf_counter()
    while True:
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 0
        op_spec = {**spec, "traced": traced, "run_id": f"{spec['workload']}/{spec['seed']}/{index}"}
        out, stats, err = spawn("op", op_spec, deadline)
        record = {"index": index, "traced": traced, **stats, "error": err, "out": out}
        if out is not None and out["digest"] != expected:
            record["error"] = f"table digest {out['digest'][:16]} != reference {expected[:16]}"
        ops.append(record)
        if err and err.endswith("deadline reached"):
            break
        elapsed = time.perf_counter() - t_begin
        typical = median([op["wall_s"] for op in ops])
        enough = all(sum(op["traced"] == k for op in ops) >= MIN_OPS for k in kinds)
        if enough and elapsed + typical / 2 > args.seconds:
            break
        if time.monotonic() + typical > deadline:
            break
    return ops


def op_wall(workload, op: dict) -> float:
    """Time to the final table: the whole process, or the stream's loop."""
    if workload.feed == "stream":
        return op["out"]["work_s"]
    return op["wall_s"]


def end_to_end(workload, ops: list[dict], setup: list[float]) -> dict:
    done = [op for op in ops if op["out"] is not None and not op["traced"]]
    if workload.feed == "stream":
        setup = [op["out"]["setup_s"] for op in ops if op["out"] is not None]
    batches = [s for op in done for s in op["out"]["batch_s"]]
    return {
        "setup_s": median(setup),
        "wall_s": median([op_wall(workload, op) for op in done]),
        "peak_rss_mb": median([op["out"]["peak_rss_mb"] for op in done]),
        "batch_p50_ms": 1000.0 * percentile(batches, 50),
        "batch_p95_ms": 1000.0 * percentile(batches, 95),
    }


def per_layer(workload, ops: list[dict]) -> tuple[dict, list[str]]:
    """Layer metrics from the traced operations, and any count that moved.

    A metric ``<span>_s`` is that span's self time; ``trace.overhead_pct``
    compares traced with untraced operations; any other is a count (or
    an RSS mark) the worker took at a call boundary.
    """
    done = [op for op in ops if op["out"] is not None]
    traced = [op for op in done if op["traced"]]
    plain = [op for op in done if not op["traced"]]
    selfs = [self_times(op["out"]["spans"]) for op in traced]
    counts = [op["out"]["counts"] for op in traced]
    values: dict[str, float] = {}
    for metric in declared("per_layer"):
        name = metric["name"]
        if name == "trace.overhead_pct":
            values[name] = 0.0
            if plain:
                base = median([op_wall(workload, op) for op in plain])
                values[name] = 100.0 * (median([op_wall(workload, op) for op in traced]) / base - 1.0)
        elif metric["unit"] == "s":
            values[name] = median([s.get(name.removesuffix("_s"), 0.0) for s in selfs])
        else:
            values[name] = median([c.get(name, 0) for c in counts])
    defects = [
        f"{name} differs between traced operations: {sorted(seen)}"
        for name in EXACT_COUNTS
        if len(seen := {c.get(name, 0) for c in counts}) > 1
    ]
    return values, defects


def check_count_ledger(work: Path, key: str, code: str, values: dict) -> list[str]:
    """Compare this run's counts with earlier runs of the same code and input."""
    path = work / "counts" / f"{key}-{code[:16]}.json"
    counts = {name: values[name] for name in EXACT_COUNTS}
    if path.is_file():
        earlier = json.loads(path.read_text())
        return [
            f"{name} differs from an earlier run of this code: {earlier.get(name)} != {v}"
            for name, v in counts.items() if earlier.get(name) != v
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1))
    return []


def pin_references(args) -> int:
    """Compute reference digests for ``--pin`` seeds into references.json."""
    deadline = time.monotonic() + 3600.0
    pinned = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    seeds = sorted({int(s) for s in args.pin.split(",")})
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name] if args.size == "full" else tiny(WORKLOADS[name])
        if name == "stream-6h" and "table1-10x" in names:
            continue  # the same world: its digests are table1-10x's
        spec = {**workload.spec(args.world_seed, seeds[0]), "seeds": seeds}
        out, stats, err = spawn("reference", spec, deadline)
        if out is None:
            print(err, file=sys.stderr)
            return 1
        for seed, digest in out["digests"].items():
            pinned[workload.world.key(args.world_seed, int(seed))] = digest
        print(f"{name}: pinned {len(seeds)} seeds in {stats['wall_s']:.1f}s", file=sys.stderr)
        REFERENCES.write_text(json.dumps(dict(sorted(pinned.items())), indent=1) + "\n")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="measurement seed (default: the workload's)")
    p.add_argument("--world-seed", type=int, default=WORLD_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small worlds of the same shape, for tests")
    p.add_argument("--pin", metavar="SEEDS",
                   help="comma-separated seeds: pin their reference digests and exit")
    return p.parse_args(argv)


def _terminate(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running worker.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if args.pin:
        return pin_references(args)
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = tiny(workload)
    seed = workload.default_seed if args.seed is None else args.seed
    work = ROOT / ".perfbench" / f"{workload.name}-{args.size}"
    work.mkdir(parents=True, exist_ok=True)
    spec = workload.spec(args.world_seed, seed)
    if workload.feed == "csv":
        spec["csv"] = str(work / "measurements.csv")
    code = source_digest()
    info = manifest(args, workload, seed, code)

    try:
        setup = run_setup(workload, spec, deadline)
        expected, source = expected_digest(args, workload, spec, seed, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info["reference"] = {"digest": expected, "source": source}
    ops = measure(args, spec, expected, deadline)
    failed = [op for op in ops if op["error"]]
    for op in failed:
        print(f"operation {op['index']} failed: {op['error']}", file=sys.stderr)
    completed = [op for op in ops if op["out"] is not None and op["traced"] == bool(args.trace)]
    if not completed:
        print("error: no operation completed; nothing to report", file=sys.stderr)
        return 1
    info["blas"] = completed[0]["out"]["blas"]

    defects: list[str] = []
    if args.trace:
        values, defects = per_layer(workload, ops)
        defects += check_count_ledger(work, info["world"], code, values)
    else:
        values = end_to_end(workload, ops, setup)
    units = {m["name"]: m["unit"] for m in declared("per_layer" if args.trace else "end_to_end")}
    for defect in defects:
        print(f"benchmark defect: {defect}", file=sys.stderr)

    attempted = len(ops)
    result = {
        "correct": not failed and not defects,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "manifest": info,
        "result": result,
        "error_rate": len(failed) / attempted,
        "setup_samples_s": setup,
        "operations": [
            {k: v for k, v in op.items() if k != "out"}
            | ({k: v for k, v in op["out"].items() if k != "spans"} if op["out"] else {})
            for op in ops
        ],
        "spans": [s for op in ops if op["out"] for s in op["out"]["spans"]],
        "defects": defects,
    }
    out_path = work / f"result-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name} ({args.size}), seed {seed}, "
          f"{'traced' if args.trace else 'untraced'}: {attempted} operations, "
          f"{len(failed)} failed, error_rate {len(failed) / attempted:.3f}")
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]:>14.4f} {unit}")
    print("manifest: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
