"""The benchmark's workloads: fixed worlds, and which layers each loads.

Every workload is a Table-1 world (``netsim.build_table1_scenario``)
plus a way of feeding its measurements to the study.  The world is
fixed per workload (world seed 2); the benchmark's ``--seed`` is the
measurement seed, so a new seed draws new measurements over the same
topology and the input size stays put from seed to seed.

Shared by the driver (``run.py``, which never imports the program) and
the per-operation child (``worker.py``), so it imports nothing from
``repro``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

IXP_NAME = "NAPAfrica-JNB"
WORLD_SEED = 2


@dataclass(frozen=True)
class World:
    """Arguments of ``build_table1_scenario`` for one workload."""

    n_donor_ases: int
    duration_days: int
    join_day: int
    user_scale: float

    def key(self, world_seed: int, seed: int) -> str:
        """Names one input: the reference-digest table is keyed by it."""
        return (
            f"d{self.n_donor_ases}-t{self.duration_days}-j{self.join_day}"
            f"-u{self.user_scale:g}-w{world_seed}-m{seed}"
        )


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the path that feeds them to the study.

    *feed* is ``generate`` (build the frame in-process), ``csv`` (read
    a CSV written during set-up) or ``stream`` (slice the frame into
    ``batch_hours`` batches and ingest them one at a time).
    """

    name: str
    feed: str
    world: World
    default_seed: int
    batch_hours: float = 0.0
    #: Set-up processes per run; ``setup_s`` is the median of their wall
    #: times.  The stream feed sets up inside each operation instead.
    setup_reps: int = 3

    def spec(self, world_seed: int, seed: int) -> dict:
        """JSON-ready arguments for a child process."""
        return {
            "workload": self.name,
            "feed": self.feed,
            "world": asdict(self.world),
            "world_seed": world_seed,
            "seed": seed,
            "batch_hours": self.batch_hours,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1-10x",
            feed="generate",
            world=World(30, 60, 30, 10.0),
            default_seed=3,
        ),
        Workload(
            name="import-wide",
            feed="csv",
            world=World(160, 90, 45, 0.1),
            default_seed=1,
            setup_reps=2,
        ),
        Workload(
            name="stream-6h",
            feed="stream",
            world=World(30, 60, 30, 10.0),
            default_seed=3,
            batch_hours=6.0,
            setup_reps=0,
        ),
    )
}

#: Small worlds with the same shape, for the benchmark's own tests.
TINY_WORLDS = {
    "table1-10x": World(8, 16, 8, 1.0),
    "import-wide": World(12, 20, 10, 0.5),
    "stream-6h": World(8, 16, 8, 1.0),
}


def tiny(workload: Workload) -> Workload:
    """The same workload on a world small enough for a unit test."""
    return replace(
        workload,
        world=TINY_WORLDS[workload.name],
        setup_reps=min(workload.setup_reps, 1),
    )
