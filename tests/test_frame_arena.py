"""The shared-memory arena and its owner, the study's fit stage.

What these tests pin down:

- :class:`SharedFrameArena` lifecycle: named blocks appear while open,
  drain from ``/dev/shm`` on close, close is idempotent, views handed
  out stay valid after close, allocation after close and attaching to
  an unlinked ref both fail loudly;
- :func:`execute_unit_plan` is the one place a study's panel enters
  shared memory: a plan of in-process tasks runs pooled with rows and
  skips bit-identical to serial and to the oracle, and the fit stage's
  one arena (panel block plus prefactor slabs) drains after a normal
  pooled run, after a ``BrokenProcessPool`` rebuild, and after a
  mid-map exception;
- chaos fault logs are identical serial vs pooled on the batched/arena
  path, and against the private-SVD oracle (``tests/oracle.py``), so
  the fast path cannot hide or reorder injected faults.
"""

import os
import pickle

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_events, fault_events
from repro.errors import InjectedFault, PipelineError
from repro.pipeline import study
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.executor import RetryPolicy
from repro.pipeline.shm import (
    ARENA_PREFIX,
    SharedFrameArena,
    SharedPanelRef,
    live_arena_blocks,
)
from repro.pipeline.study import (
    _UnitTask,
    execute_unit_plan,
    prepare_unit_plan,
    run_ixp_study,
)
from repro.synthcontrol.donor import Panel
from tests.oracle import FIT_KWARGS, oracle_study

SEED = int(os.environ.get("CHAOS_SEED", "7"))
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def _shm_entries() -> list[str]:
    """Our blocks as the OS sees them (Linux tmpfs), if visible at all."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs host
        return []
    return [p for p in os.listdir("/dev/shm") if p.startswith(ARENA_PREFIX)]


@pytest.fixture(autouse=True)
def _clean_fault_log():
    clear_events()
    yield
    clear_events()


class TestArenaLifecycle:
    def test_blocks_live_while_open_and_drain_on_close(self):
        before = set(_shm_entries())
        arena = SharedFrameArena(tag="t")
        a = arena.allocate("a", (4, 3))
        b = arena.allocate("b", (7,))
        a[:] = 1.0
        b[:] = 2.0
        assert len(arena.names) == 2
        assert set(live_arena_blocks()) >= set(arena.names)
        assert len(set(_shm_entries()) - before) == 2
        arena.close()
        arena.close()  # idempotent
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_views_stay_valid_after_close(self):
        # The defuse design: close() unlinks the name but the mapping
        # lives as long as the numpy views do, so sealed frames survive
        # their arena.  Touching every element after close would
        # segfault, not fail an assert, if this ever regressed.
        arena = SharedFrameArena(tag="t")
        block = arena.allocate("x", (64,))
        block[:] = np.arange(64.0)
        arena.close()
        assert float(block.sum()) == float(np.arange(64.0).sum())

    def test_allocate_after_close_raises(self):
        arena = SharedFrameArena(tag="t")
        arena.close()
        with pytest.raises(PipelineError, match="closed"):
            arena.allocate("x", (3,))

    def test_ref_roundtrip_pickles_small_and_attaches_once(self):
        with SharedFrameArena(tag="t") as arena:
            block = arena.allocate("x", (5, 2))
            block[:] = np.arange(10.0).reshape(5, 2)
            ref = arena.ref("x")
            assert len(pickle.dumps(ref)) < 200
            loaded = pickle.loads(pickle.dumps(ref)).load()
            np.testing.assert_array_equal(loaded, block)
            assert ref.load() is ref.load()  # memoised per process

    def test_attach_after_unlink_raises(self):
        arena = SharedFrameArena(tag="t")
        arena.allocate("x", (3,))
        ref = arena.ref("x")
        arena.close()
        with pytest.raises(PipelineError, match="does not exist"):
            ref.load()

    def test_shape_size_mismatch_is_refused(self):
        from multiprocessing import shared_memory

        from repro.pipeline.shm import SharedArrayRef

        # Cached attach (same process): the shape must match the view.
        with SharedFrameArena(tag="t") as arena:
            arena.allocate("x", (4,))
            bad = SharedArrayRef(name=arena.ref("x").name, shape=(400,))
            with pytest.raises(PipelineError, match="requested as"):
                bad.load()
        # Fresh attach (what a worker does): the block must be big enough.
        raw = shared_memory.SharedMemory(create=True, size=32)
        try:
            with pytest.raises(PipelineError, match="needs"):
                SharedArrayRef(name=raw.name, shape=(400,)).load()
        finally:
            raw.close()
            raw.unlink()

    def test_zero_length_block_roundtrips(self):
        with SharedFrameArena(tag="t") as arena:
            block = arena.allocate("empty", (0,))
            assert block.shape == (0,)
            assert arena.ref("empty").load().shape == (0,)

def _unit_plan(frame, ixp_name: str) -> tuple[Panel, list]:
    """The panel and ``prepare_unit_plan``'s plan, whose tasks all carry it."""
    panel = rtt_panel(frame, period="day", outcome="rtt_ms")
    plan = prepare_unit_plan(
        panel, assign_treatment(frame, ixp_name), fit_kwargs=FIT_KWARGS
    )
    tasks = [step for step in plan if isinstance(step, _UnitTask)]
    assert tasks and all(t.panel is panel for t in tasks)
    return panel, plan


class TestStudyDrainsItsArena:
    def test_pooled_unit_plan_matches_serial_and_oracle(
        self, small_frame, small_scenario, monkeypatch
    ):
        panel, plan = _unit_plan(small_frame, small_scenario.ixp_name)
        mapped: dict[int, list] = {}
        get_executor = study.get_executor

        def spy(n_jobs, **kwargs):
            executor = get_executor(n_jobs, **kwargs)
            map_ = executor.map

            def map(fn, tasks, **kw):
                mapped[n_jobs] = list(tasks)
                return map_(fn, tasks, **kw)

            executor.map = map
            return executor

        monkeypatch.setattr(study, "get_executor", spy)
        before = set(_shm_entries())
        serial_rows, serial_skips = execute_unit_plan(plan, n_jobs=1)
        pooled_rows, pooled_skips = execute_unit_plan(plan, n_jobs=2)
        # Serial tasks keep the plan's panel; pooled ones carry a ref to
        # the fit stage's one copy of it.
        assert all(t.panel is panel for t in mapped[1])
        refs = {t.panel for t in mapped[2]}
        assert len(refs) == 1
        (ref,) = refs
        assert isinstance(ref, SharedPanelRef)
        assert (ref.times, ref.units) == (panel.times, panel.units)
        assert pooled_rows == serial_rows
        assert pooled_skips == serial_skips
        oracle = oracle_study(small_frame, small_scenario.ixp_name)
        assert tuple(pooled_rows) == oracle.rows
        assert tuple(pooled_skips) == oracle.skipped
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_pooled_unit_plan_drains_after_a_mid_map_exception(
        self, small_frame, small_scenario
    ):
        _panel, plan = _unit_plan(small_frame, small_scenario.ixp_name)
        fault = FaultPlan(SEED, (FaultSpec(site="fits.unit", kind="error"),))
        before = set(_shm_entries())
        with active_plan(fault):
            with pytest.raises(InjectedFault):
                execute_unit_plan(plan, n_jobs=2)
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_normal_batched_parallel_study_drains_shm(
        self, small_frame, small_scenario
    ):
        before = set(_shm_entries())
        result = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert result.rows
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_pool_rebuild_reattaches_slabs_then_drains(
        self, small_frame, small_scenario
    ):
        baseline = run_ixp_study(small_frame, small_scenario.ixp_name)
        target = baseline.rows[0].unit
        plan = FaultPlan(
            SEED, (FaultSpec(site="fits.unit", kind="kill", match=target),)
        )
        before = set(_shm_entries())
        with active_plan(plan):
            result = run_ixp_study(
                small_frame, small_scenario.ixp_name, n_jobs=2, retry=RETRY
            )
        # The retried task re-attached the panel block and its prefactor
        # slabs by name in the rebuilt pool; the table and the tmpfs are
        # untouched.
        assert result.rows == baseline.rows
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_mid_study_exception_still_drains(self, small_frame, small_scenario):
        plan = FaultPlan(SEED, (FaultSpec(site="fits.unit", kind="error"),))
        before = set(_shm_entries())
        with active_plan(plan):
            with pytest.raises(InjectedFault):
                run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before


class TestChaosParityOnTheFastPath:
    def test_fault_logs_identical_serial_vs_pooled(
        self, small_frame, small_scenario
    ):
        plan = FaultPlan(
            SEED,
            (FaultSpec(site="study.panel", kind="corrupt", corruption="nan_cell"),),
        )
        with active_plan(plan):
            serial = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=1)
            serial_log = fault_events()
            clear_events()
            pooled = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
            pooled_log = fault_events()
        assert serial.rows == pooled.rows
        assert serial_log == pooled_log
        assert live_arena_blocks() == ()

    def test_fault_logs_identical_batched_vs_unbatched(
        self, small_frame, small_scenario
    ):
        plan = FaultPlan(
            SEED,
            (FaultSpec(site="study.panel", kind="corrupt", corruption="nan_cell"),),
        )
        with active_plan(plan):
            batched = run_ixp_study(small_frame, small_scenario.ixp_name)
            batched_log = fault_events()
            clear_events()
            plain = oracle_study(small_frame, small_scenario.ixp_name)
            plain_log = fault_events()
        assert batched.rows == plain.rows
        assert batched_log == plain_log
