"""The shared-memory panel transport (the parallel study's data plane).

What these tests pin down:

- a :class:`SharedPanelRef` (an arena block's ref plus the labels)
  round-trips the full panel zero-copy, and its pickle grows with the
  labels, not the matrix, so a pool task no longer ships the matrix
  (the bug that made ``n_jobs=4`` run *slower* than serial);
- the study drains every block it creates — after a normal run, after a
  ``BrokenProcessPool`` rebuild, and after a mid-study exception — so
  repeated studies cannot leak ``/dev/shm`` segments;
- serial and pooled runs stay row-for-row identical on the new path,
  including under chaos panel corruption (the corrupted copy is
  copied into a new block before any worker reads it);
- the batched leave-one-out SVD used by serial placebo loops is
  bit-identical to the per-column downdate the workers use.
"""

import os
import pickle

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_events, fault_events
from repro.errors import InjectedFault, PipelineError
from repro.pipeline.executor import RetryPolicy
from repro.pipeline.shm import (
    ARENA_PREFIX,
    SharedArrayRef,
    SharedFrameArena,
    SharedPanelRef,
    live_arena_blocks,
)
from repro.pipeline.study import _UnitTask, run_ixp_study
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.robust import denoise_leave_one_out
from tests.oracle import denoise_without_column, factor_donor_matrix

SEED = int(os.environ.get("CHAOS_SEED", "7"))
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def _shm_entries() -> list[str]:
    """Our blocks as the OS sees them (Linux tmpfs), if visible at all."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs host
        return []
    return [p for p in os.listdir("/dev/shm") if p.startswith(ARENA_PREFIX)]


def _make_panel(n_times: int = 20, n_units: int = 6) -> Panel:
    rng = np.random.default_rng(0)
    matrix = rng.normal(50.0, 5.0, size=(n_times, n_units))
    matrix[3, 2] = np.nan
    return Panel(
        times=tuple(float(t) for t in range(n_times)),
        units=tuple(f"AS{100 + j}/cpt" for j in range(n_units)),
        matrix=matrix,
    )


class TestSharedPanelBlock:
    def test_roundtrip_preserves_the_panel_exactly(self):
        panel = _make_panel()
        with SharedFrameArena(tag="test-panel") as arena:
            _shared, ref = arena.share_panel(panel)
            loaded = pickle.loads(pickle.dumps(ref)).load()
            assert loaded.times == panel.times
            assert loaded.units == panel.units
            np.testing.assert_array_equal(loaded.matrix, panel.matrix)

    def test_ref_pickles_small_while_the_panel_does_not(self):
        # The labels ride in the pickle and the matrix does not: on a
        # 90 x 168 panel (the import-wide shape) that is a few KB
        # against the matrix's 121 KB, and the gap grows as T x J.
        panel = _make_panel(90, 168)
        with SharedFrameArena(tag="test-panel") as arena:
            _shared, ref = arena.share_panel(panel)
            ref_bytes = pickle.dumps(ref)
            labels = pickle.dumps((panel.times, panel.units))
            assert len(ref_bytes) < len(labels) + 200
            assert len(ref_bytes) < len(pickle.dumps(panel)) / 5
            assert pickle.loads(ref_bytes) == ref

    def test_load_is_memoised_per_process(self):
        with SharedFrameArena(tag="test-panel") as arena:
            _shared, ref = arena.share_panel(_make_panel())
            assert ref.load() is ref.load()
            assert pickle.loads(pickle.dumps(ref)).load() is ref.load()

    def test_matrix_is_the_blocks_storage_not_a_copy(self):
        panel = _make_panel()
        with SharedFrameArena(tag="test-panel") as arena:
            shared, ref = arena.share_panel(panel)
            shared.matrix[0, 0] = 123.0
            assert ref.load().matrix[0, 0] == 123.0
            # The source panel is untouched, and every share copies into
            # a new block, even of a panel already in this arena.
            assert panel.matrix[0, 0] != 123.0
            again, ref_again = arena.share_panel(shared)
            assert again.matrix is not shared.matrix
            assert ref_again.matrix.name != ref.matrix.name
            np.testing.assert_array_equal(again.matrix, shared.matrix)
            assert len(arena.names) == 2

    def test_attach_after_unlink_raises(self):
        arena = SharedFrameArena(tag="test-panel")
        _shared, ref = arena.share_panel(_make_panel())
        arena.close()
        with pytest.raises(PipelineError, match="does not exist"):
            ref.load()

    def test_close_is_idempotent_and_drains_live_set(self):
        arena = SharedFrameArena(tag="test-panel")
        _shared, ref = arena.share_panel(_make_panel())
        name = ref.matrix.name
        assert name in live_arena_blocks()
        arena.close()
        arena.close()
        assert name not in live_arena_blocks()
        with pytest.raises(PipelineError, match="closed"):
            arena.share_panel(_make_panel())

    def test_label_shape_mismatch_rejected(self):
        block = SharedArrayRef(name="rpr-arena-x", shape=(3, 2))
        with pytest.raises(PipelineError, match="do not match"):
            SharedPanelRef(matrix=block, times=(0.0, 1.0), units=("a", "b"))
        with pytest.raises(PipelineError, match="do not match"):
            SharedPanelRef(matrix=block, times=(0.0, 1.0, 2.0), units=("a",))

    def test_object_time_keys_survive_the_meta_pickle(self):
        panel = Panel(
            times=("mon", "tue", "wed"),
            units=("AS1/x", "AS2/x"),
            matrix=np.arange(6, dtype=float).reshape(3, 2),
        )
        with SharedFrameArena(tag="test-panel") as arena:
            _shared, ref = arena.share_panel(panel)
            assert pickle.loads(pickle.dumps(ref)).load().times == ("mon", "tue", "wed")


class TestWorkerAttachCache:
    def test_foreign_blocks_are_bounded_and_evicted_views_stay_valid(self):
        # A campaign worker attaches many scenarios' panels; the cache
        # keeps the most recent 16 foreign blocks, and a view that
        # outlived its eviction still reads its block's bytes.
        from multiprocessing import shared_memory

        from repro.pipeline import shm

        raw = []
        try:
            views = []
            for i in range(shm._ATTACH_CAPACITY + 4):
                block = shared_memory.SharedMemory(
                    name=f"{ARENA_PREFIX}test{os.getpid()}x{i}", create=True, size=16
                )
                np.ndarray((2,), dtype=np.float64, buffer=block.buf)[:] = (i, -i)
                raw.append(block)
                views.append(SharedArrayRef(name=block.name, shape=(2,)).load())
            foreign = [n for n in shm._ATTACHED_ARRAYS if n not in shm._LIVE_ARENA]
            assert len(foreign) <= shm._ATTACH_CAPACITY
            assert raw[0].name not in shm._ATTACHED_ARRAYS
            assert raw[-1].name in shm._ATTACHED_ARRAYS
            for i, view in enumerate(views):
                assert view.tolist() == [i, -i]
        finally:
            for block in raw:
                hit = shm._forget(block.name)
                if hit is not None:
                    shm._defuse_handle(hit[0])
                block.unlink()


class TestUnitTaskPayload:
    def _task(self, panel) -> _UnitTask:
        return _UnitTask(
            unit="AS100/cpt",
            pre_periods=10,
            post_periods=10,
            panel=panel,
            excluded=("AS100/cpt",),
            max_donor_missing=0.5,
            method="robust",
            max_placebos=None,
            fit_kwargs=(("energy", 0.99), ("ridge", 1e-2)),
        )

    def test_task_with_ref_pickles_in_hundreds_of_bytes(self):
        panel = _make_panel()
        with SharedFrameArena(tag="test-panel") as arena:
            _shared, ref = arena.share_panel(panel)
            slim = len(pickle.dumps(self._task(ref)))
            fat = len(pickle.dumps(self._task(panel)))
            assert slim < 1024
            assert slim < fat  # and the gap widens with panel size
            # The task pickle does not grow with the matrix: a 100x
            # bigger matrix adds only its labels' bytes.
            big = _make_panel(200, 60)
            grown = len(pickle.dumps(self._task(arena.share_panel(big)[1]))) - slim
            label_growth = len(pickle.dumps((big.times, big.units))) - len(
                pickle.dumps((panel.times, panel.units))
            )
            assert grown <= label_growth + 64
            assert grown < big.matrix.nbytes / 10

    def test_task_is_hashable_now_fit_kwargs_is_frozen(self):
        ref = SharedPanelRef(
            matrix=SharedArrayRef(name="rpr-arena-x", shape=(1, 1)),
            times=(0.0,),
            units=("AS100/cpt",),
        )
        task = self._task(ref)
        assert hash(task) == hash(self._task(ref))
        assert isinstance(task.fit_kwargs, tuple)


@pytest.fixture(autouse=True)
def _clean_fault_log():
    clear_events()
    yield
    clear_events()


class TestStudyOnTheSharedMemoryPath:
    def test_parallel_rows_match_serial_bit_for_bit(
        self, small_frame, small_scenario
    ):
        serial = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=1)
        pooled = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=4)
        assert pooled.rows == serial.rows
        assert pooled.skipped == serial.skipped

    def test_normal_parallel_study_unlinks_its_block(
        self, small_frame, small_scenario
    ):
        before = set(_shm_entries())
        result = run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert result.rows
        assert live_arena_blocks() == ()
        assert set(_shm_entries()) <= before

    def test_block_survives_pool_rebuild_then_unlinks(
        self, small_frame, small_scenario
    ):
        baseline = run_ixp_study(small_frame, small_scenario.ixp_name)
        target = baseline.rows[0].unit
        plan = FaultPlan(
            SEED, (FaultSpec(site="fits.unit", kind="kill", match=target),)
        )
        with active_plan(plan):
            result = run_ixp_study(
                small_frame, small_scenario.ixp_name, n_jobs=2, retry=RETRY
            )
        # The respawned workers re-attached the blocks by name on their
        # first task, and the table is untouched.
        assert result.rows == baseline.rows
        assert live_arena_blocks() == ()

    def test_mid_study_exception_still_unlinks(self, small_frame, small_scenario):
        plan = FaultPlan(SEED, (FaultSpec(site="fits.unit", kind="error"),))
        with active_plan(plan):
            with pytest.raises(InjectedFault):
                run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=2)
        assert live_arena_blocks() == ()

    def test_panel_corruption_parity_serial_vs_parallel(
        self, small_frame, small_scenario
    ):
        # The chaos fault swaps in a corrupted *copy* of the panel; the
        # study must copy it into a new block, or workers would fit the
        # clean bytes and diverge from serial.
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
        assert serial.skipped == pooled.skipped
        assert serial_log == pooled_log
        assert live_arena_blocks() == ()

    def test_serial_study_never_creates_a_block(self, small_frame, small_scenario):
        before = set(_shm_entries())
        run_ixp_study(small_frame, small_scenario.ixp_name, n_jobs=1)
        assert set(_shm_entries()) <= before
        assert live_arena_blocks() == ()


class TestBatchedLeaveOneOut:
    def _fact(self, with_gaps: bool = True):
        rng = np.random.default_rng(4)
        donors = rng.normal(40.0, 3.0, size=(30, 8))
        if with_gaps:
            donors[rng.random(donors.shape) < 0.1] = np.nan
        return factor_donor_matrix(donors)

    def test_batched_svd_matches_per_column_downdate_exactly(self):
        fact = self._fact()
        (batched,) = denoise_leave_one_out([fact], energy=0.99)
        assert len(batched) == fact.n_donors
        for col, (denoised, rank) in enumerate(batched):
            single, single_rank = denoise_without_column(fact, col, energy=0.99)
            assert rank == single_rank
            # The one-column subset a pooled refit asks for, too.
            ((subset, subset_rank),) = denoise_leave_one_out(
                [fact], energy=0.99, cols=[(col,)]
            )[0]
            assert rank == subset_rank
            np.testing.assert_array_equal(denoised, single)
            np.testing.assert_array_equal(subset, single)

    def test_limit_truncates_the_batch(self):
        fact = self._fact(with_gaps=False)
        assert len(denoise_leave_one_out([fact], cols=[range(3)])[0]) == 3
        assert len(denoise_leave_one_out([fact], cols=[range(0)])[0]) == 0

    def test_zero_spectrum_falls_back_like_the_downdate(self):
        fact = factor_donor_matrix(np.zeros((6, 3)))
        (batched,) = denoise_leave_one_out([fact])
        for col, (denoised, rank) in enumerate(batched):
            single, single_rank = denoise_without_column(fact, col)
            assert rank == single_rank == 0
            np.testing.assert_array_equal(denoised, single)

    def test_single_donor_is_rejected(self):
        from repro.errors import DonorPoolError

        fact = factor_donor_matrix(np.ones((5, 1)))
        with pytest.raises(DonorPoolError, match="only donor column"):
            denoise_leave_one_out([fact])
        with pytest.raises(DonorPoolError, match="out of range"):
            denoise_leave_one_out([self._fact()], cols=[(8,)])
