"""The cross-unit batched fit engine (PR 8's tentpole, fit half).

What these tests pin down:

- the vectorized imputation (:func:`_impute_columns` inside
  :func:`factor_donor_matrices`) is bit-identical to the historical
  per-column Python loop, across random NaN patterns, fully observed
  panels, and all-missing-column errors;
- stacked cross-unit SVDs (:func:`factor_donor_matrices`,
  :func:`denoise_leave_one_out`) match the one-matrix, one-column
  oracles in ``tests/oracle.py`` bit-for-bit, including degenerate
  spectra (``s.sum() == 0``) and mixed donor-pool shapes;
- the prefactor planning pass produces factorizations the per-unit
  path would, survives the shared-memory slab round-trip exactly, and
  leaves the study's Table-1 rows bit-identical to the oracle (every
  unit fitted with ``prefactor=None``, see ``tests/oracle.py``), serial
  and ``--jobs 4``;
- a task whose prefactor does not match its own donor screen refits
  privately and still produces the oracle row.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import DonorPoolError
from repro.pipeline.prefactor import (
    PrefactorRef,
    prefactor_unit_plan,
    publish_prefactors,
)
from repro.pipeline.shm import SharedFrameArena
from repro.pipeline.study import _analyse_unit, run_ixp_study
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.placebo import placebo_test
from repro.synthcontrol.robust import (
    DonorFactorization,
    denoise_leave_one_out,
    factor_donor_matrices,
)
from tests.oracle import denoise_without_column, factor_donor_matrix, oracle_study


def _loop_impute(matrix: np.ndarray):
    """The historical per-column imputation loop, kept as the oracle."""
    filled = matrix.copy()
    col_means = np.empty(matrix.shape[1])
    finite_counts = np.empty(matrix.shape[1], dtype=np.int64)
    for j in range(matrix.shape[1]):
        col = filled[:, j]
        ok = np.isfinite(col)
        finite_counts[j] = int(ok.sum())
        if finite_counts[j] == 0:
            raise DonorPoolError(f"donor column {j} is entirely missing")
        col_means[j] = col[ok].mean()
        col[~ok] = col_means[j]
    return filled, col_means, finite_counts


def _random_matrix(rng, t, j, missing=0.0):
    matrix = rng.normal(45.0, 6.0, size=(t, j))
    if missing:
        matrix[rng.random(matrix.shape) < missing] = np.nan
    return matrix


class TestVectorizedImputation:
    @pytest.mark.parametrize("missing", [0.0, 0.05, 0.3, 0.7])
    def test_bit_identical_to_the_loop_across_nan_densities(self, missing):
        rng = np.random.default_rng(11)
        for trial in range(10):
            matrix = _random_matrix(rng, 25, 7, missing)
            if not np.isfinite(matrix).any(axis=0).all():
                continue
            (fact,) = factor_donor_matrices([matrix])
            filled, means, counts = _loop_impute(matrix)
            np.testing.assert_array_equal(fact.filled, filled)
            np.testing.assert_array_equal(fact.col_means, means)
            np.testing.assert_array_equal(fact.finite_counts, counts)

    def test_all_missing_column_raises_the_same_message(self):
        matrix = np.ones((6, 3))
        matrix[:, 1] = np.nan
        with pytest.raises(DonorPoolError, match="donor column 1 is entirely"):
            factor_donor_matrices([matrix])
        with pytest.raises(DonorPoolError, match="donor column 1 is entirely"):
            _loop_impute(matrix)

    def test_single_finite_cell_column_matches(self):
        matrix = np.full((5, 2), np.nan)
        matrix[:, 0] = 1.0
        matrix[2, 1] = 7.5
        (fact,) = factor_donor_matrices([matrix])
        filled, means, _counts = _loop_impute(matrix)
        np.testing.assert_array_equal(fact.filled, filled)
        np.testing.assert_array_equal(fact.col_means, means)


class TestCrossUnitFactorization:
    def test_stacked_svd_matches_per_unit_exactly(self):
        rng = np.random.default_rng(3)
        matrices = [_random_matrix(rng, 30, 8, 0.1) for _ in range(6)]
        batched = factor_donor_matrices(matrices)
        for matrix, fact in zip(matrices, batched):
            single = factor_donor_matrix(matrix)
            np.testing.assert_array_equal(fact.filled, single.filled)
            np.testing.assert_array_equal(fact.u, single.u)
            np.testing.assert_array_equal(fact.s, single.s)
            np.testing.assert_array_equal(fact.vt, single.vt)

    def test_mixed_shapes_group_and_still_match(self):
        rng = np.random.default_rng(5)
        matrices = [
            _random_matrix(rng, 20, 5),
            _random_matrix(rng, 30, 8, 0.2),
            _random_matrix(rng, 20, 5, 0.1),
            _random_matrix(rng, 12, 3),
            _random_matrix(rng, 30, 8),
        ]
        batched = factor_donor_matrices(matrices)
        assert len(batched) == len(matrices)
        for matrix, fact in zip(matrices, batched):
            single = factor_donor_matrix(matrix)
            assert fact.filled.shape == matrix.shape
            np.testing.assert_array_equal(fact.u, single.u)
            np.testing.assert_array_equal(fact.s, single.s)
            np.testing.assert_array_equal(fact.vt, single.vt)

    def test_degenerate_zero_spectrum_matches(self):
        matrices = [np.zeros((6, 3)), np.ones((6, 3))]
        batched = factor_donor_matrices(matrices)
        for matrix, fact in zip(matrices, batched):
            single = factor_donor_matrix(matrix)
            np.testing.assert_array_equal(fact.s, single.s)
            np.testing.assert_array_equal(fact.u, single.u)
            np.testing.assert_array_equal(fact.vt, single.vt)

    def test_empty_input_and_validation(self):
        assert factor_donor_matrices([]) == []
        with pytest.raises(DonorPoolError, match="must be 2-D"):
            factor_donor_matrices([np.ones((4, 2)), np.ones(3)])


def _assert_loo_matches_oracle(fact, loo, cols=None, energy=0.99):
    cols = range(fact.n_donors) if cols is None else cols
    assert len(loo) == len(cols)
    for col, (denoised, rank) in zip(cols, loo):
        want, want_rank = denoise_without_column(fact, col, energy=energy)
        assert rank == want_rank
        np.testing.assert_array_equal(denoised, want)


class TestCrossUnitLeaveOneOut:
    def _facts(self, shapes, rng):
        return [
            factor_donor_matrix(_random_matrix(rng, t, j, 0.1))
            for t, j in shapes
        ]

    def test_many_matches_per_unit_bit_for_bit(self):
        rng = np.random.default_rng(9)
        facts = self._facts([(25, 6)] * 5, rng)
        batched = denoise_leave_one_out(facts, energy=0.99)
        for fact, loo in zip(facts, batched):
            _assert_loo_matches_oracle(fact, loo)

    def test_mixed_shapes_and_zero_spectrum(self):
        rng = np.random.default_rng(13)
        facts = self._facts([(20, 5), (30, 7), (20, 5)], rng)
        facts.append(factor_donor_matrix(np.zeros((10, 4))))
        batched = denoise_leave_one_out(facts)
        assert len(batched) == len(facts)
        for fact, loo in zip(facts, batched):
            _assert_loo_matches_oracle(fact, loo)

    def test_limit_is_per_unit(self):
        rng = np.random.default_rng(17)
        facts = self._facts([(15, 6), (15, 3)], rng)
        batched = denoise_leave_one_out(facts, cols=[range(4), None])
        assert [len(loo) for loo in batched] == [4, 3]
        _assert_loo_matches_oracle(facts[0], batched[0], cols=range(4))


class TestPrefactorEngine:
    def _panel(self, n_units=8, n_times=24, seed=1):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(50.0, 5.0, size=(n_times, n_units))
        matrix[rng.random(matrix.shape) < 0.05] = np.nan
        return Panel(
            times=tuple(float(t) for t in range(n_times)),
            units=tuple(f"AS{100 + j}/cpt" for j in range(n_units)),
            matrix=matrix,
        )

    def _tasks(self, panel, treated, max_placebos=None):
        from repro.pipeline.study import _UnitTask

        return [
            _UnitTask(
                unit=unit,
                pre_periods=12,
                post_periods=panel.n_times - 12,
                panel=panel,
                excluded=tuple(treated),
                max_donor_missing=0.5,
                method="robust",
                max_placebos=max_placebos,
                fit_kwargs=(("energy", 0.99), ("ridge", 1e-2)),
            )
            for unit in treated
        ]

    def test_prefactors_match_the_private_factorization(self):
        panel = self._panel()
        treated = [panel.units[0], panel.units[1]]
        tasks = self._tasks(panel, treated)
        table = prefactor_unit_plan(panel, tasks)
        assert set(table) == set(treated)
        for task in tasks:
            pf = table[task.unit]
            from repro.synthcontrol.donor import select_donors

            donors = select_donors(
                panel,
                task.unit,
                excluded=task.excluded,
                pre_periods=task.pre_periods,
                max_missing=task.max_donor_missing,
            )
            assert pf.donors == tuple(donors)
            matrix = np.column_stack([panel.series(d) for d in donors])
            single = factor_donor_matrix(matrix)
            np.testing.assert_array_equal(pf.fact.u, single.u)
            np.testing.assert_array_equal(pf.fact.s, single.s)
            np.testing.assert_array_equal(pf.fact.vt, single.vt)
            assert pf.loo is not None
            _assert_loo_matches_oracle(single, pf.loo)

    def test_slab_roundtrip_is_exact(self):
        panel = self._panel()
        treated = [panel.units[0], panel.units[1], panel.units[2]]
        table = prefactor_unit_plan(panel, self._tasks(panel, treated))
        with SharedFrameArena(tag="test-prefactor") as arena:
            refs = publish_prefactors(table, arena)
            assert set(refs) == set(table)
            for unit, pf in table.items():
                # A pooled task pickles its unit's reference, never arrays.
                assert not any(
                    isinstance(v, (np.ndarray, DonorFactorization))
                    for v in vars(refs[unit]).values()
                )
                got = pickle.loads(pickle.dumps(refs[unit])).load()
                assert got.donors == pf.donors
                np.testing.assert_array_equal(got.fact.filled, pf.fact.filled)
                np.testing.assert_array_equal(got.fact.col_means, pf.fact.col_means)
                np.testing.assert_array_equal(
                    got.fact.finite_counts, pf.fact.finite_counts
                )
                assert got.fact.finite_counts.dtype == pf.fact.finite_counts.dtype
                np.testing.assert_array_equal(got.fact.u, pf.fact.u)
                np.testing.assert_array_equal(got.fact.s, pf.fact.s)
                np.testing.assert_array_equal(got.fact.vt, pf.fact.vt)
                assert (pf.loo is None) == (got.loo is None)
                if pf.loo is not None:
                    assert len(got.loo) == len(pf.loo)
                    for (d_got, r_got), (d_pf, r_pf) in zip(got.loo, pf.loo):
                        assert r_got == r_pf
                        np.testing.assert_array_equal(d_got, d_pf)

    def test_placebo_cap_bounds_the_loo_batch(self):
        panel = self._panel()
        treated = [panel.units[0]]
        table = prefactor_unit_plan(
            panel, self._tasks(panel, treated, max_placebos=2)
        )
        (pf,) = table.values()
        assert pf.loo is not None and len(pf.loo) == 2
        capped = prefactor_unit_plan(
            panel, self._tasks(panel, treated, max_placebos=1)
        )
        assert next(iter(capped.values())).loo is None

    def test_classic_tasks_are_left_out(self):
        panel = self._panel()
        tasks = self._tasks(panel, [panel.units[0]])
        classic = [
            type(t)(**{**t.__dict__, "method": "classic", "fit_kwargs": ()})
            for t in tasks
        ]
        assert prefactor_unit_plan(panel, classic) == {}

    def test_seeded_placebo_test_matches_private_fit(self):
        panel = self._panel()
        unit = panel.units[0]
        tasks = self._tasks(panel, [unit])
        table = prefactor_unit_plan(panel, tasks)
        pf = table[unit]
        matrix = np.column_stack([panel.series(d) for d in pf.donors])
        treated_series = panel.series(unit)
        seeded = placebo_test(
            treated_series,
            matrix,
            12,
            donor_names=pf.donors,
            fact=pf.fact,
            loo=pf.loo,
            energy=0.99,
            ridge=1e-2,
        )
        private = placebo_test(
            treated_series,
            matrix,
            12,
            donor_names=pf.donors,
            energy=0.99,
            ridge=1e-2,
        )
        assert seeded.p_value == private.p_value
        assert seeded.placebo_rmse_ratios == private.placebo_rmse_ratios
        np.testing.assert_array_equal(
            seeded.fit.synthetic, private.fit.synthetic
        )


class TestPrefactorFallback:
    """A prefactor is trusted only when its donors match the task's screen."""

    def _panel_and_tasks(self):
        engine = TestPrefactorEngine()
        panel = engine._panel()
        treated = [panel.units[0], panel.units[1]]
        return panel, engine._tasks(panel, treated)

    def test_another_units_prefactor_refits_privately(self):
        panel, (first, second) = self._panel_and_tasks()
        table = prefactor_unit_plan(panel, [first, second])
        foreign = table[second.unit]
        assert foreign.donors != table[first.unit].donors
        oracle = _analyse_unit(first)
        assert _analyse_unit(replace(first, prefactor=foreign)) == oracle
        with SharedFrameArena(tag="test-fallback") as arena:
            ref = publish_prefactors(table, arena)[second.unit]
            assert isinstance(ref, PrefactorRef)
            assert _analyse_unit(replace(first, prefactor=ref)) == oracle

    def test_study_plan_with_swapped_prefactors_matches_the_oracle(
        self, small_frame, small_scenario
    ):
        from repro.pipeline import assign_treatment, rtt_panel
        from repro.pipeline.study import _UnitTask, prepare_unit_plan

        assignment = assign_treatment(small_frame, small_scenario.ixp_name)
        panel = rtt_panel(small_frame, period="day")
        plan = prepare_unit_plan(
            panel, assignment, fit_kwargs=(("energy", 0.99), ("ridge", 1e-2))
        )
        tasks = [step for step in plan if isinstance(step, _UnitTask)]
        assert len(tasks) >= 2
        table = prefactor_unit_plan(panel, tasks)
        units = [t.unit for t in tasks if t.unit in table]
        rotated = dict(zip(units, units[1:] + units[:1]))
        for task in tasks:
            foreign = table.get(rotated.get(task.unit, ""))
            got = _analyse_unit(replace(task, prefactor=foreign))
            assert got == _analyse_unit(task), task.unit


class TestStudyLevelBitIdentity:
    def test_batched_equals_unbatched_serial_and_jobs4(
        self, small_frame, small_scenario
    ):
        reference = oracle_study(small_frame, small_scenario.ixp_name)
        assert reference.rows  # the comparison must not be vacuous
        for n_jobs in (1, 4):
            result = run_ixp_study(
                small_frame, small_scenario.ixp_name, n_jobs=n_jobs
            )
            assert result.rows == reference.rows, n_jobs
            assert result.skipped == reference.skipped

    def test_batched_equals_unbatched_with_placebo_cap(
        self, small_frame, small_scenario
    ):
        reference = oracle_study(
            small_frame, small_scenario.ixp_name, max_placebos=3
        )
        assert reference.rows
        for n_jobs in (1, 4):
            batched = run_ixp_study(
                small_frame, small_scenario.ixp_name, max_placebos=3, n_jobs=n_jobs
            )
            assert batched.rows == reference.rows, n_jobs
            assert batched.skipped == reference.skipped
