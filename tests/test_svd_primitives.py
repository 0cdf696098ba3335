"""The two batched SVD primitives against the one-matrix oracles.

:func:`~repro.synthcontrol.robust.factor_donor_matrices` and
:func:`~repro.synthcontrol.robust.denoise_leave_one_out` do every SVD of
robust synthetic control.  Each must reproduce, bit for bit, the 2-D
SVD it replaced (``factor_donor_matrix`` and ``denoise_without_column``
in ``tests/oracle.py``) whatever the grouping: NaN cells, zero spectra
(of the matrix, or of one leave-one-out core), ``J = 2``, several units
of mixed shapes in one call, and arbitrary column subsets per unit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DonorPoolError, EstimationError
from repro.synthcontrol.robust import denoise_leave_one_out, factor_donor_matrices
from tests.oracle import denoise_without_column, factor_donor_matrix

#: A few shapes, so units in one call often share a shape group.
SHAPES = [(2, 2), (5, 2), (6, 3), (9, 4), (12, 6), (4, 5)]
MODES = ["random", "gappy", "zeros", "one-column", "constant"]


def _matrix(seed: int, shape: tuple[int, int], mode: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t, j = shape
    if mode == "zeros":
        return np.zeros(shape)
    if mode == "constant":
        return np.full(shape, 3.5)
    if mode == "one-column":
        # Deleting the one non-zero column leaves a zero-spectrum core.
        matrix = np.zeros(shape)
        matrix[:, rng.integers(j)] = rng.normal(40.0, 5.0, t)
        return matrix
    matrix = rng.normal(45.0, 6.0, shape)
    if mode == "gappy":
        matrix[rng.random(shape) < 0.35] = np.nan
        for col in range(j):  # an all-missing column is a different error
            if not np.isfinite(matrix[:, col]).any():
                matrix[rng.integers(t), col] = rng.normal(45.0, 6.0)
    return matrix


@st.composite
def _units(draw):
    n = draw(st.integers(1, 4))
    units = []
    for _ in range(n):
        shape = draw(st.sampled_from(SHAPES))
        mode = draw(st.sampled_from(MODES))
        matrix = _matrix(draw(st.integers(0, 2**16)), shape, mode)
        cols = draw(
            st.none()
            | st.lists(st.integers(0, shape[1] - 1), max_size=2 * shape[1])
        )
        units.append((matrix, cols))
    return units


def _assert_same_factorization(got, want):
    for field in ("filled", "col_means", "finite_counts", "u", "s", "vt"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert getattr(got, field).dtype == getattr(want, field).dtype, field


@settings(max_examples=150, deadline=None)
@given(_units(), st.sampled_from([0.5, 0.9, 0.99, 1.0]))
def test_primitives_match_the_one_matrix_oracles_bit_for_bit(units, energy):
    matrices = [matrix for matrix, _cols in units]
    facts = factor_donor_matrices(matrices)
    assert len(facts) == len(matrices)
    for matrix, fact in zip(matrices, facts):
        _assert_same_factorization(fact, factor_donor_matrix(matrix))

    subsets = [cols for _matrix, cols in units]
    loos = denoise_leave_one_out(facts, energy=energy, cols=subsets)
    assert len(loos) == len(facts)
    for fact, cols, loo in zip(facts, subsets, loos):
        cols = range(fact.n_donors) if cols is None else cols
        assert len(loo) == len(cols)
        for col, (denoised, rank) in zip(cols, loo):
            want, want_rank = denoise_without_column(fact, col, energy=energy)
            assert rank == want_rank
            np.testing.assert_array_equal(denoised, want)


def test_zero_spectra_take_the_rank_zero_fallback():
    zeros = factor_donor_matrix(np.zeros((5, 3)))
    one_col = np.zeros((5, 3))
    one_col[:, 1] = np.arange(5.0)
    lone = factor_donor_matrix(one_col)
    (zero_loo, lone_loo) = denoise_leave_one_out([zeros, lone], cols=[None, (1,)])
    assert [rank for _d, rank in zero_loo] == [0, 0, 0]
    ((denoised, rank),) = lone_loo
    assert rank == 0
    np.testing.assert_array_equal(denoised, np.delete(one_col, 1, axis=1))


def test_errors_match_the_oracle():
    single = factor_donor_matrix(np.ones((4, 1)))
    pair = factor_donor_matrix(np.arange(8.0).reshape(4, 2))
    with pytest.raises(DonorPoolError, match="cannot delete the only donor column"):
        denoise_leave_one_out([single])
    with pytest.raises(DonorPoolError, match="column 2 out of range for 2 donors"):
        denoise_leave_one_out([pair], cols=[(0, 2)])
    with pytest.raises(DonorPoolError, match="column -1 out of range"):
        denoise_leave_one_out([pair], cols=[(-1,)])
    with pytest.raises(EstimationError, match="energy"):
        denoise_leave_one_out([pair], energy=0.0)
    with pytest.raises(DonorPoolError, match="2 column subsets for 1"):
        denoise_leave_one_out([pair], cols=[None, None])
    assert denoise_leave_one_out([]) == []
    assert denoise_leave_one_out([pair], cols=[()]) == [()]
