"""Robust synthetic control (Amjad, Shah & Shen, JMLR 2018).

The method the paper's Table 1 uses.  Two stages:

1. **De-noising**: stack the donor panel into a matrix, impute missing
   cells with the column mean, take its SVD, and keep only the
   singular values above a threshold — recovering a low-rank estimate of
   the latent signal under noise and missingness.
2. **Regression**: fit the treated unit's pre-period on the *denoised*
   donor pre-matrix with ridge-regularized least squares (weights are
   unconstrained — no simplex restriction).

The counterfactual is the denoised donor panel projected through the
learned weights.  Compared to the classic method it tolerates noisy and
partially missing donor series, which is why the paper picks it for
M-Lab's irregular user-initiated sampling.

The de-noising is factored so its expensive part — the SVD of the
filled donor matrix — is computed once and passed around as a value.
Two batched primitives do every SVD of the method:

- :func:`factor_donor_matrices` imputes and factors many donor
  matrices, one stacked SVD per shape (a single matrix is a group of
  one); :func:`denoise_from_factorization` thresholds the result;
- :func:`denoise_leave_one_out` produces the leave-one-donor-out
  denoised panels the placebo engine needs by *downdating* each
  factorization (an SVD of the small ``k x (J-1)`` core instead of the
  full ``T x (J-1)`` matrix), for any column subset of any number of
  factorizations at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DonorPoolError, EstimationError
from repro.synthcontrol.classic import _donor_names, _validate_panel
from repro.synthcontrol.result import SyntheticControlFit

# Absolute slack when comparing the cumulative spectrum against the
# energy target: cumulative shares are ratios of floating-point sums,
# so a mathematically exact hit can land a few ulps *below* the target
# and would otherwise keep one singular value too many.
_ENERGY_TOL = 1e-12


@dataclass(frozen=True)
class DonorFactorization:
    """The reusable part of donor-matrix de-noising.

    Everything here is energy-independent: the mean-imputed matrix, the
    imputation statistics, and the thin SVD.  Thresholding at any
    ``energy`` — with or without a donor column — derives from this
    without touching the raw panel again.

    Attributes
    ----------
    filled:
        The donor matrix with NaN cells replaced by column means.
    col_means:
        Per-column imputation means (length J).
    finite_counts:
        Per-column count of observed (finite) cells (length J).
    u, s, vt:
        Thin SVD of :attr:`filled` (``filled = u @ diag(s) @ vt``).
    """

    filled: np.ndarray = field(repr=False)
    col_means: np.ndarray = field(repr=False)
    finite_counts: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    vt: np.ndarray = field(repr=False)

    @property
    def n_times(self) -> int:
        """Number of panel rows (time points)."""
        return self.filled.shape[0]

    @property
    def n_donors(self) -> int:
        """Number of panel columns (donors)."""
        return self.filled.shape[1]


def _validate_donor_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise DonorPoolError(
            f"donor matrix must be 2-D with >= 1 column, got shape {matrix.shape}"
        )
    return matrix


def _impute_columns(
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-impute a donor matrix: ``(filled, col_means, finite_counts)``.

    Bit-identical to the historical per-column Python loop.  Fully
    observed columns reduce in one vectorized pass: summing each row of
    the C-contiguous transpose applies numpy's pairwise summation to the
    same contiguous values, in the same order, as ``col[ok].mean()`` did
    per column.  Columns *with* missing cells keep a gather per column —
    the masked gather is exactly the array the old loop averaged, and
    any shortcut that sums zeros in place of the NaNs would change the
    pairwise rounding.
    """
    filled = matrix.copy()
    mask = np.isfinite(filled)
    finite_counts = mask.sum(axis=0)
    if not finite_counts.all():
        j_bad = int(np.flatnonzero(finite_counts == 0)[0])
        raise DonorPoolError(f"donor column {j_bad} is entirely missing")
    n_times = filled.shape[0]
    ft = np.ascontiguousarray(filled.T)
    col_means = np.empty(filled.shape[1])
    complete = finite_counts == n_times
    if complete.any():
        col_means[complete] = ft[complete].sum(axis=1) / n_times
    for j in np.flatnonzero(~complete):
        col_means[j] = ft[j][mask[:, j]].mean()
    if not complete.all():
        miss_r, miss_c = np.nonzero(~mask)
        filled[miss_r, miss_c] = col_means[miss_c]
    return filled, col_means, finite_counts


def factor_donor_matrices(
    matrices: Sequence[np.ndarray],
) -> list[DonorFactorization]:
    """Impute and factor donor matrices, one stacked SVD per shape group.

    The only impute-plus-SVD in the package; a single matrix is a group
    of one.  Donor matrices from different treated units usually share
    one ``(T, J)`` shape (every unit screens the same donor pool), so
    their mean-imputed panels stack into a ``(G, T, J)`` array that a
    single :func:`numpy.linalg.svd` call decomposes in one gufunc sweep.
    LAPACK runs once per matrix either way, on the same bytes, so each
    factorization is bit-identical however its matrix was grouped.
    """
    mats = [_validate_donor_matrix(m) for m in matrices]
    imputed = [_impute_columns(m) for m in mats]
    facts: list[DonorFactorization | None] = [None] * len(mats)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(i)
    for shape, members in groups.items():
        stack = np.empty((len(members), *shape))
        for pos, i in enumerate(members):
            stack[pos] = imputed[i][0]
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        for pos, i in enumerate(members):
            filled, col_means, finite_counts = imputed[i]
            facts[i] = DonorFactorization(
                filled=filled,
                col_means=col_means,
                finite_counts=finite_counts,
                u=u[pos],
                s=s[pos],
                vt=vt[pos],
            )
    return [fact for fact in facts if fact is not None]


def _rank_for_energy(s: np.ndarray, energy: float, min_rank: int) -> int:
    """Smallest rank whose squared singular values reach *energy*.

    An exact hit keeps exactly that many values: the comparison allows
    :data:`_ENERGY_TOL` of float dust so ``cum[r-1] == energy`` up to
    rounding never keeps an extra component.
    """
    cum = np.cumsum(s**2) / np.sum(s**2)
    rank = int(np.searchsorted(cum, energy - _ENERGY_TOL, side="left")) + 1
    rank = max(rank, min_rank)
    return min(rank, len(s))


def _rescale_denoised(
    denoised: np.ndarray, col_means: np.ndarray, p_obs: float
) -> np.ndarray:
    """Undo the spectral shrinkage mean-filling introduces (Amjad et al. §3)."""
    if 0 < p_obs < 1:
        return col_means + (denoised - col_means) / p_obs
    return denoised


def _check_energy(energy: float) -> None:
    if not 0 < energy <= 1:
        raise EstimationError(f"energy must be in (0, 1], got {energy}")


def denoise_from_factorization(
    fact: DonorFactorization, energy: float = 0.99, min_rank: int = 1
) -> tuple[np.ndarray, int]:
    """Hard-threshold a pre-computed factorization at *energy*.

    Equivalent to :func:`singular_value_threshold` on the same matrix,
    without repeating imputation or the SVD.
    """
    _check_energy(energy)
    if fact.s.sum() == 0:
        return fact.filled, 0
    rank = _rank_for_energy(fact.s, energy, min_rank)
    denoised = (fact.u[:, :rank] * fact.s[:rank]) @ fact.vt[:rank]
    p_obs = float(fact.finite_counts.sum()) / fact.filled.size
    return _rescale_denoised(denoised, fact.col_means, p_obs), rank


def _loo_cores(fact: DonorFactorization, cols: np.ndarray) -> np.ndarray:
    """The leave-one-out cores ``S Vt'`` for *cols* as one ``(n, k, J-1)`` fill.

    Deleting column *c* of ``A = U S Vt`` leaves ``A' = U (S Vt')``,
    with ``Vt'`` the matching column of ``Vt`` removed.  One fancy-index
    gather builds every requested core without a Python-level copy per
    column.
    """
    svt = fact.s[:, None] * fact.vt
    keep = np.arange(fact.n_donors - 1)[None, :]
    # Row c keeps columns [0..c-1, c+1..J-1]: shift indices >= c up by one.
    gather = keep + (keep >= cols[:, None])
    return np.ascontiguousarray(svt[:, gather].swapaxes(0, 1))


def _loo_columns(fact: DonorFactorization, cols: Iterable[int] | None) -> np.ndarray:
    """Validate one factorization's leave-one-out column subset."""
    j = fact.n_donors
    picked = np.arange(j) if cols is None else np.array(list(cols), dtype=np.int64)
    bad = picked[(picked < 0) | (picked >= j)]
    if bad.size:
        raise DonorPoolError(f"column {bad[0]} out of range for {j} donors")
    if j < 2:
        raise DonorPoolError("cannot delete the only donor column")
    return picked


def _loo_finalize(
    fact: DonorFactorization,
    cols: np.ndarray,
    u_cores: np.ndarray,
    s_subs: np.ndarray,
    vt_subs: np.ndarray,
    energy: float,
    min_rank: int,
) -> tuple[tuple[np.ndarray, int], ...]:
    """Threshold and rescale each decomposed core back to a denoised panel."""
    j = fact.n_donors
    total_observed = float(fact.finite_counts.sum())
    out: list[tuple[np.ndarray, int]] = []
    for i, col in enumerate(cols):
        s_sub = s_subs[i]
        if s_sub.sum() == 0:
            out.append((np.delete(fact.filled, col, axis=1), 0))
            continue
        rank = _rank_for_energy(s_sub, energy, min_rank)
        u_sub = fact.u @ u_cores[i][:, :rank]
        denoised = (u_sub * s_sub[:rank]) @ vt_subs[i][:rank]
        observed = int(total_observed - fact.finite_counts[col])
        p_obs = observed / (fact.n_times * (j - 1))
        col_means = np.delete(fact.col_means, col)
        out.append((_rescale_denoised(denoised, col_means, p_obs), rank))
    return tuple(out)


def denoise_leave_one_out(
    facts: Sequence[DonorFactorization],
    energy: float = 0.99,
    min_rank: int = 1,
    cols: Sequence[Iterable[int] | None] | None = None,
) -> list[tuple[tuple[np.ndarray, int], ...]]:
    """Leave-one-donor-out de-noisings, by downdating, for many units.

    The only leave-one-out primitive.  Deleting a column of
    ``A = U S Vt`` leaves ``A' = U (S Vt')``, so the SVD of ``A'``
    follows from the SVD of the small ``k x (J-1)`` core ``S Vt'``; the
    ``T x J`` SVD is never recomputed.  Every requested core across all
    *facts* that shares a ``(k, J-1)`` shape goes into one stacked
    :func:`numpy.linalg.svd` call.  The gufunc runs the same LAPACK
    routine on the same bytes per core, so each result is bit-identical
    however the cores were grouped: one column alone, a unit's whole
    placebo loop, or a study's every unit at once.

    *cols* gives one column subset per factorization (``None`` means
    all of its columns; the default means all columns of every one).
    The study passes ``range(limit)``; a single placebo refit passes
    ``(col,)``.  Returns, per factorization, ``(denoised, rank)`` for
    each requested column in order.  A zero spectrum, of the matrix or
    of one core, falls back to the filled matrix without the column at
    rank 0.
    """
    _check_energy(energy)
    if cols is None:
        cols = [None] * len(facts)
    if len(cols) != len(facts):
        raise DonorPoolError(
            f"{len(cols)} column subsets for {len(facts)} factorizations"
        )
    picked = [_loo_columns(fact, c) for fact, c in zip(facts, cols)]
    results: list[tuple[tuple[np.ndarray, int], ...] | None] = [None] * len(facts)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (fact, c) in enumerate(zip(facts, picked)):
        if len(c) == 0:
            results[i] = ()
        elif fact.s.sum() == 0:
            results[i] = tuple((np.delete(fact.filled, col, axis=1), 0) for col in c)
        else:
            groups.setdefault((len(fact.s), fact.n_donors - 1), []).append(i)
    for shape, members in groups.items():
        stack = np.empty((sum(len(picked[i]) for i in members), *shape))
        offset = 0
        for i in members:
            n = len(picked[i])
            stack[offset : offset + n] = _loo_cores(facts[i], picked[i])
            offset += n
        u_cores, s_subs, vt_subs = np.linalg.svd(stack, full_matrices=False)
        offset = 0
        for i in members:
            n = len(picked[i])
            window = slice(offset, offset + n)
            results[i] = _loo_finalize(
                facts[i],
                picked[i],
                u_cores[window],
                s_subs[window],
                vt_subs[window],
                energy,
                min_rank,
            )
            offset += n
    return [r for r in results if r is not None]


def singular_value_threshold(
    matrix: np.ndarray, energy: float = 0.99, min_rank: int = 1
) -> tuple[np.ndarray, int]:
    """Hard-threshold the SVD of *matrix*, keeping *energy* of the spectrum.

    Missing (NaN) cells are filled with the column mean before the SVD —
    the standard mean-imputation step of robust synthetic control.
    Returns ``(denoised_matrix, rank_kept)``.
    """
    _check_energy(energy)
    return denoise_from_factorization(
        factor_donor_matrices([matrix])[0], energy=energy, min_rank=min_rank
    )


def _checked_factorization(
    donors: np.ndarray, fact: DonorFactorization | None
) -> DonorFactorization:
    """*fact* if it factors a matrix of *donors*' shape, else a fresh one.

    A caller that already holds the factorization (the study's planning
    pass) passes it in; ``None`` factors *donors* here.  A factorization
    of another shape is a caller bug and raises :class:`DonorPoolError`.
    """
    if fact is None:
        return factor_donor_matrices([donors])[0]
    if fact.filled.shape != np.shape(donors):
        raise DonorPoolError(
            f"factorization of shape {fact.filled.shape} does not match "
            f"the donor matrix's {np.shape(donors)}"
        )
    return fact


def ridge_weights(
    y_pre: np.ndarray, donors_pre: np.ndarray, ridge: float = 1e-2
) -> np.ndarray:
    """Unconstrained ridge-regularized regression weights on the pre-period."""
    finite = np.isfinite(y_pre)
    if finite.sum() < 2:
        raise EstimationError("need >= 2 finite pre-period treated values")
    a = donors_pre[finite]
    b = y_pre[finite]
    j = a.shape[1]
    lhs = a.T @ a + ridge * np.eye(j)
    rhs = a.T @ b
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:  # pragma: no cover - ridge should prevent this
        return np.linalg.lstsq(a, b, rcond=None)[0]


def fit_from_denoised(
    treated: np.ndarray,
    denoised: np.ndarray,
    pre_periods: int,
    treated_name: str,
    donor_names: tuple[str, ...],
    ridge: float = 1e-2,
) -> SyntheticControlFit:
    """The regression stage alone, on an already-denoised donor panel."""
    weights = ridge_weights(treated[:pre_periods], denoised[:pre_periods], ridge=ridge)
    synthetic = denoised @ weights
    return SyntheticControlFit(
        treated_name=treated_name,
        donor_names=donor_names,
        weights=weights,
        pre_periods=pre_periods,
        post_periods=len(treated) - pre_periods,
        observed=treated,
        synthetic=synthetic,
        method="robust",
    )


def robust_synthetic_control(
    treated: np.ndarray,
    donors: np.ndarray,
    pre_periods: int,
    treated_name: str = "treated",
    donor_names: Sequence[str] | None = None,
    energy: float = 0.99,
    ridge: float = 1e-2,
    fact: DonorFactorization | None = None,
) -> SyntheticControlFit:
    """Fit robust synthetic control on a T x J donor panel.

    Parameters
    ----------
    treated, donors, pre_periods:
        As in :func:`~repro.synthcontrol.classic.classic_synthetic_control`;
        donor cells may be NaN.
    energy:
        Fraction of squared singular-value mass retained by the
        hard-threshold de-noising step.
    ridge:
        L2 penalty of the second-stage regression.
    fact:
        The donor matrix's factorization, when the caller already holds
        it (the placebo loop shares one with the treated fit); ``None``
        factors *donors* here.
    """
    treated, donors = _validate_panel(treated, donors, pre_periods)
    names = _donor_names(donor_names, donors.shape[1])
    denoised, _rank = denoise_from_factorization(
        _checked_factorization(donors, fact), energy=energy
    )
    return fit_from_denoised(
        treated, denoised, pre_periods, treated_name, names, ridge=ridge
    )
