"""Unbiased-risk (SURE) bandwidth selection with K-fold cross-fitting.

The per-point criterion for a Tweedie-type rule  delta = x + s^2 f1/f  is

    S_i = sigma_i^2 + sigma_i^4 * [2 f f2 - f1^2] / f^2

evaluated at (x_i, sigma_i) with the density triple (f, f1, f2) fitted on the
complement of i's fold. S_i estimates risk unbiasedly and may be negative.
The compound criterion S(h) = sum_i S_i is minimized over a bandwidth grid.

The scaled estimator applies the rule in z = x/sigma coordinates where the
score enters with a single factor of sigma; Stein's identity then gives

    S_i = sigma_i^2 + sigma_i^2 * [2 f f2 - f1^2] / f^2   (at z_i)

so pooled tuning takes the bracket power as a parameter.

One fold assignment is drawn per tune call and shared across all grid cells
(variance reduction). A cell is degenerate, and excluded from the argmin,
when any of its weight normalizers underflows, when more than 1% of its
points hit the density floor ``kernel.FLOOR``, or when its selection score
is not finite (kernel sums that overflow). NEST and the pooled rules share
one search, :func:`_search`; a pooled rule is the weighted KDE with every
sigma set to 1 and a single h_sigma.

S(h) is unbiased for the compound risk at every h but its variance explodes
as the bandwidths shrink (the per-point terms are heavy-tailed score
ratios), which lets a tiny-bandwidth cell capture a plain argmin through
noise alone. The default selection therefore minimizes S(h) + SE{S(h)},
the one standard-error safeguard, with the SE estimated from the per-point
values; the plain ``argmin`` rule is available as an option and the raw
surface is always reported for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Bandwidths, HeteroSample, check_bandwidths, kfold_split
from .errors import AllCellsDegenerate, BadFoldCount, BadGroupCount
from .kernel import FLOOR, density_grid
from .estimators import k_groups_fit

_FLOOR_FRACTION = 0.01


@dataclass(frozen=True)
class SureGrid:
    """Bandwidth search grid plus the cross-fitting configuration."""

    h_x_values: tuple[float, ...]
    h_sigma_values: tuple[float, ...]
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("h_x_values", "h_sigma_values"):
            hv = check_bandwidths(name, getattr(self, name))
            if any(a >= b for a, b in zip(hv, hv[1:])):
                raise ValueError(f"{name} must be strictly ascending")
        if self.k < 2:
            raise ValueError("fold count must be >= 2")


def fold_count(n: int, k: int) -> int:
    """The fold count for cross-fitting n points with k folds requested: k
    clamped to n (leave-one-out when k >= n). Raises BadFoldCount naming n
    and the k given when n < 2, which no fold count can cross-fit."""
    if n < 2:
        raise BadFoldCount(k, n)
    return min(k, n)


def unit_grid() -> tuple[float, ...]:
    """The canonical ten-point grid 0.1, 0.2, ..., 1.0."""
    return tuple(float(v) for v in np.round(np.arange(1, 11) * 0.1, 10))


def default_grid(sample: HeteroSample, k: int = 10, seed: int = 0) -> SureGrid:
    """h_x over 0.1..1.0 (multipliers on sigma_j); h_sigma over 0.1..1.0
    times sd(sigma) (:func:`pooled_grid_for`). Homoscedastic samples
    (sd == 0) fall back to an absolute scale of 1; the weights are then
    uniform for every h_sigma anyway."""
    return SureGrid(unit_grid(), pooled_grid_for(sample.sigma), k=k, seed=seed)


@dataclass(frozen=True)
class SureReport:
    """Grid search result.

    ``surface`` holds the raw compound values S(h); ``selection`` holds
    S(h) + SE{S(h)}, which the reported ``argmin`` minimizes over
    non-degenerate cells.
    """

    h_x_values: tuple[float, ...]
    h_sigma_values: tuple[float, ...]
    surface: np.ndarray            # shape (len(h_x), len(h_sigma))
    selection: np.ndarray          # same shape
    degenerate: np.ndarray         # same shape, bool
    argmin: Bandwidths
    per_point: np.ndarray | None = None

    @property
    def on_edge(self) -> tuple[bool, bool]:
        """Per coordinate (h_x, h_sigma): whether the argmin sits on the
        first or last grid value."""
        return (_on_edge(self.h_x_values, self.argmin.h_x),
                _on_edge(self.h_sigma_values, self.argmin.h_sigma))


def _on_edge(values: tuple[float, ...], chosen: float) -> bool:
    return chosen in (values[0], values[-1])


def _sure_values(f, f1, f2, sigma, power: int):
    """Per-point SURE  sigma^2 + sigma^power * (2 f f2 - f1^2) / f^2  from a
    (floored) density triple; elementwise over arrays."""
    return sigma**2 + sigma**power * ((2.0 * f * f2 - f1 * f1) / (f * f))


def _argmin_cell(surface: np.ndarray, degenerate: np.ndarray) -> tuple[int, int]:
    """Minimal non-degenerate cell; ties broken by smallest h_sigma, then
    smallest h_x (the first minimum of the transposed array)."""
    if degenerate.all():
        raise AllCellsDegenerate()
    masked = np.where(degenerate, np.inf, surface).T
    j, i = np.unravel_index(np.argmin(masked), masked.shape)
    return int(i), int(j)


_SELECTION_RULES = ("penalized", "argmin")


def _search(xd, sd, sigma_risk, hx_values, hs_values, fold_of, bracket_power: int, selection: str):
    """Cross-fitted SURE over every (h_x, h_sigma) cell, the density fitted
    on fold complements; the one grid search behind every tuner.

    xd/sd are the density-fit coordinates (sd is all ones for pooled KDEs);
    sigma_risk enters the risk terms. Returns (per_point, surface, selection
    scores, degenerate, chosen cell (i, j)), the first of shape (nx, ns, n)
    and the next three (nx, ns).
    """
    if selection not in _SELECTION_RULES:
        raise ValueError(f"selection must be one of {_SELECTION_RULES}, got {selection!r}")
    n = xd.shape[0]
    f_raw, f1, f2, wsum = density_grid(xd, sd, xd, sd, hx_values, hs_values, fold_of, fold_of)
    pp = _sure_values(np.maximum(f_raw, FLOOR), f1, f2, sigma_risk, bracket_power)
    surface = pp.sum(axis=-1)
    if selection == "argmin" or n < 2:
        scores = surface.copy()
    else:
        scores = surface + pp.std(axis=-1, ddof=1) * np.sqrt(n)
    floored = np.count_nonzero(f_raw < FLOOR, axis=-1)
    degenerate = (wsum == 0.0).any(axis=1) | (floored > _FLOOR_FRACTION * n) | ~np.isfinite(scores)
    return pp, surface, scores, degenerate, _argmin_cell(scores, degenerate)


def tune(sample: HeteroSample, grid: SureGrid, selection: str = "penalized") -> SureReport:
    """Grid-search the compound SURE criterion; deterministic in
    (sample, grid).

    ``selection="penalized"`` (default) minimizes S(h) + SE{S(h)};
    ``selection="argmin"`` minimizes the raw S(h)."""
    fold_of = kfold_split(sample.n, fold_count(sample.n, grid.k), grid.seed)
    pp, surface, scores, degenerate, (i, j) = _search(
        sample.x, sample.sigma, sample.sigma,
        grid.h_x_values, grid.h_sigma_values, fold_of, 4, selection,
    )
    return SureReport(
        tuple(grid.h_x_values),
        tuple(grid.h_sigma_values),
        surface,
        scores,
        degenerate,
        Bandwidths(grid.h_x_values[i], grid.h_sigma_values[j]),
        per_point=pp[i, j].copy(),
    )


@dataclass(frozen=True)
class PooledSureReport:
    h_values: tuple[float, ...]
    surface: np.ndarray
    selection: np.ndarray
    degenerate: np.ndarray
    best_h: float

    @property
    def on_edge(self) -> bool:
        """Whether best_h sits on the first or last grid value."""
        return _on_edge(self.h_values, self.best_h)


def tune_pooled(
    xd,
    sigma_risk,
    h_values,
    fold_of: np.ndarray,
    bracket_power: int = 4,
    selection: str = "penalized",
) -> PooledSureReport:
    """One-dimensional SURE grid search for pooled-KDE rules (TF, Scaled,
    per-group TF). ``bracket_power`` is 4 for rules scored in x coordinates
    and 2 for the scaled rule scored in z = x/sigma coordinates. The pair
    (xd, sigma_risk) is validated as a :class:`HeteroSample`."""
    sample = HeteroSample(xd, sigma_risk)
    hv = check_bandwidths("h_values", h_values)
    _, surface, scores, degenerate, (best, _) = _search(
        sample.x, np.ones_like(sample.x), sample.sigma, hv, [1.0], fold_of, bracket_power, selection
    )
    return PooledSureReport(hv, surface[:, 0], scores[:, 0], degenerate[:, 0], hv[best])


def pooled_grid_for(values) -> tuple[float, ...]:
    """Data-relative pooled-KDE grid: 0.1..1.0 times the sd of the fitting
    coordinates (fallback scale 1 for constant input). Raises ValueError when
    the sd is not finite (it overflows for values near the float64 limit)."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.std(np.asarray(values, dtype=float)))
    if not np.isfinite(scale):
        raise ValueError(f"pooled grid scale sd = {scale} is not finite")
    if scale == 0.0:
        scale = 1.0
    return tuple(v * scale for v in unit_grid())


def tune_kgroups(sample: HeteroSample, k_groups: int, folds_k: int, seed: int) -> tuple[float, ...]:
    """Independent per-group TF bandwidths, each tuned by pooled SURE inside
    its own sigma-quantile group."""
    out = []
    for g, idx in enumerate(k_groups_fit(sample, k_groups)):
        if idx.size < 2:
            raise BadGroupCount(k_groups, sample.n, f"group {g} too small to cross-fit")
        fold_of = kfold_split(idx.size, fold_count(idx.size, folds_k), seed)
        rep = tune_pooled(sample.x[idx], sample.sigma[idx], pooled_grid_for(sample.x[idx]), fold_of)
        out.append(rep.best_h)
    return tuple(out)
