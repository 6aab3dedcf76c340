"""Model-data mismatch index from standard versus bagged posterior variances.

For a scalar functional with standard posterior variance v and bagged
posterior variance v_bb (bagged with M = N), a well-calibrated posterior
has v_bb ~= 2v asymptotically.  The index is::

    I = 1 - 2 v / v_bb    if v_bb > v
    I = NA                otherwise

I ~= 0 means no evidence of mismatch, I > 0 overconfidence, I < 0
under-confidence, and NA severe mismatch or failed asymptotics.  Over the
coordinate-projection function class the overall index is the most
pessimistic coordinate value, with NA dominating.

Moments come in the layout of ``linreg.param_moments_from_stats``, (..., 2, C)
arrays of means (row 0) and variances (row 1) of C coordinates, and are
reduced for all coordinates at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InsufficientReplicatesError, InvalidArgumentError

__all__ = [
    "MismatchValue",
    "mismatch_index",
    "bagged_variance_of_projection",
    "mismatch_index_proj",
    "coordinate_labels",
]


@dataclass(frozen=True)
class MismatchValue:
    """Mismatch index value; ``None`` encodes NA."""

    value: float | None

    @property
    def is_na(self) -> bool:
        return self.value is None


def mismatch_index(v, v_bb):
    """Index 1 - 2v/v_bb where v_bb > v, NaN (NA) elsewhere; broadcasts over
    v and v_bb and returns a float for scalar inputs."""
    v, v_bb = np.asarray(v, dtype=float), np.asarray(v_bb, dtype=float)
    if not (np.all(np.isfinite(v) & (v >= 0)) and np.all(np.isfinite(v_bb) & (v_bb >= 0))):
        raise InvalidArgumentError(f"variances must be finite and nonnegative, got v={v}, v_bb={v_bb}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v_bb > v, 1.0 - 2.0 * v / v_bb, np.nan)[()]


def bagged_variance_of_projection(replicates):
    """Variance of each coordinate under the bagged posterior, from (B, 2, ...)
    replicate rows of means and variances; a float for (B, 2) rows.

    The bagged posterior is the equal-weight mixture of the replicate
    posteriors, so its variance is the mean of the replicate variances
    plus the (population) variance of the replicate means.
    """
    arr = np.asarray(replicates, dtype=float)
    if arr.ndim < 2 or arr.shape[1] != 2:
        raise InvalidArgumentError(f"expected (B, 2, ...) replicate moments, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InsufficientReplicatesError(f"need at least 2 replicates, got {arr.shape[0]}")
    # replicates on a contiguous last axis, so numpy sums each coordinate pairwise
    means, variances = np.moveaxis(arr, 0, -1).copy()
    if np.any(variances < 0):
        raise InvalidArgumentError("replicate variances must be nonnegative")
    return (variances.mean(axis=-1) + means.var(axis=-1))[()]


def coordinate_labels(n_beta: int) -> list[str]:
    """Labels for the projection coordinates: log sigma^2 then beta_1..beta_D
    (1-based, matching component numbering in reports)."""
    return ["log_sigma2"] + [f"beta_{j}" for j in range(1, n_beta + 1)]


def mismatch_index_proj(standard, replicates) -> tuple[MismatchValue, Mapping[str, MismatchValue]]:
    """Per-coordinate and overall mismatch over coordinate projections.

    ``standard`` holds the full-data posterior moments, a (2, C) array, and
    ``replicates`` the per-bootstrap-replicate moments (computed with
    M = N): a (B, 2, C) array, as ``param_moments_from_stats`` gives for a
    block of weight rows, or a sequence of B (2, C) arrays.  The overall
    value is NA if any coordinate is NA, else the maximum.
    """
    standard = np.asarray(standard, dtype=float)
    try:
        replicates = np.asarray(replicates, dtype=float)
    except ValueError:
        raise InvalidArgumentError("replicate moments have ragged shapes") from None
    if standard.ndim != 2 or standard.shape[0] != 2 or replicates.shape[1:] != standard.shape:
        raise InvalidArgumentError(f"expected (2, C) standard and (B, 2, C) replicate moments, "
                                   f"got {standard.shape} and {replicates.shape}")
    index = mismatch_index(standard[1], bagged_variance_of_projection(replicates))
    per_coord = {label: MismatchValue(None if np.isnan(value) else float(value))
                 for label, value in zip(coordinate_labels(index.size - 1), index)}
    return MismatchValue(None if np.isnan(index).any() else float(index.max())), per_coord
