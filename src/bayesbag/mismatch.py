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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientReplicatesError, InvalidArgumentError
from .linreg import ParamMoments

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


def mismatch_index(v: float, v_bb: float) -> MismatchValue:
    """Index 1 - 2v/v_bb when v_bb > v, NA otherwise."""
    if not (np.isfinite(v) and np.isfinite(v_bb)) or v < 0 or v_bb < 0:
        raise InvalidArgumentError(
            f"variances must be finite and nonnegative, got v={v}, v_bb={v_bb}"
        )
    if v_bb > v:
        return MismatchValue(1.0 - 2.0 * v / v_bb)
    return MismatchValue(None)


def bagged_variance_of_projection(replicate_moments) -> float:
    """Variance of a scalar functional under the bagged posterior.

    The bagged posterior is the equal-weight mixture of the replicate
    posteriors, so its variance is the mean of the replicate variances
    plus the (population) variance of the replicate means.
    """
    arr = np.asarray(replicate_moments, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidArgumentError("expected a sequence of (mean, variance) pairs")
    if arr.shape[0] < 2:
        raise InsufficientReplicatesError(
            f"need at least 2 replicates, got {arr.shape[0]}"
        )
    means, variances = arr[:, 0], arr[:, 1]
    if np.any(variances < 0):
        raise InvalidArgumentError("replicate variances must be nonnegative")
    return float(variances.mean() + means.var())


def coordinate_labels(n_beta: int) -> list[str]:
    """Labels for the projection coordinates: log sigma^2 then beta_1..beta_D
    (1-based, matching component numbering in reports)."""
    return ["log_sigma2"] + [f"beta_{j}" for j in range(1, n_beta + 1)]


def _stacked(replicates, n_beta: int) -> ParamMoments:
    """Replicate moments with one leading replicate axis, from such moments
    or from a sequence of single-replicate moments."""
    if isinstance(replicates, ParamMoments):
        if np.shape(replicates.mean_beta)[-1:] != (n_beta,):
            raise InvalidArgumentError("replicate moments have mismatched coordinates")
        return replicates
    reps = list(replicates)
    if any(np.shape(rep.mean_beta) != (n_beta,) for rep in reps):
        raise InvalidArgumentError("replicate moments have mismatched coordinates")

    def field(name: str, width: tuple) -> np.ndarray:
        return np.array([getattr(rep, name) for rep in reps], dtype=float).reshape((len(reps),) + width)

    return ParamMoments(
        mean_log_sigma2=field("mean_log_sigma2", ()),
        var_log_sigma2=field("var_log_sigma2", ()),
        mean_beta=field("mean_beta", (n_beta,)),
        var_beta=field("var_beta", (n_beta,)),
    )


def mismatch_index_proj(
    standard: ParamMoments, replicates: ParamMoments | Sequence[ParamMoments]
) -> tuple[MismatchValue, Mapping[str, MismatchValue]]:
    """Per-coordinate and overall mismatch over coordinate projections.

    ``standard`` holds the full-data posterior moments and ``replicates``
    the per-bootstrap-replicate moments (computed with M = N): moments with
    a leading replicate axis, as ``param_moments_from_stats`` gives for a
    block of weight rows, or a sequence of single-replicate moments.  The
    overall value is NA if any coordinate is NA, else the maximum.
    """
    n_beta = standard.mean_beta.size
    replicates = _stacked(replicates, n_beta)
    # coordinates [log sigma^2, beta_1..beta_D] as columns, one row per replicate
    v = np.append(standard.var_log_sigma2, standard.var_beta)
    means = np.column_stack([replicates.mean_log_sigma2, replicates.mean_beta])
    variances = np.column_stack([replicates.var_log_sigma2, replicates.var_beta])
    pairs = np.stack([means, variances], axis=-1)  # (B, 1 + D, 2)
    per_coord = {
        label: mismatch_index(float(v[j]), bagged_variance_of_projection(pairs[:, j]))
        for j, label in enumerate(coordinate_labels(n_beta))
    }

    if any(item.is_na for item in per_coord.values()):
        overall = MismatchValue(None)
    else:
        overall = MismatchValue(max(item.value for item in per_coord.values()))
    return overall, per_coord
