"""Highest-posterior-density regions and overlap for discrete posteriors,
held as exact draw counts.

Works on any posterior over opaque, orderable item identifiers (e.g.
canonicalized tree-topology strings).  An HPD region at a level is the
smallest item set whose mass reaches the level, built by accumulating items
in decreasing-mass order with ties broken by identifier, so regions are
nested across levels.  Masses are integer totals, so ties are exact.
"""

from __future__ import annotations

from collections import Counter
from math import lcm
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    IngestionError,
    InsufficientReplicatesError,
    InvalidArgumentError,
    ResourceLimitError,
)

__all__ = ["count_matrices", "hpd_region", "hpd_overlap", "OverlapResult", "overlap_ci",
           "load_posterior_samples"]

# floats in one (rounds, T) array of a block of bootstrap rounds
BLOCK_FLOATS = 1 << 16


class OverlapResult(NamedTuple):
    mass_a: np.ndarray
    mass_b: np.ndarray
    mass_avg: np.ndarray
    count: np.ndarray


def count_matrices(side_a: Sequence[Mapping], side_b: Sequence[Mapping]):
    """``(items, counts_a, counts_b)``: the sorted union of both sides' items,
    and each side's draw counts (a mapping item -> count per file) as an
    (R, T) int64 matrix over it, each row scaled to L, the lcm of the side's
    draw totals.  A sum of rows is then an exact multiple of their
    equal-weight average, and exact in float64 while R * L < 2^53; a side
    past that raises ``ResourceLimitError``."""
    items = sorted({item for side in (side_a, side_b) for counts in side for item in counts})
    column = {item: j for j, item in enumerate(items)}
    matrices = []
    for name, side in (("a", side_a), ("b", side_b)):
        values = [v for counts in side for v in counts.values()]
        if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in values):
            raise InvalidArgumentError(f"side {name}: draw counts must be nonnegative integers")
        totals = [int(sum(counts.values())) for counts in side]
        if not totals or min(totals) <= 0:
            raise InvalidArgumentError(f"side {name} needs files, each with a positive draw total")
        common = lcm(*totals)
        if len(side) * common >= 2**53:
            raise ResourceLimitError(
                f"side {name}: {len(side)} files with draw totals {sorted(set(totals))} "
                f"(lcm {common}) reach 2^53 on a common total; give each file the same number of draws"
            )
        matrix = np.zeros((len(side), len(items)), dtype=np.int64)
        for row, counts, total in zip(matrix, side, totals):
            row[[column[item] for item in counts]] = [int(v) * (common // total) for v in counts.values()]
        matrices.append(matrix)
    return items, *matrices


def hpd_region(totals, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of exact integer item totals (the last axis), the HPD region
    at the level as a boolean mask, and its mass.  Equal totals accumulate
    in column order, which is identifier order over ``count_matrices``'
    union."""
    if not 0.0 < level <= 1.0:
        raise InvalidArgumentError(f"level must be in (0, 1], got {level}")
    totals = np.asarray(totals)
    order = np.argsort(-totals, axis=-1, kind="stable")
    running = np.cumsum(np.take_along_axis(totals, order, axis=-1), axis=-1)
    total = running[..., -1:]
    if (totals < 0).any() or not ((total > 0) & (total < np.inf)).all():
        raise InvalidArgumentError("item totals must be nonnegative and finite, with a positive sum per row")
    mass = running / total
    # items accumulated before the first whose running mass reaches the level
    before = (mass < level).sum(axis=-1, keepdims=True)
    mask = np.empty(totals.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(totals.shape[-1]) <= before, axis=-1)
    return mask, np.take_along_axis(mass, before, axis=-1)[..., 0]


def hpd_overlap(totals_a, totals_b, level: float) -> OverlapResult:
    """Per row of item totals over the same columns: the masses of each side
    on the intersection of the two HPD regions, their average, and the
    intersection size."""
    totals_a, totals_b = np.asarray(totals_a), np.asarray(totals_b)
    common = hpd_region(totals_a, level)[0] & hpd_region(totals_b, level)[0]
    mass_a, mass_b = (np.where(common, t, 0).sum(-1) / t.sum(-1) for t in (totals_a, totals_b))
    return OverlapResult(mass_a, mass_b, 0.5 * (mass_a + mass_b), common.sum(-1))


def overlap_ci(counts_a, counts_b, level: float, n_boot: int = 1000, ci_level: float = 0.8,
               seed: int = 0) -> tuple[float, float]:
    """Bootstrap confidence interval for the averaged-posterior overlap mass.

    Takes ``count_matrices``' two (R, T) matrices.  Each round resamples the
    rows of side a, then those of side b, with replacement, and records the
    ``mass_avg`` of the two sides' summed rows; returns the empirical
    ``ci_level`` interval.  A side of one row is held fixed, and its
    resample draws no random bits.
    """
    counts_a, counts_b = (np.asarray(c, dtype=float) for c in (counts_a, counts_b))
    if counts_a.ndim != 2 or counts_b.ndim != 2 or counts_a.shape[1] != counts_b.shape[1]:
        raise InvalidArgumentError("counts must be (R, T) matrices over the same T items")
    for counts, least in ((counts_a, 2), (counts_b, 1)):
        if len(counts) < least:
            raise InsufficientReplicatesError(
                f"need at least {least} replicate posteriors, got {len(counts)}"
            )
    if n_boot < 100:
        raise InvalidArgumentError(f"n_boot must be >= 100, got {n_boot}")
    if not 0.0 < ci_level < 1.0:
        raise InvalidArgumentError(f"ci_level must be in (0, 1), got {ci_level}")
    alpha = 0.5 * (1.0 - ci_level)
    lo, hi = np.quantile(_round_stats(counts_a, counts_b, level, n_boot, seed), [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _round_stats(counts_a, counts_b, level: float, n_boot: int, seed: int) -> np.ndarray:
    """The ``mass_avg`` of each of ``overlap_ci``'s rounds, drawn one by one
    and evaluated in blocks of ``BLOCK_FLOATS // T`` rounds, so memory is
    O(BLOCK_FLOATS + R T) for any ``n_boot``."""
    rng = np.random.default_rng(seed)

    def resample(r: int) -> np.ndarray:  # times each of r rows is drawn
        return np.bincount(rng.integers(0, r, size=r), minlength=r)

    rounds = max(1, BLOCK_FLOATS // counts_a.shape[1])
    stats = np.empty(n_boot)
    for start in range(0, n_boot, rounds):
        times = [(resample(len(counts_a)), resample(len(counts_b)))
                 for _ in range(min(rounds, n_boot - start))]
        totals = [np.array(side) @ counts for side, counts in zip(zip(*times), (counts_a, counts_b))]
        stats[start : start + len(times)] = hpd_overlap(*totals, level).mass_avg
    return stats


def load_posterior_samples(path) -> Counter:
    """Draw counts (item -> count) of a line-per-draw sample file: the text
    splits at line ends only (``\\n``, ``\\r\\n`` or ``\\r``), each draw is
    stripped of surrounding whitespace, and blank lines are skipped."""
    path = Path(path)
    try:
        draws = Counter(line.strip() for line in path.read_text(encoding="utf-8").split("\n"))
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    del draws[""]
    if not draws:
        raise IngestionError(f"{path} contains no posterior draws")
    return draws
