"""Highest-posterior-density regions and overlap for discrete posteriors.

Works on any posterior over opaque, orderable item identifiers (e.g.
canonicalized tree-topology strings).  An HPD region at a level is the
smallest-cardinality item set whose probability mass reaches the level,
built by accumulating items in decreasing-probability order with ties
broken by identifier, so regions are nested across levels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    IngestionError,
    InsufficientReplicatesError,
    InvalidArgumentError,
)

__all__ = [
    "DiscretePosterior",
    "hpd_region",
    "hpd_overlap",
    "OverlapResult",
    "average_posteriors",
    "overlap_ci",
    "load_posterior_samples",
]

_PROB_SUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DiscretePosterior:
    """Probability map over a finite set of unique item identifiers."""

    items: tuple
    probs: np.ndarray

    def __post_init__(self):
        items = tuple(self.items)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(items) != probs.size:
            raise InvalidArgumentError("items and probs must have equal length")
        if len(set(items)) != len(items):
            raise InvalidArgumentError("item identifiers must be unique")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise InvalidArgumentError("probabilities must be finite and nonnegative")
        if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise InvalidArgumentError(
                f"probabilities must sum to 1 within {_PROB_SUM_TOL}, got {probs.sum()}"
            )
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_counts(cls, counts) -> "DiscretePosterior":
        """Normalize draw counts (mapping item -> count) into a posterior."""
        items = tuple(sorted(counts))
        total = float(sum(counts[item] for item in items))
        if total <= 0:
            raise InvalidArgumentError("counts must have positive total")
        return cls(items=items, probs=np.array([counts[i] / total for i in items]))

    def mass_on(self, subset) -> float:
        subset = set(subset)
        return float(
            sum(p for item, p in zip(self.items, self.probs) if item in subset)
        )


class OverlapResult(NamedTuple):
    mass_a: float
    mass_b: float
    mass_avg: float
    count: int


def hpd_region(post: DiscretePosterior, level: float) -> tuple[list, float]:
    """Smallest item set reaching the level, with its achieved mass.

    Items are returned in accumulation order (probability descending,
    identifier ascending on ties).
    """
    if not 0.0 < level <= 1.0:
        raise InvalidArgumentError(f"level must be in (0, 1], got {level}")
    order = sorted(range(len(post.items)), key=lambda i: (-post.probs[i], post.items[i]))
    region: list = []
    mass = 0.0
    for i in order:
        region.append(post.items[i])
        mass += post.probs[i]
        if mass >= level - 1e-12:
            break
    return region, float(mass)


def hpd_overlap(a: DiscretePosterior, b: DiscretePosterior, level: float) -> OverlapResult:
    """Masses of each posterior on the intersection of the two HPD regions,
    their average, and the intersection size."""
    region_a, _ = hpd_region(a, level)
    region_b, _ = hpd_region(b, level)
    common = set(region_a) & set(region_b)
    mass_a = a.mass_on(common)
    mass_b = b.mass_on(common)
    return OverlapResult(mass_a, mass_b, 0.5 * (mass_a + mass_b), len(common))


def average_posteriors(posteriors: Sequence[DiscretePosterior]) -> DiscretePosterior:
    """Equal-weight mixture of posteriors over the union of their items."""
    if len(posteriors) < 1:
        raise InvalidArgumentError("need at least one posterior")
    items = sorted({item for post in posteriors for item in post.items})
    index = {item: i for i, item in enumerate(items)}
    probs = np.zeros(len(items))
    for post in posteriors:
        for item, p in zip(post.items, post.probs):
            probs[index[item]] += p
    probs /= len(posteriors)
    return DiscretePosterior(items=tuple(items), probs=probs)


def overlap_ci(
    replicates_a: Sequence[DiscretePosterior],
    replicates_b: Sequence[DiscretePosterior],
    level: float,
    n_boot: int = 1000,
    ci_level: float = 0.8,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap confidence interval for the averaged-posterior overlap mass.

    Each round resamples the replicate posteriors of side a, then those of
    side b, with replacement, averages each side and records the overlap
    ``mass_avg``; returns the empirical ``ci_level`` interval.  A side of one
    posterior is held fixed, and its resample draws no random bits.
    """
    reps_a, reps_b = list(replicates_a), list(replicates_b)
    for reps, least in ((reps_a, 2), (reps_b, 1)):
        if len(reps) < least:
            raise InsufficientReplicatesError(
                f"need at least {least} replicate posteriors, got {len(reps)}"
            )
    if n_boot < 100:
        raise InvalidArgumentError(f"n_boot must be >= 100, got {n_boot}")
    if not 0.0 < ci_level < 1.0:
        raise InvalidArgumentError(f"ci_level must be in (0, 1), got {ci_level}")

    rng = np.random.default_rng(seed)

    def resample(reps):
        return average_posteriors([reps[j] for j in rng.integers(0, len(reps), size=len(reps))])

    stats = np.empty(n_boot)
    for i in range(n_boot):
        stats[i] = hpd_overlap(resample(reps_a), resample(reps_b), level).mass_avg
    alpha = 0.5 * (1.0 - ci_level)
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def load_posterior_samples(path) -> DiscretePosterior:
    """Read a line-per-draw sample file into a posterior of draw frequencies."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    draws = [line.strip() for line in lines if line.strip()]
    if not draws:
        raise IngestionError(f"{path} contains no posterior draws")
    return DiscretePosterior.from_counts(Counter(draws))
