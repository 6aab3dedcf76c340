"""Conjugate normal-inverse-gamma linear regression feature selection.

A model is a binary inclusion vector ``gamma`` selecting columns of the
regressor matrix.  Conditional on ``gamma`` with ``d = sum(gamma)`` active
columns Z_g, the assumed model is::

    sigma^2                    ~ InvGamma(a0, b0)
    beta_j | sigma^2           ~ Normal(0, sigma^2 / lam)   iid, j = 1..d
    y_n | z_n, beta, sigma^2   ~ Normal(z_{g,n}' beta, sigma^2)

Integrating out (beta, sigma^2) gives a closed-form marginal likelihood.
With integer resampling weights w (observation n counted w_n times) the
data enter only through M = sum(w), Lam_g = Z_g' W Z_g + lam I and
b_g = b0 + (y' W y - y' W Z_g Lam_g^{-1} Z_g' W y) / 2, where W = diag(w):

    log ml = a0 log b0 + lgamma(a0 + M/2) - (M/2) log 2pi - lgamma(a0)
             + (d/2) log lam - (a0 + M/2) log b_g - (1/2) log |Lam_g|

so weighting is exactly equivalent to evaluating the unit-weight formula
on the dataset with rows replicated per their counts.

Work is batched over weight rows and models.  ``weighted_stats`` takes an
(r, N) block of weight rows and forms all r sets of statistics by one
matrix product with the per-observation moment rows; its fields keep the
block's leading shape.  All models of a set are evaluated in one pass,
by one of two paths that fill the same (r, K) arrays quad =
y'WZ_g Lam_g^{-1} Z_g'Wy and log|Lam_g|, from which b_g and log ml are
formed as arrays:

- the stacked path groups models by size j, gathers each group's Lam_g
  blocks of every weight row into one (r n_j, j, j) stack and factors it
  by a single stacked Cholesky;
- the sweep visits every subset of at most kmax columns once, in D(D+1)/2
  numpy steps, taking each subset's Schur complement from its parent's
  (Furnival & Wilson, "Regressions by leaps and bounds", Technometrics
  16, 1974): O(1) work per model amortized, against O(j^3).

``model_log_marginals`` takes the sweep for a model set with at least as
many rows as the subsets the sweep visits, as ``enumerate_models`` gives
for every k*, and the stacked path for a sparser set, such as one model,
where visiting every smaller subset would be the larger work.  A weight
row whose sweep meets a pivot that is not positive and finite is
recomputed by the stacked path, so the jitter ladder holds on both.
``param_moments_from_stats`` factors its one model through the stacked
path, so jitter reaches moments exactly as it reaches evidences.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, lgamma, log, pi

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericDomainError,
    ResourceLimitError,
    VarianceUndefinedError,
)

__all__ = [
    "RegressionDataset",
    "NIGHyperparams",
    "SuffStats",
    "weighted_stats",
    "model_log_marginals",
    "make_evaluator",
    "enumerate_models",
    "log_priors",
    "pips",
    "param_moments_from_stats",
]

LOG_2PI = log(2.0 * pi)

# Total admissible models sum_{j<=k*} C(D, j) must not exceed this.
MODEL_ENUMERATION_GUARD = 10_000_000

# Diagonal jitter escalation before declaring a matrix non-PD; lam > 0
# guarantees positive definiteness in exact arithmetic, so jitter only
# covers float edge cases.
_JITTERS = (0.0, 1e-12, 1e-10)

# Observations per chunk of moment rows in ``weighted_stats``.
_STATS_CHUNK = 2048

# Floats of gathered Lam_g blocks per stacked Cholesky call; a size group
# over many weight rows is factored in slices of rows of this size.
_FACTOR_FLOATS = 1 << 20


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """Regressors ``z`` (n x d) and responses ``y`` (length n)."""

    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if z.ndim != 2 or y.ndim != 1 or z.shape[0] != y.shape[0]:
            raise InvalidArgumentError(
                f"z must be (n, d) and y length n; got {z.shape} and {y.shape}"
            )
        if z.shape[0] < 1 or z.shape[1] < 1:
            raise InvalidArgumentError("need n >= 1 observations and d >= 1 regressors")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
            raise InvalidArgumentError("z and y must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class NIGHyperparams:
    """Prior settings: inverse-gamma (a0, b0), coefficient precision scale
    ``lam``, prior inclusion probability ``q0``, and sparsity cap ``k_star``."""

    a0: float
    b0: float
    lam: float
    q0: float
    k_star: int

    def __post_init__(self):
        for name in ("a0", "b0", "lam"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.q0 < 1.0:
            raise InvalidArgumentError(f"q0 must be in (0, 1), got {self.q0}")
        if self.k_star < 1:
            raise InvalidArgumentError(f"k_star must be >= 1, got {self.k_star}")


@dataclass(frozen=True, eq=False)
class SuffStats:
    """Weighted sufficient statistics: Z'WZ, Z'Wy, y'Wy and M = sum(w).

    Statistics of several weight rows carry the rows' leading shape on
    every field: zwz (..., D, D), zwy (..., D), ywy and m (...), the last
    two 0-d (numpy scalars) for one row.
    """

    zwz: np.ndarray
    zwy: np.ndarray
    ywy: np.ndarray
    m: np.ndarray


def weighted_stats(data: RegressionDataset, weights) -> SuffStats:
    """Weighted sufficient statistics of one weight vector or a block of
    weight rows (shape (..., N), any real or integer dtype).

    Row n of the moment matrix P is [z_i z_j (i <= j), z y, y^2] of
    observation n, so every row's statistics come from one product W @ P.
    P (stored transposed, which is faster to fill) and a float copy of W
    are formed ``_STATS_CHUNK`` observations at a time, so neither is held
    whole.
    """
    w = np.asarray(weights)
    if w.dtype.kind not in "buif" or w.shape[-1:] != (data.n,):
        raise InvalidArgumentError(
            f"weights must be a real array of shape (..., {data.n}), got {w.dtype} {w.shape}"
        )
    if w.dtype.kind in "if" and not np.all((w >= 0) & (w < np.inf)):
        raise InvalidArgumentError("weights must be finite and nonnegative")
    lead = w.shape[:-1]
    w = w.reshape(-1, data.n)
    d = data.d
    iu, ju = np.triu_indices(d)
    acc = np.zeros((w.shape[0], iu.size + d + 1))
    moments = np.empty((acc.shape[1], min(data.n, _STATS_CHUNK)))
    for lo in range(0, data.n, _STATS_CHUNK):
        zt, y = data.z[lo : lo + _STATS_CHUNK].T.copy(), data.y[lo : lo + _STATS_CHUNK]
        pt = moments[:, : y.size]
        for i in range(d):  # row i of the upper triangle, in triu_indices order
            start = i * d - i * (i - 1) // 2
            np.multiply(zt[i], zt[i:], out=pt[start : start + d - i])
        np.multiply(zt, y, out=pt[iu.size : -1])
        np.multiply(y, y, out=pt[-1])
        acc += w[:, lo : lo + _STATS_CHUNK].astype(float) @ pt.T
    zwz = np.empty((w.shape[0], d, d))
    zwz[:, iu, ju] = zwz[:, ju, iu] = acc[:, : iu.size]
    return SuffStats(
        zwz=zwz.reshape(lead + (d, d)),
        zwy=acc[:, iu.size : -1].reshape(lead + (d,)),
        ywy=acc[:, -1].reshape(lead)[()],
        m=w.sum(axis=1, dtype=float).reshape(lead)[()],
    )


def _flat_stats(stats: SuffStats, d: int):
    """The leading shape of ``stats`` and its fields flattened over it:
    zwz (r, d * d), zwy (r, d), ywy (r,) and m (r,)."""
    zwz = np.asarray(stats.zwz, dtype=float)
    if zwz.shape[-2:] != (d, d):
        raise InvalidArgumentError(f"models have {d} columns but Z'WZ has shape {zwz.shape}")
    lead = zwz.shape[:-2]
    r = int(np.prod(lead))
    return (
        lead,
        zwz.reshape(r, d * d),
        np.asarray(stats.zwy, dtype=float).reshape(r, d),
        np.asarray(stats.ywy, dtype=float).reshape(r),
        np.asarray(stats.m, dtype=float).reshape(r),
    )


def _where(lead: tuple, row: int, model: int | None = None) -> str:
    """Where an error arose, as ' for model row k of weight row i'; the model
    is left out when there is none, the weight row for unbatched statistics."""
    parts = ([] if model is None else [f"model row {model}"]) + ([f"weight row {row}"] if lead else [])
    return " for " + " of ".join(parts) if parts else ""


def _spd_cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a symmetric matrix that is positive definite in
    exact arithmetic, escalating a diagonal jitter when rounding breaks it."""
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(a if jitter == 0.0 else a + jitter * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise NumericDomainError(
        "matrix is not positive definite even with diagonal jitter; "
        "inputs contain NaN or are corrupt"
    )


def _forward_substitute(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve chol[i] @ t[i] = rhs[i] for a (n, j, j) stack of lower
    triangular factors and a (n, j) stack of right-hand sides."""
    t = np.empty_like(rhs)
    for r in range(rhs.shape[1]):
        partial = np.einsum("ij,ij->i", chol[:, r, :r], t[:, :r])
        t[:, r] = (rhs[:, r] - partial) / chol[:, r, r]
    return t


def _size_groups(mask: np.ndarray):
    """Gather indices of the stacked path, grouped by model size: for each
    size j >= 1 the model rows, their active columns ``cols`` (n_j, j) and
    the flat indices ``flat`` (n_j, j, j) of their Z'WZ sub-blocks.  The
    empty model is in no group."""
    d = mask.shape[1]
    sizes = mask.sum(axis=1)
    groups = []
    for j in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == j)
        cols = np.nonzero(mask[rows])[1].reshape(rows.size, j)
        groups.append((rows, cols, cols[:, :, None] * d + cols[:, None, :]))
    return groups


def _factor(zwz: np.ndarray, zwy: np.ndarray, cols: np.ndarray, flat: np.ndarray, lam: float):
    """Factor one size group over r weight rows: gather every row's
    Z_g'WZ_g blocks from ``zwz`` (r, D * D) by ``flat``, add lam I, take one
    stacked Cholesky ``chol`` (r n_j, j, j) and solve chol t = Z_g'Wy for
    ``t`` (r n_j, j), rows of one weight row adjacent.  If the stacked call
    fails, the group is refactored matrix by matrix, so jitter reaches only
    the failing (weight row, model) matrices."""
    count, j = len(zwz) * len(cols), cols.shape[1]  # explicit, so j = 0 reshapes too
    lam_mat = np.take(zwz, flat, axis=1).reshape(count, j, j) + lam * np.eye(j)
    try:
        chol = np.linalg.cholesky(lam_mat)
    except np.linalg.LinAlgError:
        chol = np.stack([_spd_cholesky(a) for a in lam_mat])
    return chol, _forward_substitute(chol, np.take(zwy, cols, axis=1).reshape(count, j))


def _stacked(zwz: np.ndarray, zwy: np.ndarray, mask: np.ndarray, lam: float):
    """quad = |L_g^{-1} Z_g'Wy|^2 and log|Lam_g| (r, K) of every model by the
    stacked Cholesky of its size group, ``_FACTOR_FLOATS`` at a time."""
    r = len(zwz)
    quad = np.zeros((r, mask.shape[0]))
    logdet = np.zeros((r, mask.shape[0]))
    for rows, cols, flat in _size_groups(mask):
        step = max(1, _FACTOR_FLOATS // flat.size)
        for lo in range(0, r, step):
            hi = min(lo + step, r)
            chol, t = _factor(zwz[lo:hi], zwy[lo:hi], cols, flat, lam)
            quad[lo:hi, rows] = np.einsum("ij,ij->i", t, t).reshape(hi - lo, -1)
            diag = np.log(np.diagonal(chol, axis1=1, axis2=2))
            logdet[lo:hi, rows] = 2.0 * np.sum(diag, axis=1).reshape(hi - lo, -1)
    return quad, logdet


def _frozen(index):
    """``index`` as a slice when it is a run of consecutive integers, which
    numpy reads and writes without a gather, else as a read-only array."""
    if index.size and index[-1] - index[0] == index.size - 1 and np.all(np.diff(index) == 1):
        return slice(int(index[0]), int(index[-1]) + 1)
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=4)
def _sweep_plan(d: int, kmax: int):
    """Node layout of the sweep over every subset of size <= kmax of D
    columns, which depends on D and kmax only and is built once for each.

    Nodes are stored group by group: group c holds the subsets whose
    largest column is c, after the root (the empty set).  A group's nodes of
    size < kmax keep a Schur-complement state and come first; the others
    keep only quad and log|Lam_g|.  Returns the nodes' bit codes, their
    argsort, the state-keeping node count of each group, the floats of
    state and results per weight row, and for each c the moves that build
    group c, one per parent group p < c with state: ``(p, parents, dest,
    grow, at)``, the parents' node slice, their children's node positions,
    the parents whose children keep a state (None for none) and the slice
    of group c's state those children fill.
    """
    codes, sizes, stateful, offsets = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)], [1], [0]
    moves = []
    for c in range(d):
        parents = [p for p in range(-1, c) if stateful[p + 1]]
        grows = [sizes[p + 1][: stateful[p + 1]] < kmax - 1 for p in parents]
        n_grow = sum(int(grow.sum()) for grow in grows)
        offset = offsets[-1] + codes[-1].size
        built, grown, leaves, a, b = [], [], [], 0, 0
        for p, grow in zip(parents, grows):
            g, ns, start = int(grow.sum()), grow.size, offsets[p + 1]
            dest = np.where(grow, offset + a + np.cumsum(grow), offset + n_grow + b + np.cumsum(~grow)) - 1
            which = None if g == 0 else slice(None) if g == ns else _frozen(np.flatnonzero(grow))
            built.append((p, slice(start, start + ns), _frozen(dest), which, slice(a, a + g)))
            child = (codes[p + 1][:ns] | (1 << c), sizes[p + 1][:ns] + 1)
            grown.append([x[grow] for x in child])
            leaves.append([x[~grow] for x in child])
            a, b = a + g, b + ns - g
        codes.append(np.concatenate([x for x, _ in grown + leaves]))
        sizes.append(np.concatenate([y for _, y in grown + leaves]))
        stateful.append(n_grow)
        offsets.append(offset)
        moves.append(tuple(built))
    codes = np.concatenate(codes)
    per_row = 2 * codes.size + sum(ns * (d - g) * (d - g + 1) for g, ns in enumerate(stateful))
    order = np.argsort(codes)
    codes.setflags(write=False)
    order.setflags(write=False)
    return codes, order, tuple(stateful), per_row, tuple(moves)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _sweep(zwz: np.ndarray, zwy: np.ndarray, mask: np.ndarray, lam: float):
    """quad and log|Lam_g| (r, K) of every model by a forward sweep over all
    subsets of size <= kmax (the largest model size).

    A node's state, for each weight row, is the Schur complement S of its
    columns in Lam = Z'WZ + lam I on the columns after its largest one p,
    with a last row t, the matching entries of Z'Wy reduced alike; the root
    (the empty model) holds S = Lam and t = Z'Wy.  Adding column c at
    i = c - p - 1 adds t_i^2 / S_ii to quad and log S_ii to log|Lam_g|, and
    the child's state is S[i+1:, i+1:] - S[i+1:, i] S[i, i+1:] / S_ii, the
    t row included: a Cholesky in elimination order, one numpy step per
    (p, c) for all nodes of group p.  States are stored (row, column, weight
    row, node), so each step runs over long contiguous node axes.  Every
    operation is elementwise, so a row's values do not depend on the rows
    beside it.  Weight rows are swept ``_FACTOR_FLOATS`` floats of state at
    a time.  A pivot that is not positive and finite leaves log|Lam_g|
    non-finite.
    """
    r, d = len(zwz), mask.shape[1]
    codes, order, stateful, per_row, moves = _sweep_plan(d, int(mask.sum(axis=1).max()))
    pos = order[np.searchsorted(codes, mask @ (1 << np.arange(d)), sorter=order)]
    step = max(1, _FACTOR_FLOATS // per_row)
    quad = np.empty((r, mask.shape[0]))
    logdet = np.empty((r, mask.shape[0]))
    lam_mat = zwz.reshape(r, d, d) + lam * np.eye(d)
    root = np.concatenate([lam_mat, zwy[:, None, :]], axis=1).transpose(1, 2, 0)[..., None]
    for lo in range(0, r, step):
        hi = min(lo + step, r)
        q = np.zeros((hi - lo, codes.size))
        ld = np.zeros((hi - lo, codes.size))
        states = [root[:, :, lo:hi]]
        for c, built in enumerate(moves):
            m = d - c - 1
            group = np.empty((m + 1, m, hi - lo, stateful[c + 1]))
            for p, parents, dest, grow, at in built:
                state = states[p + 1]
                i = c - p - 1
                piv, t_i = state[i, i], state[-1, i]
                q[:, dest] = q[:, parents] + t_i * t_i / piv
                ld[:, dest] = ld[:, parents] + np.log(piv)
                if grow is not None:
                    f = state[i + 1 :, i][..., grow] / piv[:, grow]
                    child = group[..., at]
                    np.multiply(f[:, None], state[i, i + 1 :][..., grow], out=child)
                    np.subtract(state[i + 1 :, i + 1 :][..., grow], child, out=child)
            states.append(group)
        quad[lo:hi] = q[:, pos]
        logdet[lo:hi] = ld[:, pos]
    return quad, logdet


def model_log_marginals(stats: SuffStats, models: np.ndarray, hyper: NIGHyperparams) -> np.ndarray:
    """Log marginal likelihoods for every row of an enumerated model set,
    for one set of statistics (shape (K,)) or for statistics with a leading
    shape (shape (..., K)).

    One sweep over all subsets serves a set that has as many rows as the
    subsets it visits; in a sparser set, models of equal size share one
    stacked Cholesky over all weight rows (see the module docstring).
    Raises ``NumericDomainError`` naming the weight row and model row when
    some b_g <= 0 (y'Wy - quad cancelled below -2 b0), lgamma(a0 + M/2)
    overflows or a log evidence is not finite; never returns NaN.
    """
    mask = np.asarray(models) != 0
    if mask.ndim != 2:
        raise InvalidArgumentError(
            f"models must be a (count, d) inclusion matrix, got shape {mask.shape}"
        )
    d, sizes = mask.shape[1], mask.sum(axis=1)
    lead, zwz, zwy, ywy, m = _flat_stats(stats, d)
    r = m.size
    kmax = int(sizes.max(initial=0))
    # the sweep's node bit codes are int64
    if d <= 62 and sum(comb(d, j) for j in range(kmax + 1)) <= sizes.size:
        quad, logdet = _sweep(zwz, zwy, mask, hyper.lam)
        # a pivot was not positive and finite: the row takes the jitter ladder
        bad = np.flatnonzero(~np.isfinite(logdet).all(axis=1))
        if bad.size:
            quad[bad], logdet[bad] = _stacked(zwz[bad], zwy[bad], mask, hyper.lam)
    else:
        quad, logdet = _stacked(zwz, zwy, mask, hyper.lam)
    sizes = sizes.astype(float)
    a_n = hyper.a0 + 0.5 * m
    b_g = hyper.b0 + 0.5 * (ywy[:, None] - quad)
    if not np.all(b_g > 0.0):
        row, bad = np.argwhere(~(b_g > 0.0))[0]
        raise NumericDomainError(
            f"b_g = {b_g[row, bad]!r} is not positive{_where(lead, row, bad)}: "
            "y'Wy - quad cancelled or overflowed"
        )
    lgamma_a_n = np.empty(r)
    for row, value in enumerate(a_n):
        try:
            lgamma_a_n[row] = lgamma(value)
        except OverflowError:
            raise NumericDomainError(
                f"lgamma(a0 + M/2) overflows at M = {m[row]!r}{_where(lead, row)}"
            ) from None
    log_ml = (
        hyper.a0 * log(hyper.b0)
        + lgamma_a_n[:, None]
        - 0.5 * m[:, None] * LOG_2PI
        - lgamma(hyper.a0)
        + 0.5 * sizes * log(hyper.lam)
        - a_n[:, None] * np.log(b_g)
        - 0.5 * logdet
    )
    if not np.all(np.isfinite(log_ml)):
        row, bad = np.argwhere(~np.isfinite(log_ml))[0]
        raise NumericDomainError(
            f"log evidence{_where(lead, row, bad)} is {log_ml[row, bad]!r}"
        )
    return log_ml.reshape(lead + (sizes.size,))


def make_evaluator(data: RegressionDataset, models: np.ndarray, hyper: NIGHyperparams):
    """Weighted log-marginal-likelihood evaluator over an enumerated model
    set, suitable for ``core.bagged_model_posterior``: it maps an (r, N)
    block of weight rows to the (r, K) log evidences (a length-N vector to
    K of them).

    Sufficient statistics are formed once per block and shared by all
    models.  The returned callable is pure and thread-safe.
    """

    def evaluate(weights) -> np.ndarray:
        return model_log_marginals(weighted_stats(data, weights), models, hyper)

    return evaluate


def enumerate_models(d: int, k_star: int) -> np.ndarray:
    """All inclusion vectors with at most ``k_star`` ones, as a (count, d)
    binary matrix ordered by model size then lexicographically."""
    if not 1 <= k_star <= d:
        raise InvalidArgumentError(f"need 1 <= k_star <= d, got k_star={k_star}, d={d}")
    counts = [comb(d, j) for j in range(k_star + 1)]
    total = sum(counts)
    if total > MODEL_ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"{total} models exceed the enumeration guard "
            f"({MODEL_ENUMERATION_GUARD}); lower k_star or drop regressors"
        )
    out = np.zeros((total, d), dtype=np.uint8)
    start = 1  # row 0 is the empty model
    for j in range(1, k_star + 1):
        # combinations order is lexicographic in positions, which is
        # reverse-lexicographic in the binary vectors.
        positions = np.array(list(itertools.combinations(range(d), j)))[::-1]
        out[np.arange(start, start + counts[j])[:, None], positions] = 1
        start += counts[j]
    return out


def log_priors(models: np.ndarray, hyper: NIGHyperparams) -> np.ndarray:
    """Unnormalized log priors for every row of an enumerated model set:
    d_g log q0 + (D - d_g) log(1 - q0)."""
    sizes = models.sum(axis=1).astype(float)
    return sizes * log(hyper.q0) + (models.shape[1] - sizes) * log(1.0 - hyper.q0)


def pips(posterior, models: np.ndarray) -> np.ndarray:
    """Posterior inclusion probabilities: pip_d = sum_g gamma_d * P(gamma).

    ``posterior`` is a ``ModelPosterior`` (or a bare probability vector)
    aligned with the rows of ``models``.
    """
    probs = np.asarray(getattr(posterior, "probs", posterior), dtype=float)
    if probs.shape != (models.shape[0],):
        raise InvalidArgumentError(
            f"posterior has {probs.shape} probabilities for {models.shape[0]} models"
        )
    return probs @ models.astype(float)


def param_moments_from_stats(stats: SuffStats, gamma, hyper: NIGHyperparams) -> np.ndarray:
    """Conjugate posterior moments from precomputed sufficient statistics of
    any leading shape ``lead``, as one array of shape ``lead + (2, 1 + |gamma|)``:
    row 0 holds the means and row 1 the variances of the coordinates
    [log sigma^2, beta_j for each included j in column order].

    The posterior is sigma^2 ~ InvGamma(a_n, b_g) with a_n = a0 + M/2, and
    beta | sigma^2 ~ Normal(beta_hat, sigma^2 Lam_g^{-1}); marginally each
    beta_j is Student-t with variance b_g/(a_n - 1) * (Lam_g^{-1})_jj, and
    log sigma^2 has mean log b_g - digamma(a_n) and variance trigamma(a_n).

    The model, the empty one too, is factored as a one-model size group of
    the evidence path, all weight rows in one stacked Cholesky; the mean
    and diag(Lam_g^{-1}) come from the inverses of the triangular factors.
    """
    from scipy.special import digamma, polygamma  # keeps scipy out of the import path

    d = np.shape(stats.zwz)[-1]
    lead, zwz, zwy, ywy, m = _flat_stats(stats, d)
    a_n = hyper.a0 + 0.5 * m
    if not np.all(a_n > 1.0):
        row = int(np.flatnonzero(~(a_n > 1.0))[0])
        raise VarianceUndefinedError(
            f"posterior variance needs a0 + M/2 > 1, got {a_n[row]}{_where(lead, row)}"
        )
    cols = np.flatnonzero(gamma)[None, :]
    chol, t = _factor(zwz, zwy, cols, cols[:, :, None] * d + cols[:, None, :], hyper.lam)
    # Lam_g^{-1} = L^{-T} L^{-1}: mean L^{-T} t, diagonal the column norms of L^{-1}
    inv_chol = np.linalg.inv(chol)
    mean_beta = np.einsum("rki,rk->ri", inv_chol, t)
    b_g = hyper.b0 + 0.5 * (ywy - np.einsum("ri,ri->r", t, t))
    var_beta = (b_g / (a_n - 1.0))[:, None] * np.sum(inv_chol * inv_chol, axis=1)
    if not np.all(b_g > 0.0):
        row = int(np.flatnonzero(~(b_g > 0.0))[0])
        raise NumericDomainError(
            f"b_g = {b_g[row]!r} is not positive{_where(lead, row)}: "
            "y'Wy - quad cancelled or overflowed"
        )
    means = np.column_stack([np.log(b_g) - digamma(a_n), mean_beta])
    variances = np.column_stack([polygamma(1, a_n), var_beta])
    return np.stack([means, variances], axis=1).reshape(lead + (2, 1 + cols.size))
