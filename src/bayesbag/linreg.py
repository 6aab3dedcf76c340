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
matrix product with the per-observation moment rows.  Statistics have one
format, owned by this module: one float row per weight row, laid out
[Z'WZ row-major (D * D), Z'Wy (D), y'Wy, M], with the block's leading
shape before it.  ``model_log_marginals`` and ``param_moments_from_stats``
read these rows, and a caller stores or stacks them without knowing the
layout.  All models of a set are evaluated in one pass:
a sweep over the prefix trie of the models' ascending column lists fills
the (r, K) arrays quad = y'WZ_g Lam_g^{-1} Z_g'Wy and log|Lam_g|, from which
b_g and log ml are formed as arrays.  Each trie node takes its Schur
complement from its parent's (Furnival & Wilson, "Regressions by leaps and
bounds", Technometrics 16, 1974), so a set of every subset costs O(1) work
per model amortized and one model of j columns a chain of j steps.  The
trie is built once for each model set and cached with the map from model
rows to its nodes.  The sweep is the one evidence path; the posterior
moments eliminate each Lam_g once in its order and formula, gathering the
same quad and log|Lam_g|, so ``_checked`` refuses the same statistics for
both.  No matrix is jittered: lam > 0 makes every Lam_g positive definite
in exact arithmetic, so a pivot that is not positive and finite means that
lam is lost in rounding or the statistics are not finite, and the cell
raises ``NumericDomainError`` rather than return the evidence of another
prior, as does a y'Wy - quad within its rounding bound.
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

# The error of a Lam_g without a Cholesky factor, which lam > 0 rules out in
# exact arithmetic.
_BAD_PIVOT = (
    "has a pivot that is not positive and finite: lam is too small for these data, "
    "or they are not finite"
)

# Observations per chunk of moment rows in ``weighted_stats``.
_STATS_CHUNK = 2048

# Floats of sweep state and results per slice of weight rows; a block of
# many rows is swept a slice at a time, at least one row a slice.
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


def weighted_stats(data: RegressionDataset, weights) -> np.ndarray:
    """Weighted sufficient statistics of one weight vector or a block of
    weight rows (shape lead + (N,), any real or integer dtype): a float
    array of shape lead + (D * D + D + 2,), each row laid out
    [Z'WZ row-major, Z'Wy, y'Wy, M] with M = sum(w).

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
    rows = np.empty((w.shape[0], d * d + d + 2))
    rows[:, iu * d + ju] = rows[:, ju * d + iu] = acc[:, : iu.size]
    rows[:, d * d : -1] = acc[:, iu.size :]
    rows[:, -1] = w.sum(axis=1, dtype=float)
    return rows.reshape(lead + (rows.shape[1],))


def _flat_stats(stats, name: str, shape: tuple):
    """The leading shape of the statistics rows ``stats`` and their fields
    flattened over it: Z'WZ (r, d * d), Z'Wy (r, d), y'Wy (r,) and M (r,),
    for the d columns that the last axis of ``name``'s ``shape`` gives."""
    stats = np.asarray(stats, dtype=float)
    d = shape[-1]
    if stats.shape[-1:] != (d * d + d + 2,):
        raise InvalidArgumentError(
            f"statistics rows for {name} of shape {shape} have width {d * d + d + 2}; "
            f"got statistics of shape {stats.shape}"
        )
    lead = stats.shape[:-1]
    flat = stats.reshape(-1, stats.shape[-1])
    return lead, flat[:, : d * d], flat[:, d * d : -2], flat[:, -2], flat[:, -1]


def _where(lead: tuple, row: int, model: int | None = None) -> str:
    """Where an error arose, as ' for model row k of weight row i'; the model
    is left out when there is none, the weight row for unbatched statistics."""
    parts = ([] if model is None else [f"model row {model}"]) + ([f"weight row {row}"] if lead else [])
    return " for " + " of ".join(parts) if parts else ""


# ``_digamma_trigamma`` raises every x below this by the recurrences; from
# here on, the first omitted series terms are below 1e-17 of the result.
_PSI_SHIFT = 20


def _digamma_trigamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """digamma(x) and trigamma(x) of a float array of x > 1.

    Each x below ``_PSI_SHIFT`` is raised by the n steps that bring it there,
    psi(x) = psi(x + n) - sum_k 1/(x + k) and
    psi'(x) = psi'(x + n) + sum_k 1/(x + k)^2 over k < n, and at x + n the
    asymptotic series (Abramowitz & Stegun 6.3.18 and 6.4.12) through
    x^-10 and x^-11 holds to rounding.
    """
    x = np.asarray(x, dtype=float)
    steps = np.ceil(np.maximum(_PSI_SHIFT - x, 0.0))
    # a fixed number of terms, so that no value depends on its neighbours
    k = np.arange(_PSI_SHIFT)
    inv_shift = np.where(k < steps[..., None], 1.0 / (x[..., None] + k), 0.0)
    x = x + steps
    inv = 1.0 / x
    u = inv * inv
    psi = np.log(x) - 0.5 * inv - u * (
        1 / 12 - u * (1 / 120 - u * (1 / 252 - u * (1 / 240 - u / 132))))
    tri = inv * (1.0 + 0.5 * inv + u * (
        1 / 6 - u * (1 / 30 - u * (1 / 42 - u * (1 / 30 - u * 5 / 66)))))
    return psi - inv_shift.sum(axis=-1), tri + (inv_shift * inv_shift).sum(axis=-1)


def _frozen(index):
    """``index`` as a slice when it is a run of consecutive integers, which
    numpy reads and writes without a gather, else as a read-only array."""
    if index.size and index[-1] - index[0] == index.size - 1 and (index[1:] > index[:-1]).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=4)
def _sweep_plan(key: bytes, shape: tuple):
    """The sweep's plan for the model set whose boolean (K, D) inclusion
    matrix has the bytes ``key``: the prefix trie of its rows' ascending
    column lists, built column by column.  Group c holds the nodes whose
    last column is c, one child for each distinct node that the models
    holding c have reached; its nodes with a child keep a Schur-complement
    state and are numbered first.  Models still to be extended are kept in
    the order of the nodes they reached, so each group's parents come
    sorted.  Results are kept by slot: the children of each group with
    states take the next run of slots.

    Returns the slot count, each model row's slot, the floats per weight
    row, the groups ``(c, count)`` with ``count`` states, and for each such
    group p (-1 for the root) ``(p, gains, parents, dest, fills)``: its
    children add the gains ``gains`` of its (column, state) pairs to the
    results in slots ``parents`` and keep them in slots ``dest``; each fill
    ``(c, i, grow, at)`` forms the states ``at`` of group c from the states
    ``grow`` of group p, adding column c = p + 1 + i.
    """
    mask = np.frombuffer(key, dtype=bool).reshape(shape)
    d = shape[1]
    left = mask.sum(axis=1)  # columns each model has still to add
    node = np.zeros(shape[0], dtype=np.intp)  # the node each model has reached
    going = np.flatnonzero(left)  # models with columns to add, by the node reached
    # group with states -> its first node, its state count, its children and fills
    owners = {-1: (0, 1, [], [])} if going.size else {}
    total, per_row, groups = 1, 2 + len(owners) * (d + 1) * d, []
    for c in np.flatnonzero(mask.any(axis=0)).tolist():
        has = mask[going, c]
        movers = going[has]
        reached = node[movers]
        first = np.ones(reached.size, dtype=bool)
        np.not_equal(reached[1:], reached[:-1], out=first[1:])
        kid = np.cumsum(first) - 1
        parents = reached[first]
        left[movers] -= 1
        more = left[movers] > 0
        inner = np.zeros(parents.size, dtype=bool)
        inner[kid[more]] = True
        count = int(inner.sum())
        kids = total + np.where(inner, np.cumsum(inner), count + np.cumsum(~inner)) - 1
        node[movers] = kids[kid]
        going = np.concatenate([going[~has], movers[more]])
        cuts = np.searchsorted(parents, [owner[0] for owner in owners.values()] + [total]).tolist()
        at = 0
        for (p, (start, n_states, children, fills)), a, b in zip(owners.items(), cuts, cuts[1:]):
            if a < b:
                take = parents[a:b] - start
                children.append(((c - p - 1) * n_states + take, parents[a:b], kids[a:b]))
                grow = take[inner[a:b]]
                if grow.size:
                    fills.append((c, c - p - 1, _frozen(grow), slice(at, at + grow.size)))
                    at += grow.size
        if count:
            owners[c] = (total, count, [], [])
            groups.append((c, count))
        per_row += 2 * parents.size + count * (d - c) * (d - c - 1)
        total += parents.size
    slot = np.zeros(total, dtype=np.intp)
    moves, free = [], 1
    for p, (_, _, children, fills) in owners.items():
        gains, parents, kids = (np.concatenate(x) for x in zip(*children))
        slot[kids] = free + np.arange(kids.size)
        dest = slice(free, free + kids.size)
        moves.append((p, _frozen(gains), _frozen(slot[parents]), dest, tuple(fills)))
        free = dest.stop
    return total, _frozen(slot[node]), per_row, tuple(groups), tuple(moves)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _sweep(zwz: np.ndarray, zwy: np.ndarray, mask: np.ndarray, lam: float):
    """quad and log|Lam_g| (r, K) of every model of the boolean inclusion
    matrix ``mask`` by a forward sweep over the prefixes of its models.

    A node's state, for each weight row, is the Schur complement S of its
    columns in Lam = Z'WZ + lam I on the columns after its last one p, with
    a last row t, the matching entries of Z'Wy reduced alike; the root (the
    empty model) holds S = Lam and t = Z'Wy.  Adding column c at
    i = c - p - 1 adds t_i^2 / S_ii to quad and log S_ii to log|Lam_g|, and
    the child's state is S[i+1:, i+1:] - S[i+1:, i] S[i, i+1:] / S_ii, the
    t row included: a Cholesky in elimination order.  For each group p
    with states, one numpy step takes these gains for every (i, state)
    pair and adds them for all of the group's children, and one step per
    group c forms the states of its children there.  States are stored
    (row, column, weight row, node), so each step runs over long contiguous
    node axes.  Every operation is elementwise, so a value depends neither
    on the rows beside it nor on the other models of the set.  Weight rows
    are swept ``_FACTOR_FLOATS`` floats of state at a time.  A pivot that
    is not positive and finite leaves log|Lam_g| non-finite for its node
    and every node below it.
    """
    r, d = len(zwz), mask.shape[1]
    slots, pos, per_row, groups, moves = _sweep_plan(mask.tobytes(), mask.shape)
    step = max(1, _FACTOR_FLOATS // per_row)
    quad = np.empty((r, mask.shape[0]))
    logdet = np.empty((r, mask.shape[0]))
    lam_mat = zwz.reshape(r, d, d) + lam * np.eye(d)
    root = np.concatenate([lam_mat, zwy[:, None, :]], axis=1).transpose(1, 2, 0)[..., None]
    for lo in range(0, r, step):
        rows = min(step, r - lo)
        q = np.zeros((rows, slots))
        ld = np.zeros((rows, slots))
        states = {c: np.empty((d - c, d - c - 1, rows, count)) for c, count in groups}
        states[-1] = root[:, :, lo : lo + rows]
        for p, gains, parents, dest, fills in moves:
            state = states[p]
            # S_ii and t_i of every (i, state) pair, as (weight row, i, state)
            piv = np.diagonal(state, axis1=0, axis2=1).transpose(0, 2, 1)
            t = state[-1].transpose(1, 0, 2)
            gain = np.multiply(t, t, out=np.empty(piv.shape))
            np.divide(gain, piv, out=gain)
            q[:, dest] = q[:, parents] + gain.reshape(rows, -1)[:, gains]
            np.log(piv, out=gain)
            ld[:, dest] = ld[:, parents] + gain.reshape(rows, -1)[:, gains]
            for c, i, grow, at in fills:
                f = state[i + 1 :, i][..., grow] / state[i, i][:, grow]
                child = states[c][..., at]
                np.multiply(f[:, None], state[i, i + 1 :][..., grow], out=child)
                np.subtract(state[i + 1 :, i + 1 :][..., grow], child, out=child)
        quad[lo : lo + rows] = q[:, pos]
        logdet[lo : lo + rows] = ld[:, pos]
    return quad, logdet


def _checked(quad, logdet, zwz, ywy, mask, hyper: NIGHyperparams, where):
    """b_g = b0 + (y'Wy - quad)/2, (r, K), of the models of the boolean
    inclusion matrix ``mask``, given an elimination's quad and log|Lam_g|,
    each (r, K): the one check that each Lam_g has a factor and that b_g
    is resolved, for the evidence and the posterior moments alike.  The
    first cell whose elimination met a pivot that is not positive and finite
    (a non-finite log|Lam_g|), else the first with b_g <= 0, else the first
    whose y'Wy - quad is within its rounding bound, raises
    ``NumericDomainError`` saying where by ``where(weight row, model row)``.

    y'Wy - quad is the last pivot of the Cholesky of [[Lam_g, Z'Wy],
    [., y'Wy]] that either sweep performs, and the bound is its first-order
    rounding.  The j + 1 subtractions from y'Wy each round by eps y'Wy at
    most.  The pivot S_kk of column k errs by about eps Lam_kk, and the
    reduced Z'Wy entry t_k by about eps sqrt(Lam_kk y'Wy), so the gain
    t_k^2 / S_kk errs by about eps (R_k + 2 sqrt(R_k)) y'Wy, where
    R_k = Lam_kk / S_kk is the column's pivot ratio.  Together that is
    (j + 1) eps (1 + sqrt(R))^2 y'Wy, with R the model's geometric mean
    pivot ratio (prod Lam_kk / |Lam_g|)^(1/j), which log|Lam_g| gives
    without another pass.
    """
    if not np.all(np.isfinite(logdet)):
        raise NumericDomainError(f"Lam_g{where(*np.argwhere(~np.isfinite(logdet))[0])} {_BAD_PIVOT}")
    resid = ywy[:, None] - quad
    b_g = hyper.b0 + 0.5 * resid
    if not np.all(b_g > 0.0):
        row, bad = np.argwhere(~(b_g > 0.0))[0]
        raise NumericDomainError(
            f"b_g = {float(b_g[row, bad])} is not positive{where(row, bad)}: "
            "y'Wy - quad cancelled or overflowed"
        )
    used = np.flatnonzero(mask.any(axis=0))
    sizes = mask.sum(axis=1)
    log_h = np.log(zwz[:, used * (mask.shape[1] + 1)] + hyper.lam) @ mask[:, used].T - logdet
    with np.errstate(over="ignore", invalid="ignore"):  # a ratio beyond the float range refuses
        root_ratio = np.exp(0.5 * log_h / np.maximum(sizes, 1))
        bound = (sizes + 1) * np.finfo(float).eps * (1.0 + root_ratio) ** 2 * ywy[:, None]
    if not np.all(resid >= bound):
        row, bad = np.argwhere(~(resid >= bound))[0]
        raise NumericDomainError(
            f"y'Wy - quad = {float(resid[row, bad]):.6g} is within its rounding bound "
            f"{float(bound[row, bad]):.3g}{where(row, bad)}: y'Wy and quad cancelled, so b_g is "
            "lost (a larger lam keeps lam |beta|^2 in it)"
        )
    return b_g


def model_log_marginals(stats: np.ndarray, models: np.ndarray, hyper: NIGHyperparams) -> np.ndarray:
    """Log marginal likelihoods for every row of a model set (any 0/1
    (K, D) inclusion matrix) from ``weighted_stats`` rows of width
    D * D + D + 2: shape (K,) for one row, lead + (K,) for rows of leading
    shape lead.  Rows of another width are an ``InvalidArgumentError``.

    All models of all weight rows are evaluated by one sweep over the
    prefixes of the models' column lists (see the module docstring).
    Raises ``NumericDomainError`` naming the weight row and model row when
    a cell's sweep meets a pivot that is not positive and finite, some
    b_g <= 0 (y'Wy - quad cancelled below -2 b0, or quad overflowed), some
    y'Wy - quad is within its rounding bound (see ``_checked``),
    lgamma(a0 + M/2) overflows or a log evidence is not finite; never
    returns NaN.
    """
    mask = np.asarray(models) != 0
    if mask.ndim != 2:
        raise InvalidArgumentError(
            f"models must be a (count, d) inclusion matrix, got shape {mask.shape}"
        )
    lead, zwz, zwy, ywy, m = _flat_stats(stats, "models", mask.shape)
    r = m.size
    quad, logdet = _sweep(zwz, zwy, mask, hyper.lam)
    b_g = _checked(quad, logdet, zwz, ywy, mask, hyper, functools.partial(_where, lead))
    sizes = mask.sum(axis=1).astype(float)
    a_n = hyper.a0 + 0.5 * m
    lgamma_a_n = np.empty(r)
    for row, value in enumerate(a_n):
        try:
            lgamma_a_n[row] = lgamma(value)
        except OverflowError:
            raise NumericDomainError(
                f"lgamma(a0 + M/2) overflows at M = {float(m[row])}{_where(lead, row)}"
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
            f"log evidence{_where(lead, row, bad)} is {float(log_ml[row, bad])}"
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
        combos = itertools.chain.from_iterable(itertools.combinations(range(d), j))
        positions = np.fromiter(combos, dtype=np.intp, count=counts[j] * j).reshape(-1, j)[::-1]
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


def param_moments_from_stats(stats: np.ndarray, gamma, hyper: NIGHyperparams) -> np.ndarray:
    """Conjugate posterior moments from ``weighted_stats`` rows of any
    leading shape ``lead`` and width D * D + D + 2, D = len(gamma), as one
    array of shape ``lead + (2, 1 + |gamma|)``:
    row 0 holds the means and row 1 the variances of the coordinates
    [log sigma^2, beta_j for each included j in column order].

    The posterior is sigma^2 ~ InvGamma(a_n, b_g) with a_n = a0 + M/2, and
    beta | sigma^2 ~ Normal(beta_hat, sigma^2 Lam_g^{-1}); marginally each
    beta_j is Student-t with variance b_g/(a_n - 1) * (Lam_g^{-1})_jj, and
    log sigma^2 has mean log b_g - digamma(a_n) and variance trigamma(a_n).

    After a_n > 1, checked first, Goodnight's sweep (Am. Stat. 33, 1979) of
    the bordered [[Lam_g, Z'Wy], [., y'Wy]] leaves -Lam_g^{-1} and beta_hat
    without LAPACK, gathering quad and log|Lam_g| bit for bit as the evidence
    sweep does; from them ``_checked`` takes b_g, so ``NumericDomainError``
    names the first weight row that ``model_log_marginals`` refuses.  The
    numpy kernel ``_digamma_trigamma`` gives digamma and trigamma of a_n > 1:
    over 22,000 points in (1.0001, 1e12] they were within 1.6e-15 of
    max(1, |digamma|) and 8.8e-16 relative of the tests' library reference.
    """
    gamma = np.asarray(gamma)
    if gamma.ndim != 1:
        raise InvalidArgumentError(f"gamma must be an inclusion vector, got shape {gamma.shape}")
    lead, zwz, zwy, ywy, m = _flat_stats(stats, "gamma", gamma.shape)
    d = gamma.size
    cols = np.flatnonzero(gamma)
    a_n = hyper.a0 + 0.5 * m
    if not np.all(a_n > 1.0):
        row = int(np.flatnonzero(~(a_n > 1.0))[0])
        raise VarianceUndefinedError(
            f"posterior variance needs a0 + M/2 > 1, got {a_n[row]}{_where(lead, row)}"
        )
    j = cols.size
    # Goodnight's sweep of the bordered [[Lam_g, Z'Wy], [., y'Wy]] on its j pivots, in the evidence
    # sweep's order and formula, so quad and log|Lam_g| are its bits: -Lam_g^{-1} is left, beta_hat beside
    lam_mat = np.take(zwz, cols[:, None] * d + cols, axis=1).reshape(len(zwz), j, j) + hyper.lam * np.eye(j)
    t = zwy[:, cols, None]
    swept = np.block([[lam_mat, t], [t.transpose(0, 2, 1), ywy[:, None, None]]])
    quad, logdet = np.zeros((len(zwz), 1)), np.zeros((len(zwz), 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the check below refuses
        for k in range(j):
            piv = swept[:, k, k, None].copy()
            quad += swept[:, j, k, None] * swept[:, j, k, None] / piv
            logdet += np.log(piv)
            row, col = swept[:, k] / piv, swept[:, :, k] / piv
            swept -= col[:, :, None] * swept[:, None, k]
            swept[:, k], swept[:, :, k], swept[:, k, k] = row, col, -1.0 / piv[:, 0]
    b_g = _checked(quad, logdet, zwz, ywy, gamma[None] != 0, hyper, lambda row, _: _where(lead, row))[:, 0]
    var_beta = (b_g / (1.0 - a_n))[:, None] * np.diagonal(swept, axis1=1, axis2=2)[:, :j]
    psi, tri = _digamma_trigamma(a_n)
    means = np.column_stack([np.log(b_g) - psi, swept[:, :j, j]])
    variances = np.column_stack([tri, var_beta])
    return np.stack([means, variances], axis=1).reshape(lead + (2, 1 + j))
