"""Output checks: compare an item's result files with stored references.

Files are parsed by column or key name, so a later schema that adds
columns or keys still passes.  Three kinds of comparison:

* ``close`` for deterministic quantities (standard pips, closed-form
  two-model curves): a tight relative tolerance.
* ``bounded_mc`` for Monte Carlo means of [0, 1]-valued draws (bagged pips,
  ``frac_bagged_below``, ``p_std_wrong``).  Replicate pips here are mostly
  0 or 1, so a normal k-sigma band fails on rare replicates; instead the
  item and the reference each give a Chernoff (Bernoulli-KL) confidence
  interval at level ``MC_ALPHA``, and the two must overlap.  Near 1/2 the
  item's half-width is sqrt(2 ln(2/alpha)) = 5.4 worst-case standard
  errors; near 0 and 1 it widens to cover the skew.  The bound holds for
  any [0, 1]-valued draws, so a new random stream passes and a wrong
  number fails.
* ``normal_mc`` for the mismatch index I (not bounded), compared as
  log(1 - I): within ``NORMAL_K`` reference standard errors of a
  B-replicate estimate.

Each check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-6  # evidence-derived values (pips): rounding of log ml ~ 1e4 in size
CURVE_REL_TOL = 1e-9  # closed-form curves, written with 12 significant digits
ABS_TOL = 1e-12
MC_ALPHA = 1e-6
NORMAL_K = 6.0

_L = math.log(2.0 / MC_ALPHA)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def close(name: str, value: float, ref: float, rel: float = REL_TOL) -> list[str]:
    if math.isfinite(value) and abs(value - ref) <= rel * abs(ref) + ABS_TOL:
        return []
    return [f"{name}: {value!r} differs from reference {ref!r} (rel tol {rel:g})"]


def _kl(x: float, mu: float) -> float:
    """Bernoulli KL divergence KL(x || mu), with 0 log 0 = 0."""
    out = 0.0
    if x > 0.0:
        out += x * math.log(x / mu)
    if x < 1.0:
        out += (1.0 - x) * math.log((1.0 - x) / (1.0 - mu))
    return out


def _kl_interval(x: float, n: float) -> tuple[float, float]:
    """{mu : n KL(x || mu) <= ln(2/alpha)}; a point when n is infinite."""
    if math.isinf(n):
        return x, x
    bound = _L / n

    def edge(inside: float, outside: float) -> float:
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if _kl(x, mid) <= bound:
                inside = mid
            else:
                outside = mid
        return inside

    lo = 0.0 if x == 0.0 or _kl(x, 1e-300) <= bound else edge(x, 0.0)
    hi = 1.0 if x == 1.0 or _kl(x, 1.0 - 1e-16) <= bound else edge(x, 1.0)
    return lo, hi


def bounded_mc(name: str, value: float, n: float, ref: float, n_ref: float) -> list[str]:
    """Mean of ``n`` draws in [0, 1] against a reference mean of ``n_ref``
    draws (``math.inf`` for an exact reference)."""
    if not (0.0 <= value <= 1.0):
        return [f"{name}: {value!r} outside [0, 1]"]
    lo, hi = _kl_interval(value, n)
    ref_lo, ref_hi = _kl_interval(min(max(ref, 0.0), 1.0), n_ref)
    if lo <= ref_hi and ref_lo <= hi:
        return []
    return [
        f"{name}: {value!r} (n={n:g}, interval [{lo:.4g}, {hi:.4g}]) is incompatible "
        f"with reference {ref!r} (n={n_ref:g}, interval [{ref_lo:.4g}, {ref_hi:.4g}])"
    ]


def normal_mc(name: str, value, center: float, se: float) -> list[str]:
    if value is not None and math.isfinite(value) and abs(value - center) <= NORMAL_K * se:
        return []
    return [f"{name}: {value!r} not within {NORMAL_K:g} x {se:.3g} of reference {center!r}"]


def manifest_files(outdir: Path) -> list[str]:
    """Every file the manifest lists must exist."""
    path = outdir / "manifest.json"
    if not path.is_file():
        return [f"{path.name} missing"]
    return [f"{name} listed in manifest but missing"
            for name in read_json(path).get("files", {}) if not (outdir / name).is_file()]
