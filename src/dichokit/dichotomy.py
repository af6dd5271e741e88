"""The four-rate dichotomy bound and its grid checks.

The checked inequalities are

    |T(t,s) P(s)| <= K (h(t)/h(s))^a  mu(|s|)^eps,   t >= s,
    |T(t,s) Q(s)| <= K (k(s)/k(t))^-b nu(|s|)^eps,   s >= t,

with a < 0 <= b, eps >= 0, K > 0 and Q = Id - P.  Operator norms are
spectral norms: a closed form within 2 ulp for n = 2 (see `_norms`), and
LAPACK's batched SVD for any other n (at most 16).  The nonuniform
factors are always evaluated at |s|; rates themselves are stored over
signed time.  Ratios are formed in log space so that saturated rate
powers never poison a certificate with overflow.

The grid checks read one pair table per grid: the pairs normalized to
(hi, lo), T in both orientations from one ``EvolutionOperator.evolve`` call
on arrays, P read once per unique time and every norm from one batched call.
Each operator's last table is kept (weakly) and reused while the (hi, lo)
arrays and P's values are equal, so `verify`, `estimate_constants` and
`check_projection` on one grid share one sweep; the rates enter per call.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, EstimationError
from .evolution import EvolutionOperator
from .growth import LOG_SATURATION, RateQuadruple

VERIFY_TOL = 1e-6  # verify's slack on every ratio (1 + VERIFY_TOL) and commutation residual
IDEMPOTENCY_TOL = 1e-10  # check_projection's bound on |P(u)^2 - P(u)|
MIN_PAIRS = 20  # estimate_constants fits a side only from at least this many pairs

Projection = Callable[[float], np.ndarray]  # t -> the n x n projection P(t)

logger = logging.getLogger(__name__)


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class DichotomySpec:
    """Claimed bound: projections P(t), rates and the constants (K, a, b, eps)."""

    P: Projection
    rates: RateQuadruple
    K: float
    a: float
    b: float
    eps: float

    def __post_init__(self):
        for name in ("K", "a", "b", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"need a finite {name}, got {getattr(self, name)}")
        if not (self.a < 0 <= self.b):
            raise ValueError(f"need a < 0 <= b, got a={self.a}, b={self.b}")
        if self.K <= 0:
            raise ValueError(f"need K > 0, got {self.K}")
        if self.eps < 0:
            raise ValueError(f"need eps >= 0, got {self.eps}")

    # -- log-space bound evaluation -------------------------------------------

    def log_bound_stable(self, t: float, s: float) -> float:
        """log of K (h(t)/h(s))^a mu(|s|)^eps, valid for t >= s."""
        h, mu = self.rates.h, self.rates.mu
        return math.log(self.K) + self.a * (h.log_u(t) - h.log_u(s)) + self.eps * mu.log_u(abs(s))

    def log_bound_unstable(self, t: float, s: float) -> float:
        """log of K (k(s)/k(t))^-b nu(|s|)^eps, valid for s >= t."""
        k, nu = self.rates.k, self.rates.nu
        return math.log(self.K) - self.b * (k.log_u(s) - k.log_u(t)) + self.eps * nu.log_u(abs(s))


@dataclass
class Certificate:
    """Grid-checked pass/fail record for a claimed dichotomy bound.

    The ``*_at`` fields say where each worst value occurred, as the (t, s)
    of the inequality checked there: t >= s for the stable bound, t <= s for
    the unstable one, and the row's (t, s) for the commutation residual.
    They are None on an empty grid.  ``saturated`` counts the log-ratios
    that were clamped at 700 (their ratio reads e^700).  ``rows`` holds one
    record per grid pair, normalized to t >= s, with fields t, s,
    stable_ratio, unstable_ratio and commute_residual.
    """

    rows: np.recarray
    worst_stable_ratio: float
    worst_unstable_ratio: float
    worst_commute_residual: float
    tol: float
    passed: bool
    worst_stable_at: tuple | None
    worst_unstable_at: tuple | None
    worst_commute_at: tuple | None
    saturated: int

    def to_dict(self) -> dict:
        at = lambda pair: None if pair is None else list(pair)
        return {
            "pairs": len(self.rows),
            "worst_stable_ratio": self.worst_stable_ratio,
            "worst_unstable_ratio": self.worst_unstable_ratio,
            "worst_commute_residual": self.worst_commute_residual,
            "worst_stable_at": at(self.worst_stable_at),
            "worst_unstable_at": at(self.worst_unstable_at),
            "worst_commute_at": at(self.worst_commute_at),
            "saturated": self.saturated,
            "tol": self.tol,
            "passed": self.passed,
        }


def square_grid(lo: float, hi: float, step: float):
    """All (t, s) pairs with t >= s on a uniform grid, diagonal included.

    The ends must be finite with lo <= hi and the step positive and finite;
    otherwise ValueError, since the grid would be empty or unbounded.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"grid step must be positive and finite, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"grid ends must be finite with lo <= hi, got [{lo}, {hi}]")
    vals = np.arange(lo, hi + step * 0.5, step)
    return [(float(t), float(s)) for i, t in enumerate(vals) for s in vals[: i + 1]]


# -- the pair table shared by the grid checks ---------------------------------


def _grid_arrays(grid):
    """The t and s columns of a grid of (t, s) pairs; ValueError on any other shape."""
    g = np.asarray(list(grid) or np.empty((0, 2)), dtype=float)
    if g.ndim != 2 or g.shape[1] != 2:
        raise ValueError(f"a grid is an (m, 2) sequence of (t, s) pairs, got shape {g.shape}")
    return g[:, 0], g[:, 1]


def _norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (m, n, n) stack, in one batched call.

    For n = 2 the largest singular value of [[a, b], [c, d]] is
    (|(a + d, c - b)| + |(a - d, c + b)|) / 2.  Each matrix is first scaled
    by the power of two that brings its largest entry into [0.5, 1), which
    is exact, so the sums neither overflow nor drop the low bits of
    subnormal entries, and the scaled norm is at least 0.5.  Over 1.4 M
    matrices from 1e-300 to 1e300, subnormal, rank-one and diagonal ones
    included, it stayed within 1.9 ulp of the exact norm and 8 ulp of
    LAPACK's, whose own error reached about 7.7 ulp.  A zero matrix gives 0,
    and a norm past the largest double gives inf without a warning.  Any
    other n uses LAPACK's batched SVD.
    """
    if stack.shape[1:] != (2, 2):
        return np.linalg.norm(stack, 2, axis=(1, 2))
    q = stack.reshape(-1, 4).T
    _, e = np.frexp(np.maximum(np.maximum(np.abs(q[0]), np.abs(q[1])), np.maximum(np.abs(q[2]), np.abs(q[3]))))
    a, b, c, d = np.ldexp(q, -e)
    x, y, z, w = a + d, c - b, a - d, c + b
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(x * x + y * y) + np.sqrt(z * z + w * w), e - 1)


def _projections(P: Projection, ts, n: int) -> np.ndarray:
    """The (m, n, n) stack of P(t) for the m times `ts`, one call per time.

    The values are stacked and checked at once; a P(t) that is not a finite
    n x n matrix raises ValueError naming the first such t.  A P that
    returns one buffer rewritten at each call must return a copy.
    """
    ts = np.asarray(ts, dtype=float).tolist()
    values = [P(v) for v in ts]
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != (len(ts), n, n) or not np.isfinite(out).all():
        for v, value in zip(ts, values):
            p = np.asarray(value, dtype=float)
            if p.shape != (n, n) or not np.isfinite(p).all():
                raise ValueError(f"P({v}) must be a finite {n} x {n} matrix, got {p.tolist()}")
        out = np.empty((0, n, n))  # only an empty `ts` gets here
    return out


@dataclass
class _PairTable:
    """The norms the grid checks read, for grid pairs normalized to (hi, lo).

    stable = |T(hi, lo) P(lo)|, unstable = |T(lo, hi) Q(hi)|, forward and
    backward = |P(t) T(t, s) - T(t, s) P(s)| at (t, s) = (hi, lo) and
    (lo, hi), idempotency = |P(u)^2 - P(u)| at the unique times u.
    """

    hi: np.ndarray
    lo: np.ndarray
    u: np.ndarray
    p_u: np.ndarray  # P(u), with hi and lo the table's key
    stable: np.ndarray
    unstable: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    idempotency: np.ndarray


_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # operator -> its last table


def _pair_table(op: EvolutionOperator, P: Projection, t: np.ndarray, s: np.ndarray) -> _PairTable:
    """The table of the pairs (t_k, s_k): the operator's last one if its key matches, else a new one."""
    hi, lo = np.maximum(t, s), np.minimum(t, s)
    n, m = op.field.dim, hi.size
    u, idx = np.unique(np.concatenate([hi, lo]), return_inverse=True)
    p_u = _projections(P, u, n)
    tab = _tables.get(op)
    if tab is not None and np.array_equal(hi, tab.hi) and np.array_equal(lo, tab.lo) and np.array_equal(p_u, tab.p_u):
        return tab
    T = op.evolve(np.concatenate([hi, lo]), np.concatenate([lo, hi]))
    fwd, bwd, p_hi, p_lo = T[:m], T[m:], p_u[idx[:m]], p_u[idx[m:]]
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = np.concatenate(
            [fwd @ p_lo, bwd @ (np.eye(n) - p_hi), p_hi @ fwd - fwd @ p_lo, p_lo @ bwd - bwd @ p_hi, p_u @ p_u - p_u]
        )
    # a product past the range of doubles holds inf, or NaN where two such cancel: its norm reads inf
    finite = np.isfinite(stacks).all(axis=(1, 2))
    norms = np.full(len(stacks), np.inf)
    norms[finite] = _norms(stacks[finite])
    tab = _tables[op] = _PairTable(hi, lo, u, p_u, *norms[: 4 * m].reshape(4, m), norms[4 * m :])
    return tab


def _regression_rows(rates: RateQuadruple, op: EvolutionOperator, t: np.ndarray, s: np.ndarray):
    """Regression rows on the pairs' (hi, lo): log bounds x_stable @ (log K, a, eps), x_unstable @ (log K, b, eps)."""
    if not rates.compatible_with(op.field.domain):
        raise DomainError("half-line rates cannot certify a full-line system")
    h, k, mu, nu = rates.rates()
    hi, lo = np.maximum(t, s), np.minimum(t, s)
    lh, lk = h.log_u(np.stack([hi, lo])), k.log_u(np.stack([hi, lo]))
    ones = np.ones(hi.size)
    x_stable = np.column_stack([ones, lh[0] - lh[1], mu.log_u(np.abs(lo))])
    x_unstable = np.column_stack([ones, -(lk[0] - lk[1]), nu.log_u(np.abs(hi))])
    return x_stable, x_unstable


def _ratios(norms: np.ndarray, log_bound: np.ndarray):
    """norm / bound, formed in log space with the log-ratio clamped at 700.

    A zero norm gives ratio 0.  Returns the ratios and how many log-ratios
    were clamped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(norms) - log_bound
    live = norms > 0.0
    ratios = np.where(live, np.exp(np.minimum(log_ratio, LOG_SATURATION)), 0.0)
    return ratios, int(np.count_nonzero(live & (log_ratio > LOG_SATURATION)))


def _worst(values: np.ndarray, t: np.ndarray, s: np.ndarray):
    """Largest value and its (t, s); (0.0, None) when there are none."""
    if values.size == 0:
        return 0.0, None
    k = int(np.argmax(values))
    return float(values[k]), (float(t[k]), float(s[k]))


def verify(spec: DichotomySpec, op: EvolutionOperator, grid) -> Certificate:
    """Check both bound regimes and the commutation identity on a pair grid.

    Each grid pair is normalized to t >= s; the stable bound is checked on
    (t, s), the unstable bound on the reversed pair (s plays the role of the
    later time), and the commutation residual |P(t)T(t,s) - T(t,s)P(s)| is
    taken over both orderings.  Pass iff every ratio <= 1 + `VERIFY_TOL` and
    every commutation residual <= `VERIFY_TOL`, which the certificate's
    ``tol`` reports.  An empty grid passes with zero worst values; a grid
    that is not an (m, 2) sequence of (t, s) pairs raises ValueError.

    The norms come from the pair table (see the module docstring); a norm
    past the largest double reads inf, so its ratio saturates.  A non-finite
    grid time, or a P(u) that is not a finite n x n matrix, raises
    ValueError naming it.
    """
    t, s = _grid_arrays(grid)
    x_stable, x_unstable = _regression_rows(spec.rates, op, t, s)
    tab = _pair_table(op, spec.P, t, s)
    log_k = math.log(spec.K)
    stable, sat_s = _ratios(tab.stable, x_stable @ (log_k, spec.a, spec.eps))
    unstable, sat_u = _ratios(tab.unstable, x_unstable @ (log_k, spec.b, spec.eps))
    hi, lo = tab.hi, tab.lo
    commute = np.maximum(tab.forward, tab.backward)
    rows = np.rec.fromarrays(
        [hi, lo, stable, unstable, commute], names="t,s,stable_ratio,unstable_ratio,commute_residual"
    )
    ws, ws_at = _worst(stable, hi, lo)
    wu, wu_at = _worst(unstable, lo, hi)
    wc, wc_at = _worst(commute, hi, lo)
    passed = ws <= 1.0 + VERIFY_TOL and wu <= 1.0 + VERIFY_TOL and wc <= VERIFY_TOL
    return Certificate(rows, ws, wu, wc, VERIFY_TOL, passed, ws_at, wu_at, wc_at, sat_s + sat_u)


@dataclass
class ProjectionReport:
    """Worst residuals of ``check_projection`` and where they occurred.

    Passes iff the commutation residual is at most `VERIFY_TOL` and the
    idempotency residual at most `IDEMPOTENCY_TOL`.  The worst ones occurred
    at the grid pair ``worst_commute_at`` and the time ``worst_idempotency_at``,
    both None on an empty grid.
    """

    max_commute_residual: float
    max_idempotency_residual: float
    worst_commute_at: tuple | None = None
    worst_idempotency_at: float | None = None

    @property
    def passed(self) -> bool:
        return self.max_commute_residual <= VERIFY_TOL and self.max_idempotency_residual <= IDEMPOTENCY_TOL


def check_projection(P: Projection, op: EvolutionOperator, grid) -> ProjectionReport:
    """Residuals of P(t)T(t,s) = T(t,s)P(s) and P(u)^2 = P(u) over a grid.

    The commutation residual is taken per pair in its own orientation (t < s
    reads the backward-integrated T(t, s)), the idempotency residual at every
    time of the grid, both from the pair table: alone on a one-orientation
    grid, this sweeps both directions.  An empty grid gives (0.0, 0.0) and no
    locations; a grid that is not (m, 2) pairs, or a P(u) that is not a
    finite n x n matrix, raises ValueError.
    """
    t, s = _grid_arrays(grid)
    tab = _pair_table(op, P, t, s)
    wc, wc_at = _worst(np.where(t >= s, tab.forward, tab.backward), t, s)
    wi, wi_at = _worst(tab.idempotency, tab.u, tab.u)
    return ProjectionReport(wc, wi, wc_at, None if wi_at is None else wi_at[0])


@dataclass
class EstimateDiagnostics:
    stable_pairs: int
    unstable_pairs: int
    stable_residual: float
    unstable_residual: float
    warnings: list = field(default_factory=list)


def estimate_constants(
    op: EvolutionOperator,
    P: Projection,
    rates: RateQuadruple,
    grid,
) -> tuple[DichotomySpec, EstimateDiagnostics]:
    """Fit (K, a, b, eps) by least squares in log space, then inflate K.

    Stable side: log|T(t,s)P(s)| ~ log K + a (log h(t)-log h(s)) + eps log mu(|s|)
    over pairs with t >= s; unstable side mirrored.  One eps serves both
    sides (the definition has a single eps), reconciled by max; raising eps
    only weakens the bound since mu(|s|) >= 1.  log K is inflated by the
    worst positive residual so the returned spec verifies on its own
    training grid by construction.  When the unstable side has fewer than
    `MIN_PAIRS` pairs, b is 0 and that side's log K counts as 0, so K >= 1.

    The norms come from the pair table ``verify`` reads (see the module
    docstring); half-line rates and a malformed P raise as in ``verify``, and
    a norm past the largest double raises EstimationError naming its pair.
    Each diagnostics warning is also logged on the ``dichokit.dichotomy`` logger.
    """
    warnings = []
    t, s = _grid_arrays(grid)
    x_stable, x_unstable = _regression_rows(rates, op, t, s)
    tab = _pair_table(op, P, t, s)
    sides = (("stable", tab.stable, tab.hi, tab.lo), ("unstable", tab.unstable, tab.lo, tab.hi))
    for side, norms, later, earlier in sides:
        overflow, at = _worst(np.isinf(norms), later, earlier)
        if overflow:
            raise EstimationError(f"the {side} norm at (t, s) = {at} is past the largest double")
    keep_s, keep_u = tab.stable > 0, tab.unstable > 0
    rows_s, ys = x_stable[keep_s], np.log(tab.stable[keep_s])
    rows_u, yu = x_unstable[keep_u], np.log(tab.unstable[keep_u])

    def fit(X, y, side):
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < X.shape[1]:
            raise EstimationError(f"{side} regression is rank-deficient on this grid")
        return coef

    if len(rows_s) < MIN_PAIRS:
        raise EstimationError(f"need >= {MIN_PAIRS} stable pairs, got {len(rows_s)}")
    logK_s, a_fit, eps_s = fit(rows_s, ys, "stable")
    if a_fit >= 0:
        raise EstimationError(f"fitted stable exponent a={a_fit:.4g} is not negative")

    if len(rows_u) < MIN_PAIRS:
        warnings.append(f"unstable side has {len(rows_u)} pairs (Q nearly trivial); b set to 0")
        b_fit, eps_u, logK_u = 0.0, 0.0, 0.0
    else:
        logK_u, b_fit, eps_u = fit(rows_u, yu, "unstable")
        if b_fit < 0:
            warnings.append(f"fitted b={b_fit:.4g} was negative; clamped to 0")
            b_fit = 0.0

    eps = max(eps_s, eps_u, 0.0)
    if eps_s < 0 or eps_u < 0:
        warnings.append("a fitted eps was negative; clamped to 0")
    logK = max(logK_s, logK_u)

    candidate = DichotomySpec(P, rates, math.exp(logK), float(a_fit), float(b_fit), float(eps))

    # final inflation: push log K up by the worst training-grid violation
    log_k = math.log(candidate.K)
    worst_log = max(
        float(np.max(ys - rows_s @ (log_k, candidate.a, candidate.eps), initial=0.0)),
        float(np.max(yu - rows_u @ (log_k, candidate.b, candidate.eps), initial=0.0)),
    )
    if worst_log > 0:
        candidate = DichotomySpec(
            P, rates, math.exp(logK + worst_log * (1 + 1e-12) + 1e-14), float(a_fit), float(b_fit), float(eps)
        )

    resid_s = float(np.max(np.abs(rows_s @ np.array([logK_s, a_fit, eps_s]) - ys)))
    resid_u = (
        float(np.max(np.abs(rows_u @ np.array([logK_u, b_fit, eps_u]) - yu)))
        if len(rows_u) >= MIN_PAIRS
        else 0.0
    )
    for w in warnings:
        logger.warning(w)
    diag = EstimateDiagnostics(len(rows_s), len(rows_u), resid_s, resid_u, warnings)
    return candidate, diag
