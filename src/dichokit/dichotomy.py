"""Projection families, the four-rate dichotomy bound, and its grid checks.

The checked inequalities are

    |T(t,s) P(s)| <= K (h(t)/h(s))^a  mu(|s|)^eps,   t >= s,
    |T(t,s) Q(s)| <= K (k(s)/k(t))^-b nu(|s|)^eps,   s >= t,

with a < 0 <= b, eps >= 0, K > 0 and Q = Id - P.  Operator norms are
spectral norms (n <= 16 keeps singular values cheap).  The nonuniform
factors are always evaluated at |s|; rates themselves are stored over
signed time.  Ratios are formed in log space so that saturated rate
powers never poison a certificate with overflow.

The grid checks share one pair table: T(t, s) for every pair from one row
sweep of the evolution operator, P and the rates evaluated once per unique
time, and the norms taken in batched calls over the stacked pairs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, EstimationError
from .evolution import EvolutionOperator
from .growth import LOG_SATURATION, RateQuadruple

VERIFY_TOL = 1e-6  # verify's slack on every ratio (1 + VERIFY_TOL) and commutation residual
MIN_PAIRS = 20  # estimate_constants fits a side only from at least this many pairs

logger = logging.getLogger(__name__)


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class ProjectionFamily:
    """A t-indexed idempotent family P(t); constant or analytic callback."""

    at: Callable[[float], np.ndarray]

    @staticmethod
    def constant(matrix) -> "ProjectionFamily":
        p = np.asarray(matrix, dtype=float)
        return ProjectionFamily(lambda t: p)

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.at(t), dtype=float)

    def complement(self, t: float) -> np.ndarray:
        p = self(t)
        return np.eye(p.shape[0]) - p


@dataclass(frozen=True)
class DichotomySpec:
    """Claimed bound: projections, rates and the constants (K, a, b, eps)."""

    P: ProjectionFamily
    rates: RateQuadruple
    K: float
    a: float
    b: float
    eps: float

    def __post_init__(self):
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
    """All (t, s) pairs with t >= s on a uniform grid, diagonal included."""
    vals = np.arange(lo, hi + step * 0.5, step)
    return [(float(t), float(s)) for i, t in enumerate(vals) for s in vals[: i + 1]]


# -- the pair table shared by the grid checks ---------------------------------


def _grid_arrays(grid):
    g = np.asarray(list(grid), dtype=float).reshape(-1, 2)
    return g[:, 0], g[:, 1]


def _norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (m, n, n) stack, in one batched call."""
    return np.linalg.norm(stack, 2, axis=(1, 2))


def _per_unique(fn, x: np.ndarray) -> np.ndarray:
    """fn(v) for every entry v of x, calling fn once per unique value."""
    vals, idx = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in vals.tolist()])[idx.reshape(x.shape)]


def _pair_table(op: EvolutionOperator, P: ProjectionFamily, t, s):
    """T(t_k, s_k), P(t_k) and P(s_k) for arrays of directed pairs.

    T comes from one row sweep (``EvolutionOperator.evolve_pairs``); P is
    evaluated once per unique time.
    """
    n = op.field.dim
    p_t, p_s = _per_unique(P, np.stack([t, s])).reshape(2, t.size, n, n)
    return op.evolve_pairs(t, s), p_t, p_s


@dataclass
class _BoundTable:
    """Grid pairs normalized to (hi, lo), hi >= lo, with both bounds' inputs.

    ``stable`` = |T(hi, lo) P(lo)| and ``unstable`` = |T(lo, hi) Q(hi)|.  The
    log-space features make a spec's log bounds x_stable @ (log K, a, eps)
    and x_unstable @ (log K, b, eps), the same regression rows that
    ``estimate_constants`` fits.
    """

    hi: np.ndarray
    lo: np.ndarray
    fwd: np.ndarray  # T(hi, lo)
    bwd: np.ndarray  # T(lo, hi), backward integrated
    p_hi: np.ndarray
    p_lo: np.ndarray
    stable: np.ndarray
    unstable: np.ndarray
    x_stable: np.ndarray
    x_unstable: np.ndarray


def _bound_table(op: EvolutionOperator, P: ProjectionFamily, rates: RateQuadruple, grid) -> _BoundTable:
    t, s = _grid_arrays(grid)
    hi, lo = np.maximum(t, s), np.minimum(t, s)
    m = hi.size
    T, p_to, p_from = _pair_table(op, P, np.concatenate([hi, lo]), np.concatenate([lo, hi]))
    fwd, bwd, p_hi, p_lo = T[:m], T[m:], p_to[:m], p_from[:m]
    q_hi = np.eye(op.field.dim) - p_hi
    stable, unstable = _norms(np.concatenate([fwd @ p_lo, bwd @ q_hi])).reshape(2, m)
    h, k, mu, nu = rates.rates()
    lh, lk = _per_unique(h.log_u, np.stack([hi, lo])), _per_unique(k.log_u, np.stack([hi, lo]))
    ones = np.ones(m)
    x_stable = np.column_stack([ones, lh[0] - lh[1], _per_unique(mu.log_u, np.abs(lo))])
    x_unstable = np.column_stack([ones, -(lk[0] - lk[1]), _per_unique(nu.log_u, np.abs(hi))])
    return _BoundTable(hi, lo, fwd, bwd, p_hi, p_lo, stable, unstable, x_stable, x_unstable)


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
    ``tol`` reports.  An empty grid passes with zero worst values.

    All pairs are evaluated together: T(t, s) and T(s, t) come from one
    forward and one backward row sweep over the grid's unique times (one
    ``evolve`` per adjacent pair of times), and every norm from batched
    calls.
    """
    if not spec.rates.compatible_with(op.field.domain):
        raise DomainError("half-line rates cannot certify a full-line system")

    tab = _bound_table(op, spec.P, spec.rates, grid)
    log_k = math.log(spec.K)
    stable, sat_s = _ratios(tab.stable, tab.x_stable @ (log_k, spec.a, spec.eps))
    unstable, sat_u = _ratios(tab.unstable, tab.x_unstable @ (log_k, spec.b, spec.eps))
    hi, lo, fwd, bwd, p_hi, p_lo = tab.hi, tab.lo, tab.fwd, tab.bwd, tab.p_hi, tab.p_lo
    commute = _norms(np.concatenate([p_hi @ fwd - fwd @ p_lo, p_lo @ bwd - bwd @ p_hi]))
    commute = commute.reshape(2, hi.size).max(axis=0)
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
    max_commute_residual: float
    max_idempotency_residual: float

    @property
    def passed(self) -> bool:
        return self.max_commute_residual <= 1e-6 and self.max_idempotency_residual <= 1e-10


def check_projection(P: ProjectionFamily, op: EvolutionOperator, grid) -> ProjectionReport:
    """Residuals of P(t)T(t,s) = T(t,s)P(s) and P(u)^2 = P(u) over a grid.

    The commutation residual is taken per pair; the idempotency residual at
    every time of the grid, both ends of each pair.  Pairs keep their
    orientation, so a pair with t < s is evolved backward.  T(t, s) comes
    from one row sweep over the grid's unique times and the norms from one
    batched call.  An empty grid gives (0.0, 0.0).
    """
    t, s = _grid_arrays(grid)
    T, p_t, p_s = _pair_table(op, P, t, s)
    _, first = np.unique(np.concatenate([t, s]), return_index=True)
    p_u = np.concatenate([p_t, p_s])[first]
    norms = _norms(np.concatenate([p_t @ T - T @ p_s, p_u @ p_u - p_u]))
    commute, idem = norms[: t.size], norms[t.size :]
    return ProjectionReport(float(commute.max(initial=0.0)), float(idem.max(initial=0.0)))


@dataclass
class EstimateDiagnostics:
    stable_pairs: int
    unstable_pairs: int
    stable_residual: float
    unstable_residual: float
    warnings: list = field(default_factory=list)


def estimate_constants(
    op: EvolutionOperator,
    P: ProjectionFamily,
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

    The norms come from the same pair table as ``verify`` (one forward and
    one backward row sweep, batched norms) and are taken once, for both the
    fit and the inflation.  Each diagnostics warning is also logged on the
    ``dichokit.dichotomy`` logger.
    """
    warnings = []
    tab = _bound_table(op, P, rates, grid)
    keep_s, keep_u = tab.stable > 0, tab.unstable > 0
    rows_s, ys = tab.x_stable[keep_s], np.log(tab.stable[keep_s])
    rows_u, yu = tab.x_unstable[keep_u], np.log(tab.unstable[keep_u])

    def fit(X, y, side):
        rank = np.linalg.matrix_rank(X)
        if rank < X.shape[1]:
            raise EstimationError(f"{side} regression is rank-deficient on this grid")
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
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
