"""Quadratic forms H(t, x) = <S(t) x, x> attached to a dichotomy.

S(t) is built from the verified bound by the two-integral construction

    S(t) =  int_t^inf  (T(v,t)P(t))^T (T(v,t)P(t)) (h(v)/h(t))^{-2(a+d)} h'(v)/h(v) dv
          - int_-inf^t (T(v,t)Q(t))^T (T(v,t)Q(t)) (k(t)/k(v))^{ 2(b-d)} k'(v)/k(v) dv

for a damping constant 0 < d < min(-a, b).  The rate powers are folded into
shifted evolutions Phi, so the stable integral is the integral of
G(v,t)^T G(v,t) h'/h(v) with G(v,t) = Phi(v,t) P(t).  Because P commutes
with the flow, G(v,t) = G(v,t') Phi(t',t) P(t) for v >= t' >= t, which gives
the congruence recurrence

    S_s(t) = M^T S_s(t') M + int_t^{t'} G(v,t)^T G(v,t) h'/h(v) dv,
    M = P(t') Phi(t',t) P(t),

so one backward sweep over the grid yields every stable part from the grid
interval integrals and a tail integral, each group from one batched solve
and one stacked quadrature; the unstable part is the mirror image.  Both
integrands are dominated by the dichotomy envelope times (rate ratio)^{-2d}
(rate slope), whose improper tail integrates in closed form, so the
truncation points are certified analytically before any quadrature runs.
The sign of H along orbits classifies stable and unstable vectors, and the
derivative inequalities it satisfies are checked numerically on grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec

from .dichotomy import DichotomySpec, _projections, spectral_norm
from .errors import DichokitError, DomainError
from .evolution import EvolutionOperator
from .system import CoefficientField
from .tails import time_backward_for_log_drop, time_for_log_decrease


# longest stretch of a construct_S solve between reprojections
REPROJECT_WINDOW = 2.0
QUAD_TOL = 1e-10  # epsabs and epsrel of every quad_vec of construct_S
DERIVATIVE_TOL = 1e-8  # derivative_condition passes when its top eigenvalue is at most this
FD_TOL = 1e-3  # floor of the finite-difference error derivative_condition refuses
CLASSIFY_SAMPLES = 120  # orbit samples of classify
CLASSIFY_MARGIN = 1e-8  # classify's margin, relative to |x_k|^2 |S(t_k)|_F


def _congruence_sweep(op: EvolutionOperator, projector, coeff: float, rate, ts, end: float):
    """int from ts[i] to `end` of G^T G rate'/rate, for every i, by one sweep.

    `ts` runs toward `end` (increasing for the stable side, decreasing for the
    unstable side), G(v, t) = Phi(v, t) projector(t), and Phi evolves
    Y' = (A - coeff rate'/rate) Y.  The grid intervals and the tail [ts[-1], end]
    form two groups of pieces, cut at the checkpoint lattice (field jumps live
    there) and at `REPROJECT_WINDOW`.  A group is one dense
    `EvolutionOperator._clocked` solve, piece k at v_k = lo_k + c_k sigma on
    its clock sigma in [0, l], c_k = (hi_k - lo_k) / l.  An interval's pieces are
    chained from projector(lo), reprojecting at piece ends to kill noise along
    the complement; one quad_vec over sigma of the stacked |c_k| rate'/rate(v_k)
    (Phi_k s_k)^T (Phi_k s_k), s_k the start of piece k, gives every piece's
    integral.  Then S(ts[i]) = M^T S(ts[i+1]) M + (interval integral), with
    M = projector(ts[i+1]) G(ts[i+1], ts[i]).  `projector` maps an array of
    times to the stack of projectors there, read at every piece end before
    the solves.  Returns the stack in the order of `ts` and the summed
    quad_vec error estimates.
    """
    n, last, knots = op.field.dim, len(ts) - 1, list(ts) + [end]
    parts, maps, err = np.zeros((last + 1, n, n)), np.zeros((last + 1, n, n)), 0.0

    def shift(vs):
        return coeff * rate.dlog(vs)

    # a one-point grid has no intervals, and tail_tol >= 1 puts `end` on ts[-1]
    for group in filter(len, (range(last), range(last, last + (end != ts[-1])))):
        lo, hi, owner = [], [], []
        for i in group:
            for p, q in op._pieces(knots[i], knots[i + 1]):
                m = max(1, math.ceil(abs(q - p) / REPROJECT_WINDOW))
                cuts = [p + (q - p) * j / m for j in range(m)] + [q]
                lo, hi, owner = lo + cuts[:-1], hi + cuts[1:], owner + [i] * m
        starts, p_hi = projector(lo), projector(hi)
        sol, times = op._clocked(lo, hi, shift, dense=True)
        weight = np.abs(np.subtract(hi, lo)) / sol.t[-1]
        ends = sol.y[:, -1].reshape(-1, n, n)
        for k, i in enumerate(owner):
            if k and owner[k - 1] == i:
                starts[k] = maps[i]
            maps[i] = p_hi[k] @ ends[k] @ starts[k]

        def integrand(sigma):
            g = sol.sol(sigma).reshape(-1, n, n) @ starts
            w = weight * rate.dlog(times(sigma))
            return w[:, None, None] * (g.transpose(0, 2, 1) @ g)

        vals, e = quad_vec(integrand, 0.0, sol.t[-1], epsabs=QUAD_TOL, epsrel=QUAD_TOL)
        np.add.at(parts, owner, vals)
        err += float(e)
    for i in range(last - 1, -1, -1):
        parts[i] += maps[i].T @ parts[i + 1] @ maps[i]
    return parts, err


@dataclass
class QuadraticLyapunov:
    """Grid-backed symmetric matrix family with linear interpolation.

    `stable_cutoff` (V) and `unstable_cutoff` (W) are the certified
    truncation times of the two integrals (None for a side that is not
    integrated), and `quad_error` is the sum of the error estimates of the
    stacked quad_vec calls, at most two per side (grid intervals and tail).
    """

    times: np.ndarray
    matrices: np.ndarray
    dbar: float
    spec: DichotomySpec
    min_abs_eigenvalue: float = 0.0
    norm_margin: float = math.inf  # slack in |S(t)| <= (K^2/2d)(mu^2eps + nu^2eps)
    stable_cutoff: float | None = None
    unstable_cutoff: float | None = None
    quad_error: float = 0.0

    def S(self, t) -> np.ndarray:
        """S at a time, or stacked along axis 0 at an array of times."""
        ts = self.times
        t = np.asarray(t, dtype=float)
        outside = ~((ts[0] - 1e-9 <= t) & (t <= ts[-1] + 1e-9))  # NaN included
        if outside.any():
            raise ValueError(f"t={t[outside][0]} outside the S grid [{ts[0]}, {ts[-1]}]")
        if ts.size == 1:
            return np.broadcast_to(self.matrices[0], t.shape + self.matrices[0].shape).copy()
        i = np.clip(np.searchsorted(ts, t) - 1, 0, ts.size - 2)
        w = np.clip((t - ts[i]) / (ts[i + 1] - ts[i]), 0.0, 1.0)[..., None, None]
        return (1 - w) * self.matrices[i] + w * self.matrices[i + 1]

    def H(self, t, x):
        """<S(t) x, x> at a time, or at an array of times with x stacked along axis 0."""
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,...ij,...j->...", x, self.S(t), x)[()]


def construct_S(
    spec: DichotomySpec, op: EvolutionOperator, dbar: float, times, tail_tol: float = 1e-8
) -> QuadraticLyapunov:
    """Evaluate the two-integral construction on a time grid.

    The grid is sorted and deduplicated; an empty or non-finite grid raises
    ValueError.  The stable parts come from one backward congruence sweep
    and the unstable parts from one forward sweep (see the module
    docstring): per side, one batched dense solve of the shifted system and
    one adaptive vector quadrature for the grid intervals and one each for
    the tail, whatever the grid size.  The integrands live in the decaying
    bundles, so the solves are well-conditioned and each congruence step
    damps the error carried from its neighbor.

    Truncation: the stable integrand past V is bounded by
    K^2 mu(|t|)^{2 eps} (h(V)/h(t))^{-2 dbar} / (2 dbar).  V is placed once,
    where the ratio factor seen from the last grid time t_{N-1} has fallen
    below tail_tol.  log h is nondecreasing, so (h(V)/h(t_i))^{-2 dbar} <=
    (h(V)/h(t_{N-1}))^{-2 dbar} <= tail_tol at every grid time: each point is
    truncated at or beyond its own certified cutoff.  Mirrored backward for
    the unstable part, with W placed from the first grid time t_0.  A
    tail_tol that is not positive raises ValueError.  Where mu(|t|)^{2 eps}
    or nu(|t|)^{2 eps} passes the double range, the envelope cap is inf, so
    the cap check holds and `norm_margin` is inf.
    """
    if not tail_tol > 0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
    if not (0.0 < dbar < min(-spec.a, spec.b) or (spec.b == 0.0 and 0.0 < dbar < -spec.a)):
        raise ValueError(f"dbar must lie in (0, min(-a, b)) = (0, {min(-spec.a, spec.b)})")
    times = np.asarray(times, dtype=float).ravel()
    if times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("construct_S needs a nonempty grid of finite times")
    times = np.unique(times)
    h, k = spec.rates.h, spec.rates.k
    n = op.field.dim
    projs = _projections(spec.P, times, n)
    log_drop = math.log(1.0 / tail_tol) / (2.0 * dbar)  # in units of log h and log k

    # The rate-power weights are folded into shifted linear systems:
    # G(v) = T(v,t)P(t) (h(v)/h(t))^{-(a+dbar)} solves G' = (A - (a+dbar) h'/h) G,
    # which decays like (ratio)^{-dbar}, so no growing weight ever multiplies
    # the integrator's absolute error floor.
    s_mats = np.zeros((times.size, n, n))
    v_cut = w_cut = None
    quad_err = 0.0
    if np.any(projs):
        v_cut = time_for_log_decrease(h, times[-1], log_drop)
        part, err = _congruence_sweep(op, lambda vs: _projections(spec.P, vs, n), spec.a + dbar, h, times, v_cut)
        s_mats += part
        quad_err += err
    if np.any(np.eye(n) - projs):
        if op.field.domain == "half":
            raise DomainError("the unstable integral needs a full-line system")
        w_cut = time_backward_for_log_drop(k, times[0], log_drop)
        unstable = lambda vs: np.eye(n) - _projections(spec.P, vs, n)
        part, err = _congruence_sweep(op, unstable, spec.b - dbar, k, times[::-1], w_cut)
        s_mats -= part[::-1]
        quad_err += err

    s_mats = 0.5 * (s_mats + s_mats.transpose(0, 2, 1))
    eigs = np.abs(np.linalg.eigvalsh(s_mats))
    with np.errstate(over="ignore"):
        mu_pow, nu_pow = (np.exp(2 * spec.eps * r.log_u(np.abs(times))) for r in (spec.rates.mu, spec.rates.nu))
        cap = (spec.K**2 / (2 * dbar)) * (mu_pow + nu_pow)
    gap = cap - eigs.max(axis=1)  # |S| is the largest |eigenvalue| of symmetric S
    bad = np.flatnonzero(gap < -1e-6 * cap)
    if bad.size:
        i = int(bad[0])
        raise DichokitError(
            f"|S({times[i]})| exceeds the envelope cap {cap[i]:.4g}; the input spec does not hold"
        )
    return QuadraticLyapunov(
        times,
        s_mats,
        dbar,
        spec,
        float(eigs.min()),
        float(gap.min()),
        stable_cutoff=v_cut,
        unstable_cutoff=w_cut,
        quad_error=quad_err,
    )


@dataclass
class DerivativeReport:
    """Verdict of ``derivative_condition``.

    ``margin`` is `DERIVATIVE_TOL` minus ``max_eigenvalue``; the check passed
    iff it is nonnegative.
    """

    form: str
    max_eigenvalue: float
    margin: float
    per_point: list
    fd_error: float
    passed: bool


def derivative_condition(
    lyap: QuadraticLyapunov, a_field: CoefficientField, form: str = "sufficiency"
) -> DerivativeReport:
    """Check S' + S A + A^T S <= -RHS on the grid.

    RHS is the identity (sufficiency form) or P^T P h'/h + Q^T Q k'/k
    (necessity form).  S' uses central differences at the grid spacing with
    a step-doubling error estimate; the check is refused when that estimate
    exceeds both the absolute floor `FD_TOL` and half the computed margin,
    i.e. when the differencing error could flip the verdict.  It passes when
    the largest eigenvalue is at most `DERIVATIVE_TOL`.
    """
    if form not in ("sufficiency", "necessity"):
        raise ValueError("form must be 'sufficiency' or 'necessity'")
    grid, spec = lyap.times, lyap.spec
    n = lyap.matrices.shape[1]
    dt = float(np.min(np.diff(grid))) if grid.size > 1 else 1.0
    # central differences need both neighbors: interior points only
    times = grid[(grid - dt >= grid[0] - 1e-12) & (grid + dt <= grid[-1] + 1e-12)]
    if times.size == 0:
        raise DichokitError("S grid has no interior points to difference on")

    lo, hi = times - dt, times + dt
    lo2, hi2 = np.maximum(times - 2 * dt, grid[0]), np.minimum(times + 2 * dt, grid[-1])
    s, s_lo, s_hi, s_lo2, s_hi2 = lyap.S(np.stack([times, lo, hi, lo2, hi2]))
    ds = (s_hi - s_lo) / (hi - lo)[:, None, None]
    ds2 = (s_hi2 - s_lo2) / (hi2 - lo2)[:, None, None]
    fd_err = max(spectral_norm(e) / 3.0 for e in ds - ds2)

    rhs = np.eye(n)
    if form == "necessity":
        p = _projections(spec.P, times, n)
        q = np.eye(n) - p
        h_slope, k_slope = (r.dlog(times)[:, None, None] for r in (spec.rates.h, spec.rates.k))
        rhs = p.transpose(0, 2, 1) @ p * h_slope + q.transpose(0, 2, 1) @ q * k_slope
    a = a_field.stack(times)
    m = ds + s @ a + a.transpose(0, 2, 1) @ s + rhs
    tops = np.linalg.eigvalsh(0.5 * (m + m.transpose(0, 2, 1))).max(axis=1)
    worst = float(tops.max())

    margin = DERIVATIVE_TOL - worst
    if fd_err > FD_TOL and fd_err > 0.5 * abs(margin):
        raise DichokitError(
            f"grid too coarse: finite-difference error {fd_err:.3g} is comparable "
            f"to the margin {margin:.3g}; refine the S grid"
        )
    rows = list(zip(times.tolist(), tops.tolist()))
    return DerivativeReport(form, worst, margin, rows, fd_err, margin >= 0)


def classify(lyap: QuadraticLyapunov, op: EvolutionOperator, tau: float, x, horizon: float) -> str:
    """Sign of H along the orbit of x: 'stable', 'unstable' or 'undetermined'.

    H is sampled at `CLASSIFY_SAMPLES` times t_k evenly spread over
    (tau, tau + horizon], strictly after tau, so vectors with H(tau, x) = 0
    but a definite eventual sign still classify.  Sample k counts only when
    |H(t_k, x_k)| > `CLASSIFY_MARGIN` |x_k|^2 |S(t_k)|_F (Frobenius norm), a
    margin relative to the orbit and the form at that time, since H decays
    with a stable orbit.  The label is 'stable' when every sample counts
    positive and 'unstable' when every sample counts negative.  A horizon
    that is not positive raises ValueError.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) == 0:
        raise ValueError("cannot classify the zero vector")
    orbit = op.matrix_solution(tau, tau + horizon, x)
    ts = tau + horizon * np.arange(1, CLASSIFY_SAMPLES + 1) / CLASSIFY_SAMPLES
    xs, s = orbit(ts), lyap.S(ts)
    values = lyap.H(ts, xs)
    margin = CLASSIFY_MARGIN * np.einsum("ki,ki->k", xs, xs) * np.sqrt(np.einsum("kij,kij->k", s, s))
    if np.all(values > margin):
        return "stable"
    if np.all(values < -margin):
        return "unstable"
    return "undetermined"
