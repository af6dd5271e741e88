"""Evolution operators T(t, s) of x' = A(t) x and their dense solutions.

T(t, s) is assembled from per-interval transition matrices between cached
checkpoints (spacing <= checkpoint_spacing, anchored at 0), because a single
global fundamental matrix overflows or loses the stable directions under
dichotomy growth.  Backward operators are integrated backward in time, never
obtained by matrix inversion: inverting is ill-conditioned whenever an
unstable direction is present.

Coefficient fields may have jump discontinuities on the checkpoint lattice
(the e^{|t|} hats of the worked example jump at t = 0); segment endpoints
are evaluated one floating-point step inside the segment so each integration
sees the correct one-sided limit, at any |t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .system import CoefficientField


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step cap and checkpoint lattice of every solve (see `_integrate`)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    checkpoint_spacing: float = 1.0

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.checkpoint_spacing <= 0:
            raise ValueError("checkpoint spacing must be positive")


def _inward(a: float, b: float):
    """The clamp of RK stage times into the open segment between a and b.

    A stage time can round onto or past an end, where a field jump on the
    lattice would be seen from the wrong side; such a time moves to the
    adjacent double inside the segment.  A relative nudge such as
    a + 1e-12 |b - a| would round back to a once |a| is large.
    """
    lo, hi = min(a, b), max(a, b)
    first, last = math.nextafter(lo, hi), math.nextafter(hi, lo)
    return lambda t: first if t <= lo else last if t >= hi else t


def _integrate(solve, rhs, span, y0, rtol, atol, max_step=math.inf, dense_output=False, t_eval=None):
    """One adaptive solve of y' = rhs(t, y) over `span` by the 8(5,3) Dormand-Prince pair.

    Every solve in the package goes through here.  `solve` is the caller's
    module-level `solve_ivp`, passed at each call so that a rebinding of
    that global sees every solve.  Raises IntegrationError at the last time
    reached (the last output time when `t_eval` is given) if the solve
    fails.
    """
    sol = solve(
        rhs, span, y0, method="DOP853", rtol=rtol, atol=atol, max_step=max_step,
        dense_output=dense_output, t_eval=t_eval,
    )
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else span[0]
        raise IntegrationError(f"integration failed on [{span[0]}, {span[1]}]: {sol.message}", time=reached)
    return sol


def piecewise_solution(pieces, y0, solve):
    """Dense solution over consecutive pieces, each started where the last ended.

    `solve(lo, hi, y)` integrates one piece from y and returns its dense
    lookup (1-d array of times to values stacked along axis 0) and the next
    start value.  Returns the lookup v -> y(v) over the whole span, for a
    time or an array of times, one lookup call per piece hit.
    """
    dense, y = [], y0
    for lo, hi in pieces:
        lookup, y = solve(lo, hi, y)
        dense.append((min(lo, hi), max(lo, hi), lookup))

    def at(v):
        vs = np.atleast_1d(np.asarray(v, dtype=float))
        out, todo = np.empty(vs.shape + np.shape(y0)), np.ones(vs.shape, dtype=bool)
        for lo, hi, lookup in dense:
            hit = todo & (lo <= vs) & (vs <= hi)
            if hit.any():
                out[hit], todo = lookup(vs[hit]), todo & ~hit
        if todo.any():
            raise ValueError(f"time {vs[todo][0]} outside the solved span [{pieces[0][0]}, {pieces[-1][1]}]")
        return out if np.ndim(v) else out[0]

    return at


class EvolutionOperator:
    """Cached evolution operator of a linear coefficient field."""

    def __init__(self, field: CoefficientField, config: IntegratorConfig | None = None):
        self.field = field
        self.config = config or IntegratorConfig()
        self._cache: dict[tuple[float, float], np.ndarray] = {}

    # -- low-level integration ------------------------------------------------

    def _integrate_matrix(self, a: float, b: float, m0: np.ndarray, dense: bool = False):
        """(dense lookup or None, Y(b)) for Y' = A(v) Y, Y(a) = m0."""
        n = self.field.dim
        cols = np.asarray(m0).shape[1]
        inward = _inward(a, b)

        def rhs(t, y):
            return (self.field(inward(t)) @ y.reshape(n, cols)).ravel()

        cfg = self.config
        y0 = np.asarray(m0, dtype=float).ravel()
        sol = _integrate(solve_ivp, rhs, (a, b), y0, cfg.rel_tol, cfg.abs_tol, cfg.max_step, dense_output=dense)
        lookup = (lambda v, interp=sol.sol: interp(v).T.reshape(-1, n, cols)) if dense else None
        return lookup, sol.y[:, -1].reshape(n, cols)

    def _segment(self, a: float, b: float) -> np.ndarray:
        """Transition matrix T(b, a), cached."""
        if a == b:
            return np.eye(self.field.dim)
        key = (a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        _, m = self._integrate_matrix(a, b, np.eye(self.field.dim))
        self._cache[key] = m
        return m

    def _checkpoint(self, i: int) -> float:
        return i * self.config.checkpoint_spacing

    def _bracket(self, v: float) -> tuple[int, int]:
        """Indices of the checkpoints at or below and at or above v.

        Both are the index of a checkpoint within 1e-9 spacings of v, so a
        time that misses a checkpoint by round-off counts as on it.
        """
        x = v / self.config.checkpoint_spacing
        return math.floor(x + 1e-9), math.ceil(x - 1e-9)

    # -- public surface --------------------------------------------------------

    def evolve(self, t: float, s: float) -> np.ndarray:
        """T(t, s), composed from per-interval operators; T(s, s) = I."""
        if t == s:
            return np.eye(self.field.dim)
        (s_below, s_above), (t_below, t_above) = self._bracket(s), self._bracket(t)
        # the checkpoints i0, i0 + step, ..., i1 lie between s and t
        i0, i1, step = (s_above, t_below, 1) if t > s else (s_below, t_above, -1)
        if (i1 - i0) * step < 0:
            return self._segment(s, t)
        m = np.eye(self.field.dim)
        c0, c1 = self._checkpoint(i0), self._checkpoint(i1)
        if c0 != s:
            m = self._segment(s, c0)
        for i in range(i0, i1, step):
            m = self._segment(self._checkpoint(i), self._checkpoint(i + step)) @ m
        if c1 != t:
            m = self._segment(c1, t) @ m
        return m

    def evolve_pairs(self, t, s) -> np.ndarray:
        """Stack of T(t_k, s_k) for arrays of pairs in either orientation.

        The unique times u_0 < ... < u_{N-1} are swept once forward,
        T(u_j, s) = T(u_j, u_{j-1}) T(u_{j-1}, s), and once backward,
        T(u_i, s) = T(u_i, u_{i+1}) T(u_{i+1}, s).  Each step is one
        ``evolve`` between adjacent times, so backward steps stay backward
        integrated and nothing is inverted.  Pairs with t == s give I.
        Working memory is O(N n^2) beyond the (pairs, n, n) result.
        """
        t = np.asarray(t, dtype=float).ravel()
        s = np.asarray(s, dtype=float).ravel()
        if t.shape != s.shape:
            raise ValueError(f"need as many t as s, got {t.size} and {s.size}")
        n = self.field.dim
        out = np.empty((t.size, n, n))
        out[:] = np.eye(n)
        u, idx = np.unique(np.concatenate([t, s]), return_inverse=True)
        ti, si = idx[: t.size], idx[t.size :]
        last = u.size - 1
        # positions count along the sweep; the backward sweep reverses them
        for times, end, start in ((u.tolist(), ti, si), (u[::-1].tolist(), last - ti, last - si)):
            pairs = np.flatnonzero(end > start)
            if pairs.size == 0:
                continue
            pairs = pairs[np.argsort(end[pairs], kind="stable")]
            starts = np.unique(start[pairs])
            col = np.searchsorted(starts, start[pairs])
            ends = end[pairs]
            # after step j, cur[c] holds T(times[j], times[starts[c]]) for starts[c] <= j
            cur = np.empty((starts.size, n, n))
            cur[:] = np.eye(n)
            for j in range(starts[0] + 1, ends[-1] + 1):
                live = np.searchsorted(starts, j)
                cur[:live] = self.evolve(times[j], times[j - 1]) @ cur[:live]
                lo, hi = np.searchsorted(ends, [j, j + 1])
                out[pairs[lo:hi]] = cur[col[lo:hi]]
        return out

    def matrix_solution(self, a: float, b: float, m0: np.ndarray):
        """Dense solution Y(v) of Y' = A(v) Y, Y(a) = m0, for v between a and b.

        Meant for decaying initial data (e.g. m0 = P(a) in the stable bundle
        going forward); the dense interpolant shares the integrator accuracy.
        m0 may be rectangular (n x m) to evolve a set of columns at once.
        The span is integrated piecewise between checkpoints, like `evolve`;
        the lookup takes a time or an array of times (stacked along axis 0).
        """
        m0 = np.asarray(m0, dtype=float)
        if a == b:
            return lambda v: np.broadcast_to(m0, np.shape(v) + m0.shape).copy()
        return piecewise_solution(self._pieces(a, b), m0, partial(self._integrate_matrix, dense=True))

    def vector_solution(self, a: float, b: float, x0):
        """Dense vector solution of the linear system through (a, x0)."""
        col = self.matrix_solution(a, b, np.asarray(x0, dtype=float).reshape(-1, 1))
        return lambda v: col(v)[..., 0]

    def _pieces(self, a: float, b: float):
        """Split [a, b] at internal checkpoints (field jumps live there)."""
        (a_below, a_above), (b_below, b_above) = self._bracket(a), self._bracket(b)
        inner = range(a_below + 1, b_above) if b > a else range(a_above - 1, b_below, -1)
        knots = [a] + [c for c in map(self._checkpoint, inner) if c != a and c != b] + [b]
        return list(zip(knots[:-1], knots[1:]))

    def cache_report(self) -> dict:
        """Cached segment count and the worst condition number among them."""
        mats = list(self._cache.values())
        if not mats:
            return {"segments": 0, "worst_condition": 1.0}
        conds = [float(np.linalg.cond(m)) for m in mats]
        return {"segments": len(mats), "worst_condition": max(conds)}
