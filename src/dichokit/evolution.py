"""Evolution operators T(t, s) of x' = A(t) x and their dense solutions.

T(t, s) is assembled from per-interval transition matrices between cached
checkpoints (spacing <= checkpoint_spacing, anchored at 0), because a single
global fundamental matrix overflows or loses the stable directions under
dichotomy growth.  Backward operators are integrated backward in time, never
obtained by matrix inversion: inverting is ill-conditioned whenever an
unstable direction is present.

Coefficient fields may have jump discontinuities on the checkpoint lattice
(the e^{|t|} hats of the worked example jump at t = 0), so every span is cut
by one rule (`EvolutionOperator._pieces`): each checkpoint i * spacing
strictly between its ends, compared exactly, is a knot.  Segment endpoints
are evaluated one floating-point step inside the segment so each integration
sees the correct one-sided limit, at any |t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        key = (a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        _, m = self._integrate_matrix(a, b, np.eye(self.field.dim))
        self._cache[key] = m
        return m

    def _pieces(self, a: float, b: float):
        """[a, b] as consecutive (start, end) pieces, in the direction from a to b.

        The knots are the checkpoints i * spacing strictly between a and b,
        compared exactly (field jumps live there); a checkpoint that misses
        an end by round-off is a knot, and gives a piece a few ulps long.
        """
        c = self.config.checkpoint_spacing
        lo, hi = min(a, b), max(a, b)
        inner = [i * c for i in range(math.floor(lo / c), math.ceil(hi / c) + 1) if lo < i * c < hi]
        knots = [a] + (inner if b > a else inner[::-1]) + [b]
        return list(zip(knots[:-1], knots[1:]))

    # -- public surface --------------------------------------------------------

    def evolve(self, t: float, s: float) -> np.ndarray:
        """T(t, s), the product of the cached segments of `_pieces(s, t)`; T(s, s) = I.

        The result is a new array, never a cached segment itself.
        """
        if t == s:
            return np.eye(self.field.dim)
        (p, q), *rest = self._pieces(s, t)
        m = self._segment(p, q)
        for p, q in rest:
            m = self._segment(p, q) @ m
        return m if rest else m.copy()

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
        The span is integrated over `_pieces(a, b)`, like `evolve`, each piece
        started where the last ended; the lookup takes a time or an array of
        times (stacked along axis 0), one interpolant call per piece hit.
        """
        m0 = np.asarray(m0, dtype=float)
        if a == b:
            return lambda v: np.broadcast_to(m0, np.shape(v) + m0.shape).copy()
        dense, y = [], m0
        for p, q in self._pieces(a, b):
            lookup, y = self._integrate_matrix(p, q, y, dense=True)
            dense.append((min(p, q), max(p, q), lookup))

        def at(v):
            vs = np.atleast_1d(np.asarray(v, dtype=float))
            out, todo = np.empty(vs.shape + m0.shape), np.ones(vs.shape, dtype=bool)
            for lo, hi, lookup in dense:
                hit = todo & (lo <= vs) & (vs <= hi)
                if hit.any():
                    out[hit], todo = lookup(vs[hit]), todo & ~hit
            if todo.any():
                raise ValueError(f"time {vs[todo][0]} outside the solved span [{a}, {b}]")
            return out if np.ndim(v) else out[0]

        return at

    def vector_solution(self, a: float, b: float, x0):
        """Dense vector solution of the linear system through (a, x0)."""
        col = self.matrix_solution(a, b, np.asarray(x0, dtype=float).reshape(-1, 1))
        return lambda v: col(v)[..., 0]

    def cache_report(self) -> dict:
        """Cached segment count and the worst condition number among them."""
        mats = list(self._cache.values())
        if not mats:
            return {"segments": 0, "worst_condition": 1.0}
        conds = [float(np.linalg.cond(m)) for m in mats]
        return {"segments": len(mats), "worst_condition": max(conds)}
