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

A span inside one cell is one cached solve.  A span across knots is served
from step tables, one cached solve per lattice cell and orientation that
keeps every step the solver accepted (`EvolutionOperator._table`): a whole
cell is its forward table's last row, and each off-lattice end is a table
row times a short piece that lies inside an accepted step.  Both short
pieces of a span are solved together, uncached, in one paired solve on one
clock (`EvolutionOperator._paired`), which nearly always takes one step.  The end piece
from s up to the first knot c uses the adjoint form: Z' = -Z A with
Z(c) = I, solved from c back across the cell, has the rows Z(v) = T(c, v),
so still nothing is inverted.  Every cell that holds an end of a
multi-cell span is integrated end to end once, so the spacing must keep one
cell's transition in floating-point range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import IntegrationError
from .system import CoefficientField


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step cap and checkpoint lattice of an operator's solves (see `_integrate`).

    Every solve of an `EvolutionOperator` reads them, `classify`'s orbits and
    the sweeps of `construct_S` included; the renormalized solve of `spectrum`
    takes no operator and reads `spectrum.RTOL` and `spectrum.ATOL` instead.

    The checkpoint spacing must keep one cell's transition in floating-point
    range: a cell holding an end of a multi-cell `evolve` span is integrated
    end to end, so with A = +1 a spacing of 2e4 overflows (e^{2e4}) and
    raises IntegrationError naming the cell.
    """

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
    a + 1e-12 |b - a| would round back to a once |a| is large.  Given
    arrays a and b, the clamp takes times that broadcast against them and
    moves each into its own segment by the same comparisons.
    """
    if type(a) is np.ndarray:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        first, last = np.nextafter(lo, hi), np.nextafter(hi, lo)
        return lambda t: np.where(t <= lo, first, np.where(t >= hi, last, t))
    lo, hi = min(a, b), max(a, b)
    first, last = math.nextafter(lo, hi), math.nextafter(hi, lo)
    return lambda t: first if t <= lo else last if t >= hi else t


def _integrate(
    solve, rhs, span, y0, rtol, atol, max_step=math.inf, dense_output=False, t_eval=None, first_step=None
):
    """One adaptive solve of y' = rhs(t, y) over `span` by the 8(5,3) Dormand-Prince pair.

    Every solve in the package goes through here.  `solve` is the caller's
    module-level `solve_ivp`, passed at each call so that a rebinding of
    that global sees every solve.  `first_step` is the first trial step
    (None lets the solver choose one); a solve inside a step that a solve at
    the same tolerance already accepted passes its own length, so it mostly
    takes one step, and so does a span of subnormal length.  Raises IntegrationError at the last time reached (the last
    output time when `t_eval` is given) if the solve fails.
    """
    sol = solve(
        rhs, span, y0, method="DOP853", rtol=rtol, atol=atol, max_step=max_step,
        dense_output=dense_output, t_eval=t_eval, first_step=first_step,
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
        # (a, b, inverse) -> step table (times, matrices); see `_table`
        self._cache: dict[tuple[float, float, bool], tuple[np.ndarray, np.ndarray]] = {}

    # -- low-level integration ------------------------------------------------

    def _integrate_matrix(self, a: float, b: float, m0: np.ndarray, dense=False, adjoint=False):
        """The solve of Y' = A(v) Y, or Y' = -Y A(v) if `adjoint`, from Y(a) = m0 to b.

        A span shorter than the smallest normal double passes its own length
        as the first trial step, since the solver's own first-step guess
        divides by it and overflows.
        """
        field, shape = self.field, np.shape(m0)
        inward = _inward(a, b)

        def rhs(t, y):
            return (field(inward(t)) @ y.reshape(shape)).ravel()

        def adjoint_rhs(t, y):
            return -(y.reshape(shape) @ field(inward(t))).ravel()

        cfg = self.config
        y0 = np.asarray(m0, dtype=float).ravel()
        first_step = abs(b - a) if abs(b - a) < sys.float_info.min else None
        return _integrate(
            solve_ivp, adjoint_rhs if adjoint else rhs, (a, b), y0, cfg.rel_tol, cfg.abs_tol, cfg.max_step,
            dense_output=dense, first_step=first_step,
        )

    def _table(self, a: float, b: float, inverse: bool):
        """Step table (times, matrices) of one solve over [a, b], cached.

        Forward, Y' = A Y from Y(a) = I to b: times run from a to b and
        matrices[j] = T(times[j], a).  Inverse, Z' = -Z A from Z(b) = I back
        to a: times run from b to a and matrices[j] = T(b, times[j]).  The
        times are the steps the solver accepted, both ends included.
        """
        key = (a, b, inverse)
        hit = self._cache.get(key)
        if hit is None:
            eye = np.eye(self.field.dim)
            sol = self._integrate_matrix(b, a, eye, adjoint=True) if inverse else self._integrate_matrix(a, b, eye)
            hit = self._cache[key] = (sol.t, sol.y.T.reshape(-1, *eye.shape))
        return hit

    def _segment(self, a: float, b: float) -> np.ndarray:
        """Transition matrix T(b, a), the last row of the forward table of [a, b]."""
        return self._table(a, b, False)[1][-1]

    def _end(self, a: float, b: float, x: float, inverse: bool):
        """(row, piece) for the end x of a multi-cell span in the cell [a, b].

        Inverse: row = T(b, w) from the cell's inverse table and piece =
        (x, w), so T(b, x) = row T(w, x).  Forward: row = T(v, a) from its
        forward table and piece = (v, x), so T(x, a) = T(x, v) row.  w or v
        is the table's step time nearest x between the table's start and x,
        so the piece lies inside a step the solver accepted.  piece is None
        when x is that step time or the checkpoint a; the near end on a
        checkpoint reads the forward table, so no inverse table is built.
        """
        if x == a:
            return self._segment(a, b), None
        times, mats = self._table(a, b, inverse)
        j = np.count_nonzero(times <= x if (b > a) != inverse else times >= x) - 1
        if times[j] == x:
            return mats[j], None
        return mats[j], (x, times[j]) if inverse else (times[j], x)

    def _paired(self, pieces) -> np.ndarray:
        """Stack of T(q_k, p_k) for the short end pieces (p_k, q_k), by one solve on one clock.

        sigma runs over [0, l], l the longest piece; piece k is evaluated at
        p_k + c_k sigma, c_k = (q_k - p_k) / l, clamped into it as by
        `_inward`, and its block of the stacked state starts from I.  Each
        piece lies inside a step that a solve at the same tolerance
        accepted, so the first trial step is l, and one accepted step is
        typical but not a bound: one of 200 random Example 2.2 queries has
        its first trial rejected and takes two.  A step of l from 0 reads
        the field at sigma = C_i l for the nodes C_i of the DOP853 tableau
        (the last node, 1, also serves the step's closing evaluation), so
        the field at every piece and node is read before the solve in one
        `CoefficientField.stack` call, one ``eval`` call for a vectorized
        field.  The right-hand side looks sigma up exactly among those
        nodes; any other sigma (a rejected trial, a second step, a
        max_step below l) reads the field afresh, so the result never
        depends on the prediction.  scipy's RMS error norm pools the entries
        of the pieces, so one piece's local error may exceed rel_tol by up
        to sqrt(2), as in `lyapfun._congruence_sweep`.  Uncached.
        """
        n, field, cfg = self.field.dim, self.field, self.config
        ell = max(abs(q - p) for p, q in pieces)
        p, q = np.array(pieces, dtype=float).T
        c = (q - p) / ell
        inward = _inward(p, q)

        def read(sigma):
            return field.stack(inward(p + c * sigma).ravel())

        nodes = DOP853.C * ell
        prefetched = dict(zip(nodes.tolist(), read(nodes[:, None]).reshape(nodes.size, -1, n, n)))
        scale = c[:, None, None]

        def rhs(sigma, y):
            a = prefetched.get(sigma)
            if a is None:
                a = read(sigma)
            return (scale * (a @ y.reshape(-1, n, n))).ravel()

        y0 = np.tile(np.eye(n).ravel(), len(pieces))
        sol = _integrate(solve_ivp, rhs, (0.0, ell), y0, cfg.rel_tol, cfg.abs_tol, cfg.max_step, first_step=ell)
        return sol.y[:, -1].reshape(-1, n, n)

    def _knots(self, a: float, b: float) -> list[int]:
        """The i of every checkpoint i * spacing strictly between a and b, compared exactly, from a to b."""
        c = self.config.checkpoint_spacing
        lo, hi = min(a, b), max(a, b)
        inner = [i for i in range(math.floor(lo / c), math.ceil(hi / c) + 1) if lo < i * c < hi]
        return inner if b > a else inner[::-1]

    def _pieces(self, a: float, b: float):
        """[a, b] as consecutive (start, end) pieces, in the direction from a to b.

        The knots are the checkpoints i * spacing strictly between a and b,
        compared exactly (field jumps live there); a checkpoint that misses
        an end by round-off is a knot, and gives a piece a few ulps long.
        """
        c = self.config.checkpoint_spacing
        knots = [a] + [i * c for i in self._knots(a, b)] + [b]
        return list(zip(knots[:-1], knots[1:]))

    # -- public surface --------------------------------------------------------

    def evolve(self, t: float, s: float) -> np.ndarray:
        """T(t, s), the product over the pieces of `_pieces(s, t)`; T(s, s) = I.

        A span inside one cell is one cached solve.  Across knots
        c_1, ..., c_k, T(t, s) = T(t, c_k) T(c_k, c_{k-1}) ... T(c_1, s): the
        whole cells are forward-table last rows, T(c_1, s) comes from the
        inverse table of the cell holding s (its forward table if s is a
        checkpoint) and T(t, c_k) from the forward table of the cell holding
        t (see `_end`).  The short pieces that join the ends to their table
        rows are solved together by one paired solve (`_paired`); an end on
        a step time or a checkpoint has no piece, and with no piece there is
        no solve.  The result is a new array, never a cached table row.
        """
        if t == s:
            return np.eye(self.field.dim)
        knots = self._knots(s, t)
        if not knots:
            return self._segment(s, t).copy()
        step = 1 if t > s else -1
        c = self.config.checkpoint_spacing
        cells = [i * c for i in [knots[0] - step, *knots, knots[-1] + step]]
        near, near_piece = self._end(cells[0], cells[1], s, True)
        whole = [self._segment(p, q) for p, q in zip(cells[1:-2], cells[2:-1])]
        far, far_piece = self._end(cells[-2], cells[-1], t, False)
        pieces = [p for p in (near_piece, far_piece) if p]
        shorts = self._paired(pieces) if pieces else ()
        if near_piece:
            near = near @ shorts[0]
        if far_piece:
            far = shorts[-1] @ far
        for seg in whole:
            near = seg @ near
        return far @ near

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
            sol = self._integrate_matrix(p, q, y, dense=True)
            y = sol.y[:, -1].reshape(m0.shape)
            dense.append((min(p, q), max(p, q), lambda v, interp=sol.sol: interp(v).T.reshape(-1, *m0.shape)))

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
        """Cached solve count and the worst condition number among them.

        `segments` counts every cached solve: the step tables of the cells
        and the single-piece spans.  `worst_condition` is taken over each
        table's last row, its transition across its whole span.
        """
        if not self._cache:
            return {"segments": 0, "worst_condition": 1.0}
        conds = [float(np.linalg.cond(mats[-1])) for _, mats in self._cache.values()]
        return {"segments": len(conds), "worst_condition": max(conds)}
