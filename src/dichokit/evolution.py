"""Evolution operators T(t, s) of x' = A(t) x.

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

The operator has two solves, each from I over at most one lattice cell.
`EvolutionOperator._solve` solves one span, forward or adjoint, and keeps
every step the solver accepted: a span inside one cell is one such solve,
and a span across knots reads one cached table per cell and orientation
(`EvolutionOperator._table`), a whole cell being its forward table's last
row and each off-lattice end a table row times a short piece inside an
accepted step.  `EvolutionOperator._clocked` solves many pieces on one
clock: both short pieces of a span (nearly always in one step), the sweeps
of `construct_S`, and the steps with no knot inside of both directions of a
pair sweep (`evolve` given arrays, which also reads `classify`'s orbits),
a backward step being a piece run from its later end.  The solver's RMS
error norm pools the pieces of one solve, so one piece's local error may
exceed RTOL by up to sqrt(pieces), counted over both directions.
Only the cell tables are cached.  The end piece from s up to the first
knot c uses the adjoint form: Z' = -Z A with Z(c) = I, solved from c back
across the cell, has the rows Z(v) = T(c, v), so still nothing is inverted.
Every cell that holds an end of a multi-cell span is integrated end to end
once, so the spacing must keep one cell's transition in floating-point range.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import IntegrationError
from .system import CoefficientField


# Every solve of an `EvolutionOperator` (`_solve` and `_clocked`, so
# `classify`'s pair sweep and the sweeps of `construct_S` too) reads these at
# call time; the renormalized solve of `spectrum` reads `spectrum.RTOL` and
# `spectrum.ATOL` instead.  Each solve starts from I within one cell, so an
# entry keeps relative accuracy unless it decays below about ATOL there.
RTOL, ATOL = 1e-10, 1e-12

# The lattice rule (`EvolutionOperator._knot_range`) is exact for times
# within this many checkpoint spacings of 0; an operator refuses times past it.
LATTICE_REACH = 2.0**50


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


def _integrate(solve, rhs, span, y0, rtol, atol, dense_output=False, t_eval=None, first_step=None):
    """One adaptive solve of y' = rhs(t, y) over `span` by the 8(5,3) Dormand-Prince pair.

    Every solve in the package goes through here.  `solve` is the caller's
    module-level `solve_ivp`, passed at each call so that a rebinding of
    that global sees every solve.  `first_step` is the first trial step
    (None lets the solver choose one); a solve inside a step that a solve at
    the same tolerance already accepted passes its own length, so it mostly
    takes one step.  A nonzero span shorter than the smallest normal double
    passes its own length as the first step, since the solver's own guess
    divides by it and overflows.  Raises IntegrationError at the last time
    reached (the last output time when `t_eval` is given) if the solve fails.
    """
    if first_step is None and 0 < abs(span[1] - span[0]) < sys.float_info.min:
        first_step = abs(span[1] - span[0])
    sol = solve(
        rhs, span, y0, method="DOP853", rtol=rtol, atol=atol,
        dense_output=dense_output, t_eval=t_eval, first_step=first_step,
    )
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else span[0]
        raise IntegrationError(f"integration failed on [{span[0]}, {span[1]}]: {sol.message}", time=reached)
    return sol


class EvolutionOperator:
    """Cached evolution operator of a linear coefficient field.

    `checkpoint_spacing` describes the field: the lattice i * spacing must
    hold every time where it jumps, and one cell's transition must stay in
    floating-point range.  A cell holding an end of a multi-cell `evolve`
    span is integrated end to end, so with A = +1 a spacing of 2e4 overflows
    (e^{2e4}) and raises IntegrationError naming the cell.  A spacing that
    is not positive and finite raises ValueError.
    """

    def __init__(self, field: CoefficientField, checkpoint_spacing: float = 1.0):
        if not (checkpoint_spacing > 0 and math.isfinite(checkpoint_spacing)):
            raise ValueError(f"checkpoint spacing must be positive and finite, got {checkpoint_spacing}")
        self.field = field
        self.checkpoint_spacing = checkpoint_spacing
        # (a, b, inverse) -> step table (times, matrices) of a lattice cell; see `_table`
        self._cache: dict[tuple[float, float, bool], tuple[np.ndarray, np.ndarray]] = {}

    # -- low-level integration ------------------------------------------------

    def _solve(self, a: float, b: float, inverse: bool):
        """Step table (times, matrices) of one solve over [a, b].

        Forward, Y' = A Y from Y(a) = I to b: times run from a to b and
        matrices[j] = T(times[j], a).  Inverse, Z' = -Z A from Z(b) = I back
        to a: times run from b to a and matrices[j] = T(b, times[j]).  The
        times are the steps the solver accepted, both ends included.
        """
        field, n = self.field, self.field.dim
        inward = _inward(a, b)

        def rhs(t, y):
            y, m = y.reshape(n, n), field(inward(t))
            return (-(y @ m) if inverse else m @ y).ravel()

        span = (b, a) if inverse else (a, b)
        sol = _integrate(solve_ivp, rhs, span, np.eye(n).ravel(), RTOL, ATOL)
        return sol.t, sol.y.T.reshape(-1, n, n)

    def _table(self, a: float, b: float, inverse: bool):
        """The `_solve` of the lattice cell [a, b], cached: the only entries of `_cache`."""
        key = (a, b, inverse)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._solve(a, b, inverse)
        return hit

    def _segment(self, a: float, b: float) -> np.ndarray:
        """Transition matrix T(b, a) of the lattice cell [a, b], the last row of its forward table."""
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

    def _clocked(self, lo, hi, shift=None, dense=False, first_step=None):
        """(sol, times): one solve of the pieces (lo_k, hi_k) on one clock.

        sigma runs over [0, l], l the longest piece; piece k is read at
        times(sigma)[k] = lo_k + c_k sigma, c_k = (hi_k - lo_k) / l, clamped
        by `_inward`.  Its block of the state starts from I and solves
        Y' = c_k (A Y - shift(times(sigma))[k] Y), with no shift term when
        `shift` is None, so sol.y[:, -1] stacks the (shifted) transitions
        from lo_k to hi_k.  scipy's RMS error norm pools the pieces: one
        piece's local error may exceed RTOL by up to sqrt(pieces).

        Given `first_step`, the field at every piece and node sigma = C_i
        first_step of the DOP853 tableau (the last node, 1, also serves the
        step's closing evaluation) is read before the solve in one
        `CoefficientField.stack` call, and the right-hand side looks sigma
        up exactly among those nodes.  Any other sigma (a rejected trial or
        a later step) reads every piece in one `stack` call of its own, so
        the result never depends on the prediction; `shift` gets the same
        array of times.
        """
        n, field = self.field.dim, self.field
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ell = np.abs(hi - lo).max()
        c = (hi - lo) / ell
        scale, inward = c[:, None, None], _inward(lo, hi)

        def times(sigma):
            return inward(lo + c * sigma)

        prefetched = {}
        if first_step is not None:
            nodes = DOP853.C * first_step
            stack = field.stack(times(nodes[:, None]).ravel()).reshape(nodes.size, -1, n, n)
            prefetched = dict(zip(nodes.tolist(), stack))

        def rhs(sigma, y):
            y, a = y.reshape(-1, n, n), prefetched.get(sigma)
            vs = times(sigma) if a is None or shift is not None else None
            if a is None:
                a = field.stack(vs)
            return (scale * (a @ y if shift is None else a @ y - shift(vs)[:, None, None] * y)).ravel()

        y0 = np.tile(np.eye(n).ravel(), lo.size)
        sol = _integrate(solve_ivp, rhs, (0.0, ell), y0, RTOL, ATOL, dense_output=dense, first_step=first_step)
        return sol, times

    def _knot_range(self, lo, hi):
        """(first, last): the i of the checkpoints strictly between lo <= hi, compared exactly.

        The one lattice rule: `_knots` and the step filter of a pair sweep
        both read it, on floats or on arrays, and the checkpoints i * spacing
        strictly between lo and hi are those with first <= i <= last.
        k = lo // spacing is the floor of the exact quotient, so
        k * spacing <= lo, but (k + 1) * spacing may round onto lo (and
        m * spacing onto hi), which then moves the bound one index.
        Exact while |lo| and |hi| stay below 2^51 spacing, where the floor is
        exact and consecutive i give distinct checkpoints; `_reach` keeps
        every time below `LATTICE_REACH` spacings.
        """
        c = self.checkpoint_spacing
        k, m = lo // c, hi // c
        return k + 1 + ((k + 1) * c == lo), m - (m * c == hi)

    def _knots(self, a: float, b: float) -> list[int]:
        """The i of every checkpoint i * spacing strictly between a and b, compared exactly, from a to b."""
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"span [{a}, {b}] has the non-finite end {b if math.isfinite(a) else a}")
        self._reach(a if abs(a) > abs(b) else b)
        first, last = self._knot_range(min(a, b), max(a, b))
        inner = list(range(int(first), int(last) + 1))
        return inner if b > a else inner[::-1]

    def _reach(self, v: float) -> None:
        """Raise ValueError if |v| is past `LATTICE_REACH` checkpoint spacings.

        There a cell holds only a few doubles or none, and the lattice rule
        would take a span's own ends for knots.
        """
        if abs(v) >= LATTICE_REACH * self.checkpoint_spacing:
            raise ValueError(f"time {v} is past 2^50 checkpoint spacings, where the lattice is not resolved")

    def _pieces(self, a: float, b: float):
        """[a, b] as consecutive (start, end) pieces, in the direction from a to b.

        The knots are the checkpoints i * spacing strictly between a and b,
        compared exactly (field jumps live there); a checkpoint that misses
        an end by round-off is a knot, and gives a piece a few ulps long.
        """
        c = self.checkpoint_spacing
        knots = [a] + [i * c for i in self._knots(a, b)] + [b]
        return list(zip(knots[:-1], knots[1:]))

    # -- public surface --------------------------------------------------------

    def evolve(self, t, s) -> np.ndarray:
        """T(t, s) for times t and s; for arrays (or lists) of them, the (pairs, n, n) stack of T(t_k, s_k).

        Arrays of pairs are swept by `_pairs`: an orbit or dense solution
        from m0 at time a, read at the times vs, is
        `evolve(vs, np.full(vs.size, a)) @ m0`.  For one pair, T(s, s) = I
        and T(t, s) is the product over the pieces of `_pieces(s, t)`.  A
        span inside one cell is one uncached solve.  Across knots c_1, ...,
        c_k, T(t, s) = T(t, c_k) T(c_k, c_{k-1}) ... T(c_1, s): the whole
        cells are forward-table last rows, T(c_1, s) comes from the inverse
        table of the cell holding s (its forward table if s is a checkpoint)
        and T(t, c_k) from the forward table of the cell holding t (see
        `_end`).  The short pieces that join the ends to their table rows are
        solved together by one `_clocked` solve; an end on a step time or a
        checkpoint has no piece, and with no piece there is no solve.  The
        result is a new array, never a cached table row.  A non-finite t or
        s, or one past `LATTICE_REACH` spacings, raises ValueError, and a
        product of tables that leaves the range of doubles raises
        IntegrationError naming (t, s).
        """
        if type(t) is np.ndarray or type(t) is list:
            return self._pairs(t, s)
        if t == s:
            return np.eye(self.field.dim)
        knots = self._knots(s, t)
        if not knots:
            return self._solve(s, t, False)[1][-1].copy()
        step = 1 if t > s else -1
        c = self.checkpoint_spacing
        cells = [i * c for i in [knots[0] - step, *knots, knots[-1] + step]]
        near, near_piece = self._end(cells[0], cells[1], s, True)
        whole = [self._segment(p, q) for p, q in zip(cells[1:-2], cells[2:-1])]
        far, far_piece = self._end(cells[-2], cells[-1], t, False)
        pieces = [p for p in (near_piece, far_piece) if p]
        if pieces:
            sol, _ = self._clocked(*zip(*pieces), first_step=max(abs(q - p) for p, q in pieces))
            shorts = sol.y[:, -1].reshape(-1, *near.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            if near_piece:
                near = near @ shorts[0]
            if far_piece:
                far = shorts[-1] @ far
            for seg in whole:
                near = seg @ near
            out = far @ near
        if not np.isfinite(out).all():
            raise IntegrationError(f"T({t}, {s}) leaves the range of doubles")
        return out

    def _pairs(self, t, s) -> np.ndarray:
        """Stack of T(t_k, s_k) for arrays of pairs in either orientation.

        The unique times u_0 < ... < u_{N-1} are swept once forward,
        T(u_j, s) = T(u_j, u_{j-1}) T(u_{j-1}, s), and once backward,
        T(u_i, s) = T(u_i, u_{i+1}) T(u_{i+1}, s), so backward steps stay
        backward integrated and nothing is inverted.  Each sweep reads its
        steps from one (steps, n, n) array.  The steps with no knot strictly
        inside (whole cells included) of both sweeps are one `_clocked` solve,
        each from I, a backward step being a piece with hi < lo on the same
        clock; every other step is one `evolve`.  scipy's RMS error norm pools
        the batched steps of both directions, so one step's local error may
        exceed RTOL by up to sqrt(steps), counted over both.  Nothing of the
        batch is cached, so the stack does not depend on what the operator
        solved before.  Pairs with t == s give I.

        Working memory is O(N n^2) per accepted step of the batched solve,
        beyond the (pairs, n, n) result.  A non-finite t or s, or one past
        `LATTICE_REACH` spacings, raises ValueError naming it, and a step or
        pair whose transition leaves the range of doubles raises
        IntegrationError naming it.
        """
        t = np.array(t, dtype=float).ravel()
        s = np.array(s, dtype=float).ravel()
        if t.shape != s.shape:
            raise ValueError(f"need as many t as s, got {t.size} and {s.size}")
        finite = np.isfinite(t) & np.isfinite(s)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"pair ({t[k]}, {s[k]}) has the non-finite end {s[k] if np.isfinite(t[k]) else t[k]}")
        n = self.field.dim
        out = np.empty((t.size, n, n))
        out[:] = np.eye(n)
        u, idx = np.unique(np.concatenate([t, s]), return_inverse=True)
        if u.size:
            self._reach(u[0] if -u[0] > u[-1] else u[-1])
        ti, si = idx[: t.size], idx[t.size :]
        last = u.size - 1
        # positions count along the sweep; the backward sweep reverses them
        sweeps, ps, qs = [], [np.empty(0)], [np.empty(0)]
        for times, end, start in ((u, ti, si), (u[::-1], last - ti, last - si)):
            pairs = np.flatnonzero(end > start)
            if pairs.size == 0:
                continue
            pairs = pairs[np.argsort(end[pairs], kind="stable")]
            starts = np.unique(start[pairs])
            col = np.searchsorted(starts, start[pairs])
            ends = end[pairs]
            sweep = times[starts[0] : ends[-1] + 1]
            sweeps.append((pairs, starts, col, ends))
            ps.append(sweep[:-1])
            qs.append(sweep[1:])
        # the steps (p, q) of both sweeps in sweep order: a backward one has q < p
        p, q = np.concatenate(ps), np.concatenate(qs)
        inside = np.greater(*self._knot_range(np.minimum(p, q), np.maximum(p, q)))  # no knot: first > last
        steps = np.empty((p.size, n, n))
        if inside.any():
            steps[inside] = self._clocked(p[inside], q[inside])[0].y[:, -1].reshape(-1, n, n)
        for j in np.flatnonzero(~inside).tolist():
            steps[j] = self.evolve(q[j], p[j])
        first = 0
        for pairs, starts, col, ends in sweeps:
            # step j runs from times[j - 1] to times[j]: it moves cur[:live[j]],
            # the starts before it, and ends the pairs cuts[j]:cuts[j + 1] in end order
            js = np.arange(starts[0] + 1, ends[-1] + 2)
            live, cuts = np.searchsorted(starts, js[:-1]).tolist(), np.searchsorted(ends, js).tolist()
            # after step j, cur[c] holds T(times[j], times[starts[c]]) for starts[c] <= j
            cur = np.empty((starts.size, n, n))
            cur[:] = np.eye(n)
            ended = np.empty((pairs.size, n, n))
            with np.errstate(over="ignore", invalid="ignore"):
                for step, k, lo, hi in zip(steps[first:], live, cuts[:-1], cuts[1:]):
                    cur[:k] = step @ cur[:k]
                    ended[lo:hi] = cur[col[lo:hi]]
            out[pairs] = ended
            first += len(live)
        if not np.isfinite(out).all():
            k = int(np.argmin(np.isfinite(out).all(axis=(1, 2))))
            raise IntegrationError(f"T({t[k]}, {s[k]}) leaves the range of doubles")
        return out

    def cache_report(self) -> dict:
        """Cached table count and the worst condition number among them.

        `segments` counts the cached step tables, at most four per lattice
        cell that a multi-cell `evolve` touched.  `worst_condition` is taken
        over each table's last row, its transition across its whole cell.
        """
        if not self._cache:
            return {"segments": 0, "worst_condition": 1.0}
        conds = [float(np.linalg.cond(mats[-1])) for _, mats in self._cache.values()]
        return {"segments": len(conds), "worst_condition": max(conds)}
