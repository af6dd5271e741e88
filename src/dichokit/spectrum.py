"""Generalized Lyapunov exponents relative to growth rates.

For a block system x1' = W1(t) x1 (dim l) and x2' = W2(t) x2 (dim n-l), the
exponent of a solution relative to a rate u is

    limsup_{t -> +inf}  log |x(t)| / log u(t),

approximated by the supremum over a tail window of the horizon, with the
window spread reported as the trust measure (no finite computation yields a
true limsup).

`spectrum` makes one solve (`evolution._integrate`) of the doubled system
D(t) = diag(A(t), -A(t)^T), A = diag(W1, W2), for the exponents and the
regularity bounds together, evaluating W1 and W2 once per stage for every
forward and adjoint column.  D is one (2n, 2n) array per solve, refilled
in place at each stage from the two shape-checked blocks and checked for
finiteness once.  Per column, the state holds a unit direction q (only the
entries of the column's own block of D) and a log-norm log r, measured
against the column's rate (h, k, hbar or kbar):

    q' = D q^ - (q^T D q^) q^,    (log r)' = q^T D q^,    q^ = q / |q|,

so no mode overflows.  Columns are not orthogonalized against each other,
and the one run's error norm pools all of them (see `_exponent_traces`).

Regularity coefficients pair forward and adjoint exponents over dual bases,
whose basis and dual columns are the solve's start columns.  The true
minimum over all dual bases is a hard search; we return certified upper
bounds over a candidate set, which downstream only ever weakens the
claimed dichotomy (a larger nonuniformity exponent), and the claim is then
grid-checked by the dichotomy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag

from .dichotomy import DichotomySpec
from .errors import DichokitError
from .evolution import _integrate
from .growth import GrowthRate, RateQuadruple, product_rate
from .system import BlockSystem, CoefficientField

GAP_THRESHOLD = 0.05
SPREAD_LIMIT = 0.2
WINDOW = 0.2  # the tail window is this last fraction of the horizon
SAMPLES = 200  # times sampled in the tail window
RTOL, ATOL = 1e-9, 1e-12  # of the renormalized solve; evolution solves read `evolution.RTOL`/`ATOL`
CLAIM_K = 1.0  # the K that dichotomy_from_spectrum claims


@dataclass
class ExponentTrace:
    """One column's exponent estimate with its tail-window samples."""

    times: np.ndarray
    values: np.ndarray
    estimate: float
    spread: float

    @property
    def reliable(self) -> bool:
        return math.isfinite(self.estimate) and self.spread <= SPREAD_LIMIT


def _exponent_traces(matrix, rates: list, X0, horizon: float, mask=None) -> tuple[list[ExponentTrace], int]:
    """Tail-window exponents of the solutions through the columns of X0.

    `matrix(t)` is the n x n coefficient matrix, n = X0.shape[0], and
    `rates` holds one GrowthRate per column.  The state holds only the
    entries in `mask` (default: all; X0 is zero outside it), so the matrix
    must map each column's masked entries into themselves.  `matrix(t)`
    may return one reused array: the right-hand side is done with it
    before its next call.  All nonzero
    columns are integrated in one `evolution._integrate` solve, so scipy's
    RMS error norm pools the entries of every column: a column's own local
    error may exceed `RTOL` by up to sqrt(state size / its entries).  The
    horizon is checked against every column's rate and a start column that
    is not finite raises ValueError; then a zero column
    gets -inf and is left out.  Returns one trace per column
    and the run's field evaluations (0 when every column is zero).
    """
    if not math.isfinite(horizon):
        raise ValueError(f"horizon {horizon} is not finite")
    if min(r.log_u(horizon) for r in {id(r): r for r in rates}.values()) <= 10.0:
        raise ValueError(f"horizon too short: log u({horizon}) <= 10")
    X0 = np.asarray(X0, dtype=float)
    if not np.all(np.isfinite(X0)):
        raise ValueError(f"start column {np.flatnonzero(~np.isfinite(X0).all(axis=0))[0]} is not finite")
    n = X0.shape[0]
    mask = np.ones(X0.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    norms = np.linalg.norm(X0, axis=0)
    live = np.flatnonzero(norms > 0.0)
    traces = [ExponentTrace(np.array([]), np.array([]), -math.inf, 0.0) for _ in norms]
    if live.size == 0:
        return traces, 0
    distinct = {id(rates[j]): rates[j] for j in live}
    m = live.size
    entries = np.flatnonzero(mask[:, live])  # into the row-major (n, m) directions
    split = entries.size
    directions = np.zeros((n, m))  # written only at `entries`, so zero elsewhere
    cells = directions.reshape(-1)  # a view

    def rhs(t, state):
        cells[entries] = state[:split]
        q = directions / np.sqrt(np.einsum("ij,ij->j", directions, directions))
        wq = matrix(t) @ q
        # q' is orthogonal to q, so |q| stays 1 up to round-off, which the
        # renormalization above keeps out of the direction and the growth
        growth = np.einsum("ij,ij->j", q, wq)
        return np.concatenate([(wq - growth * q).ravel()[entries], growth])

    y0 = np.concatenate([(X0[:, live] / norms[live]).ravel()[entries], np.log(norms[live])])
    times = np.linspace((1.0 - WINDOW) * horizon, horizon, SAMPLES)
    sol = _integrate(solve_ivp, rhs, (0.0, horizon), y0, RTOL, ATOL, t_eval=times)
    denoms = {key: r.log_u(times) for key, r in distinct.items()}
    for j, log_norms in zip(live, sol.y[split:]):
        values = log_norms / denoms[id(rates[j])]
        traces[j] = ExponentTrace(times, values, float(np.max(values)), float(np.max(values) - np.min(values)))
    return traces, int(sol.nfev)


def lyapunov_exponent(field_w: CoefficientField, rate: GrowthRate, x0, horizon: float) -> ExponentTrace:
    """Tail-window exponent of the solution through x0 at time 0.

    The one-column case of the batched renormalized solve (see the module
    docstring).  x0 = 0 gets the distinguished value -inf; an x0 whose size
    is not the field dimension, or that is not finite, raises ValueError.  Requires a finite horizon
    with log u(horizon) > 10 so the denominator dominates integration error.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != field_w.dim:
        raise ValueError(f"start vector has size {x0.size}, field dimension is {field_w.dim}")
    traces, _ = _exponent_traces(field_w, [rate], x0.reshape(-1, 1), horizon)
    return traces[0]


def _cluster(estimates: list[float]):
    """Sorted distinct values with multiplicities, grouped within `GAP_THRESHOLD`."""
    order = sorted(estimates)
    clusters: list[list[float]] = []
    for v in order:
        if clusters and v - clusters[-1][-1] <= GAP_THRESHOLD:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(float(np.mean(c)), len(c)) for c in clusters]


def _doubled_traces(block: BlockSystem, starts, rates, horizon: float):
    """Traces of four start sets from one solve of D(t) = diag(A(t), -A(t)^T).

    A = diag(W1, W2), evaluated block by block (`BlockSystem.blocks`), so D
    may exceed the coefficient-field size cap; D is one array whose
    off-diagonal blocks are never written, and its entries are checked for
    finiteness once per stage.  The sets are columns of W1, W2, -W1^T and
    -W2^T, in that order, each placed in and masked to its block of D and
    measured against the matching rate.  Returns the four trace lists and
    the field evaluations of the solve.
    """
    n, l = block.dim, block.split
    sizes = [np.shape(s)[0] for s in starts]
    if sizes != [l, n - l] * 2:
        raise ValueError(f"start sets have sizes {sizes}, blocks are {[l, n - l] * 2}")

    d = np.zeros((2 * n, 2 * n))

    def doubled(t):
        d[:l, :l], d[l:n, l:n] = block.blocks(t)
        np.negative(d[:n, :n].T, out=d[n:, n:])
        if not np.isfinite(d).all():
            raise ValueError(f"field returned non-finite entries at t={t}")
        return d

    widths = [np.shape(s)[1] for s in starts]
    mask = block_diag(*(np.ones(np.shape(s)) for s in starts)) > 0
    per_column = [r for r, w in zip(rates, widths) for _ in range(w)]
    flat, nfev = _exponent_traces(doubled, per_column, block_diag(*starts), horizon, mask=mask)
    ends = np.cumsum(widths)
    return [flat[e - w : e] for w, e in zip(widths, ends)], nfev


@dataclass(frozen=True)
class DualBasisPair:
    """Finite square basis and dual with Kronecker pairing (a partial basis would under-report regularity)."""

    basis: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        d = np.asarray(self.dual, dtype=float)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "dual", d)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or d.shape != b.shape:
            raise ValueError(f"need a square basis and dual of one shape, got {b.shape} and {d.shape}")
        if not np.max(np.abs(b.T @ d - np.eye(b.shape[1]))) <= 1e-10:  # a non-finite entry fails too
            raise ValueError("basis and dual must be finite and pair to the identity")

    @staticmethod
    def from_basis(basis) -> "DualBasisPair":
        """The pair of a square basis and its inverse transpose; ValueError if it has none."""
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"need a square basis, got shape {b.shape}")
        try:
            dual = np.linalg.inv(b).T
        except np.linalg.LinAlgError:
            raise ValueError("basis is singular") from None
        return DualBasisPair(b, dual)


@dataclass
class SpectrumReport:
    """Distinct exponents of both blocks and their adjoints, and the regularity bounds.

    The exponents are those of each block's first candidate basis and its
    dual; ``gamma`` and ``gamma_bar`` are certified upper bounds on the two
    regularity coefficients, attained by ``basis_E`` and ``basis_F``.
    ``traces`` holds the trace of every start column, candidates in order.
    """

    values_E: list
    values_F: list
    adjoint_E: list
    adjoint_F: list
    gamma: float
    gamma_bar: float
    basis_E: DualBasisPair
    basis_F: DualBasisPair
    per_candidate_E: list
    per_candidate_F: list
    horizon: float
    traces: dict = field(default_factory=dict)
    reliable: bool = True
    nfev: int = 0  # field evaluations of the one solve

    @property
    def lambda_top(self) -> float:
        """Largest stable-block exponent (the lambda_r of the E side)."""
        return self.values_E[-1][0]

    @property
    def chi_bottom(self) -> float:
        """Smallest unstable-block exponent (the chi_1 of the F side)."""
        return self.values_F[0][0]


def spectrum(
    block: BlockSystem,
    h: GrowthRate,
    k: GrowthRate,
    hbar: GrowthRate | None = None,
    kbar: GrowthRate | None = None,
    candidates_E: list | None = None,
    candidates_F: list | None = None,
    horizon: float = 50.0,
) -> SpectrumReport:
    """Exponents of both blocks and upper bounds on their regularity coefficients.

    Each block has a list of candidate dual bases (`DualBasisPair`),
    defaulting to its coordinate basis.  One solve of the doubled system
    (see the module docstring) integrates every candidate's basis columns,
    measured against h/k, and dual columns, measured against hbar/kbar
    (defaulting to h/k).  The exponents are the clusters of each block's
    first candidate.  A candidate pairs basis vector i with dual vector i;
    its score is the max paired sum of forward and adjoint exponents, and
    ``gamma`` (E) and ``gamma_bar`` (F) are the min over candidates.  The
    exact min over all dual bases is not computed.  A report is marked
    unreliable when any column's tail-window spread exceeds 0.2; ``nfev``
    is the field evaluations of the solve.
    """
    dims = (block.split, block.dim - block.split)
    cands = [cs or [DualBasisPair.from_basis(np.eye(d))] for cs, d in zip((candidates_E, candidates_F), dims)]
    starts = [np.hstack([c.basis for c in cs]) for cs in cands] + [np.hstack([c.dual for c in cs]) for cs in cands]
    flat, nfev = _doubled_traces(block, starts, (h, k, hbar or h, kbar or k), horizon)
    scores = []
    for d, fwd, bwd in zip(dims, flat[:2], flat[2:]):
        sums = [f.estimate + b.estimate for f, b in zip(fwd, bwd)]
        scores.append([max(sums[i : i + d]) for i in range(0, len(sums), d)])
    best_E, best_F = (int(np.argmin(s)) for s in scores)
    first = [trs[:d] for trs, d in zip(flat, dims * 2)]  # each block's first candidate
    values_E, values_F, adjoint_E, adjoint_F = (_cluster([t.estimate for t in trs]) for trs in first)
    return SpectrumReport(
        values_E=values_E,
        values_F=values_F,
        adjoint_E=adjoint_E,
        adjoint_F=adjoint_F,
        gamma=scores[0][best_E],
        gamma_bar=scores[1][best_F],
        basis_E=cands[0][best_E],
        basis_F=cands[1][best_F],
        per_candidate_E=scores[0],
        per_candidate_F=scores[1],
        horizon=horizon,
        traces=dict(zip(("E", "F", "E_adjoint", "F_adjoint"), flat)),
        reliable=all(t.reliable for trs in flat for t in trs),
        nfev=nfev,
    )


# the name the benchmark's coupled-spectrum pipeline calls and traces as a
# second, identical solve; it goes with the benchmark's second call
regularity = spectrum


def dichotomy_from_spectrum(
    report: SpectrumReport,
    reg: SpectrumReport,
    h: GrowthRate,
    k: GrowthRate,
    hbar: GrowthRate,
    kbar: GrowthRate,
    eps_tilde: float,
    block: BlockSystem,
) -> DichotomySpec:
    """Assemble the dichotomy claim promised by negative/positive exponents.

    Needs lambda_top < 0 < chi_bottom.  Constants: a = lambda_top + et,
    b = chi_bottom + et, eps = max(gamma, gamma_bar) + et (clamped at 0),
    mu = h*hbar, nu = k*kbar, P = the block projection.  The theorem only
    asserts existence of a constant; K is `CLAIM_K`, and the claim is then
    tested by dichotomy.verify.  DichotomySpec is a frozen dataclass that
    re-checks K, so ``dataclasses.replace(spec, K=...)`` claims another K.
    The exponents are read from `report` and gamma, gamma_bar from `reg`;
    one `spectrum` report carries both, so it may be passed as both.
    """
    if eps_tilde <= 0:
        raise ValueError("eps_tilde must be positive")
    lam, chi = report.lambda_top, report.chi_bottom
    if not (lam < 0 < chi):
        raise DichokitError(f"sign condition violated: lambda_top={lam:.4g}, chi_bottom={chi:.4g}")
    a = lam + eps_tilde
    if a >= 0:
        raise DichokitError(f"eps_tilde={eps_tilde} swallows the stable margin (a={a:.4g})")
    p = block.projection()
    return DichotomySpec(
        P=lambda t: p,
        rates=RateQuadruple(h, k, product_rate(h, hbar), product_rate(k, kbar)),
        K=CLAIM_K,
        a=a,
        b=chi + eps_tilde,
        eps=max(0.0, max(reg.gamma, reg.gamma_bar) + eps_tilde),
    )
