"""Generalized Lyapunov exponents relative to growth rates.

For a block system x1' = W1(t) x1 (dim l) and x2' = W2(t) x2 (dim n-l), the
exponent of a solution relative to a rate u is

    limsup_{t -> +inf}  log |x(t)| / log u(t),

approximated by the supremum over a tail window of the horizon, with the
window spread reported as the trust measure (no finite computation yields a
true limsup).

Every exponent run goes through one batched solve: all start vectors of a
block and direction are integrated together in a single RK45 run whose state
is one unit direction q and one log-norm log r per column,

    q' = W q^ - (q^T W q^) q^,    (log r)' = q^T W q^,    q^ = q / |q|,

so the field is evaluated once per stage for every column, and exponents of
strongly expanding or contracting modes never overflow.  Each column still
follows its own orbit (no orthogonalization between columns).

Regularity coefficients pair forward and adjoint exponents over dual bases.
The true minimum over all dual bases is a hard search; we return certified
upper bounds over a candidate set, which downstream only ever weakens the
claimed dichotomy (a larger nonuniformity exponent), and the claim is then
grid-checked by the dichotomy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .dichotomy import DichotomySpec, ProjectionFamily
from .errors import DichokitError
from .growth import GrowthRate, RateQuadruple, product_rate
from .system import BlockSystem, CoefficientField, adjoint

GAP_THRESHOLD = 0.05
SPREAD_LIMIT = 0.2


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


def _exponent_traces(
    field_w: CoefficientField,
    rate: GrowthRate,
    X0,
    horizon: float,
    window: float = 0.2,
    samples: int = 200,
    rel_tol: float = 1e-9,
) -> tuple[list[ExponentTrace], int]:
    """Tail-window exponents of the solutions through the columns of X0.

    All nonzero columns are integrated together in one RK45 run; a zero
    column gets the distinguished value -inf and is not integrated.  Returns
    one trace per column and the field evaluations of the run (0 when every
    column is zero).
    """
    X0 = np.asarray(X0, dtype=float)
    n = field_w.dim
    if X0.shape[0] != n:
        raise ValueError(f"start vectors have size {X0.shape[0]}, field dimension is {n}")
    norms = np.linalg.norm(X0, axis=0)
    live = np.flatnonzero(norms > 0.0)
    traces = [ExponentTrace(np.array([]), np.array([]), -math.inf, 0.0) for _ in norms]
    if live.size == 0:
        return traces, 0
    if rate.log_u(horizon) <= 10.0:
        raise ValueError(f"horizon too short: log u({horizon}) <= 10")
    m = live.size
    split = n * m

    def rhs(t, state):
        q = state[:split].reshape(n, m)
        q = q / np.sqrt(np.einsum("ij,ij->j", q, q))
        wq = field_w(t) @ q
        # q' is orthogonal to q, so |q| stays 1 up to round-off, which the
        # renormalization above keeps out of the direction and the growth
        growth = np.einsum("ij,ij->j", q, wq)
        return np.concatenate([(wq - growth * q).ravel(), growth])

    y0 = np.concatenate([(X0[:, live] / norms[live]).ravel(), np.log(norms[live])])
    times = np.linspace((1.0 - window) * horizon, horizon, samples)
    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        y0,
        method="RK45",
        rtol=rel_tol,
        atol=1e-12,
        t_eval=times,
        dense_output=False,
    )
    if not sol.success:
        raise DichokitError(f"exponent integration failed: {sol.message}")
    denom = np.array([rate.log_u(t) for t in times])
    for j, log_norms in zip(live, sol.y[split:]):
        values = log_norms / denom
        traces[j] = ExponentTrace(times, values, float(np.max(values)), float(np.max(values) - np.min(values)))
    return traces, int(sol.nfev)


def lyapunov_exponent(
    field_w: CoefficientField,
    rate: GrowthRate,
    x0,
    horizon: float,
    window: float = 0.2,
    samples: int = 200,
    rel_tol: float = 1e-9,
) -> ExponentTrace:
    """Tail-window exponent of the solution through x0 at time 0.

    The one-column case of the batched renormalized solve (see the module
    docstring).  x0 = 0 gets the distinguished value -inf; an x0 whose size
    is not the field dimension raises ValueError.  Requires
    log u(horizon) > 10 so the denominator dominates integration error.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    traces, _ = _exponent_traces(field_w, rate, x0.reshape(-1, 1), horizon, window, samples, rel_tol)
    return traces[0]


def _cluster(estimates: list[float], gap: float = GAP_THRESHOLD):
    """Sorted distinct values with multiplicities, grouped within gap."""
    order = sorted(estimates)
    clusters: list[list[float]] = []
    for v in order:
        if clusters and v - clusters[-1][-1] <= gap:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(float(np.mean(c)), len(c)) for c in clusters]


@dataclass
class SpectrumReport:
    """Distinct exponents of both blocks and their adjoints."""

    values_E: list
    values_F: list
    adjoint_E: list
    adjoint_F: list
    horizon: float
    traces: dict = field(default_factory=dict)
    reliable: bool = True
    nfev: int = 0  # field evaluations of the four solves

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
    horizon: float = 50.0,
    window: float = 0.2,
) -> SpectrumReport:
    """Exponents of the fundamental-matrix columns of both blocks.

    One batched solve per block and direction (four in all) integrates the
    coordinate columns of the block, or of its adjoint y' = -W(t)^T y,
    measured against h/k or hbar/kbar (defaulting to h/k).  A report is
    marked unreliable when any column's tail-window spread exceeds 0.2;
    ``nfev`` is the field evaluations of the four solves.
    """
    hbar = hbar or h
    kbar = kbar or k
    runs = {
        "E": (block.W1, h),
        "F": (block.W2, k),
        "E_adjoint": (adjoint(block.W1), hbar),
        "F_adjoint": (adjoint(block.W2), kbar),
    }
    traces, nfev = {}, 0
    for key, (field_w, rate) in runs.items():
        traces[key], evals = _exponent_traces(field_w, rate, np.eye(field_w.dim), horizon, window)
        nfev += evals
    values = {key: _cluster([t.estimate for t in trs]) for key, trs in traces.items()}
    return SpectrumReport(
        values_E=values["E"],
        values_F=values["F"],
        adjoint_E=values["E_adjoint"],
        adjoint_F=values["F_adjoint"],
        horizon=horizon,
        traces=traces,
        reliable=all(t.reliable for trs in traces.values() for t in trs),
        nfev=nfev,
    )


@dataclass(frozen=True)
class DualBasisPair:
    """Basis columns and dual columns with Kronecker pairing."""

    basis: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        d = np.asarray(self.dual, dtype=float)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "dual", d)
        if np.max(np.abs(b.T @ d - np.eye(b.shape[1]))) > 1e-10:
            raise ValueError("basis and dual do not pair to the identity")

    @staticmethod
    def from_basis(basis) -> "DualBasisPair":
        b = np.asarray(basis, dtype=float)
        return DualBasisPair(b, np.linalg.inv(b).T)


@dataclass
class RegularityReport:
    """Certified upper bounds on the two regularity coefficients."""

    gamma: float
    gamma_bar: float
    basis_E: DualBasisPair
    basis_F: DualBasisPair
    per_candidate_E: list = field(default_factory=list)
    per_candidate_F: list = field(default_factory=list)
    nfev: int = 0  # field evaluations of the four solves


def _default_candidates(dim: int):
    return [DualBasisPair.from_basis(np.eye(dim))]


def _best_pairing(field_w, rate, rate_bar, candidates, horizon, window):
    """Best candidate, every candidate's score and the field evaluations.

    The basis columns of all candidates go into one forward solve and their
    dual columns into one adjoint solve.
    """
    fwd, nfev_fwd = _exponent_traces(field_w, rate, np.hstack([c.basis for c in candidates]), horizon, window)
    bwd, nfev_bwd = _exponent_traces(adjoint(field_w), rate_bar, np.hstack([c.dual for c in candidates]), horizon, window)
    sums = [f.estimate + b.estimate for f, b in zip(fwd, bwd)]
    ends = np.cumsum([c.basis.shape[1] for c in candidates])
    scores = [max(sums[end - c.basis.shape[1] : end]) for c, end in zip(candidates, ends)]
    best = int(np.argmin(scores))
    return scores[best], candidates[best], scores, nfev_fwd + nfev_bwd


def regularity(
    block: BlockSystem,
    h: GrowthRate,
    k: GrowthRate,
    hbar: GrowthRate | None = None,
    kbar: GrowthRate | None = None,
    candidates_E: list | None = None,
    candidates_F: list | None = None,
    horizon: float = 50.0,
    window: float = 0.2,
) -> RegularityReport:
    """Upper-bound the regularity coefficients over candidate dual bases.

    Each candidate pairs basis vector i with dual vector i; the candidate's
    score is the max paired sum of forward and adjoint exponents, and the
    bound is the min over candidates.  The exact min over all dual bases is
    not computed.  Per block, the basis columns of every candidate share one
    batched forward solve and the dual columns one batched adjoint solve
    (see the module docstring); ``nfev`` is the field evaluations of all four.
    """
    hbar = hbar or h
    kbar = kbar or k
    cands_e = candidates_E or _default_candidates(block.W1.dim)
    cands_f = candidates_F or _default_candidates(block.W2.dim)
    gamma, pair_e, scores_e, nfev_e = _best_pairing(block.W1, h, hbar, cands_e, horizon, window)
    gamma_bar, pair_f, scores_f, nfev_f = _best_pairing(block.W2, k, kbar, cands_f, horizon, window)
    return RegularityReport(gamma, gamma_bar, pair_e, pair_f, scores_e, scores_f, nfev_e + nfev_f)


def dichotomy_from_spectrum(
    report: SpectrumReport,
    reg: RegularityReport,
    h: GrowthRate,
    k: GrowthRate,
    hbar: GrowthRate,
    kbar: GrowthRate,
    eps_tilde: float,
    block: BlockSystem,
    K: float = 1.0,
) -> DichotomySpec:
    """Assemble the dichotomy claim promised by negative/positive exponents.

    Needs lambda_top < 0 < chi_bottom.  Constants: a = lambda_top + et,
    b = chi_bottom + et, eps = max(gamma, gamma_bar) + et (clamped at 0),
    mu = h*hbar, nu = k*kbar, P = the block projection.  The theorem only
    asserts existence of a constant; K is a caller-tunable default whose
    claim is then tested by dichotomy.verify.
    """
    if eps_tilde <= 0:
        raise ValueError("eps_tilde must be positive")
    lam, chi = report.lambda_top, report.chi_bottom
    if not (lam < 0 < chi):
        raise DichokitError(f"sign condition violated: lambda_top={lam:.4g}, chi_bottom={chi:.4g}")
    a = lam + eps_tilde
    if a >= 0:
        raise DichokitError(f"eps_tilde={eps_tilde} swallows the stable margin (a={a:.4g})")
    return DichotomySpec(
        P=ProjectionFamily.constant(block.projection()),
        rates=RateQuadruple(h, k, product_rate(h, hbar), product_rate(k, kbar)),
        K=K,
        a=a,
        b=chi + eps_tilde,
        eps=max(0.0, max(reg.gamma, reg.gamma_bar) + eps_tilde),
    )
