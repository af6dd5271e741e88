"""Growth rates and the rate algebra.

A growth rate is an increasing function u : R -> (0, inf) with u(0) = 1,
u(t) -> inf as t -> +inf and u(t) -> 0 as t -> -inf.  Rates generalize e^t
as the clock against which contraction and expansion are measured; every
bound in this toolkit is a product of powers of rate ratios, so all rate
arithmetic here is done in log space and only exponentiated at the end.

Half-line rates (t+1, t^2+1, e^{t^2}) are tagged ``domain="half"`` and are
rejected when evaluated at negative times.  The special factor e^{|t|}
(``expabs``) is registered with a full-line domain but is *not* monotone on
t < 0; it is meant to be evaluated at |s| as a nonuniformity factor, and
``validate`` duly reports the monotonicity failure when probed on negatives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

# exp/log saturate beyond this; exp(+-700) is still inside double range
LOG_SATURATION = 700.0
LIMIT_TOL = 1e-3  # validate's full-line limits: u > 1/LIMIT_TOL at the right end, < LIMIT_TOL at the left


@dataclass(frozen=True)
class GrowthRate:
    """A comparison function u with stable log-space accessors.

    ``log_eval`` and ``log_deriv`` (= u'/u) are the primitives; ``eval`` and
    ``deriv`` are derived and may overflow to inf for extreme arguments,
    which is acceptable because bound checking never leaves log space.
    With ``vectorized`` set, both primitives also take a 1-d array of times
    and return values that broadcast against it (a constant may stay a
    scalar); they do not check the domain, which `log_u` and `dlog` do.
    """

    name: str
    domain: str  # "full" | "half"
    log_eval: Callable[[float], float]
    log_deriv: Callable[[float], float]
    vectorized: bool = False

    def __post_init__(self):
        if self.domain not in ("full", "half"):
            raise ValueError(f"domain must be 'full' or 'half', got {self.domain!r}")

    def _check_domain(self, t: float):
        if self.domain == "half" and t < 0:
            raise DomainError(f"rate {self.name!r} is half-line only, got t={t}")

    def log_u(self, t: float) -> float:
        self._check_domain(t)
        return float(self.log_eval(t))

    def eval(self, t: float) -> float:
        lv = self.log_u(t)
        if lv > LOG_SATURATION:
            return math.inf
        return math.exp(lv)

    def dlog(self, t: float) -> float:
        """u'(t)/u(t); the weight h'/h appearing in every integral bound."""
        self._check_domain(t)
        return float(self.log_deriv(t))

    def deriv(self, t: float) -> float:
        return self.dlog(t) * self.eval(t)

    def __call__(self, t: float) -> float:
        return self.eval(t)


@dataclass(frozen=True)
class RateQuadruple:
    """The four comparison functions (h, k, mu, nu) of a dichotomy bound."""

    h: GrowthRate
    k: GrowthRate
    mu: GrowthRate
    nu: GrowthRate

    def rates(self):
        return (self.h, self.k, self.mu, self.nu)

    def common_domain(self) -> str:
        """'full' iff every member is evaluable on the whole line."""
        return "full" if all(r.domain == "full" for r in self.rates()) else "half"

    def compatible_with(self, system_domain: str) -> bool:
        return system_domain == "half" or self.common_domain() == "full"


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class ValidationReport:
    rate: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate(rate: GrowthRate, probes) -> ValidationReport:
    """Check the growth-rate axioms on a probe grid.

    Reported checks: origin (u(0)=1), evaluation (finite positive values),
    monotone (nondecreasing along the grid), limits (full-line rates must
    exceed 1/`LIMIT_TOL` at the right end and fall below `LIMIT_TOL` at the
    left end), derivative (consistency with a central difference).
    """
    probes = np.sort(np.asarray(probes, dtype=float))
    if probes.size == 0:
        raise ValueError("probe grid is empty")
    checks = []

    # evaluation: log u finite at every probe
    bad = []
    logs = np.empty(probes.size)
    for i, t in enumerate(probes):
        try:
            lv = rate.log_u(float(t))
        except (DomainError, ValueError):
            lv = math.nan
        logs[i] = lv
        if not math.isfinite(lv):
            bad.append(t)
    checks.append(
        CheckResult(
            "evaluation",
            not bad,
            float(len(bad)),
            f"non-evaluable at t={bad[:5]}" if bad else "",
        )
    )

    valid = np.isfinite(logs)

    # origin: u(0) = 1 within 1e-12
    try:
        l0 = rate.log_u(0.0)
        checks.append(CheckResult("origin", abs(l0) <= 2e-12, abs(l0)))
    except (DomainError, ValueError):
        checks.append(CheckResult("origin", False, math.inf, "u(0) not evaluable"))

    # monotone: u(t_{i+1}) >= u(t_i) - 1e-12 u(t_i)
    lv, tv = logs[valid], probes[valid]
    drops = -np.diff(lv)  # positive means decreasing
    checks.append(CheckResult("monotone", bool(np.all(drops <= 1e-12)), float(np.max(drops, initial=0.0))))

    # limits at the extreme probes (full-line rates only)
    if rate.domain == "full" and valid.any():
        hi, lo = lv[-1], lv[0]
        ok = hi > -math.log(LIMIT_TOL) and lo < math.log(LIMIT_TOL)
        checks.append(
            CheckResult(
                "limits",
                bool(ok),
                float(min(hi + math.log(LIMIT_TOL), -lo + math.log(LIMIT_TOL))),
                f"u({tv[-1]})={math.exp(min(hi, LOG_SATURATION)):.3g}, "
                f"u({tv[0]})={math.exp(max(lo, -LOG_SATURATION)):.3g}",
            )
        )

    # derivative consistency against central differences
    delta = 1e-4
    worst = 0.0
    ok = True
    for t in tv:
        try:
            lo_t, hi_t = rate.log_u(t - delta), rate.log_u(t + delta)
        except (DomainError, ValueError):
            continue
        if max(abs(lo_t), abs(hi_t)) > LOG_SATURATION:
            continue  # direct-space values overflow; skip probe
        du = (math.exp(hi_t) - math.exp(lo_t)) / (2 * delta)
        d = rate.deriv(t)
        resid = abs(d - du) / max(1.0, abs(d))
        worst = max(worst, resid)
        if resid > 1e-6:
            ok = False
    checks.append(CheckResult("derivative", ok, worst))

    return ValidationReport(rate.name, checks)


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("exp", "poly", "polysq", "expabs", "expsq", "rho_exp")


def _positive(params: dict, key: str, default: float) -> float:
    v = float(params.get(key, default))
    if v <= 0:
        raise ValueError(f"parameter {key!r} must be positive, got {v}")
    return v


def builtin(name: str, params: dict | None = None) -> GrowthRate:
    """Construct a named builtin rate.

    exp     e^{c t}           (full line; c = params["rate"], default 1)
    poly    (t+1)^p           (half line; p = params["power"], default 1)
    polysq  t^2 + 1           (half line)
    expabs  e^{|t|}           (registered as a nonuniform factor; not
                               monotone over signed time)
    expsq   e^{t^2}           (half line)
    rho_exp e^{rho(t)}        (rho tabulated; see :func:`rho_exp_from_samples`)
    """
    params = dict(params or {})
    # every builtin is vectorized; a single time keeps its math code, and the
    # exact type test costs solvers' numpy scalars less than isinstance
    if name == "exp":
        c = _positive(params, "rate", 1.0)
        return GrowthRate("exp", "full", lambda t: c * t, lambda t: c, True)
    if name == "poly":
        p = _positive(params, "power", 1.0)
        return GrowthRate("poly", "half", lambda t: p * _log1p(t), lambda t: p / (1.0 + t), True)
    if name == "polysq":
        return GrowthRate("polysq", "half", lambda t: _log1p(t * t), lambda t: 2 * t / (1.0 + t * t), True)
    if name == "expabs":
        return GrowthRate(
            "expabs",
            "full",
            lambda t: abs(t),
            lambda t: np.sign(t) if type(t) is np.ndarray else math.copysign(1.0, t) if t else 0.0,
            True,
        )
    if name == "expsq":
        return GrowthRate("expsq", "half", lambda t: t * t, lambda t: 2 * t, True)
    if name == "rho_exp":
        samples = params.get("samples")
        if samples is None:
            raise ValueError("rho_exp requires params['samples'] (path or (t, rho) array)")
        arr = read_csv(samples) if isinstance(samples, str) else np.asarray(samples, dtype=float)
        return rho_exp_from_samples(arr[:, 0], arr[:, 1])
    raise ValueError(f"unknown rate name {name!r}; expected one of {BUILTIN_NAMES}")


def _log1p(t):
    return np.log1p(t) if type(t) is np.ndarray else math.log1p(t)


def rho_exp_from_samples(t, rho) -> GrowthRate:
    """Rate e^{rho(t)} from tabulated rho, monotone-cubic interpolated."""
    from scipy.interpolate import PchipInterpolator

    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("rho samples need strictly increasing t with >= 2 points")
    interp = PchipInterpolator(t, rho, extrapolate=True)
    dinterp = interp.derivative()
    domain = "full" if t[0] < 0 else "half"
    return GrowthRate("rho_exp", domain, interp, dinterp, True)


def read_csv(path: str) -> np.ndarray:
    """The numeric rows of a CSV file as a 2-d array.

    Blank rows, rows whose first cell starts with '#' and rows with a
    non-numeric cell (headers) are skipped; a file with no data rows is a
    ValueError.
    """
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                continue  # header
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return np.asarray(rows, dtype=float)


def product_rate(a: GrowthRate, b: GrowthRate, name: str | None = None) -> GrowthRate:
    """Pointwise product rate (u v)(t); log and log-derivative add."""
    domain = "full" if a.domain == b.domain == "full" else "half"
    return GrowthRate(
        name or f"{a.name}*{b.name}",
        domain,
        lambda t: a.log_eval(t) + b.log_eval(t),
        lambda t: a.log_deriv(t) + b.log_deriv(t),
        a.vectorized and b.vectorized,
    )
