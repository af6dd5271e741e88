"""Linear coefficient fields, block systems and the worked example.

Systems are supplied as callables, as constant matrices, or as tabulated
(optionally CSV) matrices with linear interpolation; there is deliberately
no expression parser.  Dimension is capped at 16: everything downstream is
O(n^3) per grid point and the interesting behaviour is fully exercised at
n = 2..4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .growth import GrowthRate, RateQuadruple, builtin, read_csv

MAX_DIM = 16


@dataclass(frozen=True)
class CoefficientField:
    """The matrix family A(t) of x' = A(t) x.

    ``eval`` takes one time and returns the (n, n) matrix.  With
    ``vectorized`` set it also takes a 1-d array of m times and returns the
    (m, n, n) stack, and `stack` reads the field in that one call.
    """

    dim: int
    eval: Callable[[float], np.ndarray]
    domain: str = "full"  # "full" | "half"
    vectorized: bool = False

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in 1..{MAX_DIM}, got {self.dim}")

    def __call__(self, t: float) -> np.ndarray:
        if self.domain == "half" and t < 0:
            raise DomainError(f"field is half-line only, got t={t}")
        a = np.asarray(self.eval(t), dtype=float)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"field returned shape {a.shape} at t={t}, expected {(self.dim, self.dim)}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"field returned non-finite entries at t={t}")
        return a

    def stack(self, ts) -> np.ndarray:
        """The (m, n, n) stack of A(t) for the m times `ts`.

        It equals ``np.array([self(t) for t in ts])``, and a field that is
        not vectorized is read just so, one checked call per time.  A
        vectorized field is read in one ``eval`` call and checked once for
        the whole stack: the domain, the shape (a wrong one naming the first
        time) and finiteness, an error naming the first bad t.  Its array
        arithmetic may round differently from its scalar one (`np.log1p`
        against `math.log1p`).
        """
        ts = np.asarray(ts, dtype=float)
        want = (self.dim, self.dim)
        if not ts.size:
            return np.empty((0, *want))
        if not self.vectorized:
            return np.array([self(t) for t in ts.tolist()])
        if self.domain == "half" and (ts < 0).any():
            raise DomainError(f"field is half-line only, got t={ts[np.argmax(ts < 0)]}")
        a = np.asarray(self.eval(ts), dtype=float)
        if a.shape != (ts.size, *want):
            raise ValueError(
                f"field returned shape {a.shape} for {ts.size} times from t={ts[0]}, expected {(ts.size, *want)}"
            )
        if not np.isfinite(a).all():
            k = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))[0]
            raise ValueError(f"field returned non-finite entries at t={ts[k]}")
        return a


def constant_field(matrix, domain: str = "full") -> CoefficientField:
    a = np.array(matrix, dtype=float)
    return CoefficientField(
        a.shape[0], lambda t: np.tile(a, (t.size, 1, 1)) if type(t) is np.ndarray else a, domain, True
    )


def adjoint(field: CoefficientField) -> CoefficientField:
    """The adjoint system y' = -A(t)^T y, vectorized if `field` is."""
    return CoefficientField(field.dim, lambda t: -np.swapaxes(field.eval(t), -1, -2), field.domain, field.vectorized)


def tabulated_field(times, matrices, domain: str | None = None) -> CoefficientField:
    """Field from samples; entries linearly interpolated, ends clamped."""
    times = np.asarray(times, dtype=float)
    matrices = np.asarray(matrices, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0):
        raise ValueError("tabulated field needs strictly increasing times")
    n = matrices.shape[1]
    flat = matrices.reshape(times.size, n * n)

    def ev(t):
        entries = np.array([np.interp(t, times, flat[:, j]) for j in range(n * n)])
        return entries.T.reshape(np.shape(t) + (n, n))

    if domain is None:
        domain = "full" if times[0] < 0 else "half"
    return CoefficientField(n, ev, domain, True)


def tabulated_field_from_csv(path: str) -> CoefficientField:
    """CSV columns t, a11, a12, ..., ann (row-major); strictly increasing t."""
    arr = read_csv(path)
    n = int(round(math.sqrt(arr.shape[1] - 1)))
    if n * n != arr.shape[1] - 1:
        raise ValueError(f"{path}: {arr.shape[1] - 1} matrix columns is not a square n*n")
    return tabulated_field(arr[:, 0], arr[:, 1:].reshape(-1, n, n))


@dataclass(frozen=True)
class BlockSystem:
    """A(t) = diag(W1(t), W2(t)) with the splitting R^n = E + F.

    ``split`` is dim E = W1.dim, the row where the second block starts.
    """

    W1: CoefficientField
    W2: CoefficientField

    @property
    def split(self) -> int:
        return self.W1.dim

    @property
    def dim(self) -> int:
        return self.W1.dim + self.W2.dim

    def blocks(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """W1(t) and W2(t) as float arrays, each checked for shape.

        Finiteness is left to the caller, which checks the matrix it builds
        from the two blocks once.
        """
        out = []
        for w in (self.W1, self.W2):
            a = np.asarray(w.eval(t), dtype=float)
            if a.shape != (w.dim, w.dim):
                raise ValueError(f"block returned shape {a.shape} at t={t}, expected {(w.dim, w.dim)}")
            out.append(a)
        return tuple(out)

    def combined(self) -> CoefficientField:
        l, n = self.split, self.dim

        def ev(t):
            a = np.zeros((n, n))
            a[:l, :l], a[l:, l:] = self.blocks(t)
            return a

        domain = "full" if self.W1.domain == self.W2.domain == "full" else "half"
        return CoefficientField(n, ev, domain)

    def projection(self) -> np.ndarray:
        """The coordinate projection onto E along F."""
        p = np.zeros((self.dim, self.dim))
        p[: self.split, : self.split] = np.eye(self.split)
        return p


# ---------------------------------------------------------------------------
# The worked two-dimensional example with a known dichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Example22Params:
    """Parameters of the scalar-pair system with oscillating coefficients.

    The system is z1' = (-eta1 hh'/hh + zeta1) z1, z2' = (eta3 kk'/kk + zeta2) z2
    where the zeta terms oscillate at amplitude proportional to eta2 and
    integrate to the nonuniform part of the bound.  Its evolution operator
    has a closed form, which the numerical integrator is tested against.
    """

    eta1: float
    eta2: float
    eta3: float
    hats: RateQuadruple = None

    def __post_init__(self):
        if self.eta1 <= 0 or self.eta3 <= 0 or self.eta2 < 0:
            raise ValueError("need eta1, eta3 > 0 and eta2 >= 0")
        if self.hats is None:
            object.__setattr__(
                self,
                "hats",
                RateQuadruple(builtin("exp"), builtin("exp"), builtin("expabs"), builtin("expabs")),
            )


def _osc_primitive(w: float) -> float:
    # antiderivative of (w cos w - 1) dw
    return w * math.sin(w) - w + math.cos(w)


def make_example22(params: Example22Params, domain: str | None = None):
    """Build the example system: coefficient field, analytic evolution, spec.

    Returns (field, T_analytic, spec) where T_analytic(t, s) is the exact
    2x2 evolution operator and spec carries the claimed bound constants
    K = e^{2 eta2}, a = -eta1, b = eta3, eps = 2 eta2 with P = diag(1, 0).
    """
    from .dichotomy import DichotomySpec, ProjectionFamily

    e1, e2, e3 = params.eta1, params.eta2, params.eta3
    hh, kk, mu, nu = params.hats.rates()
    if domain is None:
        domain = params.hats.common_domain()
    if domain == "full" and params.hats.common_domain() != "full":
        raise DomainError("half-line hats cannot serve a full-line request")

    def zeta(rate: GrowthRate, t: float) -> float:
        w = rate.log_u(t)
        return rate.dlog(t) * (w * math.cos(w) - 1.0)

    def zetas(rate: GrowthRate, ts: np.ndarray) -> np.ndarray:
        w = rate.log_eval(ts)
        return rate.log_deriv(ts) * (w * np.cos(w) - 1.0)

    def a_stack(ts: np.ndarray) -> np.ndarray:
        # the scalar arithmetic of a_eval, elementwise; `stack` has checked the domain
        a = np.zeros((ts.size, 2, 2))
        a[:, 0, 0] = -e1 * hh.log_deriv(ts) + e2 * zetas(mu, ts)
        a[:, 1, 1] = e3 * kk.log_deriv(ts) + e2 * zetas(nu, ts)
        return a

    def a_eval(t):
        if type(t) is np.ndarray:  # not isinstance, which costs numpy scalars more
            return a_stack(t)
        return np.diag(
            [
                -e1 * hh.dlog(t) + e2 * zeta(mu, t),
                e3 * kk.dlog(t) + e2 * zeta(nu, t),
            ]
        )

    field = CoefficientField(2, a_eval, domain, all(r.vectorized for r in params.hats.rates()))

    def log_t11(t, s):
        return -e1 * (hh.log_u(t) - hh.log_u(s)) + e2 * (
            _osc_primitive(mu.log_u(t)) - _osc_primitive(mu.log_u(s))
        )

    def log_t22(t, s):
        return e3 * (kk.log_u(t) - kk.log_u(s)) + e2 * (
            _osc_primitive(nu.log_u(t)) - _osc_primitive(nu.log_u(s))
        )

    def analytic(t, s):
        return np.diag([math.exp(log_t11(t, s)), math.exp(log_t22(t, s))])

    spec = DichotomySpec(
        P=ProjectionFamily.constant(np.diag([1.0, 0.0])),
        rates=params.hats,
        K=math.exp(2 * e2),
        a=-e1,
        b=e3,
        eps=2 * e2,
    )
    return field, analytic, spec
