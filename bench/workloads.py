"""The four benchmark workloads: inputs, pipeline, independent reference.

Each workload is an object with

    build(seed, wrap)      inputs; every coefficient field's ``eval`` goes
                           through ``wrap`` so a traced run can count calls
    reference(x)           expected values, computed from closed forms and
                           scalar SciPy quadrature, never with the dichokit
                           integrator (untimed)
    run(x, call)           one pass of the pipeline on a fresh
                           EvolutionOperator; every top-level dichokit call
                           goes through ``call``, which times it
    values(out)            the pass outputs as plain numbers
    check(v, ref)          one Op per top-level call: passed?, relative error
    corruptions(v, ref)    wrong answers that ``check`` must flag

Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from dichokit import dichotomy, evolution, growth, lyapfun, spectrum, system

# The per-column spectrum (ROADMAP item 4) reports the top exponent of each
# block for every column of a non-diagonal block.  The ops it breaks count as
# failed and show in ref_err, but do not make the run incorrect.
KNOWN_DEFECT = "ROADMAP item 4: per-column spectrum misses the lower exponents of a non-diagonal block"


@dataclass
class Op:
    name: str
    passed: bool
    rel_err: float = 0.0
    detail: str = ""
    known_defect: bool = False


def _rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


def _op(name, got, want, tol, known_defect=False) -> Op:
    err = _rel(got, want)
    return Op(name, err <= tol, err, f"rel err {err:.3g} (tol {tol:g})", known_defect)


RESIDUAL_TOL = 1e-9  # commutation residuals of the block-diagonal inputs are 0


def _cert(c):
    return [c.worst_stable_ratio, c.worst_unstable_ratio, c.worst_commute_residual, c.passed]


def _verify_op(name, got, want_ratios, ratio_tol) -> Op:
    """A Certificate [stable, unstable, residual, passed] against closed-form ratios."""
    op = _op(name, got[:2], want_ratios, ratio_tol)
    want_pass = max(want_ratios) <= 1.0 + 1e-6  # verify's default tol
    if got[2] > RESIDUAL_TOL or bool(got[3]) != want_pass:
        op.passed = False
        op.detail += f"; residual {got[2]:.3g}, passed={got[3]} (want {want_pass})"
    return op


# ---------------------------------------------------------------------------
# Example 2.2 (eta1, eta2, eta3) = (1, 0.1, 1): h = k = e^t, mu = nu = e^|t|
# ---------------------------------------------------------------------------

ETA = (1.0, 0.1, 1.0)


def _osc(w):
    return w * np.sin(w) - w + np.cos(w)


def ex22_log_diag(t, s):
    """log T11(t, s) and log T22(t, s) of Example 2.2, written out here."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    e1, e2, e3 = ETA
    wiggle = e2 * (_osc(np.abs(t)) - _osc(np.abs(s)))
    return -e1 * (t - s) + wiggle, e3 * (t - s) + wiggle


def _ex22(wrap):
    params = system.Example22Params(*ETA)
    field, _, spec = system.make_example22(params)
    return replace(field, eval=wrap(field.eval)), spec


def _pairs(grid):
    g = np.asarray(grid, dtype=float)
    return np.maximum(g[:, 0], g[:, 1]), np.minimum(g[:, 0], g[:, 1])


def ex22_worst_ratios(grid, K, a, b, eps):
    """Worst stable/unstable ratios of the Example 2.2 bound, closed form."""
    hi, lo = _pairs(grid)
    l11, _ = ex22_log_diag(hi, lo)
    _, l22 = ex22_log_diag(lo, hi)
    stable = l11 - (math.log(K) + a * (hi - lo) + eps * np.abs(lo))
    unstable = l22 - (math.log(K) - b * (hi - lo) + eps * np.abs(hi))
    return float(np.exp(min(stable.max(), 700.0))), float(np.exp(min(unstable.max(), 700.0)))


def ex22_fit(grid):
    """estimate_constants' documented least-squares fit, on closed-form norms."""
    hi, lo = _pairs(grid)
    l11, _ = ex22_log_diag(hi, lo)
    _, l22 = ex22_log_diag(lo, hi)
    ones = np.ones_like(hi)
    xs = np.column_stack([ones, hi - lo, np.abs(lo)])
    xu = np.column_stack([ones, -(hi - lo), np.abs(hi)])
    (lks, a, eps_s), *_ = np.linalg.lstsq(xs, l11, rcond=None)
    (lku, b, eps_u), *_ = np.linalg.lstsq(xu, l22, rcond=None)
    eps, log_k = max(eps_s, eps_u, 0.0), max(lks, lku)
    worst = max(
        np.max(l11 - (log_k + a * (hi - lo) + eps * np.abs(lo))),
        np.max(l22 - (log_k - b * (hi - lo) + eps * np.abs(hi))),
    )
    if worst > 0:
        log_k += worst * (1 + 1e-12) + 1e-14
    return {"K": math.exp(log_k), "a": a, "b": max(b, 0.0), "eps": eps}


# ---------------------------------------------------------------------------
# certify-grid
# ---------------------------------------------------------------------------


class CertifyGrid:
    name = "certify-grid"
    RATIO_TOL = 1e-7
    FIT_TOL = 1e-6

    def build(self, seed, wrap=lambda f: f):
        field, spec = _ex22(wrap)
        return SimpleNamespace(field=field, spec=spec, grid=dichotomy.square_grid(-4.0, 4.0, 0.125))

    def reference(self, x):
        s = x.spec
        return {"ratios": ex22_worst_ratios(x.grid, s.K, s.a, s.b, s.eps), "fit": ex22_fit(x.grid)}

    def run(self, x, call):
        op = evolution.EvolutionOperator(x.field)
        cert = call(dichotomy.verify, x.spec, op, x.grid)
        fitted, _ = call(dichotomy.estimate_constants, op, x.spec.P, x.spec.rates, x.grid)
        cert_fit = call(dichotomy.verify, fitted, op, x.grid)
        proj = call(dichotomy.check_projection, x.spec.P, op, x.grid)
        return SimpleNamespace(op=op, cert=cert, fitted=fitted, cert_fit=cert_fit, proj=proj, grid=x.grid)

    def values(self, out):
        f = out.fitted
        return {
            "verify": _cert(out.cert),
            "fit": {"K": f.K, "a": f.a, "b": f.b, "eps": f.eps},
            "verify_fit": _cert(out.cert_fit),
            "fit_ref_ratios": ex22_worst_ratios(out.grid, f.K, f.a, f.b, f.eps),
            "projection": [out.proj.max_commute_residual, out.proj.max_idempotency_residual],
        }

    def check(self, v, ref):
        fit_keys = ("K", "a", "b", "eps")
        proj_ok = max(v["projection"]) <= RESIDUAL_TOL
        return [
            _verify_op("verify", v["verify"], ref["ratios"], self.RATIO_TOL),
            _op("estimate_constants", [v["fit"][k] for k in fit_keys], [ref["fit"][k] for k in fit_keys], self.FIT_TOL),
            _verify_op("verify(fitted)", v["verify_fit"], v["fit_ref_ratios"], self.RATIO_TOL),
            Op("check_projection", proj_ok, 0.0, f"residuals {v['projection']}"),
        ]

    def corruptions(self, v, ref):
        halved = dict(v["fit"], K=v["fit"]["K"] / 2)
        doubled = [2 * v["verify"][0]] + v["verify"][1:]  # what a halved K reports
        return [
            ("estimate_constants with K halved", "estimate_constants", dict(v, fit=halved)),
            ("verify ratios of a halved K", "verify", dict(v, verify=doubled)),
            ("verify(fitted) ratio off by 1e-6", "verify(fitted)", dict(v, verify_fit=[v["verify_fit"][0] * (1 + 1e-6)] + v["verify_fit"][1:])),
            ("projection residual 1e-6", "check_projection", dict(v, projection=[1e-6, 0.0])),
        ]


# ---------------------------------------------------------------------------
# lyapunov-S
# ---------------------------------------------------------------------------


class LyapunovS:
    name = "lyapunov-S"
    DBAR = 0.5
    S_TOL = 1e-5
    LABELS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    EXPECTED = ("stable", "unstable", "unstable")

    def build(self, seed, wrap=lambda f: f):
        field, spec = _ex22(wrap)
        return SimpleNamespace(field=field, spec=spec, times=np.linspace(-2.0, 2.0, 17))

    def reference(self, x):
        """S11 and S22 by scalar quadrature of the closed-form integrands.

        S11(t) = int_t^inf  exp(2 [log T11(v, t) - (a + dbar)(v - t)]) dv
        S22(t) = -int_-inf^t exp(2 [log T22(v, t) - (b - dbar)(v - t)]) dv
        (h'/h = k'/k = 1); 40 time units past t the integrands are below e^-40.
        """
        a, b, d = x.spec.a, x.spec.b, self.DBAR

        def stable(v, t):
            return math.exp(2 * (float(ex22_log_diag(v, t)[0]) - (a + d) * (v - t)))

        def unstable(v, t):
            return math.exp(2 * (float(ex22_log_diag(v, t)[1]) - (b - d) * (v - t)))

        def integral(f, lo, hi, t):
            pts = [0.0] if lo < 0.0 < hi else None
            val, _ = quad(f, lo, hi, args=(t,), points=pts, limit=400, epsabs=0.0, epsrel=1e-12)
            return val

        s11 = np.array([integral(stable, t, t + 40.0, t) for t in x.times])
        s22 = np.array([-integral(unstable, t - 40.0, t, t) for t in x.times])
        # S' + SA + A^T S + P h'/h + Q k'/k = diag(2(a+d) S11, 2(b-d) S22) exactly
        return {"s11": s11, "s22": s22, "derivative_passes": bool(max(2 * (a + d) * s11.max(), 2 * (b - d) * s22.max()) < 0)}

    def run(self, x, call):
        op = evolution.EvolutionOperator(x.field)
        lyap = call(lyapfun.construct_S, x.spec, op, self.DBAR, x.times)
        deriv = call(lyapfun.derivative_condition, lyap, x.field, form="necessity")
        labels = [call(lyapfun.classify, lyap, op, 0.0, list(v), 2.0) for v in self.LABELS]
        return SimpleNamespace(op=op, lyap=lyap, deriv=deriv, labels=labels)

    def values(self, out):
        m = out.lyap.matrices
        return {
            "s11": m[:, 0, 0].copy(),
            "s22": m[:, 1, 1].copy(),
            "offdiag": float(np.max(np.abs(m[:, 0, 1]))),
            "derivative_passed": bool(out.deriv.passed),
            "labels": list(out.labels),
        }

    def check(self, v, ref):
        s_op = _op("construct_S", np.concatenate([v["s11"], v["s22"]]), np.concatenate([ref["s11"], ref["s22"]]), self.S_TOL)
        if v["offdiag"] > 1e-12:
            s_op.passed = False
            s_op.detail += f"; off-diagonal {v['offdiag']:.3g}"
        ops = [s_op, Op("derivative_condition", v["derivative_passed"] == ref["derivative_passes"], 0.0, f"passed={v['derivative_passed']}")]
        for x, got, want in zip(self.LABELS, v["labels"], self.EXPECTED):
            ops.append(Op(f"classify{list(x)}", got == want, 0.0, f"{got} (want {want})"))
        return ops

    def corruptions(self, v, ref):
        flipped = list(v["labels"])
        flipped[2] = "stable"
        return [
            ("S scaled by 1.01", "construct_S", dict(v, s11=v["s11"] * 1.01, s22=v["s22"] * 1.01)),
            ("S off-diagonal 1e-9", "construct_S", dict(v, offdiag=1e-9)),
            ("derivative verdict flipped", "derivative_condition", dict(v, derivative_passed=not v["derivative_passed"])),
            ("classify [1,1] as stable", "classify[1.0, 1.0]", dict(v, labels=flipped)),
        ]


# ---------------------------------------------------------------------------
# coupled-spectrum: W_i(t) = R(w t) Q D Q^T R(w t)^T + w J, so that
# T_i(t, s) = R(w t) Q exp(D (t - s)) Q^T R(w s)^T and the exponents are D's
# ---------------------------------------------------------------------------

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class RotatedBlock:
    """W(t) = R(w t) M R(w t)^T + w J with M = Q diag(d) Q^T, Q = R(angle)."""

    def __init__(self, diag, angle, omega):
        self.diag = tuple(diag)
        self.omega = omega
        self.q = _rot(angle)
        self.m = self.q @ np.diag(self.diag) @ self.q.T

    def eval(self, t):
        r = _rot(self.omega * t)
        return r @ self.m @ r.T + self.omega * J

    def exact(self, t, s):
        q = self.q
        return _rot(self.omega * t) @ q @ np.diag(np.exp(np.array(self.diag) * (t - s))) @ q.T @ _rot(self.omega * s).T

    def candidate_sum(self, x):
        """Exact forward plus adjoint exponent of the basis vector x."""
        live = np.abs(self.q.T @ x) > 1e-12
        d = np.array(self.diag)[live]
        return float(d.max() + (-d).max())


class CoupledSpectrum:
    name = "coupled-spectrum"
    HORIZON = 50.0
    EPS_TILDE = 0.05
    EXP_TOL = 0.05  # relative; the tail-window estimator's error at horizon 50 is about 0.01
    RATIO_TOL = 1e-6
    GRID = (0.0, 4.0, 0.25)

    def build(self, seed, wrap=lambda f: f):
        rng = np.random.default_rng([seed, 3])
        # angles away from 0 and pi/2, where a coordinate axis would be an eigenvector
        angles = rng.uniform(math.pi / 8, 3 * math.pi / 8, size=2)
        omegas = rng.uniform(0.7, 0.8, size=2)
        blocks = (RotatedBlock((-2.0, -1.0), angles[0], omegas[0]), RotatedBlock((1.0, 2.0), angles[1], omegas[1]))
        w1, w2 = (system.CoefficientField(2, wrap(b.eval)) for b in blocks)
        return SimpleNamespace(
            blocks=blocks,
            system=system.BlockSystem(w1, w2),
            rate=growth.builtin("exp"),
            grid=dichotomy.square_grid(*self.GRID),
        )

    def reference(self, x):
        b1, b2 = x.blocks
        eye = np.eye(2)
        gamma = max(b1.candidate_sum(e) for e in eye)
        gamma_bar = max(b2.candidate_sum(e) for e in eye)
        et = self.EPS_TILDE
        return {
            "E": sorted(b1.diag),
            "F": sorted(b2.diag),
            "E_adjoint": sorted(-d for d in b1.diag),
            "F_adjoint": sorted(-d for d in b2.diag),
            "gamma": [gamma, gamma_bar],
            "spec": [max(b1.diag) + et, min(b2.diag) + et, max(gamma, gamma_bar) + et],
        }

    def run(self, x, call):
        h = x.rate
        rep = call(spectrum.spectrum, x.system, h, h, horizon=self.HORIZON)
        reg = call(spectrum.regularity, x.system, h, h, horizon=self.HORIZON)
        spec = call(spectrum.dichotomy_from_spectrum, rep, reg, h, h, h, h, self.EPS_TILDE, x.system)
        op = evolution.EvolutionOperator(x.system.combined())
        cert = call(dichotomy.verify, spec, op, x.grid)
        return SimpleNamespace(op=op, rep=rep, reg=reg, spec=spec, cert=cert, blocks=x.blocks, grid=x.grid)

    def values(self, out):
        expand = lambda clusters: sorted(v for v, m in clusters for _ in range(m))
        r, s = out.rep, out.spec
        return {
            "E": expand(r.values_E),
            "F": expand(r.values_F),
            "E_adjoint": expand(r.adjoint_E),
            "F_adjoint": expand(r.adjoint_F),
            "gamma": [out.reg.gamma, out.reg.gamma_bar],
            "spec": [s.a, s.b, s.eps],
            "K": s.K,
            "verify": _cert(out.cert),
            "verify_ref": self._ratios(out.blocks, out.grid, s),
        }

    @staticmethod
    def _ratios(blocks, grid, spec):
        """Worst verify ratios from the exact T; mu = nu = e^{2t} (h * hbar)."""
        ws = wu = 0.0
        for t, s in grid:
            hi, lo = max(t, s), min(t, s)
            ns = np.linalg.norm(blocks[0].exact(hi, lo), 2)
            nu = np.linalg.norm(blocks[1].exact(lo, hi), 2)
            ws = max(ws, math.log(ns) - (math.log(spec.K) + spec.a * (hi - lo) + spec.eps * 2 * abs(lo)))
            wu = max(wu, math.log(nu) - (math.log(spec.K) - spec.b * (hi - lo) + spec.eps * 2 * abs(hi)))
        return [math.exp(ws), math.exp(wu)]

    def check(self, v, ref):
        got = [x for k in ("E", "F", "E_adjoint", "F_adjoint") for x in v[k]]
        want = [x for k in ("E", "F", "E_adjoint", "F_adjoint") for x in ref[k]]
        return [
            _op("spectrum", got, want, self.EXP_TOL, known_defect=True),
            _op("regularity", v["gamma"], ref["gamma"], self.EXP_TOL),
            _op("dichotomy_from_spectrum", v["spec"], ref["spec"], self.EXP_TOL, known_defect=True),
            _verify_op("verify", v["verify"], v["verify_ref"], self.RATIO_TOL),
        ]

    def corruptions(self, v, ref):
        exact = {k: list(ref[k]) for k in ("E", "F", "E_adjoint", "F_adjoint")}
        shifted = dict(exact, F=[ref["F"][0] + 0.1, ref["F"][1]])
        true_spec = list(ref["spec"])
        return [
            # the exact spectrum must pass, or the check could not tell right from wrong
            ("exact spectrum accepted", "spectrum", dict(v, **exact), True),
            ("one exponent shifted by 0.1", "spectrum", dict(v, **shifted)),
            ("exact constants accepted", "dichotomy_from_spectrum", dict(v, spec=true_spec), True),
            ("b shifted by 0.1", "dichotomy_from_spectrum", dict(v, spec=[true_spec[0], true_spec[1] + 0.1, true_spec[2]])),
            ("gamma shifted by 0.1", "regularity", dict(v, gamma=[v["gamma"][0] + 0.1, v["gamma"][1]])),
            ("verify ratio off by 1e-5", "verify", dict(v, verify=[v["verify"][0] * (1 + 1e-5)] + v["verify"][1:])),
        ]


# ---------------------------------------------------------------------------
# offgrid-session
# ---------------------------------------------------------------------------


class OffgridSession:
    name = "offgrid-session"
    QUERIES = 1000
    T_TOL = 1e-6

    def build(self, seed, wrap=lambda f: f):
        field, _ = _ex22(wrap)
        rng = np.random.default_rng([seed, 4])
        ts, ss = rng.uniform(-10.0, 10.0, size=(2, self.QUERIES))
        return SimpleNamespace(field=field, queries=list(zip(ts.tolist(), ss.tolist())))

    def reference(self, x):
        q = np.asarray(x.queries)
        l11, l22 = ex22_log_diag(q[:, 0], q[:, 1])
        return {"diag": np.exp(np.column_stack([l11, l22]))}

    def run(self, x, call):
        op = evolution.EvolutionOperator(x.field)
        evolve = op.evolve
        mats = [call(evolve, t, s) for t, s in x.queries]
        return SimpleNamespace(op=op, mats=mats)

    def values(self, out):
        m = np.asarray(out.mats)
        return {"diag": np.stack([m[:, 0, 0], m[:, 1, 1]], axis=1), "offdiag": np.abs(np.stack([m[:, 0, 1], m[:, 1, 0]], axis=1)).max(axis=1)}

    def check(self, v, ref):
        err = np.max(np.abs(v["diag"] - ref["diag"]) / ref["diag"], axis=1)
        bad = (err > self.T_TOL) | (v["offdiag"] > 1e-12 * np.max(np.abs(ref["diag"]), axis=1))
        return [Op(f"evolve#{i}", not bad[i], float(err[i])) for i in range(err.size)]

    def corruptions(self, v, ref):
        diag = v["diag"].copy()
        diag[7, 1] *= 1 + 1e-5
        off = v["offdiag"].copy()
        off[3] = 1e-6 * np.max(np.abs(ref["diag"][3]))
        return [
            ("T22 of query 7 off by 1e-5", "evolve#7", dict(v, diag=diag)),
            ("off-diagonal entry in query 3", "evolve#3", dict(v, offdiag=off)),
        ]


WORKLOADS = {w.name: w for w in (CertifyGrid(), LyapunovS(), CoupledSpectrum(), OffgridSession())}


def self_check(wl, v, ref):
    """Each corruption must flip its op's verdict: (label, caught) pairs."""
    results = []
    for entry in wl.corruptions(v, ref):
        label, op_name, bad = entry[:3]
        should_pass = len(entry) > 3 and entry[3]
        verdict = next(o for o in wl.check(bad, ref) if o.name == op_name).passed
        results.append((label, verdict == should_pass))
    return results
