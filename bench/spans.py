"""Spans and counts at dichokit's layer boundaries, for the traced run.

Tracing rebinds module attributes (the SciPy entry points dichokit imports,
its public callables, ``EvolutionOperator.evolve`` and ``GrowthRate.log_u``)
and wraps the ``eval`` of every coefficient field the benchmark builds.  A
span is recorded in aggregate: per (name, parent name) the call count, the
total time and the self time (total minus the time of child spans).
``kernels`` has no callers in dichokit, so nothing of it is traced.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from dichokit import dichotomy, evolution, growth, lyapfun, spectrum

# (module, attribute, span name); callables reached through these attributes
# at call time, by dichokit itself or by the benchmark's pipelines
SPANNED = [
    (evolution, "solve_ivp", "evolution.solve_ivp"),
    (spectrum, "solve_ivp", "spectrum.solve_ivp"),
    (lyapfun, "quad_vec", "lyapfun.quad_vec"),
    (dichotomy, "spectral_norm", "dichotomy.spectral_norm"),
    (lyapfun, "spectral_norm", "lyapfun.spectral_norm"),
    (lyapfun, "time_for_log_decrease", "tails.time_for_log_decrease"),
    (lyapfun, "time_backward_for_log_drop", "tails.time_backward_for_log_drop"),
    (evolution.EvolutionOperator, "evolve", "evolution.evolve"),
    (dichotomy, "verify", "dichotomy.verify"),
    (dichotomy, "estimate_constants", "dichotomy.estimate_constants"),
    (dichotomy, "check_projection", "dichotomy.check_projection"),
    (lyapfun, "construct_S", "lyapfun.construct_S"),
    (lyapfun, "derivative_condition", "lyapfun.derivative_condition"),
    (lyapfun, "classify", "lyapfun.classify"),
    (spectrum, "spectrum", "spectrum.spectrum"),
    (spectrum, "regularity", "spectrum.regularity"),
    (spectrum, "dichotomy_from_spectrum", "spectrum.dichotomy_from_spectrum"),
    (spectrum, "lyapunov_exponent", "spectrum.lyapunov_exponent"),
]

# grid argument position of the pair-grid checks, for pairs_per_s
GRID_ARG = {"dichotomy.verify": 2, "dichotomy.estimate_constants": 3, "dichotomy.check_projection": 2}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []  # open frames: [name, child seconds, started an integration]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.counts = Counter()
        self.max_window_spread = 0.0

    def span(self, name, fn):
        def traced(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                rec = self.spans[(name, parent[0] if parent else "-")]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if parent:
                    parent[1] += dur
            self._observe(name, args, kwargs, result, frame, parent)
            return result

        return traced

    def _observe(self, name, args, kwargs, result, frame, parent):
        c = self.counts
        if name == "evolution.solve_ivp":
            c["evolution.nfev"] += result.nfev
            c["evolution.rk_steps"] += result.t.size - 1
            if kwargs.get("dense_output"):
                c["lyapfun.dense_solves"] += 1
            if parent and parent[0] == "evolution.evolve":
                parent[2] = True
        elif name == "spectrum.solve_ivp":
            # t_eval hides the step times; RK45 costs 2 + 6 * (attempted steps) evaluations
            c["spectrum.rk_steps"] += (result.nfev - 2) // 6
        elif name == "evolution.evolve" and not frame[2]:
            c["evolution.evolve.cached"] += 1
        elif name.startswith("tails."):
            c["tails.cutoff_span"] += abs(result - args[1])
        elif name == "lyapfun.construct_S":
            c["lyapfun.construct_S.points"] += len(args[3])
        elif name in GRID_ARG:
            c["dichotomy.pairs"] += len(args[GRID_ARG[name]])
        elif name == "spectrum.spectrum":
            traces = [t for ts in result.traces.values() for t in ts]
            self.max_window_spread = max([self.max_window_spread] + [t.spread for t in traces])

    def counted(self, key, fn):
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def field(self, fn):
        """Wrapper for a coefficient field's eval callable."""
        return self.span("system.field_eval", fn)

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in SPANNED]
        saved.append((growth.GrowthRate, "log_u", growth.GrowthRate.log_u))
        try:
            for owner, attr, name in SPANNED:
                fn = getattr(owner, attr)
                if name == "lyapfun.quad_vec":
                    fn = self._quad_vec(fn)
                setattr(owner, attr, self.span(name, fn))
            growth.GrowthRate.log_u = self.counted("growth.log_u.calls", growth.GrowthRate.log_u)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _quad_vec(self, quad_vec):
        def counted_quad_vec(f, *args, **kwargs):
            return quad_vec(self.counted("lyapfun.quad_vec.integrand_evals", f), *args, **kwargs)

        return counted_quad_vec

    # -- per-layer metrics ----------------------------------------------------

    def _by_name(self, name):
        calls = total = self_s = 0.0
        for (n, _), (k, tot, slf) in self.spans.items():
            if n == name:
                calls, total, self_s = calls + k, total + tot, self_s + slf
        return int(calls), total, self_s

    def metrics(self, op):
        """Per-layer metrics of one traced pass; op is the pass's operator."""
        c = self.counts
        field_n, field_s, _ = self._by_name("system.field_eval")
        integ_n, integ_s, _ = self._by_name("evolution.solve_ivp")
        evolve_n, _, evolve_self = self._by_name("evolution.evolve")
        pair_s = sum(self._by_name(n)[1] for n in GRID_ARG)
        cut_n = self._by_name("tails.time_for_log_decrease")[0] + self._by_name("tails.time_backward_for_log_drop")[0]
        cs_n, cs_s, _ = self._by_name("lyapfun.construct_S")
        return {
            "system.field_evals": field_n,
            "system.field_call_s": field_s,
            "evolution.integrations": integ_n,
            "evolution.rk_steps": c["evolution.rk_steps"],
            "evolution.nfev": c["evolution.nfev"],
            "evolution.integrate_s": integ_s,
            "evolution.evolve.calls": evolve_n,
            "evolution.evolve.self_s": evolve_self,
            "evolution.evolve.cached_frac": c["evolution.evolve.cached"] / evolve_n if evolve_n else 0.0,
            "evolution.cache_segments": op.cache_report()["segments"],
            "dichotomy.verify.self_s": self._by_name("dichotomy.verify")[2],
            "dichotomy.estimate_constants.self_s": self._by_name("dichotomy.estimate_constants")[2],
            "dichotomy.check_projection.self_s": self._by_name("dichotomy.check_projection")[2],
            "dichotomy.spectral_norm.calls": self._by_name("dichotomy.spectral_norm")[0],
            "dichotomy.pairs_per_s": c["dichotomy.pairs"] / pair_s if pair_s else 0.0,
            "growth.log_u.calls": c["growth.log_u.calls"],
            "tails.cutoff_calls": cut_n,
            "tails.cutoff_span_mean": c["tails.cutoff_span"] / cut_n if cut_n else 0.0,
            "lyapfun.construct_S.s_per_point": cs_s / c["lyapfun.construct_S.points"] if cs_n else 0.0,
            "lyapfun.dense_solves": c["lyapfun.dense_solves"],
            "lyapfun.quad_vec.calls": self._by_name("lyapfun.quad_vec")[0],
            "lyapfun.quad_vec.integrand_evals": c["lyapfun.quad_vec.integrand_evals"],
            "lyapfun.derivative_condition.s": self._by_name("lyapfun.derivative_condition")[1],
            "lyapfun.classify.s": self._by_name("lyapfun.classify")[1],
            "spectrum.spectrum.s": self._by_name("spectrum.spectrum")[1],
            "spectrum.regularity.s": self._by_name("spectrum.regularity")[1],
            "spectrum.lyapunov_exponent.calls": self._by_name("spectrum.lyapunov_exponent")[0],
            "spectrum.rk_steps": c["spectrum.rk_steps"],
            "spectrum.max_window_spread": self.max_window_spread,
        }


# per-layer metric -> unit; EXACT ones count work and must repeat exactly
UNITS = {
    "system.field_evals": "count",
    "system.field_call_s": "s",
    "evolution.integrations": "count",
    "evolution.rk_steps": "count",
    "evolution.nfev": "count",
    "evolution.integrate_s": "s",
    "evolution.evolve.calls": "count",
    "evolution.evolve.self_s": "s",
    "evolution.evolve.cached_frac": "1",
    "evolution.cache_segments": "count",
    "dichotomy.verify.self_s": "s",
    "dichotomy.estimate_constants.self_s": "s",
    "dichotomy.check_projection.self_s": "s",
    "dichotomy.spectral_norm.calls": "count",
    "dichotomy.pairs_per_s": "1/s",
    "growth.log_u.calls": "count",
    "tails.cutoff_calls": "count",
    "tails.cutoff_span_mean": "t",
    "lyapfun.construct_S.s_per_point": "s",
    "lyapfun.dense_solves": "count",
    "lyapfun.quad_vec.calls": "count",
    "lyapfun.quad_vec.integrand_evals": "count",
    "lyapfun.derivative_condition.s": "s",
    "lyapfun.classify.s": "s",
    "spectrum.spectrum.s": "s",
    "spectrum.regularity.s": "s",
    "spectrum.lyapunov_exponent.calls": "count",
    "spectrum.rk_steps": "count",
    "spectrum.max_window_spread": "1",
}
EXACT = {k for k, u in UNITS.items() if u == "count"} | {"evolution.evolve.cached_frac"}
