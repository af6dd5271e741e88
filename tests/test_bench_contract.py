"""One pass of each benchmark workload against its reference.

The benchmark's workloads (bench/workloads.py) check every top-level call
against an independent reference; this test runs one pass of every workload
so that a change to the package cannot silently break those checks.  Ops the
workload flags as a known defect are exempt, as they are in the benchmark.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import pytest  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pass_meets_its_references(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(11)
    ref = wl.reference(inputs)
    values = wl.values(wl.run(inputs, lambda fn, *args, **kwargs: fn(*args, **kwargs)))
    failed = [op for op in wl.check(values, ref) if not op.passed and not op.known_defect]
    assert failed == []
    missed = [label for label, caught in workloads.self_check(wl, values, ref) if not caught]
    assert missed == []


def test_the_traced_example_field_stays_vectorized():
    # traced passes wrap eval through dataclasses.replace, which must keep the
    # flag, so they run the batched read of the clocked end-piece solve too
    import spans

    tracer = spans.Tracer()
    field, _ = workloads._ex22(tracer.field)
    assert field.vectorized
    assert field.stack([0.5, -1.5]).shape == (2, 2, 2)
    assert tracer.spans[("system.field_eval", "-")][0] == 1


# the spans each workload's traced pass reaches; the tracer rebinds names
# and counts nothing, without an error, once dichokit stops calling one
REACHED = {
    "certify-grid": {
        "dichotomy.verify", "dichotomy.estimate_constants", "dichotomy.check_projection",
        "evolution.evolve", "evolution.solve_ivp", "system.field_eval",
    },
    "lyapunov-S": {
        "lyapfun.construct_S", "lyapfun.derivative_condition", "lyapfun.classify", "lyapfun.quad_vec",
        "lyapfun.spectral_norm", "tails.time_for_log_decrease", "tails.time_backward_for_log_drop",
        "evolution.solve_ivp", "system.field_eval",
    },
    "coupled-spectrum": {
        "spectrum.spectrum", "spectrum.regularity", "spectrum.dichotomy_from_spectrum", "spectrum.solve_ivp",
        "dichotomy.verify", "evolution.evolve", "evolution.solve_ivp", "system.field_eval",
    },
    "offgrid-session": {"evolution.evolve", "evolution.solve_ivp", "system.field_eval"},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_traced_pass_reaches_every_span_of_its_pipeline(name):
    import spans

    wl, tracer = workloads.WORKLOADS[name], spans.Tracer()
    inputs = wl.build(11, wrap=tracer.field)
    with tracer.installed():
        out = wl.run(inputs, lambda fn, *args, **kwargs: fn(*args, **kwargs))
    assert REACHED[name] <= {span for span, _ in tracer.spans}
    if name == "certify-grid":
        # the pair table reads T through evolve, called from the first check
        assert ("evolution.evolve", "dichotomy.verify") in tracer.spans
    if name == "lyapunov-S":
        # the construct_S sweeps solve through evolution's solve_ivp, densely
        assert ("evolution.solve_ivp", "lyapfun.construct_S") in tracer.spans
        assert tracer.metrics(out.op)["lyapfun.dense_solves"] > 0
