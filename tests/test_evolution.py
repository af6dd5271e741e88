import math

import numpy as np
import pytest

from dichokit import evolution, spectrum
from dichokit.dichotomy import DichotomySpec, ProjectionFamily
from dichokit.errors import IntegrationError
from dichokit.evolution import EvolutionOperator, IntegratorConfig
from dichokit.growth import RateQuadruple, builtin
from dichokit.lyapfun import construct_S
from dichokit.system import (
    BlockSystem,
    CoefficientField,
    Example22Params,
    constant_field,
    make_example22,
)

RNG = np.random.default_rng(7)


def example22_pair(rel_tol=1e-9):
    field, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    return EvolutionOperator(field, IntegratorConfig(rel_tol=rel_tol)), analytic


def test_constant_diagonal_flow():
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    got = op.evolve(2.0, 0.0)
    assert np.allclose(got, np.diag([math.exp(-2.0), math.exp(2.0)]), rtol=1e-9)


def test_identity_at_equal_times():
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    assert np.array_equal(op.evolve(1.3, 1.3), np.eye(2))


def test_example22_matches_closed_form():
    op, analytic = example22_pair()
    got = op.evolve(3.0, 1.0)
    want = analytic(3.0, 1.0)
    assert np.linalg.norm(got - want, 2) <= 1e-7 * np.linalg.norm(want, 2)


def test_integration_failure_reports_the_time_reached():
    # x' = x / (1 - t)^2 has x = exp(1/(1 - t) - 1), which overflows well before t = 0.9999
    op = EvolutionOperator(CoefficientField(1, lambda t: np.array([[1.0 / (1.0 - t) ** 2]])))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as err:
        op.evolve(0.9999, 0.0)
    assert 0.99 <= err.value.time < 0.9999


def test_cocycle_identity_on_random_triples():
    op, _ = example22_pair()
    for _ in range(20):
        s, r, t = np.sort(RNG.uniform(-5, 5, size=3))
        whole = op.evolve(t, s)
        split = op.evolve(t, r) @ op.evolve(r, s)
        assert np.linalg.norm(whole - split, 2) <= 1e-7 * max(1e-30, np.linalg.norm(whole, 2))


def test_cocycle_identity_nonnormal_field():
    field = CoefficientField(2, lambda t: np.array([[-1.0, math.cos(t)], [0.0, 1.0]]))
    op = EvolutionOperator(field)
    for _ in range(10):
        s, r, t = np.sort(RNG.uniform(-4, 4, size=3))
        whole = op.evolve(t, s)
        split = op.evolve(t, r) @ op.evolve(r, s)
        assert np.linalg.norm(whole - split, 2) <= 1e-7 * np.linalg.norm(whole, 2)


def test_forward_backward_inverse_consistency():
    op, _ = example22_pair()
    for t, s in [(2.0, -1.0), (0.25, 3.75), (-4.5, -0.5)]:
        prod = op.evolve(t, s) @ op.evolve(s, t)
        assert np.linalg.norm(prod - np.eye(2), 2) <= 1e-7


def test_error_shrinks_with_tolerance():
    _, analytic = example22_pair()
    want = analytic(4.0, -2.0)
    errs = []
    for rtol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        op, _ = example22_pair(rel_tol=rtol)
        got = op.evolve(4.0, -2.0)
        errs.append(np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= 2.0 * coarse  # monotone within a factor-2 allowance
    assert errs[-1] < errs[0]


def test_dense_matrix_solution_accuracy():
    op, analytic = example22_pair()
    sol = op.matrix_solution(0.0, 3.0, np.eye(2))
    for v in (0.4, 1.1, 2.9):
        assert np.allclose(sol(v), analytic(v, 0.0), rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("a, b", [(-1.5, 1.5), (-1.0, 1.0), (1.5, -1.5), (-0.3, 2.7), (0.0, 2.0)])
def test_dense_solutions_across_the_jump_match_closed_form(a, b):
    # Example 2.2's field jumps at 0; each span is cut there like evolve's
    op, analytic = example22_pair()
    x = np.array([1.0, 1.0])
    orbit = op.vector_solution(a, b, x)
    cols = op.matrix_solution(a, b, np.eye(2))
    for v in np.linspace(a, b, 13):
        want = analytic(v, a)
        assert np.linalg.norm(orbit(v) - want @ x) <= 2e-9 * np.linalg.norm(want @ x)
        assert np.linalg.norm(cols(v) - want, 2) <= 2e-9 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("a, b", [(-1.5, 1.5), (1.5, -1.5)])
def test_dense_lookup_of_an_array_matches_one_time_at_a_time(a, b):
    # the lookup of an array makes one interpolant call per piece; the
    # per-time loop is the reference, knots (-1, 0, 1) and both ends included
    op, _ = example22_pair()
    x = np.array([1.0, 1.0])
    orbit = op.vector_solution(a, b, x)
    cols = op.matrix_solution(a, b, np.eye(2))
    vs = np.concatenate([np.linspace(a, b, 13), RNG.uniform(-1.5, 1.5, 20)])
    assert orbit(vs).shape == (vs.size, 2) and cols(vs).shape == (vs.size, 2, 2)
    assert np.array_equal(orbit(vs), [orbit(v) for v in vs])
    assert np.array_equal(cols(vs), [cols(v) for v in vs])
    with pytest.raises(ValueError):
        orbit(np.array([0.0, 1.6]))


def test_dense_stage_times_stay_on_their_side_of_the_jump():
    # an end a hair below the jump at 0: RK stage times that round onto or
    # past it must still see the field of t < 0
    op, analytic = example22_pair()
    x = np.array([1.0, 1.0])
    for end in (-1.6549270241938287e-36, -1e-20, 0.0):
        want = analytic(end, -1.0) @ x
        got = op.vector_solution(-1.0, end, x)(end)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("t, s", [(9.99, -9.023), (-9.174, 7.579), (-9.926, 8.371)])
def test_evolve_at_the_default_config_matches_closed_form(t, s):
    # the worst spans of 1,000 random off-lattice queries, each across the jump at 0
    field, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    got = EvolutionOperator(field, IntegratorConfig()).evolve(t, s)
    want = analytic(t, s)
    assert np.max(np.abs(np.diag(got) - np.diag(want)) / np.diag(want)) <= 1.5e-9
    assert got[0, 1] == got[1, 0] == 0.0


def test_every_solve_reaches_its_module_global_at_call_time(monkeypatch):
    # a tracer counts solves by rebinding these two globals; a solve_ivp bound
    # at definition time (a default argument, say) would escape it
    seen = []
    for module in (evolution, spectrum):

        def recording(*args, module=module, real=module.solve_ivp, **kwargs):
            seen.append((module.__name__, kwargs["method"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "solve_ivp", recording)
    exp = builtin("exp")
    diag = constant_field(np.diag([-1.0, 1.0]))
    block = BlockSystem(constant_field([[-1.0]]), constant_field([[1.0]]))
    spec = DichotomySpec(
        ProjectionFamily.constant(np.diag([1.0, 0.0])), RateQuadruple(exp, exp, exp, exp), K=1.0, a=-1.0, b=1.0, eps=0.0
    )
    calls = {
        "evolve": (evolution, lambda op: op.evolve(2.5, -1.5)),
        "matrix_solution": (evolution, lambda op: op.matrix_solution(-1.5, 2.5, np.eye(2))(0.5)),
        "construct_S": (evolution, lambda op: construct_S(spec, op, 0.5, [0.0, 1.0])),
        "spectrum": (spectrum, lambda op: spectrum.spectrum(block, exp, exp)),
    }
    methods = set()
    for name, (module, call) in calls.items():
        seen.clear()
        call(EvolutionOperator(diag))
        assert seen and {m for m, _ in seen} == {module.__name__}, name
        methods |= {method for _, method in seen}
    assert len(methods) == 1


def test_config_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(checkpoint_spacing=-1.0)


def test_cache_report_counts_segments():
    op, _ = example22_pair()
    op.evolve(2.0, -2.0)
    rep = op.cache_report()
    assert rep["segments"] >= 4 and rep["worst_condition"] >= 1.0


@pytest.mark.parametrize("c", [10.0, 2e4, 1e5])
def test_jump_at_checkpoint_sees_one_sided_limits(c):
    # A = -1 before the jump at c and +1 from it on, so T(c + 1/2, c - 1/2) = 1
    # exactly; a relative endpoint nudge rounds back onto c once |c| is large
    field = CoefficientField(1, lambda t: np.array([[-1.0 if t < c else 1.0]]))
    op = EvolutionOperator(field, IntegratorConfig(checkpoint_spacing=c))
    got = op.evolve(c + 0.5, c - 0.5)[0, 0]
    assert abs(got - 1.0) <= 1e-9


def test_times_within_round_off_of_a_checkpoint_count_as_on_it():
    # 0.3 / 0.1 is 2.9999999999999996: taken literally, the span would start
    # with a piece 5.6e-17 long, up to the checkpoint 3 * 0.1
    op = EvolutionOperator(constant_field([[1.0]]), IntegratorConfig(checkpoint_spacing=0.1))
    assert [round(lo, 12) for lo, _ in op._pieces(0.3, 0.7)] == [0.3, 0.4, 0.5, 0.6]
    assert [round(lo, 12) for lo, _ in op._pieces(0.7, 0.3)] == [0.7, 0.6, 0.5, 0.4]


def test_evolve_pairs_memory_is_linear_in_times():
    # N unique times, one pair per adjacent pair plus the longest span: the
    # sweep may hold O(N n^2) working state, never the N^2 n^2 of a full table
    import tracemalloc

    n_times = 300
    u = np.linspace(0.0, 3.0, n_times)
    t = np.append(u[1:], u[-1])
    s = np.append(u[:-1], u[0])
    op = EvolutionOperator(constant_field([[-1.0, 3.0], [0.5, 1.0]]))
    op.evolve_pairs(t, s)  # fill the segment cache, which is O(N) on its own
    tracemalloc.start()
    try:
        op.evolve_pairs(t, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full_table = n_times**2 * 2 * 2 * 8
    assert peak < full_table / 10
