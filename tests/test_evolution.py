import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

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
    # past it must still see the field of t < 0; an end a hair above it
    # makes 0 a knot, so no piece integrates across the jump
    op, analytic = example22_pair()
    x = np.array([1.0, 1.0])
    for end in (-1.6549270241938287e-36, -1e-20, 0.0, 1e-300):
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
    op = EvolutionOperator(field)
    assert op._pieces(c - 0.5, c + 0.5) == [(c - 0.5, c), (c, c + 0.5)]
    got = op.evolve(c + 0.5, c - 0.5)[0, 0]
    assert abs(got - 1.0) <= 1e-9


def test_a_cell_whose_transition_overflows_raises_naming_it():
    # the end c + 1/2 lies in the cell [c, 2c], which is integrated end to
    # end; with A = +1 there its transition is e^{2e4}, past the largest double
    c = 2e4
    field = CoefficientField(1, lambda t: np.array([[-1.0 if t < c else 1.0]]))
    op = EvolutionOperator(field, IntegratorConfig(checkpoint_spacing=c))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError, match=r"\[20000.0, 40000.0\]"):
        op.evolve(c + 0.5, c - 0.5)


def test_every_checkpoint_strictly_inside_a_span_is_a_knot():
    # 3 * 0.1 is 0.30000000000000004 and 7 * 0.1 is 0.7000000000000001:
    # the first lies inside (0.3, 0.7) and is a knot, the second does not
    op = EvolutionOperator(constant_field([[1.0]]), IntegratorConfig(checkpoint_spacing=0.1))
    checkpoints = [i * 0.1 for i in range(10)]
    for a, b in ((0.3, 0.7), (0.7, 0.3)):
        pieces = op._pieces(a, b)
        assert pieces[0][0] == a and pieces[-1][1] == b
        assert all(q == p for (_, q), (p, _) in zip(pieces, pieces[1:]))
        assert all((q - p) * (b - a) > 0 for p, q in pieces)
        assert not any(min(p, q) < c < max(p, q) for p, q in pieces for c in checkpoints)
        assert {c for p, q in pieces for c in (p, q)} == {a, b} | {c for c in checkpoints if 0.3 < c < 0.7}
    # the tables are keyed by whole cells, every end a checkpoint i * 0.1
    op.evolve(0.7, 0.3)
    assert list(op._cache) == [(2 * 0.1, 3 * 0.1, True)] + [(i * 0.1, (i + 1) * 0.1, False) for i in range(3, 7)]
    # an end a hair past a checkpoint costs no backward sliver, and no solve
    # that ends at it is cached
    op = EvolutionOperator(constant_field([[1.0]]))
    op.evolve(3.0, 1e-10)
    assert list(op._cache) == [(0.0, 1.0, True), (1.0, 2.0, False), (2.0, 3.0, False)]


@pytest.mark.parametrize("t, s", [(0.5, 0.25), (1.0, 0.0), (2.5, 0.5)])
def test_writing_into_an_evolve_result_leaves_the_cache_intact(t, s):
    op = EvolutionOperator(constant_field([[-1.0]]))
    op.evolve(t, s)[0, 0] = 7.0
    assert op.evolve(t, s)[0, 0] == pytest.approx(math.exp(s - t), rel=1e-9)


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


def test_the_cache_is_bounded_by_the_cells_touched():
    # at most four step tables per cell of [-4, 4], plus one cached solve per
    # query inside one cell
    op, _ = example22_pair()
    rng = np.random.default_rng(14)
    queries = rng.uniform(-4.0, 4.0, size=(2000, 2)).tolist()
    single = {(s, t) for t, s in queries if not op._knots(s, t)}
    for t, s in queries:
        op.evolve(t, s)
    assert op.cache_report()["segments"] <= 4 * 8 + len(single)


NONNORMAL = np.array([[-1.0, 3.0], [0.5, 1.0]])


def nonnormal_setup():
    def rel(got, want):
        return np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)

    return constant_field(NONNORMAL), lambda t, s: expm(NONNORMAL * (t - s)), rel


def example22_setup():
    field, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0))

    def rel(got, want):
        assert got[0, 1] == got[1, 0] == 0.0
        return np.max(np.abs(np.diag(got) - np.diag(want)) / np.diag(want))

    return field, analytic, rel


def assert_matches_fresh_pieces(op, t, s, exact, rel):
    """evolve(t, s) against the product of fresh solves over _pieces(s, t), and the exact value."""
    n = op.field.dim
    got = op.evolve(t, s)
    if t == s:
        assert np.array_equal(got, np.eye(n))
        return
    fresh = EvolutionOperator(op.field, op.config)
    want = np.eye(n)
    for p, q in fresh._pieces(s, t):
        want = fresh._integrate_matrix(p, q, np.eye(n)).y[:, -1].reshape(n, n) @ want
    assert rel(got, want) <= 1e-9
    assert rel(got, exact(t, s)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(setup=st.sampled_from([nonnormal_setup, example22_setup]), spacing=st.sampled_from([1.0, 0.1]), data=st.data())
def test_tables_match_fresh_piece_solves(setup, spacing, data):
    # ends anywhere, on checkpoints, one ulp off one, or on a step time of
    # the table that serves them; both orientations
    field, exact, rel = setup()
    op = EvolutionOperator(field, IntegratorConfig(checkpoint_spacing=spacing))
    index = st.integers(round(-3 / spacing), round(3 / spacing))
    end = st.one_of(
        st.floats(-3.0, 3.0),
        index.map(lambda i: i * spacing),
        st.tuples(index, st.sampled_from([-math.inf, math.inf])).map(lambda x: math.nextafter(x[0] * spacing, x[1])),
    )
    t, s = data.draw(end), data.draw(end)
    knots = op._knots(s, t)
    if knots and data.draw(st.booleans(), label="ends on step times"):
        op.evolve(t, s)
        step = 1 if t > s else -1
        near = op._cache.get(((knots[0] - step) * spacing, knots[0] * spacing, True))
        far = op._cache[(knots[-1] * spacing, (knots[-1] + step) * spacing, False)]
        # a step time strictly inside the cell keeps the knots of the span
        if near is not None and near[0].size > 2:
            s = data.draw(st.sampled_from(near[0][1:-1].tolist()))
        if far[0].size > 2:
            t = data.draw(st.sampled_from(far[0][1:-1].tolist()))
    assert_matches_fresh_pieces(op, t, s, exact, rel)


@pytest.mark.parametrize("setup", [nonnormal_setup, example22_setup])
@pytest.mark.parametrize("t, s", [(0.7, 0.3), (0.3, 0.7)])
def test_tables_match_fresh_piece_solves_one_ulp_off_a_checkpoint(setup, t, s):
    # 3 * 0.1 and 7 * 0.1 miss 0.3 and 0.7 by one ulp, so the span has an
    # end piece one ulp long at one end and one ulp short of a cell at the other
    field, exact, rel = setup()
    op = EvolutionOperator(field, IntegratorConfig(checkpoint_spacing=0.1))
    assert_matches_fresh_pieces(op, t, s, exact, rel)


def test_a_multi_cell_evolve_over_built_tables_makes_one_paired_one_step_solve(monkeypatch):
    # once the tables of the touched cells exist, both end pieces of a query
    # share one solve on one clock whose first trial step is the clock's whole
    # length: one DOP853 step is 13 right-hand sides, each evaluating the
    # field at both pieces, so about 26 field evaluations per query
    field, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    evals = [0]

    def counting(t, ev=field.eval):
        evals[0] += 1
        return ev(t)

    op = EvolutionOperator(CoefficientField(field.dim, counting, field.domain))
    rng = np.random.default_rng(1414)
    queries = [q for q in rng.uniform(-10.0, 10.0, size=(240, 2)).tolist() if op._knots(q[1], q[0])][:200]
    assert len(queries) == 200
    for t, s in queries:
        op.evolve(t, s)
    seen = []

    def recording(rhs, span, y0, *args, real=evolution.solve_ivp, **kwargs):
        sol = real(rhs, span, y0, *args, **kwargs)
        seen.append((span, kwargs["first_step"], len(y0) // 4))
        return sol

    monkeypatch.setattr(evolution, "solve_ivp", recording)
    evals[0] = 0
    for t, s in queries:
        seen.clear()
        op.evolve(t, s)
        [(span, first, pieces)] = seen
        assert span == (0.0, first) and pieces == 2
    assert evals[0] <= 30 * len(queries)
    near, far = op._cache[(-1.0, 0.0, True)][0], op._cache[(2.0, 3.0, False)][0]
    # an end on a step time of its table, or on a checkpoint, needs no piece
    for t, s in ((far[1], -0.37), (2.5, -1.0), (2.5, near[1])):
        op.evolve(t, s)  # builds any table the end reads
        seen.clear()
        op.evolve(t, s)
        [(span, first, pieces)] = seen
        assert span == (0.0, first) and pieces == 1
    # both ends on step times need no solve at all
    seen.clear()
    op.evolve(far[1], near[1])
    assert seen == []


def test_a_nan_inside_an_end_piece_raises_naming_its_time():
    # the tables of the span are built clean; then the field turns NaN on the
    # far end piece (v, t) alone, which only the paired solve evaluates
    poisoned = []

    def ev(t):
        return np.array([[math.nan if poisoned and poisoned[0] < t < poisoned[1] else -1.0]])

    op = EvolutionOperator(CoefficientField(1, ev))
    t, s = 2.5, 0.5
    op.evolve(t, s)
    times = op._cache[(2.0, 3.0, False)][0]
    v = times[np.count_nonzero(times <= t) - 1]
    assert v < t
    poisoned[:] = [v, t]
    with pytest.raises(ValueError, match="non-finite entries") as err:
        op.evolve(t, s)
    assert v < float(str(err.value).rpartition("t=")[2]) < t


@pytest.mark.parametrize("t, s", [(0.0, -5e-324), (5e-324, 0.0), (-5e-324, 0.0), (0.0, 5e-324)])
def test_a_subnormal_span_takes_one_step_without_a_warning(t, s):
    # the solver's own first-step guess divides by the span and overflows
    op, _ = example22_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = op.evolve(t, s)
    assert np.array_equal(got, np.eye(2))
    assert op._cache[(s, t, False)][0].size == 2
