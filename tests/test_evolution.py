import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dichokit import evolution, spectrum
from dichokit.dichotomy import DichotomySpec
from dichokit.errors import IntegrationError
from dichokit.evolution import EvolutionOperator, _inward
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


def example22_pair():
    field, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    return EvolutionOperator(field), analytic


def test_constant_diagonal_flow():
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    got = op.evolve(2.0, 0.0)
    assert np.allclose(got, np.diag([math.exp(-2.0), math.exp(2.0)]), rtol=1e-9)


def test_identity_at_equal_times():
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    assert np.array_equal(op.evolve(1.3, 1.3), np.eye(2))
    m0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    solution = op.matrix_solution(1.3, 1.3, m0)
    assert np.array_equal(solution(1.3), m0) and np.array_equal(solution(np.array([1.3, 1.3])), [m0, m0])
    for outside in (5.0, math.nan):
        with pytest.raises(ValueError, match=f"time {outside} outside the solved span"):
            solution(outside)


def test_evolve_pairs_rejects_t_and_s_of_different_sizes():
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    with pytest.raises(ValueError, match="need as many t as s, got 2 and 1"):
        op.evolve([0.0, 1.0], [0.0])


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


def test_error_shrinks_with_tolerance(monkeypatch):
    _, analytic = example22_pair()
    want = analytic(4.0, -2.0)
    errs = []
    for rtol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        monkeypatch.setattr(evolution, "RTOL", rtol)
        op, _ = example22_pair()
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
    orbit = op.matrix_solution(a, b, x)
    cols = op.matrix_solution(a, b, np.eye(2))
    for v in np.linspace(a, b, 13):
        want = analytic(v, a)
        assert np.linalg.norm(orbit(v) - want @ x) <= 2e-9 * np.linalg.norm(want @ x)
        assert np.linalg.norm(cols(v) - want, 2) <= 2e-9 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("a, b", [(-1.5, 1.5), (1.5, -1.5)])
def test_dense_lookup_of_an_array_matches_one_time_at_a_time(a, b):
    # the lookup of an array makes one interpolant call for all pieces; the
    # per-time loop is the reference, knots (-1, 0, 1) and both ends included
    op, _ = example22_pair()
    x = np.array([1.0, 1.0])
    orbit = op.matrix_solution(a, b, x)
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
        got = op.matrix_solution(-1.0, end, x)(end)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("t, s", [(9.99, -9.023), (-9.174, 7.579), (-9.926, 8.371)])
def test_evolve_at_the_default_config_matches_closed_form(t, s):
    # the worst spans of 1,000 random off-lattice queries, each across the jump at 0
    field, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    got = EvolutionOperator(field).evolve(t, s)
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
        lambda t: np.diag([1.0, 0.0]), RateQuadruple(exp, exp, exp, exp), K=1.0, a=-1.0, b=1.0, eps=0.0
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


def test_the_operator_rejects_a_spacing_that_is_not_positive_and_finite():
    # a NaN spacing used to fail at the first evolve; an infinite one removed
    # the lattice, so the jump of Example 2.2 at 0 was integrated across
    field, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    for spacing in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"spacing must be positive and finite, got {spacing}"):
            EvolutionOperator(field, checkpoint_spacing=spacing)


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
    op = EvolutionOperator(field, checkpoint_spacing=c)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError, match=r"\[20000.0, 40000.0\]"):
        op.evolve(c + 0.5, c - 0.5)


def test_every_checkpoint_strictly_inside_a_span_is_a_knot():
    # 3 * 0.1 is 0.30000000000000004 and 7 * 0.1 is 0.7000000000000001:
    # the first lies inside (0.3, 0.7) and is a knot, the second does not
    op = EvolutionOperator(constant_field([[1.0]]), checkpoint_spacing=0.1)
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
    # N unique times, one pair per adjacent pair plus the longest span: a
    # sweep, its batched solve included, holds O(N n^2) working state, never
    # the N^2 n^2 of a full table
    import tracemalloc

    def peak(n_times):
        u = np.linspace(0.0, 3.0, n_times)
        t, s = np.append(u[1:], u[-1]), np.append(u[:-1], u[0])
        op = EvolutionOperator(constant_field([[-1.0, 3.0], [0.5, 1.0]]))
        op.evolve(t, s)  # so that allocations made once per process fall outside the measure
        tracemalloc.start()
        try:
            op.evolve(t[::-1], s[::-1])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n_times = 300
    small, large = peak(n_times), peak(4 * n_times)
    # from N to 4N times a full table grows 16 times, a linear sweep 4 times
    assert large < 8 * small
    assert large < (4 * n_times) ** 2 * 2 * 2 * 8 / 10


def test_the_cache_is_bounded_by_the_cells_touched():
    # at most four step tables per cell of [-4, 4]; a query inside one cell
    # is an uncached solve
    op, _ = example22_pair()
    rng = np.random.default_rng(14)
    for t, s in rng.uniform(-4.0, 4.0, size=(2000, 2)).tolist():
        op.evolve(t, s)
    assert op.cache_report()["segments"] <= 4 * 8


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
    fresh = EvolutionOperator(op.field, op.checkpoint_spacing)
    want = np.eye(n)
    for p, q in fresh._pieces(s, t):
        want = fresh._segment(p, q) @ want
    assert rel(got, want) <= 1e-9
    assert rel(got, exact(t, s)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(setup=st.sampled_from([nonnormal_setup, example22_setup]), spacing=st.sampled_from([1.0, 0.1]), data=st.data())
def test_tables_match_fresh_piece_solves(setup, spacing, data):
    # ends anywhere, on checkpoints, one ulp off one, or on a step time of
    # the table that serves them; both orientations
    field, exact, rel = setup()
    op = EvolutionOperator(field, checkpoint_spacing=spacing)
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
    op = EvolutionOperator(field, checkpoint_spacing=0.1)
    assert_matches_fresh_pieces(op, t, s, exact, rel)


def recorded_pieces(monkeypatch):
    """The piece count of every solve the evolution module makes, as a list that grows."""
    pieces = []

    def recording(rhs, span, y0, *args, real=evolution.solve_ivp, **kwargs):
        pieces.append(len(y0) // 4)
        return real(rhs, span, y0, *args, **kwargs)

    monkeypatch.setattr(evolution, "solve_ivp", recording)
    return pieces


def test_a_pair_sweep_solves_its_within_cell_steps_once_per_direction(monkeypatch):
    # nine steps inside the cell [0, 1]: one solve of nine pieces forward and
    # one backward, again on every call, which gives the same stack
    op = EvolutionOperator(constant_field(NONNORMAL))
    pieces = recorded_pieces(monkeypatch)
    u = np.linspace(0.05, 0.95, 10)
    t, s = (v.ravel() for v in np.meshgrid(u, u))
    table = op.evolve(t, s)
    assert pieces == [9, 9]
    pieces.clear()
    assert np.array_equal(op.evolve(s, t), table.reshape(10, 10, 2, 2).transpose(1, 0, 2, 3).reshape(-1, 2, 2))
    assert pieces == [9, 9] and op._cache == {}


def test_a_pair_sweep_batches_whole_cells_and_leaves_steps_across_knots_to_evolve(monkeypatch):
    # (1, 2) is a whole cell, batched with the three other steps that have no
    # knot inside; (2.5, 3.7) crosses the knot 3 and is one evolve, whose two
    # cell tables and end pieces are the only other solves, and the only cache
    u = [0.0, 0.5, 1.0, 2.0, 2.5, 3.7]
    op = EvolutionOperator(constant_field(NONNORMAL))
    pieces = recorded_pieces(monkeypatch)
    steps = op.evolve(u[1:], u[:-1])
    assert pieces == [4, 1, 1, 2]
    assert list(op._cache) == [(2.0, 3.0, True), (3.0, 4.0, False)]
    assert np.array_equal(steps[-1], EvolutionOperator(op.field).evolve(3.7, 2.5))


@settings(max_examples=40, deadline=None)
@given(
    setup=st.sampled_from([nonnormal_setup, example22_setup]),
    spacing=st.sampled_from([1.0, 0.1]),
    times=st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.integers(-30, 30).map(lambda i: i * 0.1), st.floats(-1e-3, 1e-3)),
        min_size=2,
        max_size=40,
        unique=True,
    ),
)
def test_batched_steps_match_fresh_per_step_solves(setup, spacing, times):
    # steps from ulps to a whole cell long, on a constant non-normal field and
    # on Example 2.2's time-varying one.  Both solves keep each local error
    # within RTOL in their own norm, but the batched solve's RMS norm pools its
    # pieces, so one piece may reach sqrt(pieces) RTOL: the two differ by at
    # most (sqrt(pieces) + 1) RTOL relative
    field, _, rel = setup()
    op = EvolutionOperator(field, spacing)
    u = np.unique(times)
    t, s = (v.ravel() for v in np.meshgrid(u, u))
    table = op.evolve(t, s)
    fresh = EvolutionOperator(field, spacing)
    for p, q in ((u[:-1], u[1:]), (u[1:], u[:-1])):
        # the pairs (q_j, p_j) of one orientation end after one step each, so
        # they read the steps of one sweep: batched when no knot lies inside
        steps = op.evolve(q, p)
        batched = [not op._knots(a, b) for a, b in zip(p.tolist(), q.tolist())]
        for a, b, step, inside in zip(p.tolist(), q.tolist(), steps, batched):
            if inside:
                assert rel(step, fresh.evolve(b, a)) <= (math.sqrt(sum(batched)) + 1) * evolution.RTOL
            else:
                assert np.array_equal(step, fresh.evolve(b, a))
    for k in range(t.size):
        assert rel(table[k], op.evolve(t[k], s[k])) <= 1e-9 if t[k] != s[k] else np.array_equal(table[k], np.eye(2))


def test_a_pair_sweep_does_not_depend_on_earlier_queries():
    # no batched step is cached, and a cell table is the same solve whichever
    # query builds it; earlier scalar queries over steps of the sweep, some
    # inside one cell, and earlier array queries leave the stack bitwise as is
    field, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    rng = np.random.default_rng(29)
    t, s = rng.uniform(-3.0, 3.0, size=(2, 40))
    used = EvolutionOperator(field)
    u = np.unique(np.concatenate([t, s]))
    for p, q in zip(u[:-1:3].tolist(), u[1::3].tolist()):
        used.evolve(q, p)
    for a, b in rng.uniform(-3.0, 3.0, size=(20, 2)).tolist():
        used.evolve(a, b)
    used.evolve(s[:25], t[5:30])
    used.evolve(t[:10].tolist(), s[:10].tolist())
    assert np.array_equal(used.evolve(t, s), EvolutionOperator(field).evolve(t, s))


def test_writing_into_a_pair_result_leaves_later_calls_intact():
    op, _ = example22_pair()
    t, s = np.array([0.5, 2.25, -1.0, 0.5]), np.array([-0.75, 0.5, 2.25, 0.5])
    first = op.evolve(t, s)
    want = first.copy()
    first[:] = 7.0
    again = op.evolve(t.tolist(), s.tolist())
    assert again is not first and np.array_equal(again, want)


def test_a_multi_cell_evolve_over_built_tables_makes_one_clocked_one_step_solve(monkeypatch):
    # once the tables of the touched cells exist, both end pieces of a query
    # share one solve on one clock whose first trial step is the clock's whole
    # length; a step of that length reads the field at the 12 nodes of the
    # DOP853 tableau for both pieces, all before the solve: 24 scalar
    # evaluations, or one call of a vectorized eval
    field, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    times_read = []

    def counting(t, ev=field.eval):
        times_read.append(np.size(t))
        return ev(t)

    knots = EvolutionOperator(field)._knots
    rng = np.random.default_rng(1414)
    queries = [q for q in rng.uniform(-10.0, 10.0, size=(240, 2)).tolist() if knots(q[1], q[0])][:200]
    assert len(queries) == 200
    seen = []

    def recording(rhs, span, y0, *args, real=evolution.solve_ivp, **kwargs):
        sol = real(rhs, span, y0, *args, **kwargs)
        seen.append((span, kwargs["first_step"], len(y0) // 4, sol.t.size - 1))
        return sol

    monkeypatch.setattr(evolution, "solve_ivp", recording)
    for vectorized in (False, True):
        op = EvolutionOperator(replace(field, eval=counting, vectorized=vectorized))
        for t, s in queries:
            op.evolve(t, s)
        one_step, total = 0, 0
        for t, s in queries:
            seen.clear()
            times_read.clear()
            op.evolve(t, s)
            [(span, first, pieces, steps)] = seen
            assert span == (0.0, first) and pieces == 2
            total += sum(times_read)
            if steps == 1:
                one_step += 1
                assert times_read == ([24] if vectorized else [1] * 24)
        assert one_step >= 195
        # a query that takes more steps stays bounded too, counted in times read
        assert total <= 30 * len(queries)
    near, far = op._cache[(-1.0, 0.0, True)][0], op._cache[(2.0, 3.0, False)][0]
    # an end on a step time of its table, or on a checkpoint, needs no piece
    for t, s in ((far[1], -0.37), (2.5, -1.0), (2.5, near[1])):
        op.evolve(t, s)  # builds any table the end reads
        seen.clear()
        op.evolve(t, s)
        [(span, first, pieces, _)] = seen
        assert span == (0.0, first) and pieces == 1
    # both ends on step times need no solve at all
    seen.clear()
    op.evolve(far[1], near[1])
    assert seen == []


def test_the_array_clamp_moves_each_time_as_its_scalar_clamp():
    # segments of one ulp, with no double inside, and of none included
    a = np.array([-0.3, 0.2, 1.0, 1e8, 2.5, 0.0])
    b = np.array([0.0, -0.1, np.nextafter(1.0, 2.0), 1e8 - 1.0, 2.5, 5e-324])
    ts = np.array([-0.4, -0.3, -0.0, 0.0, 0.1, 0.2, 1.0, np.nextafter(1.0, 2.0), 1e8, 2.5, 5e-324, 3.0])
    got = _inward(a, b)(ts[:, None])
    want = [[_inward(p, q)(t) for p, q in zip(a.tolist(), b.tolist())] for t in ts.tolist()]
    assert np.array_equal(got, want)


def _counted_clocked(lo, hi, first_step):
    # the clocked solve of Example 2.2's vectorized field, with the size of
    # each read recorded, and the same solve read one time per call
    field, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    assert field.vectorized
    calls = []

    def counting(t, ev=field.eval):
        calls.append(np.size(t))
        return ev(t)

    got, _ = EvolutionOperator(replace(field, eval=counting))._clocked(lo, hi, first_step=first_step)
    want, _ = EvolutionOperator(replace(field, vectorized=False))._clocked(lo, hi, first_step=first_step)
    return got, want, calls


_CLOCKS = pytest.mark.parametrize(
    "lo, hi, first_step",
    [([-0.3, 0.0], [0.0, 0.2], 0.3), ([-0.9, 0.0], [0.0, 0.9], 0.9)],
    ids=["one-step", "three-step"],
)


@_CLOCKS
def test_the_clocked_solve_reads_a_vectorized_field_as_per_time_calls(lo, hi, first_step):
    # batched reads of a vectorized field give the solution of one read per time, bit for bit
    got, want, _ = _counted_clocked(lo, hi, first_step)
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.y, want.y)


@_CLOCKS
def test_the_clocked_solve_reads_each_later_stage_of_a_vectorized_field_in_one_call(lo, hi, first_step):
    # a clock that its first step cannot cover takes later steps, whose
    # stages miss the prefetched nodes and read both pieces in one call
    got, _, calls = _counted_clocked(lo, hi, first_step)
    assert calls[0] == 24  # the prefetch
    if got.t.size == 2:
        assert len(calls) == 1
    else:
        assert len(calls) > 1 and set(calls[1:]) == {2}


def test_a_nan_inside_an_end_piece_raises_naming_its_time():
    # the tables of the span are built clean; then the field turns NaN on the
    # far end piece (v, t) alone, which only the clocked end-piece solve
    # evaluates.  A vectorized field is NaN only on (v + 0.87 d, v + 0.99 d),
    # d = t - v, between the prefetched nodes 0.857 and 1 of the piece, and
    # stiff on the rest of it, so the first step is rejected and only a later
    # stage's `stack` call meets the NaN
    for vectorized in (False, True):
        poisoned, calls = [], []

        def ev(t):
            calls.append(np.size(t))
            t = np.asarray(t, dtype=float)
            a = np.full(t.shape, -1.0)
            if poisoned:
                v, w = poisoned
                inside = (v < t) & (t < w)
                nan = inside & (v + 0.87 * (w - v) < t) & (t < v + 0.99 * (w - v)) if vectorized else inside
                a = np.where(nan, math.nan, np.where(inside, -200.0, a))
            return a[..., None, None]

        op = EvolutionOperator(CoefficientField(1, ev, vectorized=vectorized))
        t, s = 2.5, 0.5
        op.evolve(t, s)
        times = op._cache[(2.0, 3.0, False)][0]
        v = times[np.count_nonzero(times <= t) - 1]
        assert v < t
        poisoned[:] = [v, t]
        calls.clear()
        with pytest.raises(ValueError, match="non-finite entries") as err:
            op.evolve(t, s)
        named = float(str(err.value).rpartition("t=")[2])
        assert v < named < t
        if vectorized:
            assert v + 0.87 * (t - v) < named < v + 0.99 * (t - v)
            assert calls[0] == 24 and len(calls) > 1 and set(calls[1:]) == {2}


def test_batched_reads_of_a_vectorized_field_match_its_per_time_reads():
    # every stage of these solves misses a prefetch, so the vectorized field
    # is read by `stack` in one call per stage, the other one time at a time
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    ts, ss = np.random.default_rng(5).uniform(-3.0, 3.0, size=(2, 40))

    def solve(f):
        pairs = EvolutionOperator(f).evolve(ts, ss)
        dense = EvolutionOperator(f).matrix_solution(-2.5, 3.5, np.eye(2))(np.linspace(-2.5, 3.5, 25))
        lyap = construct_S(spec, EvolutionOperator(f), 0.5, np.linspace(-2.0, 2.0, 9))
        return pairs, dense, lyap.matrices

    assert field.vectorized
    for got, want in zip(solve(field), solve(replace(field, vectorized=False))):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("t, s", [(0.0, -5e-324), (5e-324, 0.0), (-5e-324, 0.0), (0.0, 5e-324)])
def test_a_subnormal_span_takes_one_step_without_a_warning(t, s, monkeypatch):
    # the solver's own first-step guess divides by the span and overflows
    op, _ = example22_pair()
    steps = []

    def recording(*args, real=evolution.solve_ivp, **kwargs):
        sol = real(*args, **kwargs)
        steps.append(sol.t.size - 1)
        return sol

    monkeypatch.setattr(evolution, "solve_ivp", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = op.evolve(t, s)
        dense = op.matrix_solution(s, t, np.eye(2))(np.array([s, t]))
    assert np.array_equal(got, np.eye(2)) and op._cache == {}
    assert np.array_equal(dense, [np.eye(2)] * 2)
    assert steps == [1, 1]


def test_the_clocked_solve_of_shifted_pieces_matches_the_matrix_exponential():
    # forward and backward pieces of unequal length share one clock, each
    # shifted by coeff times the exp rate's slope, with the dense interpolant
    rate, coeff = builtin("exp"), 0.7
    lo, hi = np.array([0.2, 1.5, -0.4]), np.array([1.1, 0.7, -2.0])
    op = EvolutionOperator(constant_field(NONNORMAL))
    sol, times = op._clocked(lo, hi, lambda vs: coeff * np.array([rate.dlog(v) for v in vs]), dense=True)
    ell = sol.t[-1]
    assert ell == 1.6
    assert np.array_equal(times(0.0), np.nextafter(lo, hi)) and np.array_equal(times(ell), np.nextafter(hi, lo))
    for sigma, got in ((ell, sol.y[:, -1]), (0.5 * ell, sol.sol(0.5 * ell))):
        for k, end in enumerate(got.reshape(-1, 2, 2)):
            v = lo[k] + (hi[k] - lo[k]) * sigma / ell
            want = expm((NONNORMAL - coeff * rate.dlog(v) * np.eye(2)) * (v - lo[k]))
            assert np.max(np.abs(end - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "call",
    [
        lambda op: op.evolve(math.nan, 0.0),
        lambda op: op.evolve(0.5, math.nan),
        lambda op: op.evolve(math.inf, 0.0),
        lambda op: op.evolve([math.nan], [0.0]),
        lambda op: op.evolve([math.nan], [math.nan]),
        lambda op: op.evolve([0.0, 1.0], [0.5, math.inf]),
        lambda op: op.matrix_solution(0.0, math.nan, np.eye(2)),
    ],
)
def test_a_non_finite_end_raises_naming_it(call):
    # a NaN end used to hang the solver, an infinite one overflowed in the lattice
    # walk, and a pair of NaN ends read as t == s and gave I
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    with pytest.raises(ValueError, match="non-finite end (nan|inf)"):
        call(op)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evolve_evolve_pairs_and_dense_solutions_agree_on_shared_spans(data):
    # Example 2.2's e1 decays forward and its e2 backward; every solve starts
    # from I within one cell, so the decaying orbit keeps its relative
    # accuracy over spans of up to 50 cells, ends on and off the lattice
    field, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    end = st.one_of(st.floats(-25.0, 25.0), st.integers(-25, 25).map(float))
    a, b = data.draw(end), data.draw(end)
    if a == b:
        b = a + 1.0
    x = np.array([1.0, 0.0] if b > a else [0.0, 1.0]) * data.draw(st.floats(0.5, 2.0))
    fractions = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))
    vs = np.concatenate([[b], np.clip(a + (b - a) * fractions, min(a, b), max(a, b))])
    dense = op.matrix_solution(a, b, x)(vs)
    single = np.array([op.evolve(v, a) @ x for v in vs])
    pairs = op.evolve(vs, np.full(vs.size, a)) @ x
    live = np.argmax(np.abs(x))
    assert np.all(single[:, 1 - live] == 0.0) and np.all(dense[:, 1 - live] == 0.0)
    for got in (dense, pairs):
        assert np.max(np.abs(got[:, live] / single[:, live] - 1.0)) <= 1e-8


def test_a_long_decaying_orbit_matches_the_closed_form():
    # the orbit falls to about 1e-23 by v = 50; a solve carried from cell to
    # cell kept only ATOL there
    field, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    vs = np.linspace(0.0, 50.0, 101)
    got = EvolutionOperator(field).matrix_solution(0.0, 50.0, (1, 0))(vs)
    want = np.array([analytic(v, 0.0)[:, 0] for v in vs])
    assert np.all(got[:, 1] == 0.0)
    assert np.max(np.abs(got[:, 0] / want[:, 0] - 1.0)) <= 1e-8


@pytest.mark.parametrize("a, b", [(-1.5, 2.5), (2.5, -1.5), (0.2, 0.7), (0.0, 50.0)])
def test_a_dense_solution_is_one_solve(monkeypatch, a, b):
    calls = []

    def recording(*args, real=evolution.solve_ivp, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "solve_ivp", recording)
    op, _ = example22_pair()
    op.matrix_solution(a, b, np.eye(2))
    assert len(calls) == 1 and op._cache == {}


@pytest.mark.parametrize("m0", [[[math.nan, 0.0], [0.0, 1.0]], [[1.0], [0.0], [0.0]], np.zeros((2, 2, 2)), 1.0])
def test_a_dense_solution_rejects_a_start_that_is_not_finite_or_of_the_wrong_shape(m0):
    op, _ = example22_pair()
    shape = re.escape(str(np.shape(m0)))
    with pytest.raises(ValueError, match=f"leading dimension 2, got shape {shape}"):
        op.matrix_solution(0.0, 1.0, m0)


def enumerated_knots(a, b, c):
    # every i * c strictly between a and b, by walking the candidate indices
    lo, hi = min(a, b), max(a, b)
    inner = [i for i in range(math.floor(lo / c), math.ceil(hi / c) + 1) if lo < i * c < hi]
    return inner if b > a else inner[::-1]


def array_rule_knots(op, a, b):
    # the knots of the lattice rule read on arrays, as a pair sweep reads it
    first, last = op._knot_range(np.array([min(a, b)]), np.array([max(a, b)]))
    return list(range(int(first[0]), int(last[0]) + 1))


@st.composite
def lattice_times(draw, spacing):
    # checkpoints and times up to two ulps off them, among times anywhere
    v = draw(st.one_of(st.floats(-4.0, 4.0), st.integers(-40, 40).map(lambda i: i * spacing)))
    toward = draw(st.sampled_from([-math.inf, math.inf]))
    for _ in range(draw(st.integers(0, 2))):
        v = math.nextafter(v, toward)
    return v


@settings(max_examples=300, deadline=None)
@given(data=st.data(), spacing=st.sampled_from([1.0, 0.1, 0.3, 1e-3, 2e4]))
def test_the_lattice_rule_finds_every_checkpoint_strictly_inside_a_span(data, spacing):
    op = EvolutionOperator(constant_field(NONNORMAL), spacing)
    a, b = data.draw(lattice_times(spacing)), data.draw(lattice_times(spacing))
    assert op._knots(a, b) == enumerated_knots(a, b, spacing)
    assert array_rule_knots(op, a, b) == sorted(enumerated_knots(a, b, spacing))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spacing=st.sampled_from([1.0, 0.1]), backward=st.booleans())
def test_the_array_step_filter_picks_the_steps_of_the_per_step_rule(data, spacing, backward):
    # the steps of a sweep that its one batched solve takes are picked in one
    # array pass; they must be exactly the steps with no knot inside
    times = data.draw(st.lists(lattice_times(spacing), min_size=2, max_size=40, unique=True))
    sweep = np.unique(times)[::-1] if backward else np.unique(times)
    steps = list(zip(sweep[:-1].tolist(), sweep[1:].tolist()))
    op = EvolutionOperator(constant_field(NONNORMAL), spacing)
    solves, clocked = [], op._clocked

    def recording(lo, hi):
        solves.append(list(zip(lo.tolist(), hi.tolist())))
        return clocked(lo, hi)

    # the instance attributes stand in for the batched solve and for the
    # per-step evolve of the steps across knots, which the filter leaves out
    op._clocked, op.evolve = recording, lambda t, s: np.eye(2)
    EvolutionOperator.evolve(op, sweep[1:], sweep[:-1])
    want = [(p, q) for p, q in steps if not op._knots(p, q)]
    assert solves == ([want] if want else [])


@pytest.mark.parametrize("n", [2, 4])
def test_a_transition_past_double_range_raises_naming_its_span(n):
    # T(800, 0) of diag(-1, 1) holds e^800: evolve returned [[0, nan], [0, nan]]
    # with a RuntimeWarning, and the pair sweep all NaN
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0] * (n // 2))), 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"T\(800, 0\) leaves the range of doubles"):
            op.evolve(800, 0)
        with pytest.raises(IntegrationError, match=r"T\(-0.5, 799.5\) leaves the range of doubles"):
            op.evolve(-0.5, 799.5)
        # each step of the sweep, (0, 400) and (400, 800), stays in range; the pair does not
        with pytest.raises(IntegrationError, match=r"T\(800.0, 0.0\) leaves the range of doubles"):
            op.evolve([400.0, 800.0], [0.0, 0.0])
        assert np.allclose(op.evolve([400.0], [0.0])[0] * np.exp(-400.0), np.diag([0.0, 1.0] * (n // 2)))


@settings(max_examples=200, deadline=None)
@given(
    spacing=st.sampled_from([1.0, 0.1, 1e-3, 2e4]),
    index=st.integers(-(2**50) + 4, 2**50 - 4),
    ulps=st.integers(-2, 2),
    cells=st.integers(0, 3),
)
def test_the_lattice_rule_holds_out_to_its_reach(spacing, index, ulps, cells):
    # near 2^50 spacings a checkpoint is a few ulps from the next double
    op = EvolutionOperator(constant_field(NONNORMAL), spacing)
    a = index * spacing
    for _ in range(abs(ulps)):
        a = math.nextafter(a, math.copysign(math.inf, ulps))
    b = (index + cells) * spacing if cells else math.nextafter(a, math.inf)
    if max(abs(a), abs(b)) < evolution.LATTICE_REACH * spacing:
        assert op._knots(a, b) == enumerated_knots(a, b, spacing)
        assert array_rule_knots(op, a, b) == sorted(enumerated_knots(a, b, spacing))


@pytest.mark.parametrize(
    "call",
    [
        lambda op: op.evolve(2.0**60 + 256, 2.0**60),
        lambda op: op.evolve(0.0, -(2.0**50)),
        lambda op: op.evolve([2.0**60 + 256, 0.0], [2.0**60, 0.5]),
        lambda op: op.matrix_solution(0.0, 2.0**51, np.eye(2)),
    ],
)
def test_a_time_past_the_lattice_reach_raises_naming_it(call):
    # at 2^60 every double is a checkpoint of spacing 1, and the lattice rule
    # took the span's own ends for knots
    op = EvolutionOperator(constant_field(NONNORMAL), 1.0)
    with pytest.raises(ValueError, match=r"time -?[0-9.e+]+ is past 2\^50 checkpoint spacings"):
        call(op)
