import json
import logging
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichokit import dichotomy
from dichokit.dichotomy import (
    IDEMPOTENCY_TOL,
    VERIFY_TOL,
    DichotomySpec,
    ProjectionReport,
    check_projection,
    estimate_constants,
    square_grid,
    verify,
)
from dichokit.errors import DomainError, EstimationError, IntegrationError
from dichokit.evolution import EvolutionOperator
from dichokit.growth import LOG_SATURATION, RateQuadruple, builtin, product_rate
from dichokit.lyapfun import construct_S
from dichokit.system import Example22Params, constant_field, make_example22


def exp_quad():
    return RateQuadruple(*(builtin("exp") for _ in range(4)))


def tight_diag_setup():
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    spec = DichotomySpec(
        P=lambda t: np.diag([1.0, 0.0]),
        rates=exp_quad(),
        K=1.0,
        a=-1.0,
        b=1.0,
        eps=0.0,
    )
    return spec, op


def test_spec_constant_constraints():
    P = lambda t: np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        DichotomySpec(P, exp_quad(), K=1.0, a=0.1, b=1.0, eps=0.0)
    with pytest.raises(ValueError):
        DichotomySpec(P, exp_quad(), K=1.0, a=-1.0, b=-0.5, eps=0.0)
    with pytest.raises(ValueError):
        DichotomySpec(P, exp_quad(), K=0.0, a=-1.0, b=1.0, eps=0.0)
    with pytest.raises(ValueError):
        DichotomySpec(P, exp_quad(), K=1.0, a=-1.0, b=1.0, eps=-0.1)


@pytest.mark.parametrize(
    "name, changes",
    [
        ("K", {"K": math.nan}),
        ("K", {"K": math.inf, "a": -100.0, "eps": 0.0}),
        ("eps", {"eps": math.nan}),
        ("eps", {"eps": math.inf}),
        ("b", {"b": math.inf}),
        ("a", {"a": -math.inf}),
    ],
)
def test_spec_rejects_a_non_finite_constant_naming_it(name, changes):
    # with K = inf, a = -100 and eps = 0, verify of Example 2.2 used to pass
    # on square_grid(-2, 2, 0.5), a certificate of nothing
    _, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    with pytest.raises(ValueError, match=f"need a finite {name}, got {changes[name]}"):
        replace(spec, **changes)


def test_square_grid_rejects_an_empty_or_unbounded_grid():
    # a negative step or reversed ends used to give [], which verify passes
    for lo, hi, step in ((0.0, 1.0, -0.1), (0.0, 1.0, 0.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match=f"step must be positive and finite, got {step}"):
            square_grid(lo, hi, step)
    for lo, hi in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="ends must be finite with lo <= hi"):
            square_grid(lo, hi, 0.1)
    assert square_grid(1.0, 1.0, 0.1) == [(1.0, 1.0)]


@pytest.mark.parametrize(
    "grid",
    [[(0.0, 0.5, 1.0), (1.5, 2.0, 2.5)], [0.0, 0.5], [[(0.0, 0.5)]]],
    ids=["triples", "flat", "nested"],
)
def test_a_grid_that_is_not_pairs_is_rejected_naming_its_shape(grid):
    # reshaping the triples to (-1, 2) would certify (0.5, 0), (1.5, 1) and (2.5, 2)
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    shape = str(np.shape(grid))
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        verify(spec, op, grid)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        estimate_constants(op, spec.P, spec.rates, grid)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        check_projection(spec.P, op, grid)


def test_example22_certificate_passes():
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    cert = verify(spec, op, square_grid(-3.0, 3.0, 0.5))
    assert cert.passed
    assert cert.worst_stable_ratio <= 1.0 and cert.worst_unstable_ratio <= 1.0
    assert cert.worst_commute_residual <= 1e-8


def test_halved_K_fails_with_doubled_ratios():
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    grid = square_grid(-3.0, 3.0, 0.5)
    good = verify(spec, op, grid)
    halved = DichotomySpec(spec.P, spec.rates, spec.K / 2, spec.a, spec.b, spec.eps)
    bad = verify(halved, op, grid)
    assert not bad.passed
    assert bad.worst_stable_ratio == pytest.approx(2 * good.worst_stable_ratio, rel=1e-9)
    assert bad.worst_stable_ratio > 1.5


def test_tight_uniform_bound_has_unit_ratios():
    spec, op = tight_diag_setup()
    cert = verify(spec, op, square_grid(-2.0, 2.0, 0.5))
    assert cert.passed
    for row in cert.rows:
        assert row.stable_ratio == pytest.approx(1.0, abs=1e-8)
        assert row.unstable_ratio == pytest.approx(1.0, abs=1e-8)


def test_uniform_special_case_reduces_to_exponential_bound():
    # with h = k = exp and eps = 0 the checked bound is K e^{a (t-s)}
    spec, _ = tight_diag_setup()
    for t, s in [(2.0, 1.0), (5.0, -1.0)]:
        assert spec.log_bound_stable(t, s) == pytest.approx(-(t - s), rel=1e-12)
        assert spec.log_bound_unstable(s, t) == pytest.approx(-(t - s), rel=1e-12)


def test_verify_monotone_in_K_and_eps():
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    grid = square_grid(-3.0, 3.0, 1.0)
    assert verify(spec, op, grid).passed
    bigger = DichotomySpec(spec.P, spec.rates, spec.K * 3, spec.a, spec.b, spec.eps + 0.3)
    assert verify(bigger, op, grid).passed


def test_verify_rejects_half_line_rates_on_a_full_line_system():
    spec, op = tight_diag_setup()
    rates = RateQuadruple(builtin("exp"), builtin("exp"), builtin("poly"), builtin("exp"))
    half = DichotomySpec(spec.P, rates, spec.K, spec.a, spec.b, spec.eps)
    with pytest.raises(DomainError):
        verify(half, op, square_grid(0.0, 1.0, 0.5))


def test_estimate_rejects_half_line_rates_on_a_full_line_system():
    # it fitted K = 3.41, a = -2.94, b = 2.19, a spec that verify then refused
    spec, op = tight_diag_setup()
    poly = RateQuadruple(*(builtin("poly") for _ in range(4)))
    with pytest.raises(DomainError, match="half-line rates cannot certify a full-line system"):
        estimate_constants(op, spec.P, poly, square_grid(0.0, 4.0, 0.25))


def nonnormal_setup():
    """A non-diagonal, non-normal constant field and a claim that ignores it."""
    op = EvolutionOperator(constant_field([[-0.5, 2.0], [0.25, 0.5]]))
    spec = DichotomySpec(lambda t: np.diag([1.0, 0.0]), exp_quad(), K=1.0, a=-1.0, b=1.0, eps=0.0)
    return spec, op


def example22_setup():
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    return spec, EvolutionOperator(field)


# lattice times share cached segments with per-pair evolve; others do not
pair_times = st.one_of(st.integers(-12, 12).map(lambda i: i * 0.25), st.floats(-3.0, 3.0))
# distinct pairs in both orientations and with t == s, then a list drawn from them with repeats
pair_lists = st.lists(
    st.one_of(st.tuples(pair_times, pair_times), pair_times.map(lambda v: (v, v))), min_size=1, max_size=12
).flatmap(lambda pairs: st.lists(st.sampled_from(pairs), min_size=len(pairs), max_size=len(pairs) + 4))


@settings(max_examples=40, deadline=None)
@given(setup=st.sampled_from([nonnormal_setup, example22_setup]), pairs=pair_lists, data=st.data())
def test_pair_table_matches_per_pair_evolve(setup, pairs, data):
    spec, op = setup()
    t, s = np.array(pairs).T
    table = op.evolve(t, s)
    for (ti, si), got in zip(pairs, table):
        want = op.evolve(ti, si)
        assert np.linalg.norm(got - want, 2) <= 1e-9 * np.linalg.norm(want, 2)

    shuffled = data.draw(st.permutations(pairs))
    a, b = verify(spec, op, pairs), verify(spec, op, shuffled)
    assert (a.worst_stable_ratio, a.worst_unstable_ratio, a.worst_commute_residual) == (
        b.worst_stable_ratio,
        b.worst_unstable_ratio,
        b.worst_commute_residual,
    )
    key = lambda r: (r.t, r.s, r.stable_ratio, r.unstable_ratio, r.commute_residual)
    assert sorted(map(key, a.rows)) == sorted(map(key, b.rows))
    # a tie's location depends on the grid's order, so only the residuals compare
    residuals = lambda rep: (rep.max_commute_residual, rep.max_idempotency_residual)
    assert residuals(check_projection(spec.P, op, pairs)) == residuals(check_projection(spec.P, op, shuffled))


def count_table_work(monkeypatch):
    """Counts of the pair sweeps (array calls of evolve) and the batched norm calls made from now on."""
    calls = Counter()
    real_evolve, real_norms = EvolutionOperator.evolve, dichotomy._norms

    def evolve(op, t, s):
        if type(t) is np.ndarray:
            calls["sweeps"] += 1
        return real_evolve(op, t, s)

    def norms(stack):
        calls["_norms"] += 1
        return real_norms(stack)

    monkeypatch.setattr(EvolutionOperator, "evolve", evolve)
    monkeypatch.setattr(dichotomy, "_norms", norms)
    return calls


def test_checks_on_one_grid_share_one_sweep(monkeypatch):
    # the three checks read one pair table: one sweep over both orientations
    # and one batched norm call serve them all
    spec, op = example22_setup()
    grid = square_grid(-2.0, 2.0, 0.25)
    calls = count_table_work(monkeypatch)
    first = verify(spec, op, grid)
    fitted, _ = estimate_constants(op, spec.P, spec.rates, grid)
    assert verify(fitted, op, grid).passed
    assert check_projection(spec.P, op, grid).passed
    assert verify(spec, op, grid).to_dict() == first.to_dict()
    assert calls == {"sweeps": 1, "_norms": 1}


def test_a_changed_P_grid_or_operator_rebuilds_the_table(monkeypatch):
    spec, op = example22_setup()
    grid = square_grid(-2.0, 2.0, 0.25)
    values = {"P": np.diag([1.0, 0.0])}
    P = lambda t: values["P"]
    calls = count_table_work(monkeypatch)
    assert check_projection(P, op, grid).passed
    values["P"] = np.full((2, 2), 0.5)  # the same P, now at 45 degrees to the flow
    assert not check_projection(P, op, grid).passed
    assert calls == {"sweeps": 2, "_norms": 2}
    check_projection(P, op, grid[::-1])
    check_projection(P, op, [(t + 0.125, s + 0.125) for t, s in grid])
    check_projection(P, EvolutionOperator(op.field), grid)
    assert calls == {"sweeps": 5, "_norms": 5}


def test_writing_into_certificate_rows_leaves_a_later_verify_intact():
    spec, op = example22_setup()
    grid = square_grid(-2.0, 2.0, 0.5)
    first = verify(spec, op, grid)
    record, rows = first.to_dict(), first.rows.copy()
    for name in rows.dtype.names:
        first.rows[name] = 7.0
    again = verify(spec, op, grid)
    assert again.to_dict() == record and np.array_equal(again.rows, rows)


@pytest.mark.parametrize(
    "check",
    [
        lambda spec, op: verify(spec, op, square_grid(-2.0, 2.0, 0.25) + [(math.nan, 0.0)]),
        lambda spec, op: estimate_constants(op, spec.P, spec.rates, square_grid(-2.0, 2.0, 0.25) + [(math.nan, 0.0)]),
        lambda spec, op: check_projection(spec.P, op, [(math.nan, math.nan)]),
        lambda spec, op: check_projection(spec.P, op, [(0.0, 1.0), (math.inf, 0.5)]),
    ],
)
def test_a_grid_with_a_non_finite_time_raises_naming_it(check):
    # verify reported a NaN worst ratio, estimate_constants raised LinAlgError
    # and check_projection passed a pair of NaN ends with zero residuals
    spec, op = example22_setup()
    with pytest.raises(ValueError, match="non-finite end (nan|inf)"):
        check(spec, op)


def test_empty_grid():
    spec, op = tight_diag_setup()
    cert = verify(spec, op, [])
    assert cert.passed and len(cert.rows) == 0
    assert (cert.worst_stable_ratio, cert.worst_unstable_ratio, cert.worst_commute_residual) == (0.0, 0.0, 0.0)
    assert cert.worst_stable_at is None and cert.saturated == 0
    rep = check_projection(spec.P, op, [])
    assert (rep.max_commute_residual, rep.max_idempotency_residual) == (0.0, 0.0)
    assert rep.worst_commute_at is None and rep.worst_idempotency_at is None
    assert op.evolve([], []).shape == (0, 2, 2)


def test_certificate_locates_worst_pairs():
    # K halved: the worst pairs are where the closed form's ratios peak
    field, analytic, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    halved = DichotomySpec(spec.P, spec.rates, spec.K / 2, spec.a, spec.b, spec.eps)
    p, q = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    full = square_grid(-3.0, 3.0, 0.5)
    for grid in (full, [(t, s) for t, s in full if t != s]):
        cert = verify(halved, op, grid)
        stable = [np.linalg.norm(analytic(t, s) @ p, 2) / math.exp(halved.log_bound_stable(t, s)) for t, s in grid]
        unstable = [np.linalg.norm(analytic(s, t) @ q, 2) / math.exp(halved.log_bound_unstable(s, t)) for t, s in grid]
        t, s = grid[int(np.argmax(stable))]
        assert cert.worst_stable_at == (t, s)
        t, s = grid[int(np.argmax(unstable))]
        assert cert.worst_unstable_at == (s, t)  # the unstable bound is checked with t <= s
        assert cert.worst_commute_at in grid


def test_certificate_counts_saturated_ratios_and_serializes():
    spec, op = tight_diag_setup()
    grid = square_grid(-2.0, 2.0, 0.5)
    tiny = DichotomySpec(spec.P, spec.rates, 1e-305, spec.a, spec.b, spec.eps)  # log K < -700
    cert = verify(tiny, op, grid)
    assert cert.saturated == 2 * len(grid)
    assert cert.worst_stable_ratio == math.exp(700.0)
    assert verify(spec, op, grid).saturated == 0
    record = cert.to_dict()
    assert json.loads(json.dumps(record)) == record
    assert record["worst_stable_at"] == list(cert.worst_stable_at)


def test_certificate_saturates_iff_log_ratio_exceeds_700():
    # on the diagonal T = I and |P| = |Q| = 1, so each log-ratio is -log K
    spec, op = tight_diag_setup()
    below, above = (DichotomySpec(spec.P, spec.rates, math.exp(-x), spec.a, spec.b, spec.eps) for x in (699, 701))
    cert = verify(below, op, [(0.0, 0.0)])
    assert cert.saturated == 0
    assert cert.worst_stable_ratio == pytest.approx(math.exp(699.0), rel=1e-12)
    cert = verify(above, op, [(0.0, 0.0)])
    assert cert.saturated == 2
    assert cert.worst_stable_ratio == math.exp(700.0)


def test_estimate_recovers_diagonal_constants():
    spec, op = tight_diag_setup()
    grid = square_grid(0.0, 5.0, 0.5)
    fitted, diag = estimate_constants(op, spec.P, exp_quad(), grid)
    assert -1.05 <= fitted.a <= -0.95
    assert 0.95 <= fitted.b <= 1.05
    assert fitted.eps <= 0.05
    assert 0.95 <= fitted.K <= 1.2
    assert verify(fitted, op, grid).passed
    assert diag.stable_pairs >= 20 and diag.unstable_pairs >= 20


def test_estimate_recovers_example22_exponents():
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    grid = square_grid(-4.0, 4.0, 0.5)
    fitted, _ = estimate_constants(op, spec.P, spec.rates, grid)
    assert fitted.a == pytest.approx(-1.0, abs=0.05)
    assert fitted.b == pytest.approx(1.0, abs=0.05)
    assert verify(fitted, op, grid).passed


def example22_closed_form(spec, analytic, grid):
    """verify's worst ratios and estimate_constants' fit for Example 2.2, from its analytic T.

    The ratios compare the exact log norms with the spec's log bounds; the
    fit is estimate_constants' documented least squares on those norms,
    with its clamps and its final inflation of K.
    """
    h, k, mu, nu = spec.rates.rates()
    hi, lo = np.max(grid, axis=1), np.min(grid, axis=1)
    ys = np.log([analytic(t, s)[0, 0] for t, s in zip(hi, lo)])
    yu = np.log([analytic(s, t)[1, 1] for t, s in zip(hi, lo)])
    ratios = (
        math.exp(max(y - spec.log_bound_stable(t, s) for y, t, s in zip(ys, hi, lo))),
        math.exp(max(y - spec.log_bound_unstable(s, t) for y, t, s in zip(yu, hi, lo))),
    )
    ones = np.ones(hi.size)
    xs = np.column_stack([ones, [h.log_u(t) - h.log_u(s) for t, s in zip(hi, lo)], [mu.log_u(abs(s)) for s in lo]])
    xu = np.column_stack([ones, [k.log_u(s) - k.log_u(t) for t, s in zip(hi, lo)], [nu.log_u(abs(t)) for t in hi]])
    (lks, a, eps_s), *_ = np.linalg.lstsq(xs, ys, rcond=None)
    (lku, b, eps_u), *_ = np.linalg.lstsq(xu, yu, rcond=None)
    b, eps, log_k = max(b, 0.0), max(eps_s, eps_u, 0.0), max(lks, lku)
    worst = max(np.max(ys - xs @ (log_k, a, eps)), np.max(yu - xu @ (log_k, b, eps)))
    if worst > 0:
        log_k += worst * (1 + 1e-12) + 1e-14
    return ratios, (math.exp(log_k), a, b, eps)


def assert_example22_matches_closed_form(params, grid):
    field, analytic, spec = make_example22(params)
    op = EvolutionOperator(field)
    (ws, wu), (K, a, b, eps) = example22_closed_form(spec, analytic, grid)
    # a span of 16 steps decaying to e^-28 (expsq, eta2 = 0, every ratio 1)
    # was measured 4.8e-9 off; the ratios that verify judges move by 1e-6
    cert = verify(spec, op, grid)
    assert cert.worst_stable_ratio == pytest.approx(ws, rel=1e-7)
    assert cert.worst_unstable_ratio == pytest.approx(wu, rel=1e-7)
    assert cert.passed == (max(ws, wu) <= 1.0 + 1e-6)
    fitted, _ = estimate_constants(op, spec.P, spec.rates, grid)
    assert fitted.K == pytest.approx(K, rel=1e-7)
    assert (fitted.a, fitted.b, fitted.eps) == pytest.approx((a, b, eps), rel=0, abs=1e-7)


exp_rates = st.floats(0.5, 2.0).map(lambda c: builtin("exp", {"rate": c}))
# every hat one rate on the half line; h = k a rate and mu = nu = e^|t| on the full line
half_line_rates = st.one_of(
    st.floats(0.5, 3.0).map(lambda p: builtin("poly", {"power": p})), st.sampled_from(["polysq", "expsq"]).map(builtin)
)
full_line_rates = st.one_of(exp_rates, st.tuples(exp_rates, exp_rates).map(lambda rs: product_rate(*rs)))
general_hats = st.one_of(
    half_line_rates.map(lambda r: (RateQuadruple(r, r, r, r), (0.0, 4.0, 0.25))),
    full_line_rates.map(lambda r: (RateQuadruple(r, r, builtin("expabs"), builtin("expabs")), (-3.0, 3.0, 0.25))),
)


@settings(max_examples=25, deadline=None)
@given(hats=general_hats, etas=st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 0.25), st.floats(0.5, 2.0)))
def test_example22_with_general_rates_matches_its_closed_form(hats, etas):
    quad, grid = hats
    assert_example22_matches_closed_form(Example22Params(*etas, quad), square_grid(*grid))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: entries decaying below ATOL")
def test_example22_with_expsq_hats_at_moderate_times_matches_its_closed_form():
    # the worst unstable ratio reads 5.1e7 at (14, 16)
    r = builtin("expsq")
    params = Example22Params(1.0, 0.1, 1.0, RateQuadruple(r, r, r, r))
    assert_example22_matches_closed_form(params, square_grid(12.0, 16.0, 0.5))


def test_estimate_with_trivial_unstable_side_warns(caplog):
    op = EvolutionOperator(constant_field([[-1.0]]))
    P = lambda t: [[1.0]]
    with caplog.at_level(logging.WARNING, logger="dichokit.dichotomy"):
        fitted, diag = estimate_constants(op, P, exp_quad(), square_grid(0.0, 6.0, 0.5))
    assert fitted.b == 0.0
    assert any("unstable" in w for w in diag.warnings)
    logged = [r.getMessage() for r in caplog.records if r.name == "dichokit.dichotomy"]
    assert logged == diag.warnings
    # both sides decay: the unstable side's fitted b = -0.5 is clamped to 0
    caplog.clear()
    both_decay = EvolutionOperator(constant_field(np.diag([-1.0, -0.5])))
    e, e_abs = builtin("exp"), builtin("expabs")
    P, rates = lambda t: np.diag([1.0, 0.0]), RateQuadruple(e, e, e_abs, e_abs)
    with caplog.at_level(logging.WARNING, logger="dichokit.dichotomy"):
        fitted, _ = estimate_constants(both_decay, P, rates, square_grid(-2.0, 2.0, 0.25))
    assert fitted.b == 0.0
    assert "fitted b=-0.5 was negative; clamped to 0" in [r.getMessage() for r in caplog.records]


def test_estimate_rejects_degenerate_grid():
    spec, op = tight_diag_setup()
    grid = [(t, t) for t in np.linspace(0, 5, 30)]  # no rate variation
    with pytest.raises(EstimationError, match="rank-deficient"):
        estimate_constants(op, spec.P, exp_quad(), grid)
    with pytest.raises(EstimationError, match="need >= 20 stable pairs, got 6"):
        estimate_constants(op, spec.P, exp_quad(), square_grid(0.0, 1.0, 0.5))
    growing = EvolutionOperator(constant_field(np.eye(2)))  # P's side grows like e^{t - s}
    with pytest.raises(EstimationError, match="fitted stable exponent a=1 is not negative"):
        estimate_constants(growing, spec.P, exp_quad(), square_grid(0.0, 5.0, 0.5))


def test_a_norm_past_double_range_reads_inf_and_fails_at_its_pair():
    # T(690, 0) of diag(-1, 1) is finite, but T(690, 0) P(0) holds e^690 1e10:
    # forming it warned of an overflow in matmul (an error under the warning
    # filter of pyproject.toml), and estimate_constants called the stable
    # regression rank-deficient
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])), 100.0)
    P = lambda t: np.array([[0.0, 0.0], [1e10, 1.0]])
    grid = [(690.0, 0.0), (0.0, 0.0)]
    cert = verify(DichotomySpec(P, exp_quad(), 1.0, -1.0, 1.0, 0.0), op, grid)
    assert not cert.passed and cert.worst_stable_at == cert.worst_commute_at == (690.0, 0.0)
    assert cert.rows.stable_ratio[0] == math.exp(LOG_SATURATION) and cert.saturated >= 1
    assert cert.rows.commute_residual[0] == math.inf
    rep = check_projection(P, op, grid)
    assert not rep.passed and rep.worst_commute_at == (690.0, 0.0) and rep.max_commute_residual == math.inf
    grid += [(float(t), 0.0) for t in range(1, 30)]
    with pytest.raises(EstimationError, match=r"stable norm at \(t, s\) = \(690.0, 0.0\) is past the largest double"):
        estimate_constants(op, P, exp_quad(), grid)


def test_projection_report_passes_at_its_named_bounds():
    assert ProjectionReport(VERIFY_TOL, IDEMPOTENCY_TOL).passed
    assert not ProjectionReport(np.nextafter(VERIFY_TOL, 1.0), 0.0).passed
    assert not ProjectionReport(0.0, np.nextafter(IDEMPOTENCY_TOL, 1.0)).passed


def test_check_projection_commuting_constant():
    spec, op = tight_diag_setup()
    rep = check_projection(spec.P, op, square_grid(-2.0, 2.0, 0.5))
    assert rep.max_commute_residual <= 1e-10
    assert rep.max_idempotency_residual <= 1e-12


def test_check_projection_example22():
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    rep = check_projection(spec.P, op, square_grid(-3.0, 3.0, 1.0))
    assert rep.max_commute_residual <= 1e-8


def test_check_projection_rotated_projector_fails():
    # P at 45 degrees to a diag(-1,1) flow: commutator norm is sinh(t-s)
    _, op = tight_diag_setup()
    P = lambda t: np.full((2, 2), 0.5)
    pairs = [(2.0, 0.0)]
    rep = check_projection(P, op, pairs)
    assert rep.max_commute_residual == pytest.approx(math.sinh(2.0), rel=1e-7)
    assert not rep.passed


def test_check_projection_evolves_reversed_pairs_backward():
    # diag(-1, 2) flow, P at 45 degrees: |[P, T(t, s)]| = |T11 - T22| / 2
    op = EvolutionOperator(constant_field(np.diag([-1.0, 2.0])))
    P = lambda t: np.full((2, 2), 0.5)
    back = check_projection(P, op, [(0.0, 2.0)]).max_commute_residual
    assert back == pytest.approx((math.exp(2.0) - math.exp(-4.0)) / 2, rel=1e-7)
    fwd = check_projection(P, op, [(2.0, 0.0)]).max_commute_residual
    assert fwd == pytest.approx((math.exp(4.0) - math.exp(-2.0)) / 2, rel=1e-7)


def test_check_projection_measures_idempotency_at_both_ends():
    # P fails idempotency only before t = 0.5, which this grid meets as s alone
    _, op = tight_diag_setup()
    P = lambda t: np.diag([2.0 if t < 0.5 else 1.0, 0.0])
    assert check_projection(P, op, [(1.0, 0.0)]).max_idempotency_residual == pytest.approx(2.0)
    assert check_projection(P, op, [(0.0, 1.0)]).max_idempotency_residual == pytest.approx(2.0)


def test_check_projection_locates_its_worst_residuals():
    # diag(-1, 1) flow; P is diag(1, 0) except at 45 degrees at u = 1, which
    # only the pair (0.5, 1) meets, and not idempotent at u = 2
    _, op = tight_diag_setup()
    rotated, p = np.full((2, 2), 0.5), np.diag([1.0, 0.0])
    P = lambda t: rotated if t == 1.0 else 2 * p if t == 2.0 else p
    rep = check_projection(P, op, [(0.5, 0.0), (0.5, 1.0), (0.0, 0.5), (2.0, 2.0)])
    T = np.diag([math.exp(0.5), math.exp(-0.5)])  # T(0.5, 1)
    assert rep.worst_commute_at == (0.5, 1.0)
    assert rep.max_commute_residual == pytest.approx(np.linalg.norm(p @ T - T @ rotated, 2), rel=1e-9)
    assert rep.worst_idempotency_at == 2.0 and rep.max_idempotency_residual == pytest.approx(2.0)
    assert not rep.passed


@pytest.mark.parametrize(
    "P, message",
    [
        (lambda t: np.diag([1.0, math.nan if t > 1.0 else 0.0]), r"P\(1.25\) must be a finite 2 x 2 .*nan"),
        (lambda t: np.eye(3), r"P\(-2.0\) must be a finite 2 x 2 matrix, got \[\[1.0, 0.0, 0.0\], "),
        (lambda t: np.array([1.0, 0.0]), r"P\(-2.0\) must be a finite 2 x 2 matrix, got \[1.0, 0.0\]"),
    ],
    ids=["nan-after-1", "3x3", "vector"],
)
@pytest.mark.parametrize(
    "check",
    [
        lambda spec, op, grid: verify(spec, op, grid),
        lambda spec, op, grid: estimate_constants(op, spec.P, spec.rates, grid),
        lambda spec, op, grid: check_projection(spec.P, op, grid),
        lambda spec, op, grid: construct_S(spec, op, 0.5, np.ravel(grid)),
    ],
    ids=["verify", "estimate_constants", "check_projection", "construct_S"],
)
def test_a_malformed_projection_raises_naming_its_time(P, message, check):
    # a NaN P raised LinAlgError from the SVD, a 3 x 3 or vector P a reshape
    # error; construct_S returned an all-NaN S or raised a broadcast error
    spec, op = example22_setup()
    with pytest.raises(ValueError, match=message):
        check(replace(spec, P=P), op, square_grid(-2.0, 2.0, 0.25))


@pytest.mark.parametrize(
    "P, message",
    [
        (lambda t: np.eye(2) if t < 1.5 else np.eye(3), r"P\(1.5\) must be a finite 2 x 2 matrix, got \[\[1.0, 0.0, 0.0\], "),
        (lambda t: np.diag([1.0, math.nan if t == 1.5 else 0.0]), r"P\(1.5\) must be a finite 2 x 2 matrix, got .*nan"),
    ],
    ids=["shape-changes-at-1.5", "nan-at-1.5"],
)
def test_one_bad_projection_among_many_times_is_named(P, message):
    # the 65 times of a grid are stacked in one array and checked at once;
    # only a failed check walks the values, calling P no more
    times = np.arange(-4.0, 4.0 + 0.0625, 0.125)
    calls = Counter()

    def counted(t):
        calls[t] += 1
        return P(t)

    with pytest.raises(ValueError, match=message):
        dichotomy._projections(counted, times, 2)
    assert times.size == 65 and calls == Counter(times.tolist())


def test_a_stack_of_projections_keeps_each_value():
    times = [-1.0, 0.0, 2.5]
    got = dichotomy._projections(lambda t: [[t, 1.0], [0.0, -t]], times, 2)
    assert np.array_equal(got, [[[t, 1.0], [0.0, -t]] for t in times])
    assert dichotomy._projections(lambda t: np.eye(2), [], 2).shape == (0, 2, 2)


# -- spectral norms ----------------------------------------------------------

unit = st.floats(-1.0, 1.0)
scale = st.integers(-300, 300).map(lambda k: 10.0**k)


@st.composite
def two_by_twos(draw):
    kind = draw(st.sampled_from(["general", "rank-one", "diagonal", "wide", "subnormal", "zero"]))
    if kind == "zero":
        return np.zeros((2, 2))
    if kind == "subnormal":  # k * 2^-1074 with |k| < 2^52: every entry subnormal or zero
        return np.array(draw(st.lists(st.integers(-(2**52) + 1, 2**52 - 1), min_size=4, max_size=4))).reshape(2, 2) * 5e-324
    if kind == "wide":  # each entry on its own scale
        return np.array([x * draw(scale) for x in draw(st.lists(unit, min_size=4, max_size=4))]).reshape(2, 2)
    x = draw(st.lists(unit, min_size=4, max_size=4))
    m = {"general": x, "rank-one": [x[0] * x[2], x[0] * x[3], x[1] * x[2], x[1] * x[3]], "diagonal": [x[0], 0.0, 0.0, x[3]]}
    return np.array(m[kind]).reshape(2, 2) * draw(scale)


def exact_2x2_norm(m):
    # the closed form in 200-bit arithmetic, whose exponents do not overflow
    with mpmath.workprec(200):
        a, b, c, d = (mpmath.mpf(v) for v in m.ravel().tolist())
        return (mpmath.sqrt((a + d) ** 2 + (c - b) ** 2) + mpmath.sqrt((a - d) ** 2 + (c + b) ** 2)) / 2


@settings(max_examples=300, deadline=None)
@given(stack=st.lists(two_by_twos(), min_size=1, max_size=30).map(np.array))
def test_the_closed_form_2x2_norm_is_within_8_ulp_of_lapack(stack):
    # in 1.4 M drawn matrices the closed form stayed within 1.9 ulp of the
    # exact norm, and LAPACK's SVD within about 7.7
    got, want = dichotomy._norms(stack), np.linalg.norm(stack, 2, axis=(1, 2))
    assert np.all(np.abs(got - want) <= 8 * np.spacing(want))
    exact = [exact_2x2_norm(m) for m in stack]
    assert all(abs(mpmath.mpf(g) - e) <= 4 * np.spacing(float(e)) for g, e in zip(got.tolist(), exact))
    assert np.all(got[~stack.any(axis=(1, 2))] == 0.0)


def test_the_2x2_norm_of_entries_near_the_largest_double_gives_no_warning():
    big = np.finfo(float).max
    stack = np.array(
        [[[big, 0.0], [0.0, -big]], [[big, big], [0.0, 0.0]], [[big, big], [big, big]], [[big / 2, -big], [big, big / 3]]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dichotomy._norms(stack)
    assert got[0] == big and got[1:].tolist() == [math.inf] * 3
    assert dichotomy._norms(np.zeros((3, 2, 2))).tolist() == [0.0] * 3
    assert dichotomy._norms(np.empty((0, 2, 2))).shape == (0,)


@pytest.mark.parametrize("n", [3, 4])
def test_norms_of_larger_blocks_are_lapacks(n):
    stack = np.random.default_rng(n).standard_normal((50, n, n)) * 10.0 ** np.arange(-25, 25)[:, None, None]
    assert np.array_equal(dichotomy._norms(stack), np.linalg.norm(stack, 2, axis=(1, 2)))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize(
    "check",
    [
        lambda spec, op, grid: verify(spec, op, grid),
        lambda spec, op, grid: estimate_constants(op, spec.P, spec.rates, grid),
        lambda spec, op, grid: check_projection(spec.P, op, grid),
    ],
    ids=["verify", "estimate_constants", "check_projection"],
)
def test_a_grid_pair_past_double_range_raises_naming_it(n, check):
    # T(800, 0) of diag(-1, 1) holds e^800: the pair table read [[0, nan], [0, nan]]
    # under a RuntimeWarning, and the SVD raised LinAlgError
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0] * (n // 2))), 100.0)
    spec = DichotomySpec(lambda t: np.diag([1.0, 0.0] * (n // 2)), exp_quad(), K=1.0, a=-1.0, b=1.0, eps=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"T\(800.0, 0.0\) leaves the range of doubles"):
            check(spec, op, [(800.0, 0.0), (0.0, 0.0)])
