import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dichokit import spectrum as spectrum_module
from dichokit.dichotomy import square_grid, verify
from dichokit.errors import DichokitError
from dichokit.evolution import EvolutionOperator
from dichokit.growth import builtin
from dichokit.spectrum import (
    ATOL,
    DualBasisPair,
    _exponent_traces,
    dichotomy_from_spectrum,
    lyapunov_exponent,
    regularity,
    spectrum,
)
from dichokit.system import BlockSystem, CoefficientField, adjoint, constant_field

EXP = builtin("exp")


@pytest.fixture
def solves(monkeypatch):
    """(state size, nfev) of every solve_ivp run the spectrum module makes."""
    seen = []
    real = spectrum_module.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        sol = real(fun, t_span, y0, **kwargs)
        seen.append((len(y0), sol.nfev))
        return sol

    monkeypatch.setattr(spectrum_module, "solve_ivp", recording)
    return seen


def standard_block():
    return BlockSystem(constant_field(np.diag([-1.0, -2.0])), constant_field([[3.0]]))


def test_scalar_decay_exponent():
    tr = lyapunov_exponent(constant_field([[-1.0]]), EXP, [1.0], horizon=50.0)
    assert tr.estimate == pytest.approx(-1.0, abs=0.02)
    assert tr.reliable


def test_polynomial_rate_exponent():
    # x' = -2 x / (t+1) has solution (t+1)^{-2}; poly-rate exponent is -2.
    # horizon 3e4 is the smallest power of ten with log h(T) > 10
    field = CoefficientField(1, lambda t: np.array([[-2.0 / (t + 1.0)]]), domain="half")
    tr = lyapunov_exponent(field, builtin("poly"), [1.0], horizon=3e4)
    assert tr.estimate == pytest.approx(-2.0, abs=0.05)


def test_zero_vector_gets_minus_infinity():
    tr = lyapunov_exponent(constant_field([[-1.0]]), EXP, [0.0], horizon=50.0)
    assert tr.estimate == -math.inf


def test_mismatched_start_vector_rejected():
    field = constant_field(np.diag([-1.0, -2.0]))
    with pytest.raises(ValueError, match="size 3.*dimension is 2"):
        lyapunov_exponent(field, EXP, [1.0, 2.0, 3.0], horizon=50.0)
    # a NaN entry zeroed the start's norm test, so it read as x0 = 0 with estimate -inf
    with pytest.raises(ValueError, match="start column 0 is not finite"):
        lyapunov_exponent(constant_field(np.diag([-1.0, -3.0])), EXP, [math.nan, 1.0], horizon=20.0)


def test_zero_column_is_not_integrated(solves):
    field = constant_field([[-1.0, 2.0], [0.0, -3.0]])
    x0 = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
    traces, _ = _exponent_traces(field, [EXP] * x0.shape[1], x0, 50.0)
    # one run over the two live columns: two directions of size 2, two log-norms
    assert [size for size, _ in solves] == [6]
    assert traces[1].estimate == -math.inf and traces[1].values.size == 0
    for j in (0, 2):
        alone = lyapunov_exponent(field, EXP, x0[:, j], 50.0)
        np.testing.assert_allclose(traces[j].values, alone.values, rtol=0, atol=1e-7)


def test_short_horizon_rejected():
    with pytest.raises(ValueError):
        lyapunov_exponent(constant_field([[-1.0]]), EXP, [1.0], horizon=5.0)


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda h: lyapunov_exponent(constant_field([[-1.0]]), EXP, [1.0], horizon=h),
        lambda h: spectrum(standard_block(), EXP, EXP, horizon=h),
        lambda h: regularity(standard_block(), EXP, EXP, horizon=h),
    ],
    ids=["lyapunov_exponent", "spectrum", "regularity"],
)
def test_a_non_finite_horizon_rejected(call, horizon):
    # log u(nan) <= 10 is False, so the short-horizon check let NaN through
    # and the solve never ended; an infinite one warned, then never ended
    with pytest.raises(ValueError, match=f"horizon {horizon} is not finite"):
        call(horizon)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -5.0])
def test_an_all_zero_start_still_has_its_horizon_checked(horizon):
    # a zero start used to return -inf before either horizon check
    with pytest.raises(ValueError, match=f"horizon {horizon} is not finite|horizon too short"):
        lyapunov_exponent(constant_field([[1.0]]), EXP, [0.0], horizon=horizon)


def test_scaling_invariance_of_exponent():
    # the log|c| offset decays like log|c| / t, so the 0.01 agreement
    # needs a horizon past log(10)/0.01
    field = constant_field(np.diag([-1.0, -2.0]))
    base = lyapunov_exponent(field, EXP, [1.0, 1.0], horizon=400.0).estimate
    for c in (-3.0, 0.25, 10.0):
        scaled = lyapunov_exponent(field, EXP, [c, c], horizon=400.0).estimate
        assert scaled == pytest.approx(base, abs=0.01)


def test_subadditivity_under_max():
    field = constant_field(np.diag([-1.0, -2.0]))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x1, x2 = rng.normal(size=(2, 2))
        e1 = lyapunov_exponent(field, EXP, x1, horizon=50.0).estimate
        e2 = lyapunov_exponent(field, EXP, x2, horizon=50.0).estimate
        es = lyapunov_exponent(field, EXP, x1 + x2, horizon=50.0).estimate
        assert es <= max(e1, e2) + 0.02


def test_spectrum_of_constant_blocks():
    rep = spectrum(standard_block(), EXP, EXP, horizon=50.0)
    assert [round(v, 2) for v, _ in rep.values_E] == [-2.0, -1.0]
    assert [m for _, m in rep.values_E] == [1, 1]
    assert [round(v, 2) for v, _ in rep.values_F] == [3.0]
    assert rep.reliable
    assert rep.lambda_top == pytest.approx(-1.0, abs=0.05)
    assert rep.chi_bottom == pytest.approx(3.0, abs=0.05)


def test_adjoint_exponents_flip_sign():
    rep = spectrum(standard_block(), EXP, EXP, horizon=50.0)
    assert [round(v, 2) for v, _ in rep.adjoint_E] == [1.0, 2.0]
    assert [round(v, 2) for v, _ in rep.adjoint_F] == [-3.0]
    # duality for block-diagonal constant systems
    for (lam, _), (lam_bar, _) in zip(rep.values_E, reversed(rep.adjoint_E)):
        assert lam_bar == pytest.approx(-lam, abs=0.05)


def test_example22_stable_equation_exponent():
    # oscillating coefficient contributes nothing to the exp-rate exponent;
    # closed form: log|x(t)| = -t + 0.1 (t sin t - t + cos t), and the tail
    # window [40, 50] contains sin t = 1, so the sup is -1 + O(1/t)
    from dichokit.system import Example22Params, make_example22

    field, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0))
    w1 = CoefficientField(1, lambda t: field(t)[:1, :1])
    tr = lyapunov_exponent(w1, EXP, [1.0], horizon=50.0)
    assert tr.estimate == pytest.approx(-1.0, abs=0.05)


def test_dual_basis_pair_rejects_mismatch():
    with pytest.raises(ValueError):
        DualBasisPair(np.eye(2), 2.0 * np.eye(2))


def test_regularity_diagonal_block_is_zero():
    blk = standard_block()
    rep = regularity(blk, EXP, EXP, horizon=50.0)
    assert rep.gamma == pytest.approx(0.0, abs=0.05)
    assert rep.gamma_bar == pytest.approx(0.0, abs=0.05)


def test_regularity_single_direction_is_plain_sum():
    blk = BlockSystem(constant_field([[-1.0]]), constant_field([[3.0]]))
    rep = regularity(blk, EXP, EXP, horizon=50.0)
    # l = 1: any basis gives phi(v) + phi_bar(v*)
    assert rep.gamma == pytest.approx(0.0, abs=0.05)


def test_regularity_rotated_system_orders_candidates():
    theta = math.radians(30.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    w1 = rot @ np.diag([-1.0, -3.0]) @ rot.T
    blk = BlockSystem(constant_field(w1), constant_field([[2.0]]))
    diagonalizing = DualBasisPair(rot, rot)  # orthogonal: dual = basis
    rep = regularity(blk, EXP, EXP, candidates_E=[DualBasisPair.from_basis(np.eye(2)), diagonalizing], horizon=50.0)
    standard_score, diag_score = rep.per_candidate_E
    assert standard_score >= diag_score - 1e-6
    assert rep.gamma == pytest.approx(diag_score, abs=1e-12)


def test_one_report_carries_the_first_candidates_exponents_and_the_regularity_bound():
    theta = math.radians(30.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    blk = BlockSystem(constant_field(rot @ np.diag([-1.0, -3.0]) @ rot.T), constant_field([[2.0]]))
    cands = [DualBasisPair(rot, rot), DualBasisPair.from_basis(np.eye(2))]
    # round-off seeds the -1 mode into the -3 eigenvector at about 1e-16, and
    # it gains e^{2t}: by horizon 50 that column reads -1.74 (ROADMAP item 2)
    horizon = 12.0
    rep = spectrum(blk, EXP, EXP, candidates_E=cands, horizon=horizon)
    assert regularity is spectrum
    # the diagonalizing candidate comes first and sees both eigenvalues; the
    # coordinate columns would both read the top one, -1
    assert [v for v, _ in rep.values_E] == pytest.approx([-3.0, -1.0], abs=1e-6)
    assert [v for v, _ in rep.adjoint_E] == pytest.approx([1.0, 3.0], abs=1e-6)
    # paired sums 0 for the eigenbasis, about -1 + 3 for the coordinate one
    assert rep.gamma == min(rep.per_candidate_E) == rep.per_candidate_E[0] and rep.basis_E is cands[0]
    assert rep.gamma_bar == rep.per_candidate_F[0] and len(rep.per_candidate_F) == 1
    # one report in both places gives the spec of the two-call pipeline
    claim = lambda report, reg: dichotomy_from_spectrum(report, reg, EXP, EXP, EXP, EXP, eps_tilde=0.1, block=blk)
    one = claim(rep, rep)
    two = claim(*(call(blk, EXP, EXP, candidates_E=cands, horizon=horizon) for call in (spectrum, regularity)))
    assert (one.K, one.a, one.b, one.eps) == (two.K, two.a, two.b, two.eps)


def test_dichotomy_from_spectrum_arithmetic():
    blk = BlockSystem(constant_field([[-2.0]]), constant_field([[1.0]]))
    rep = spectrum(blk, EXP, EXP, horizon=50.0)
    reg = regularity(blk, EXP, EXP, horizon=50.0)
    spec = dichotomy_from_spectrum(rep, reg, EXP, EXP, EXP, EXP, eps_tilde=0.5, block=blk)
    assert spec.a == pytest.approx(-1.5, abs=0.05)
    assert spec.b == pytest.approx(1.5, abs=0.05)


def test_dichotomy_from_spectrum_verifies_on_half_line():
    blk = BlockSystem(constant_field([[-1.0]]), constant_field([[1.0]]))
    rep = spectrum(blk, EXP, EXP, horizon=50.0)
    reg = regularity(blk, EXP, EXP, horizon=50.0)
    spec = dichotomy_from_spectrum(rep, reg, EXP, EXP, EXP, EXP, eps_tilde=0.1, block=blk)
    assert spec.a == pytest.approx(-0.9, abs=0.02)
    assert spec.b == pytest.approx(1.1, abs=0.02)
    assert spec.eps == pytest.approx(0.1, abs=0.05)
    op = EvolutionOperator(blk.combined())
    cert = verify(spec, op, square_grid(0.0, 10.0, 1.0))
    assert cert.passed


def test_sign_condition_violation_raises():
    blk = BlockSystem(constant_field([[0.1]]), constant_field([[1.0]]))
    rep = spectrum(blk, EXP, EXP, horizon=50.0)
    reg = regularity(blk, EXP, EXP, horizon=50.0)
    with pytest.raises(DichokitError):
        dichotomy_from_spectrum(rep, reg, EXP, EXP, EXP, EXP, eps_tilde=0.1, block=blk)
    # lambda_top = -1 < 0 < chi_bottom: the margin checks on eps_tilde
    blk = BlockSystem(constant_field([[-1.0]]), constant_field([[1.0]]))
    rep = spectrum(blk, EXP, EXP, horizon=50.0)
    with pytest.raises(ValueError, match="eps_tilde must be positive"):
        dichotomy_from_spectrum(rep, rep, EXP, EXP, EXP, EXP, eps_tilde=0.0, block=blk)
    with pytest.raises(DichokitError, match="eps_tilde=1.5 swallows the stable margin"):
        dichotomy_from_spectrum(rep, rep, EXP, EXP, EXP, EXP, eps_tilde=1.5, block=blk)


def rotated_block(diag, angle, omega):
    """W(t) = R(w t) Q D Q^T R(w t)^T + w J, with T(t, 0) = R(w t) Q e^{D t} Q^T."""

    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    q = rot(angle)
    m = q @ np.diag(diag) @ q.T
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    field = CoefficientField(2, lambda t: rot(omega * t) @ m @ rot(omega * t).T + omega * j)
    exact = lambda t: rot(omega * t) @ q @ np.diag(np.exp(np.array(diag) * t)) @ q.T
    return field, exact


def assert_traces_match_closed_form(traces, x0, exact):
    for j, tr in enumerate(traces):
        want = [math.log(np.linalg.norm(exact(t) @ x0[:, j])) / t for t in tr.times]
        np.testing.assert_allclose(tr.values, want, rtol=0, atol=1e-7)


def test_batched_traces_match_expm_on_constant_field():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + np.triu(rng.normal(size=(3, 3)), 1)
    x0 = np.column_stack([np.eye(3), rng.normal(size=(3, 2))])
    traces, _ = _exponent_traces(constant_field(a), [EXP] * x0.shape[1], x0, 50.0)
    assert_traces_match_closed_form(traces, x0, lambda t: expm(a * t))


@pytest.mark.parametrize("diag, angle, omega", [((-2.0, -1.0), 0.6, 0.75), ((1.0, 2.0), 1.1, 0.7)])
def test_batched_traces_match_rotated_block_closed_form(diag, angle, omega):
    field, exact = rotated_block(diag, angle, omega)
    x0 = np.column_stack([np.eye(2), [0.3, -1.2]])
    traces, _ = _exponent_traces(field, [EXP] * x0.shape[1], x0, 50.0)
    assert_traces_match_closed_form(traces, x0, exact)


def exact_log_norms(a, x0, times):
    """log |e^{At} x0_j| at evenly spaced times, one column per j, exactly.

    In floating point, e^{At} x0_j errs by about eps |e^{At}| |x0_j|, which
    swamps a column that starts in a decaying mode; the digits here exceed
    log10 of the condition number of e^{At} by 30.
    """
    cond = np.linalg.norm(expm(a * times[-1]), 2) * np.linalg.norm(expm(-a * times[-1]), 2)
    with mpmath.workdps(30 + int(math.log10(cond))):
        am = mpmath.matrix(a.tolist())
        step = mpmath.expm(am * (times[1] - times[0]))
        x = mpmath.expm(am * times[0]) * mpmath.matrix(x0.tolist())
        rows = []
        for k in range(len(times)):
            x = step * x if k else x
            rows.append([float(mpmath.log(mpmath.norm(x.column(j)))) for j in range(x.cols)])
    return np.array(rows)


def assert_solves_within_promise(a, x0):
    """The columns of x0 solved together and alone, against the exact value.

    That is 1e-7 plus what an error of size ATOL in the unit start direction
    u may cost: it moves x(t) by up to ATOL |e^{At}| relative to |e^{At} u|,
    the log by up to log1p(ATOL kappa), kappa = |e^{At}| / |e^{At} u|, and
    the value by that over log u(t) = t.  kappa is large only where u seeds
    a growing mode weakly (through a small entry) or not at all.
    """
    field, dim = constant_field(a), x0.shape[1]
    together, _ = _exponent_traces(field, [EXP] * dim, x0, 50.0)
    alone = [lyapunov_exponent(field, EXP, x0[:, j], 50.0) for j in range(dim)]
    times = together[0].times
    log_sizes = exact_log_norms(a, x0, times)
    log_flow = np.log(np.linalg.norm(expm(a * times[:, None, None]), 2, axis=(1, 2)))
    for j in range(dim):
        log_kappa = log_flow + math.log(np.linalg.norm(x0[:, j])) - log_sizes[:, j]
        promise = 1e-7 + np.logaddexp(0.0, math.log(ATOL) + log_kappa) / times
        for tr in (together[j], alone[j]):
            np.testing.assert_array_less(np.abs(tr.values - log_sizes[:, j] / times), promise)


@settings(max_examples=15, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_columns_solved_together_and_alone_match_expm(dim, data):
    entries = st.floats(-1.5, 1.5, allow_nan=False)
    a = np.array(data.draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    assume(np.max(np.abs(a @ a.T - a.T @ a)) > 0.1)  # non-normal
    x0 = np.array(data.draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    assume(np.all(np.linalg.norm(x0, axis=0) > 0.1))
    assert_solves_within_promise(a, x0)


@pytest.mark.parametrize(
    "a",
    [
        # e2 seeds the growing mode through the entry 1e-9 (kappa 1e9): within 2.5e-5
        [[1.0, 1e-9, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        # e3 seeds it through 2.2e-16, below ATOL (kappa 4.5e15): within 0.21
        [[0.0, 0.0, 0.0], [0.0, 1.0, 2.2e-16], [0.0, 1.0, 0.0]],
    ],
)
def test_growing_mode_seeded_near_atol_within_its_promise(a):
    assert_solves_within_promise(np.array(a), np.eye(3))


def diagonal_block(l, m):
    return BlockSystem(constant_field(np.diag(-1.0 - np.arange(l))), constant_field(np.diag(1.0 + np.arange(m))))


def block_dims(l, m, count=1):
    """State size of one solve over `count` start sets per block and direction."""
    return 2 * count * (l * l + m * m + l + m)


@pytest.mark.parametrize("l, m", [(1, 1), (2, 3), (3, 2)])
def test_spectrum_makes_one_solve_and_reports_its_evaluations(solves, l, m):
    rep = spectrum(diagonal_block(l, m), EXP, EXP, horizon=50.0)
    # each forward and adjoint column holds its own block's entries and a log-norm, no padding
    assert solves == [(block_dims(l, m), rep.nfev)]
    assert sum(mult for _, mult in rep.values_E) == l and sum(mult for _, mult in rep.values_F) == m


@pytest.mark.parametrize("count", [1, 2, 3])
def test_regularity_makes_one_solve_and_reports_its_evaluations(solves, count):
    rng = np.random.default_rng(count)
    cands = [DualBasisPair.from_basis(np.eye(2) + 0.3 * rng.normal(size=(2, 2))) for _ in range(count)]
    rep = regularity(diagonal_block(2, 1), EXP, EXP, candidates_E=cands, horizon=50.0)
    # count candidates on E, the default one on F
    assert solves == [(2 * count * (4 + 2) + 2 * (1 + 1), rep.nfev)]
    assert len(rep.per_candidate_E) == count


# h, k, hbar, kbar: distinct, so a column measured against the wrong rate shows
RATES = [builtin("exp", {"rate": c}) for c in (1.0, 1.5, 2.0, 0.5)]


def nonnormal_block(l, m):
    rng = np.random.default_rng(10 * l + m)
    w1, w2 = (constant_field(rng.normal(size=(d, d)) + np.triu(rng.normal(size=(d, d)), 1)) for d in (l, m))
    return BlockSystem(w1, w2)


def assert_matches_solo_runs(traces, blk, starts):
    """The four trace lists equal per-block solo solves of the four start sets."""
    fields = [blk.W1, blk.W2, adjoint(blk.W1), adjoint(blk.W2)]
    assert len(traces) == 4
    for got, w, rate, x0 in zip(traces, fields, RATES, starts):
        alone, _ = _exponent_traces(w, [rate] * x0.shape[1], x0, 50.0)
        assert len(got) == len(alone)
        for g, a in zip(got, alone):
            np.testing.assert_allclose(g.values, a.values, rtol=0, atol=1e-7)


# (5, 4): the doubled system has dimension 18, past the coefficient-field cap of 16
@pytest.mark.parametrize("l, m", [(1, 1), (2, 3), (3, 2), (5, 4)])
def test_spectrum_solve_matches_solo_block_runs(l, m):
    blk = nonnormal_block(l, m)
    rep = spectrum(blk, *RATES, horizon=50.0)
    traces = [rep.traces[key] for key in ("E", "F", "E_adjoint", "F_adjoint")]
    assert_matches_solo_runs(traces, blk, [np.eye(l), np.eye(m)] * 2)


@pytest.mark.parametrize("l, m", [(1, 1), (2, 3), (3, 2), (5, 4)])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_regularity_solve_matches_solo_block_runs(monkeypatch, l, m, count):
    blk = nonnormal_block(l, m)
    rng = np.random.default_rng(count)
    near_identity = lambda d: DualBasisPair.from_basis(np.eye(d) + 0.3 * rng.normal(size=(d, d)))
    cands = [[near_identity(d) for _ in range(count)] for d in (l, m)]
    seen = []
    real = spectrum_module._doubled_traces
    monkeypatch.setattr(spectrum_module, "_doubled_traces", lambda *args: seen.append(real(*args)) or seen[-1])
    rep = regularity(blk, *RATES, candidates_E=cands[0], candidates_F=cands[1], horizon=50.0)
    [(traces, nfev)] = seen
    assert rep.nfev == nfev
    starts = [np.hstack([c.basis for c in cs]) for cs in cands] + [np.hstack([c.dual for c in cs]) for cs in cands]
    assert_matches_solo_runs(traces, blk, starts)
    # each candidate's score is the max paired sum over its own columns
    for scores, fwd, bwd, d in ((rep.per_candidate_E, *traces[::2], l), (rep.per_candidate_F, *traces[1::2], m)):
        sums = [f.estimate + b.estimate for f, b in zip(fwd, bwd)]
        assert scores == [max(sums[i * d : (i + 1) * d]) for i in range(count)]
    assert rep.gamma == min(rep.per_candidate_E) and rep.gamma_bar == min(rep.per_candidate_F)


def test_blocks_past_the_field_cap_together():
    # W1 and W2 each within the cap of 16, A = diag(W1, W2) of dimension 17 beyond it
    rep = spectrum(diagonal_block(9, 8), EXP, EXP, horizon=50.0)
    assert [v for v, _ in rep.values_E] == pytest.approx(-1.0 - np.arange(9)[::-1], abs=1e-6)
    assert [v for v, _ in rep.values_F] == pytest.approx(1.0 + np.arange(8), abs=1e-6)
    assert [v for v, _ in rep.adjoint_F] == pytest.approx(-1.0 - np.arange(8)[::-1], abs=1e-6)
    assert regularity(diagonal_block(9, 8), EXP, EXP, horizon=50.0).gamma == pytest.approx(0.0, abs=1e-6)


def test_start_set_of_the_wrong_block_size_rejected():
    with pytest.raises(ValueError, match="start sets have sizes"):
        regularity(diagonal_block(2, 1), EXP, EXP, candidates_E=[DualBasisPair.from_basis(np.eye(3))], horizon=50.0)


def test_spectrum_rejects_wrong_shaped_block():
    # a 1x1 block would broadcast into W1's 2x2 slot of the doubled field
    blk = BlockSystem(CoefficientField(2, lambda t: np.array([[1.0]])), constant_field([[3.0]]))
    with pytest.raises(ValueError, match=r"shape \(1, 1\) at t=0\.0, expected \(2, 2\)"):
        spectrum(blk, EXP, EXP, horizon=50.0)


def nan_after(t_bad, w):
    """W's field, but NaN from time t_bad on."""
    return CoefficientField(w.dim, lambda t: np.full((w.dim, w.dim), math.nan) if t >= t_bad else w.eval(t))


# regularity is spectrum, so the ids are named
@pytest.mark.parametrize("call", [spectrum, regularity], ids=["spectrum", "regularity"])
def test_non_finite_block_raises_naming_the_time(call):
    blk = standard_block()
    blk = BlockSystem(blk.W1, nan_after(20.0, blk.W2))
    with pytest.raises(ValueError, match=r"non-finite entries at t=") as err:
        call(blk, EXP, EXP, horizon=50.0)
    # the named time is the stage that first met the NaN, inside the solve's span
    assert 20.0 <= float(str(err.value).rsplit("t=", 1)[1]) < 50.0


def test_doubled_field_in_place_matches_fresh_build():
    # the plain build of the doubled field, fresh zeros each call and
    # CoefficientField-checked blocks, is the reference: same arithmetic,
    # so the in-place build must agree with it bit for bit
    w1, _ = rotated_block((-2.0, -1.0), 0.6, 0.75)
    w2, _ = rotated_block((1.0, 2.0), 1.1, 0.7)
    blk = BlockSystem(w1, w2)

    def fresh(t):
        d = np.zeros((8, 8))
        d[:2, :2] = blk.W1(t)
        d[2:4, 2:4] = blk.W2(t)
        d[4:, 4:] = -d[:4, :4].T
        return d

    mask = np.kron(np.eye(4), np.ones((2, 2))) > 0
    want, nfev = _exponent_traces(fresh, [EXP] * 8, np.eye(8), 50.0, mask=mask)
    rep = spectrum(blk, EXP, EXP, horizon=50.0)
    assert rep.nfev == nfev
    got = [tr for key in ("E", "F", "E_adjoint", "F_adjoint") for tr in rep.traces[key]]
    assert len(got) == len(want) == 8
    assert all(np.array_equal(g.values, w.values) and np.array_equal(g.times, w.times) for g, w in zip(got, want))


def test_a_partial_candidate_basis_is_rejected():
    # for W1 = diag(-1 + 0.1 (t cos t - 1), -2), W2 = [1], h = e^t, horizon
    # 50, the identity basis gives gamma = 0.2002, while the one-column
    # candidate (e2, e2) scored only e2 and gave 0.0, below every full basis
    e2 = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="square"):
        DualBasisPair(e2, e2)
    with pytest.raises(ValueError, match="square"):
        DualBasisPair(np.eye(1), [[1.0, 1.0]])
    # a NaN basis failed no pairing comparison, and its candidate scored like the identity
    with pytest.raises(ValueError, match="finite"):
        DualBasisPair([[1.0, math.nan], [0.0, 1.0]], np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        DualBasisPair.from_basis([[1.0, 0.0], [0.0, math.nan]])
    # numpy's LinAlgError escaped from_basis on these two
    with pytest.raises(ValueError, match="basis is singular"):
        DualBasisPair.from_basis([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match=r"need a square basis, got shape \(2, 1\)"):
        DualBasisPair.from_basis(e2)
