import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dichokit import evolution, lyapfun
from dichokit.dichotomy import DichotomySpec, square_grid, verify
from dichokit.errors import DichokitError, DomainError, TailCertificationError
from dichokit.evolution import EvolutionOperator
from dichokit.growth import RateQuadruple, builtin
from dichokit.lyapfun import QuadraticLyapunov, classify, construct_S, derivative_condition
from dichokit.system import CoefficientField, Example22Params, constant_field, make_example22
from dichokit.tails import time_backward_for_log_drop, time_for_log_decrease

EXPQUAD = RateQuadruple(*(builtin("exp") for _ in range(4)))


def diag_setup():
    spec = DichotomySpec(
        lambda t: np.diag([1.0, 0.0]), EXPQUAD, K=1.0, a=-1.0, b=1.0, eps=0.0
    )
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    return spec, op


def quadrature_oracle(a, dbar, upper=60.0):
    # independent scalar quadrature of the paper's weighted integrand
    val, _ = quad(lambda u: math.exp(2 * a * u) * math.exp(-2 * (a + dbar) * u), 0.0, upper)
    return val


def test_construct_S_half_damping_is_diag_one():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, np.linspace(-2.0, 2.0, 9))
    want = quadrature_oracle(-1.0, 0.5)  # = 1
    assert want == pytest.approx(1.0, abs=1e-9)
    for m in lyap.matrices:
        assert np.allclose(m, np.diag([want, -want]), atol=1e-6)


def test_construct_S_quarter_damping_matches_oracle():
    # the weighted integrand is e^{2au} e^{-2(a+dbar)u} = e^{-2 dbar u},
    # so the value is 1/(2 dbar) = 2 at dbar = 1/4
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.25, np.linspace(-1.0, 1.0, 5))
    want = quadrature_oracle(-1.0, 0.25)
    assert want == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(lyap.S(0.0), np.diag([want, -want]), atol=1e-6)


def test_construct_S_pure_contraction_is_positive_definite():
    spec = DichotomySpec(
        lambda t: np.eye(2), EXPQUAD, K=1.0, a=-1.0, b=0.0, eps=0.0
    )
    op = EvolutionOperator(constant_field(np.diag([-1.0, -2.0])))
    lyap = construct_S(spec, op, 0.5, np.linspace(0.0, 2.0, 5))
    for m in lyap.matrices:
        assert np.all(np.linalg.eigvalsh(m) > 0)
    assert lyap.unstable_cutoff is None  # Q = 0: no unstable integral


def test_construct_S_rejects_bad_damping():
    spec, op = diag_setup()
    with pytest.raises(ValueError):
        construct_S(spec, op, 1.5, np.linspace(-1, 1, 3))
    with pytest.raises(ValueError):
        construct_S(spec, op, 0.0, np.linspace(-1, 1, 3))


def test_construct_S_refuses_an_unstable_side_on_a_half_line_system():
    # the unstable integral runs back to -inf, where a half-line system has no values
    r = builtin("expsq")
    spec = DichotomySpec(
        lambda t: np.diag([1.0, 0.0]), RateQuadruple(r, r, r, r), K=1.0, a=-1.0, b=1.0, eps=0.0
    )
    op = EvolutionOperator(constant_field(np.diag([-2.0, 2.0]), domain="half"))
    with pytest.raises(DomainError, match="the unstable integral needs a full-line system"):
        construct_S(spec, op, 0.5, [0.0, 1.0])


def test_construct_S_refuses_a_spec_whose_K_is_below_the_truth():
    # S = diag(1, -1) exactly, past the envelope cap K^2 (1 + 1) / (2 dbar) = 0.5
    spec, op = diag_setup()
    with pytest.raises(DichokitError, match=r"\|S\(-1\.0\)\| exceeds the envelope cap 0\.5;"):
        construct_S(replace(spec, K=0.5), op, 0.5, np.linspace(-1.0, 1.0, 5))


def test_construct_S_norm_cap_margin_nonnegative():
    field, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0))
    op = EvolutionOperator(field)
    lyap = construct_S(spec, op, 0.5, np.linspace(0.5, 2.5, 5))
    assert lyap.norm_margin >= 0.0
    assert lyap.min_abs_eigenvalue > 0.0


def example22_setup():
    return make_example22(Example22Params(1.0, 0.1, 1.0))


def example22_oracle(analytic, spec, dbar, times, c):
    # h = k = e^{ct}, so h'/h = k'/k = c; 40/c time units out the integrands are below e^-40
    def integral(f, lo, hi):
        pts = [0.0] if lo < 0.0 < hi else None
        return quad(f, lo, hi, points=pts, limit=400, epsabs=0.0, epsrel=1e-12)[0]

    a, b, span = spec.a, spec.b, 40 / c
    stable = lambda t: lambda v: c * analytic(v, t)[0, 0] ** 2 * math.exp(-2 * (a + dbar) * c * (v - t))
    unstable = lambda t: lambda v: c * analytic(v, t)[1, 1] ** 2 * math.exp(2 * (b - dbar) * c * (t - v))
    s11 = [integral(stable(t), t, t + span) for t in times]
    s22 = [-integral(unstable(t), t - span, t) for t in times]
    return np.array(s11), np.array(s22)


def assert_matches_example22_oracle(times, c=1.0):
    h, mu = builtin("exp", {"rate": c}), builtin("expabs")
    field, analytic, spec = make_example22(Example22Params(1.0, 0.1, 1.0, RateQuadruple(h, h, mu, mu)))
    dbar = 0.5
    got = construct_S(spec, EvolutionOperator(field), dbar, times).matrices
    s11, s22 = example22_oracle(analytic, spec, dbar, times, c)
    assert np.max(np.abs(got[:, 0, 0] - s11) / np.abs(s11)) <= 5e-8
    assert np.max(np.abs(got[:, 1, 1] - s22) / np.abs(s22)) <= 5e-8
    assert np.max(np.abs(got[:, 0, 1])) <= 1e-12


@settings(max_examples=5, deadline=None)
@given(c=st.floats(0.5, 2.0))
@example(c=1.0)
def test_construct_S_example22_matches_scalar_quadrature_off_zero(c):
    # grid without 0: the field jump at 0 falls inside a grid interval
    assert_matches_example22_oracle(np.linspace(-1.9, 2.1, 17), c)


def test_construct_S_example22_matches_scalar_quadrature_on_a_nonuniform_grid():
    # intervals of lengths 0.05 to 1.55 share one clock; the jump at 0 lies inside (-0.3, 0.05)
    assert_matches_example22_oracle(np.array([-1.9, -1.85, -0.3, 0.05, 0.7, 2.1]))


@pytest.mark.filterwarnings("error")
def test_construct_S_on_a_fine_lattice_matches_the_unit_lattice():
    # at spacing 0.1 the ends -0.7, -0.3, 0.3, 0.7 miss their checkpoints by
    # round-off, so the batched groups hold pieces a few ulps long
    field, _, spec = example22_setup()
    times = np.array([-0.7, -0.3, 0.3, 0.7])
    unit, fine = (
        construct_S(spec, EvolutionOperator(field, checkpoint_spacing=c), 0.5, times).matrices
        for c in (1.0, 0.1)
    )
    err = np.linalg.norm(fine - unit, 2, axis=(1, 2)) / np.linalg.norm(unit, 2, axis=(1, 2))
    assert err.max() <= 1e-12


def test_construct_S_cut_at_the_reprojection_window_matches_the_unit_lattice():
    # at spacing 64 each tail, 18.4 long past +-4, lies inside one lattice cell,
    # so only the cut at REPROJECT_WINDOW splits it into reprojected pieces
    field, _, spec = example22_setup()
    times = np.linspace(-4.0, 4.0, 9)
    unit, long = (
        construct_S(spec, EvolutionOperator(field, checkpoint_spacing=c), 0.5, times).matrices
        for c in (1.0, 64.0)
    )
    err = np.linalg.norm(long - unit, 2, axis=(1, 2)) / np.linalg.norm(unit, 2, axis=(1, 2))
    assert err.max() <= 1e-13


@pytest.mark.parametrize("hair", [1e-300, -1e-300])
def test_construct_S_at_a_grid_time_a_hair_off_the_jump_matches_the_jump(hair):
    # S is continuous across the jump at 0; no grid interval may be
    # integrated across it in one piece because its end misses 0 by a hair
    field, _, spec = example22_setup()
    on, off = (
        construct_S(spec, EvolutionOperator(field), 0.5, np.array([-0.7, -0.3, mid, 0.3, 0.7])).matrices
        for mid in (0.0, hair)
    )
    err = np.linalg.norm(off - on, 2, axis=(1, 2)) / np.linalg.norm(on, 2, axis=(1, 2))
    assert err.max() <= 1e-12


@pytest.mark.parametrize("times", [[0.0, 5e-324, 1.0], [0.0, 5e-324]])
def test_construct_S_across_a_subnormal_grid_interval(times):
    # 5e-324 / REPROJECT_WINDOW rounds to 0, so the interval [0, 5e-324] got
    # no piece of the sweep; it is still cut into one
    field, _, spec = example22_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = construct_S(spec, EvolutionOperator(field), 0.5, times).matrices
    assert np.linalg.norm(s[1] - s[0], 2) <= 1e-12 * np.linalg.norm(s[0], 2)
    assert abs(s[0, 0, 0] - 0.852) < 1e-3 and abs(s[0, 1, 1] + 0.852) < 1e-3


@pytest.mark.parametrize("times", [np.linspace(-2.0, 2.0, 17), np.array([0.3])], ids=["17-point", "one-point"])
def test_construct_S_takes_two_solves_and_two_quadratures_per_side(monkeypatch, times):
    # per side, one batched solve and one stacked quad_vec for the grid
    # intervals and one each for the tail, whatever the grid size
    calls = {"solve_ivp": 0, "quad_vec": 0}
    for module, name in ((evolution, "solve_ivp"), (lyapfun, "quad_vec")):

        def recording(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    field, _, spec = example22_setup()
    construct_S(spec, EvolutionOperator(field), 0.5, times)
    per_side = 2 if times.size > 1 else 1
    assert calls == {"solve_ivp": 2 * per_side, "quad_vec": 2 * per_side}


def test_construct_S_subgrid_matches_full_grid():
    # a tail_tol far below the tolerance keeps truncation out of the comparison:
    # the full grid truncates every point further out than a sub-grid does
    field, _, spec = example22_setup()
    grid = np.linspace(-2.0, 2.0, 17)
    full = construct_S(spec, EvolutionOperator(field), 0.5, grid, tail_tol=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=6, unique=True))
    def check(idx):
        idx = sorted(idx)
        sub = construct_S(spec, EvolutionOperator(field), 0.5, grid[idx], tail_tol=1e-12)
        want = full.matrices[idx]
        err = np.linalg.norm(sub.matrices - want, 2, axis=(1, 2)) / np.linalg.norm(want, 2, axis=(1, 2))
        assert err.max() <= 1e-8

    check()


def test_construct_S_commutes_with_rotation():
    # y = R(wt) x turns x' = A x into y' = (R A R^T + wJ) y, P into R P R^T,
    # and S into R S R^T: a non-diagonal field with a non-constant projector
    w = 0.7

    def rot(t):
        c, s = math.cos(w * t), math.sin(w * t)
        return np.array([[c, -s], [s, c]])

    def a_x(t):
        return np.diag([-1.0 - 0.3 * math.sin(t), 1.0 + 0.2 * math.cos(t)])

    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    p = np.diag([1.0, 0.0])
    field_y = CoefficientField(2, lambda t: rot(t) @ a_x(t) @ rot(t).T + w * gen)
    families = (lambda t: p, lambda t: rot(t) @ p @ rot(t).T)
    spec_x, spec_y = (DichotomySpec(P, EXPQUAD, K=math.exp(0.6), a=-1.0, b=1.0, eps=0.0) for P in families)
    times = np.linspace(-1.0, 1.0, 9)
    s_x = construct_S(spec_x, EvolutionOperator(CoefficientField(2, a_x)), 0.4, times).matrices
    s_y = construct_S(spec_y, EvolutionOperator(field_y), 0.4, times).matrices
    want = np.array([rot(t) @ m @ rot(t).T for t, m in zip(times, s_x)])
    err = np.linalg.norm(s_y - want, 2, axis=(1, 2)) / np.linalg.norm(want, 2, axis=(1, 2))
    assert err.max() <= 1e-8


def test_construct_S_field_evaluations_grow_slowly_with_grid_size():
    # one sweep per side: the tails dominate, each grid interval adds pieces to one batched solve
    field, _, spec = example22_setup()
    calls = [0]

    def counted(t):
        calls[0] += 1
        return field.eval(t)

    counted_field = replace(field, eval=counted)
    evals = []
    for n in (9, 129):
        calls[0] = 0
        construct_S(spec, EvolutionOperator(counted_field), 0.5, np.linspace(-2.0, 2.0, n))
        evals.append(calls[0])
    assert evals[1] < 3 * evals[0]


def test_construct_S_reports_cutoffs_and_quadrature_error():
    field, _, spec = example22_setup()
    times = np.linspace(-2.0, 2.0, 9)
    lyap = construct_S(spec, EvolutionOperator(field), 0.5, times)
    v_cut, w_cut = lyap.stable_cutoff, lyap.unstable_cutoff
    assert all(math.isfinite(x) for x in (v_cut, w_cut, lyap.quad_error))
    assert v_cut > times[-1] > times[0] > w_cut
    assert 0.0 <= lyap.quad_error < 1e-6
    # tail_tol >= 1 asks for no log drop: the cutoffs sit on the end points and S vanishes there
    cut = [construct_S(spec, EvolutionOperator(field), 0.5, times, tail_tol=tol) for tol in (1.0, 5.0)]
    assert (cut[0].stable_cutoff, cut[0].unstable_cutoff) == (2.0, -2.0)
    assert cut[0].S(2.0)[0, 0] == cut[0].S(-2.0)[1, 1] == 0.0
    assert np.array_equal(cut[0].matrices, cut[1].matrices)


def test_tail_searches_cap_the_distance_from_t0_not_the_time():
    # the cap of 1e6 bounds how far a search may move, so a grid past t = 1e6 still certifies
    spec, op = diag_setup()
    times = [2e6, 2e6 + 1.0]
    lyap = construct_S(spec, op, 0.5, times)
    assert np.allclose(lyap.matrices, np.diag([1.0, -1.0]), rtol=0.0, atol=1e-6)
    assert lyap.stable_cutoff == pytest.approx(times[-1] + math.log(1e8), rel=1e-12)
    assert lyap.unstable_cutoff == pytest.approx(times[0] - math.log(1e8), rel=1e-12)


def test_tail_searches_refuse_a_rate_that_moves_too_little_within_the_cap():
    # log drop 100 needs t = e^1e5 - 1 for (t+1)^0.001 and a distance of 1e8 for e^{1e-6 t}
    with pytest.raises(TailCertificationError, match="within 1e"):
        time_for_log_decrease(builtin("poly", {"power": 1e-3}), 0.0, 100.0)
    with pytest.raises(TailCertificationError, match="within 1e"):
        time_backward_for_log_drop(builtin("exp", {"rate": 1e-6}), -5e6, 100.0)


def test_construct_S_truncates_every_point_within_tail_tol():
    # diag(-1, 1) at dbar = 1/2: S11(t) = 1 - e^{-(V - t)} and S22(t) = -(1 - e^{-(t - W)}),
    # the envelope is the integrand itself, so the truncated mass is exactly the tail
    spec, op = diag_setup()
    tol = 1e-4
    lyap = construct_S(spec, op, 0.5, np.linspace(-2.0, 2.0, 9), tail_tol=tol)
    lost = np.concatenate([1.0 - lyap.matrices[:, 0, 0], 1.0 + lyap.matrices[:, 1, 1]])
    assert lost.max() <= tol * (1 + 1e-3)
    assert lost[8] >= 0.99 * tol and lost[9] >= 0.99 * tol  # the end points sit at their own cutoffs


def test_construct_S_deduplicates_repeated_times():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, [1.0, -1.0, 0.0, 0.0, 1.0])
    assert lyap.times.tolist() == [-1.0, 0.0, 1.0]
    assert np.allclose(lyap.S(0.0), np.diag([1.0, -1.0]), atol=1e-6)
    assert derivative_condition(lyap, op.field, form="sufficiency").passed


def test_construct_S_one_point_grid():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, [0.5])
    assert np.allclose(lyap.S(0.5), np.diag([1.0, -1.0]), atol=1e-6)
    with pytest.raises(ValueError):
        lyap.S(0.6)
    for bad in (math.nan, [0.5, math.nan]):  # NaN compared false with both grid ends
        with pytest.raises(ValueError, match="t=nan outside the S grid"):
            lyap.S(bad)


def test_H_reads_one_time_or_stacked_times():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, np.linspace(-1.0, 1.0, 5))
    ts = np.array([-0.9, 0.1, 0.6])
    xs = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    want = [x @ lyap.S(t) @ x for t, x in zip(ts, xs)]
    assert lyap.H(ts[0], xs[0]) == pytest.approx(want[0], rel=1e-15)
    np.testing.assert_allclose(lyap.H(ts, xs), want, rtol=1e-15, atol=0.0)


def test_construct_S_rejects_empty_grid():
    spec, op = diag_setup()
    with pytest.raises(ValueError):
        construct_S(spec, op, 0.5, [])


def test_construct_S_rejects_non_finite_grid():
    spec, op = diag_setup()
    for bad in ([0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError):
            construct_S(spec, op, 0.5, bad)


@pytest.mark.parametrize("side, bad", [("stable", 0.0), ("unstable", -1.0)])
def test_construct_S_names_a_malformed_projection_at_a_piece_end(side, bad):
    # the grid reads P at -0.5 and 0.5 only; the stable sweep's pieces end at
    # the checkpoint 0, the unstable one's tail also at -1
    spec, op = diag_setup()
    p = np.diag([1.0, 0.0])
    P = lambda t: np.full((2, 2), math.nan) if t == bad else p
    with pytest.raises(ValueError, match=rf"P\({bad}\) must be a finite 2 x 2 matrix"):
        construct_S(replace(spec, P=P), op, 0.5, [-0.5, 0.5])


def test_derivative_condition_names_a_malformed_projection():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, np.linspace(-2.0, 2.0, 9))
    bad = replace(lyap, spec=replace(spec, P=lambda t: np.eye(3) if t > 0.4 else spec.P(t)))
    with pytest.raises(ValueError, match=r"P\(0.5\) must be a finite 2 x 2 matrix"):
        derivative_condition(bad, op.field, form="necessity")


def test_derivative_condition_both_forms_pass_on_diag():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, np.linspace(-2.0, 2.0, 9))
    suff = derivative_condition(lyap, op.field, form="sufficiency")
    assert suff.passed and suff.margin == pytest.approx(1.0, abs=1e-6)
    nec = derivative_condition(lyap, op.field, form="necessity")
    assert nec.passed and nec.margin == pytest.approx(1.0, abs=1e-6)
    for rep in (suff, nec):
        assert rep.margin == lyapfun.DERIVATIVE_TOL - rep.max_eigenvalue


def test_derivative_condition_identity_matrix_fails():
    spec, op = diag_setup()
    times = np.linspace(-1.0, 1.0, 9)
    bad = QuadraticLyapunov(times, np.array([np.eye(2)] * 9), 0.5, spec)
    rep = derivative_condition(bad, op.field, form="sufficiency")
    assert not rep.passed
    assert rep.max_eigenvalue == pytest.approx(3.0, abs=1e-9)  # 2 A22 + 1
    assert rep.margin == lyapfun.DERIVATIVE_TOL - rep.max_eigenvalue


def test_derivative_condition_refuses_coarse_grid():
    # off-diagonal oscillation cancels in S A + A^T S, so the verdict is
    # decided by S' alone, which the coarse grid cannot resolve
    spec, op = diag_setup()
    times = np.linspace(0.0, 4.0, 9)
    wiggly = np.array(
        [np.diag([1.0, -1.0]) + 0.8 * math.sin(5.0 * t) * np.array([[0.0, 1.0], [1.0, 0.0]]) for t in times]
    )
    lyap = QuadraticLyapunov(times, wiggly, 0.5, spec)
    with pytest.raises(DichokitError):
        derivative_condition(lyap, op.field)
    with pytest.raises(ValueError, match="form must be 'sufficiency' or 'necessity'"):
        derivative_condition(lyap, op.field, form="both")
    one_point = QuadraticLyapunov(times[:1], wiggly[:1], 0.5, spec)
    with pytest.raises(DichokitError, match="no interior points"):
        derivative_condition(one_point, op.field)


def test_necessity_form_holds_for_time_varying_field():
    # A(t) = diag(-1 - 0.3 sin t, 1 + 0.2 cos t) admits the bound with
    # K = e^0.6: the construction must satisfy the derivative identity
    field = CoefficientField(
        2, lambda t: np.diag([-1.0 - 0.3 * math.sin(t), 1.0 + 0.2 * math.cos(t)])
    )
    spec = DichotomySpec(
        lambda t: np.diag([1.0, 0.0]), EXPQUAD, K=math.exp(0.6), a=-1.0, b=1.0, eps=0.0
    )
    op = EvolutionOperator(field)
    assert verify(spec, op, square_grid(-2.0, 2.0, 0.5)).passed
    lyap = construct_S(spec, op, 0.4, np.linspace(-2.0, 2.0, 21))
    rep = derivative_condition(lyap, field, form="necessity")
    assert rep.passed
    assert rep.margin > 0.5
    assert rep.margin == lyapfun.DERIVATIVE_TOL - rep.max_eigenvalue


def test_classify_basis_and_mixed_vectors():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, np.linspace(0.0, 6.0, 13))
    assert classify(lyap, op, 0.0, [1.0, 0.0], 4.0) == "stable"
    assert classify(lyap, op, 0.0, [0.0, 1.0], 4.0) == "unstable"
    # H(t) = e^{-2t} - e^{2t} < 0 for t > 0: eventually unstable
    assert classify(lyap, op, 0.0, [1.0, 1.0], 4.0) == "unstable"
    # H(t) = e^{-2t} - 1e-4 e^{2t} changes sign at t = ln(10) inside the horizon
    assert classify(lyap, op, 0.0, [1.0, 0.01], 6.0) == "undetermined"


def test_classify_rejects_zero_vector():
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, np.linspace(0.0, 2.0, 5))
    with pytest.raises(ValueError):
        classify(lyap, op, 0.0, [0.0, 0.0], 1.0)


@pytest.mark.parametrize(
    "x, horizon, match",
    [
        ([1.0, 0.0], 0.0, "horizon"),
        ([1.0, 0.0], -1.0, "horizon"),
        ([1.0, 0.0], math.nan, "horizon"),
        ([math.nan, 0.0], 1.0, "finite"),
    ],
)
def test_classify_rejects_an_empty_horizon_and_a_non_finite_vector(x, horizon, match):
    # a horizon that is not positive has no samples in (tau, tau + horizon]
    spec, op = diag_setup()
    lyap = construct_S(spec, op, 0.5, np.linspace(-2.0, 2.0, 9))
    with pytest.raises(ValueError, match=match):
        classify(lyap, op, 0.0, x, horizon)


def test_subspace_split_dimension():
    quad3 = EXPQUAD
    spec = DichotomySpec(
        lambda t: np.diag([1.0, 1.0, 0.0]), quad3, K=1.0, a=-1.0, b=1.0, eps=0.0
    )
    op = EvolutionOperator(constant_field(np.diag([-1.0, -2.0, 1.0])))
    lyap = construct_S(spec, op, 0.5, np.linspace(0.0, 5.0, 11))
    sides = [classify(lyap, op, 0.0, e, 4.0) for e in np.eye(3)]
    stable = [e for e, s in zip(np.eye(3), sides) if s == "stable"]
    unstable = [e for e, s in zip(np.eye(3), sides) if s == "unstable"]
    assert len(stable) + len(unstable) == 3


def test_construct_S_rejects_a_tail_tol_that_is_not_positive():
    spec, op = diag_setup()
    for bad in (0.0, -1e-8, math.nan):
        with pytest.raises(ValueError, match="tail_tol"):
            construct_S(spec, op, 0.5, [0.0, 1.0], tail_tol=bad)


@pytest.mark.parametrize("start", [800.0, 2000.0])
def test_construct_S_reads_an_envelope_cap_past_the_double_range_as_inf(start):
    # mu(|t|)^{2 eps} = e^{|t|} passes the double range past t = 709.78: the cap is inf,
    # the check holds, and S is the same diag(1, -1) as near the origin
    rates = RateQuadruple(builtin("exp"), builtin("exp"), builtin("expabs"), builtin("expabs"))
    spec = DichotomySpec(lambda t: np.diag([1.0, 0.0]), rates, K=1.0, a=-1.0, b=1.0, eps=0.5)
    op = EvolutionOperator(constant_field(np.diag([-1.0, 1.0])))
    lyap = construct_S(spec, op, 0.5, [start, start + 1.0])
    assert lyap.norm_margin == math.inf
    assert np.allclose(lyap.matrices, np.diag([1.0, -1.0]), rtol=0.0, atol=1e-6)
    near = construct_S(spec, op, 0.5, [100.0, 101.0])
    assert math.isfinite(near.norm_margin)
    assert np.allclose(near.matrices, np.diag([1.0, -1.0]), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("horizon", [4, 12, 24])
def test_classify_keeps_a_decaying_stable_orbit_stable_over_long_horizons(horizon):
    # H decays with the stable orbit of (1, 0); the margin scales with |x_k|^2 |S(t_k)|_F,
    # so the label does not fall to 'undetermined' as the orbit decays
    field, _, spec = example22_setup()
    op = EvolutionOperator(field)
    lyap = construct_S(spec, op, 0.5, np.linspace(0.0, horizon, 4 * horizon + 1))
    assert classify(lyap, op, 0.0, [1.0, 0.0], horizon) == "stable"
    assert classify(lyap, op, 0.0, [0.0, 1.0], horizon) == "unstable"
    assert classify(lyap, op, 0.0, [1.0, 1.0], horizon) == "unstable"
