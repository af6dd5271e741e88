import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichokit.errors import DomainError
from dichokit.evolution import EvolutionOperator, IntegratorConfig
from dichokit.growth import RateQuadruple, builtin
from dichokit.system import (
    BlockSystem,
    CoefficientField,
    Example22Params,
    adjoint,
    constant_field,
    make_example22,
    tabulated_field,
    tabulated_field_from_csv,
)

RNG = np.random.default_rng(20240817)


def exp_hats():
    return RateQuadruple(builtin("exp"), builtin("exp"), builtin("expabs"), builtin("expabs"))


def test_example22_constants_match_printed_values():
    _, _, spec = make_example22(Example22Params(1.0, 0.1, 1.0, exp_hats()))
    assert spec.K == pytest.approx(math.exp(0.2), rel=1e-14)
    assert spec.a == -1.0
    assert spec.b == 1.0
    assert spec.eps == pytest.approx(0.2, rel=1e-14)
    assert np.allclose(spec.P(0.0), np.diag([1.0, 0.0]))


def test_example22_without_nonuniform_part_is_pure_powers():
    field, analytic, spec = make_example22(Example22Params(1.0, 0.0, 1.0, exp_hats()))
    assert spec.eps == 0.0 and spec.K == 1.0
    for t in (-2.0, 0.3, 1.7):
        assert np.allclose(field(t), np.diag([-1.0, 1.0]), atol=1e-14)
    for t, s in [(2.0, 0.5), (-1.0, -3.0)]:
        expected = np.diag([math.exp(-(t - s)), math.exp(t - s)])
        assert np.allclose(analytic(t, s), expected, rtol=1e-12)


def test_example22_analytic_cocycle_identity():
    _, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0, exp_hats()))
    for _ in range(25):
        s, r, t = np.sort(RNG.uniform(-5, 5, size=3))
        lhs = analytic(t, s)
        rhs = analytic(t, r) @ analytic(r, s)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_example22_printed_inequality_chain():
    # |T(t,s)P(s)| <= e^{2 eta2} (hh(t)/hh(s))^{-eta1} mu(|s|)^{2 eta2}, t >= s
    params = Example22Params(1.0, 0.1, 1.0, exp_hats())
    _, analytic, _ = make_example22(params)
    mu = params.hats.mu
    for _ in range(60):
        t, s = np.sort(RNG.uniform(-6, 6, size=2))[::-1]
        lhs = np.linalg.norm(analytic(t, s) @ np.diag([1.0, 0.0]), 2)
        rhs = math.exp(0.2) * math.exp(-(t - s)) * mu.eval(abs(s)) ** 0.2
        assert lhs <= rhs * (1 + 1e-12)


def test_example22_analytic_agrees_with_integrated_evolution():
    field, analytic, _ = make_example22(Example22Params(1.0, 0.1, 1.0, exp_hats()))
    op = EvolutionOperator(field, IntegratorConfig(rel_tol=1e-10))
    got = op.evolve(3.0, 1.0)
    want = analytic(3.0, 1.0)
    assert np.linalg.norm(got - want, 2) <= 1e-7 * np.linalg.norm(want, 2)


def test_example22_rejects_full_line_request_with_half_hats():
    hats = RateQuadruple(builtin("poly"), builtin("exp"), builtin("expabs"), builtin("expabs"))
    with pytest.raises(DomainError):
        make_example22(Example22Params(1.0, 0.1, 1.0, hats), domain="full")


def test_example22_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        Example22Params(0.0, 0.1, 1.0)


def test_adjoint_of_constant_diagonal():
    a = constant_field(np.diag([-1.0, 1.0]))
    assert np.allclose(adjoint(a)(0.0), np.diag([1.0, -1.0]))


def test_adjoint_is_an_involution():
    def ev(t):
        return np.array([[math.sin(t), 1.0], [0.0, -t]])

    from dichokit.system import CoefficientField

    field = CoefficientField(2, ev)
    twice = adjoint(adjoint(field))
    for t in (-1.0, 0.0, 2.5):
        assert np.allclose(twice(t), field(t))


def test_adjoint_fundamental_matrix_duality():
    # Y(t) = (X(t)^T)^{-1} when X' = W X, Y' = -W^T Y, X(0) = Y(0) = I
    def ev(t):
        return np.array([[-1.0, 0.5 * math.cos(t)], [0.0, -2.0]])

    from dichokit.system import CoefficientField

    w = CoefficientField(2, ev)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    x = EvolutionOperator(w, cfg).evolve(2.0, 0.0)
    y = EvolutionOperator(adjoint(w), cfg).evolve(2.0, 0.0)
    assert np.allclose(y, np.linalg.inv(x.T), atol=1e-8)


def test_block_system_assembly():
    blk = BlockSystem(constant_field(np.diag([-1.0, -2.0])), constant_field([[3.0]]))
    assert blk.dim == 3 and blk.split == 2
    assert np.allclose(blk.combined()(0.0), np.diag([-1.0, -2.0, 3.0]))
    assert np.allclose(blk.projection(), np.diag([1.0, 1.0, 0.0]))


def test_field_call_rejects_non_finite_entries_naming_t():
    field = CoefficientField(2, lambda t: np.array([[1.0, math.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"non-finite entries at t=1\.5"):
        field(1.5)


def test_field_call_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(1, 1\), expected \(2, 2\)"):
        CoefficientField(2, lambda t: np.array([[1.0]]))(0.0)


def test_half_line_field_rejects_negative_time():
    field = constant_field(np.eye(2), domain="half")
    assert np.array_equal(field(0.0), np.eye(2))
    with pytest.raises(DomainError, match="half-line"):
        field(-0.5)


def test_combined_rejects_wrong_shaped_block():
    # a 1x1 block would broadcast into W1's 2x2 slot as [[1, 1], [1, 1]]
    blk = BlockSystem(CoefficientField(2, lambda t: np.array([[1.0]])), constant_field([[3.0]]))
    with pytest.raises(ValueError, match=r"shape \(1, 1\) at t=0\.0, expected \(2, 2\)"):
        blk.combined()(0.0)


def test_tabulated_field_roundtrip(tmp_path):
    path = tmp_path / "field.csv"
    times = np.linspace(0.0, 5.0, 26)
    with open(path, "w") as fh:
        fh.write("t,a11,a12,a21,a22\n")
        for t in times:
            fh.write(f"{t},{-1.0},{0.1 * t},{0.0},{2.0}\n")
    field = tabulated_field_from_csv(str(path))
    assert field.dim == 2 and field.domain == "half"
    assert np.allclose(field(2.0), [[-1.0, 0.2], [0.0, 2.0]], atol=1e-12)
    # linear interpolation between samples
    assert field(2.1)[0, 1] == pytest.approx(0.21, rel=1e-12)



def test_csv_readers_skip_comments_and_headers_and_reject_empty_files(tmp_path):
    rho = tmp_path / "rho.csv"
    rho.write_text("# rho(t) = 2 t\nt,rho\n\n-1.0,-2.0\n0.0,0.0\n1.0,2.0\n")
    assert builtin("rho_exp", {"samples": str(rho)}).log_u(0.5) == pytest.approx(1.0, rel=1e-12)
    field = tmp_path / "field.csv"
    field.write_text("# constant\nt,a11\n0.0,-1.0\n\n1.0,-1.0\n")
    assert tabulated_field_from_csv(str(field))(0.5)[0, 0] == -1.0
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\nt,a11\n")
    with pytest.raises(ValueError, match="no data rows"):
        tabulated_field_from_csv(str(empty))
    with pytest.raises(ValueError, match="no data rows"):
        builtin("rho_exp", {"samples": str(empty)})


def stack_fields():
    rotation = constant_field([[-1.0, 3.0], [0.5, 1.0]])
    table = tabulated_field([-4.0, -1.0, 0.5, 4.0], np.random.default_rng(3).normal(size=(4, 3, 3)))
    block = BlockSystem(CoefficientField(1, lambda t: np.array([[math.sin(t)]])), rotation).combined()
    example, _, _ = make_example22(Example22Params(1.0, 0.1, 1.0, exp_hats()))
    return [rotation, table, adjoint(table), block, example]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 4), ts=st.lists(st.floats(-5.0, 5.0), max_size=8))
def test_stack_equals_the_per_time_calls(k, ts):
    field = stack_fields()[k]
    got = field.stack(ts)
    assert got.shape == (len(ts), field.dim, field.dim)
    assert np.array_equal(got, np.reshape([field(t) for t in ts], got.shape))


def test_stack_names_the_first_bad_time():
    nan_row = CoefficientField(2, lambda t: np.full((2, 2), math.nan) if t == 1.5 else np.eye(2))
    with pytest.raises(ValueError, match=r"non-finite entries at t=1\.5"):
        nan_row.stack([0.0, 1.5, 2.0])
    ragged = CoefficientField(2, lambda t: np.eye(3) if t > 1 else np.eye(2))
    with pytest.raises(ValueError, match=r"shape \(3, 3\) at t=1\.5"):
        ragged.stack([0.0, 1.5, 2.0])
    with pytest.raises(ValueError, match=r"shape \(3, 3\) at t=0\.0"):
        CoefficientField(2, lambda t: np.eye(3)).stack([0.0, 1.5])
    with pytest.raises(DomainError, match=r"t=-0\.5"):
        constant_field(np.eye(2), domain="half").stack([0.0, -0.5, -1.0])
