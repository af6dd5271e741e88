import math

import numpy as np
import pytest

from dichokit.errors import DomainError
from dichokit.growth import (
    BUILTIN_NAMES,
    GrowthRate,
    RateQuadruple,
    builtin,
    product_rate,
    rho_exp_from_samples,
    validate,
)

PROBES = np.linspace(-10, 10, 41)


def test_exp_is_normalized_at_zero():
    assert math.exp(builtin("exp").log_u(0.0)) == 1.0


def test_poly_matches_printed_value():
    assert math.exp(builtin("poly").log_u(3.0)) == pytest.approx(4.0, rel=1e-14)


def test_expsq_direct_evaluation():
    # e^{t^2} at t = 2
    assert math.exp(builtin("expsq").log_u(2.0)) == pytest.approx(math.exp(4.0), rel=1e-12)


def test_validate_exp_passes_everywhere():
    report = validate(builtin("exp"), PROBES)
    assert report.passed


def test_validate_poly_on_full_line_reports_evaluation_failure():
    report = validate(builtin("poly"), np.linspace(-5, 5, 21))
    assert not report.passed
    assert not report.check("evaluation").passed


def test_validate_expabs_fails_monotonicity_on_negatives():
    # e^{|t|} decreases on t < 0: it is a nonuniform factor, not a rate
    report = validate(builtin("expabs"), PROBES)
    assert not report.check("monotone").passed
    assert report.check("origin").passed


@pytest.mark.parametrize("name", ["exp", "poly", "polysq", "expsq", "expabs"])
def test_derivative_consistency(name):
    rate = builtin(name)
    probes = np.linspace(0.0 if rate.domain == "half" else -6.0, 6.0, 25)
    report = validate(rate, probes)
    assert report.check("derivative").passed, report.check("derivative")
    # and where |log u| passes 700 (expsq from t = 27, exp and expabs past |t| = 700)
    far = np.linspace(0.0, 40.0, 41) if name == "expsq" else np.linspace(-900.0, 900.0, 19)
    assert validate(rate, far).check("derivative").passed


@pytest.mark.parametrize(
    "rate, probes, worst",
    [
        # log u = t^2 with slope 3t: off by t at every t > 0, where u passes e^700
        (GrowthRate("sq", "full", lambda t: t * t, lambda t: 3.0 * t), [0.0, 30.0, 40.0], 1 / 3),
        # log u = t with its slope wrong only past t = 800
        (GrowthRate("late", "full", lambda t: t, lambda t: 1.0 if t <= 800 else 0.0), np.linspace(-900, 900, 19), 1.0),
    ],
    ids=["slope-3t", "slope-wrong-past-800"],
)
def test_validate_compares_the_slope_in_log_space_at_every_size_of_u(rate, probes, worst):
    report = validate(rate, probes)
    assert not report.check("derivative").passed
    assert report.check("derivative").worst == pytest.approx(worst, rel=1e-9)


def test_log_u_and_dlog_read_an_array_of_times_as_their_per_time_calls():
    ts = np.random.default_rng(11).uniform(0.0, 6.0, 300)
    rho = builtin("rho_exp", {"samples": [[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0], [4.0, 2.0]]})
    reads = []

    def counted(fn):
        return lambda t: reads.append(t) or fn(t)

    # a user's rate whose primitives take one time: math.atan fails on arrays
    scalar = GrowthRate("atan", "full", counted(lambda t: t + math.atan(t)), counted(lambda t: 1.0 + 1.0 / (1.0 + t * t)))
    rates = [builtin(name) for name in BUILTIN_NAMES if name != "rho_exp"]
    rates += [rho, product_rate(builtin("exp", {"rate": 0.5}), builtin("expabs")), scalar]
    for rate in rates:
        xs = ts if rate.domain == "half" else np.concatenate([-ts, [-0.0, 0.0], ts])
        xs = np.concatenate([xs, xs[:40]])  # repeated times
        for read in (rate.log_u, rate.dlog):
            reads.clear()
            got = read(xs)
            assert type(got) is np.ndarray and got.dtype == float and got.shape == xs.shape
            if rate is scalar:
                assert len(reads) == np.unique(xs).size  # once per unique time
            want = [read(t) for t in xs.tolist()]
            assert all(type(w) is float for w in want)
            if rate.name.startswith("poly"):
                np.testing.assert_array_max_ulp(got, want, maxulp=1)  # np.log1p against math.log1p
            else:
                assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "rate",
    [
        builtin("poly"),
        builtin("polysq"),
        builtin("expsq"),
        rho_exp_from_samples([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]),
        GrowthRate("sqrt", "half", lambda t: math.log1p(math.sqrt(t)), lambda t: 0.5 / (math.sqrt(t) + t)),
    ],
    ids=["poly", "polysq", "expsq", "rho_exp", "per-time"],
)
def test_a_half_line_rate_names_the_first_negative_time_of_an_array(rate):
    ts = np.array([0.0, 1.5, -0.25, 2.0, -3.0])
    for read in (rate.log_u, rate.dlog):
        with pytest.raises(DomainError, match=r"half-line only, got t=-0\.25$"):
            read(ts)


def test_half_line_rate_rejects_negative_time():
    with pytest.raises(DomainError):
        builtin("expsq").log_u(-1.0)


def test_unknown_name_and_bad_params():
    with pytest.raises(ValueError):
        builtin("nope")
    with pytest.raises(ValueError):
        builtin("exp", {"rate": -2.0})


@pytest.mark.parametrize(
    "name, key, value", [("exp", "rate", math.nan), ("poly", "power", math.inf), ("exp", "rate", 0.0)]
)
def test_a_builtin_parameter_must_be_positive_and_finite(name, key, value):
    # NaN passed the test v <= 0, and log_u then read nan
    with pytest.raises(ValueError, match=f"parameter '{key}' must be positive and finite, got {value}"):
        builtin(name, {key: value})


def test_product_rate_adds_logs():
    two = product_rate(builtin("exp"), builtin("exp"))
    assert two.name == "exp*exp" and math.exp(two.log_u(0.0)) == 1.0
    assert two.log_u(3.0) == pytest.approx(6.0, rel=1e-14)
    assert two.dlog(1.0) == pytest.approx(2.0, rel=1e-14)


def test_rho_exp_from_samples_matches_exp():
    t = np.linspace(-5, 5, 101)
    rate = rho_exp_from_samples(t, 2.0 * t)
    assert math.exp(rate.log_u(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert rate.log_u(1.5) == pytest.approx(3.0, rel=1e-9)
    assert rate.dlog(0.7) == pytest.approx(2.0, rel=1e-6)
    assert validate(rate, np.linspace(-5, 5, 21)).passed


def test_rho_exp_from_csv(tmp_path):
    path = tmp_path / "rho.csv"
    t = np.linspace(-4, 4, 81)
    with open(path, "w") as fh:
        fh.write("t,rho\n")
        for tv, rv in zip(t, np.tanh(t) + t):
            fh.write(f"{tv},{rv}\n")
    rate = builtin("rho_exp", {"samples": str(path)})
    assert math.exp(rate.log_u(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert rate.log_u(2.0) == pytest.approx(math.tanh(2.0) + 2.0, rel=1e-8)


def test_rho_exp_requires_increasing_samples():
    with pytest.raises(ValueError):
        rho_exp_from_samples([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])


def test_quadruple_domain_flags():
    full = RateQuadruple(*(builtin("exp") for _ in range(4)))
    assert full.common_domain() == "full"
    mixed = RateQuadruple(builtin("exp"), builtin("exp"), builtin("poly"), builtin("exp"))
    assert mixed.common_domain() == "half"
    assert mixed.compatible_with("half")
    assert not mixed.compatible_with("full")


def test_validate_empty_grid_rejected():
    with pytest.raises(ValueError):
        validate(builtin("exp"), [])


def test_vectorized_builtins_read_an_array_of_times_as_their_scalar_calls():
    ts = np.random.default_rng(7).uniform(0.0, 6.0, 2000)
    rho = builtin("rho_exp", {"samples": [[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0], [4.0, 2.0]]})
    builtins = [builtin(name) for name in BUILTIN_NAMES if name != "rho_exp"]
    for rate in [*builtins, builtin("exp", {"rate": 0.5}), rho]:
        assert rate.vectorized
        xs = ts if rate.domain == "half" else np.concatenate([-ts, [-0.0, 0.0], ts])
        log_u = np.broadcast_to(rate.log_eval(xs), xs.shape)
        dlog = np.broadcast_to(rate.log_deriv(xs), xs.shape)
        assert np.array_equal(dlog, [rate.dlog(t) for t in xs.tolist()])
        want = [rate.log_u(t) for t in xs.tolist()]
        if rate.name.startswith("poly"):
            np.testing.assert_array_max_ulp(log_u, want, maxulp=1)  # np.log1p against math.log1p
        else:
            assert np.array_equal(log_u, want)
    # only a user's rate whose primitives take one time is not vectorized
    scalar_exp = GrowthRate("exp", "full", lambda t: float(t), lambda t: 1.0)
    assert product_rate(builtin("exp"), rho).vectorized
    assert not product_rate(builtin("exp"), scalar_exp).vectorized
