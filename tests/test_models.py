"""Model construction, validation and coefficient-derivative correctness.

Closed-form coefficient derivatives are checked against central finite
differences (the finite-difference route lives only here, as an oracle).
"""

from dataclasses import replace

import numpy as np
import pytest

from plugmc import (
    JumpSpec,
    bs_small_noise_model,
    default_probe_grid,
    levy_model,
    ou_jump_model,
    validate_model,
)
from plugmc.models import JumpDiffusionModel

from conftest import EPS, THETA0
from oracles import hand_written_bs, hand_written_levy, hand_written_ou


def zero_model():
    return JumpDiffusionModel(
        name="zero",
        param_names=("c",),
        initial=lambda th: 1.0,
        initial_grad=lambda th: np.zeros(1),
        coefficients=lambda x, th: (0.0, 0.0, 0.0, 0.0, (0.0,), (0.0,)),
        param_box=np.array([[-1.0, 1.0]]),
        growth_const=1.0,
        theta0=np.zeros(1),
    )


def quadratic_drift_model():
    # a(x) = x^2 with declared kappa = 1 cannot satisfy linear growth at x = 10
    return JumpDiffusionModel(
        name="quad",
        param_names=("c",),
        initial=lambda th: 1.0,
        initial_grad=lambda th: np.zeros(1),
        coefficients=lambda x, th: (x**2, 0.0, 2.0 * x, 0.0, (0.0,), (0.0,)),
        param_box=np.array([[-1.0, 1.0]]),
        growth_const=1.0,
        theta0=np.zeros(1),
    )


def test_zero_coefficients_pass_any_probes():
    m = zero_model()
    report = validate_model(m, [(x, z, np.zeros(1)) for x in (-3.0, 0.0, 7.0) for z in (0.5, -1.0)])
    assert report.ok and report.n_probes == 6


def test_bs_probe_passes():
    m = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    report = validate_model(m, [(1.0, 0.5, THETA0)])
    assert report.ok
    # |a| = 0.2 at x = 1, against kappa (1 + |x|) with kappa = |mu| + eps sigma
    drift = m.coefficients(1.0, THETA0)[0]
    assert abs(drift) == pytest.approx(0.2)
    assert abs(drift) <= m.growth_const * 2.0


def test_quadratic_drift_reports_growth_violation():
    m = quadratic_drift_model()
    report = validate_model(m, [(10.0, 0.5, np.zeros(1))])
    assert not report.ok
    assert "exceeds" in report.violations[0]


def _with_coefficients(m, coefficients):
    fields = {f: getattr(m, f) for f in m.__dataclass_fields__}
    return JumpDiffusionModel(**{**fields, "coefficients": coefficients})


def test_nonfinite_coefficient_is_hard_failure():
    m = zero_model()
    bad = _with_coefficients(m, lambda x, th: (x * np.nan, 0.0, 0.0, 0.0, (0.0,), (0.0,)))
    with pytest.raises(ValueError, match="drift"):
        validate_model(bad, [(1.0, 0.5, np.zeros(1))])
    # a non-finite theta-gradient entry is named as well
    bad = _with_coefficients(m, lambda x, th: (0.0, 0.0, 0.0, 0.0, (0.0,), (np.inf,)))
    with pytest.raises(ValueError, match="diffusion_dtheta"):
        validate_model(bad, [(1.0, 0.5, np.zeros(1))])


def test_malformed_coefficients_are_named():
    m = zero_model()
    short = _with_coefficients(m, lambda x, th: (0.0, 0.0, 0.0, 0.0, (0.0,)))
    with pytest.raises(ValueError, match="expected 6 entries"):
        validate_model(short, [(1.0, 0.5, np.zeros(1))])
    wide = _with_coefficients(m, lambda x, th: (0.0, 0.0, 0.0, 0.0, (0.0, 0.0), (0.0,)))
    with pytest.raises(ValueError, match="drift_dtheta must have 1 entries"):
        validate_model(wide, [(1.0, 0.5, np.zeros(1))])


def test_builtins_pass_100_point_probe_grid():
    for model in (
        bs_small_noise_model(0.2, 1.0, EPS, 1.0),
        ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0),
        levy_model(0.1, 0.3, 0.5, 1.0),
    ):
        grid = default_probe_grid(model, n_x=25)
        assert len(grid) == 100
        report = validate_model(model, grid)
        assert report.ok, report.violations


def test_bs_factory_rejections():
    with pytest.raises(ValueError):
        bs_small_noise_model(0.2, 0.0, EPS, 1.0)
    with pytest.raises(ValueError):
        bs_small_noise_model(0.2, 1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        bs_small_noise_model(0.2, 1.0, EPS, 0.0)
    # eps**2 underflowed to 0, and the closed-form estimator divided by it,
    # or overflowed the closed-form price with an OverflowError
    for eps in (1e-300, 1e-155, 1e155, 1e300):
        with pytest.raises(ValueError, match="eps must be 0, or > 0 with a finite, normal square"):
            bs_small_noise_model(0.2, 1.0, eps, 1.0)
    assert bs_small_noise_model(0.2, 1.0, 1e-150, 1.0).epsilon == 1e-150


def test_bs_drift_identity():
    m = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    assert m.coefficients(2.0, THETA0)[0] == pytest.approx(0.4)


def test_bs_degenerate_noise_allowed():
    m = bs_small_noise_model(0.0, 1.0, 0.0, 1.0)
    assert m.coefficients(3.0, np.array([0.0, 1.0]))[1] == 0.0


def test_ou_factory_and_drift():
    with pytest.raises(ValueError):
        ou_jump_model(0.0, 0.3, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        ou_jump_model(1.0, 0.3, 0.5, -1.0, 1.0)
    m = ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0)
    # compensated drift -mu x + lam eta, plus the compensator triple
    coef = m.coefficients(1.0, m.theta0)
    assert len(coef) == 9
    assert coef[0] == pytest.approx(-0.5)
    m0 = ou_jump_model(1.0, 0.3, 0.5, 0.0, 1.0)
    assert not m0.has_jumps and m0.jump_kernel is None
    coef0 = m0.coefficients(1.0, m0.theta0)
    assert len(coef0) == 6
    assert coef0[0] == pytest.approx(-1.0)


def test_levy_factory_and_x_independence():
    with pytest.raises(ValueError):
        levy_model(0.1, 0.3, 0.0, 1.0)
    m = levy_model(0.1, 0.3, 0.5, 1.0)
    th = m.theta0
    xs = np.array([-2.0, 0.0, 5.0])
    _, _, a_x, b_x, _, _, _, comp_x, _ = m.coefficients(xs, th)
    assert np.all(a_x == 0.0) and np.all(b_x == 0.0) and np.all(comp_x == 0.0)
    assert np.all(m.jump_kernel(xs, 0.7, th)[1] == 0.0)


def test_jump_spec_validation():
    with pytest.raises(ValueError):
        JumpSpec(intensity=-1.0)
    with pytest.raises(ValueError):
        JumpSpec(intensity=1.0, sampler=None)


def test_poisson_mean_refused_above_numpys_limit():
    # the limit is where numpy's Generator.poisson starts to refuse a mean
    from plugmc.models import POISSON_MEAN_MAX

    spec = JumpSpec(intensity=POISSON_MEAN_MAX, sampler=lambda rng, count: np.zeros(count))
    assert spec.poisson_mean(1.0) == POISSON_MEAN_MAX
    assert spec.poisson_mean(0.5) == POISSON_MEAN_MAX / 2
    with pytest.raises(ValueError, match="jump intensity .* over horizon 2.0 gives a Poisson"):
        spec.poisson_mean(2.0)
    above = np.nextafter(POISSON_MEAN_MAX, np.inf)
    with pytest.raises(ValueError, match="lam value too large"):
        np.random.default_rng(0).poisson(above)
    with pytest.raises(ValueError, match="jump intensity"):
        JumpSpec(intensity=above, sampler=spec.sampler).poisson_mean(1.0)


def _fd_theta(fn, x, theta, i, h=1e-6):
    tp, tm = theta.copy(), theta.copy()
    tp[i] += h
    tm[i] -= h
    return (fn(x, tp) - fn(x, tm)) / (2 * h)


def _fd_x(fn, x, theta, h=1e-6):
    return (fn(x + h, theta) - fn(x - h, theta)) / (2 * h)


def _entry(k, fn):
    # entry k of a fused call, as a function of (x, theta)
    return lambda x, th: fn(x, th)[k]


@pytest.mark.parametrize(
    "factory, theta",
    [
        (lambda: bs_small_noise_model(0.2, 1.0, EPS, 1.0), np.array([0.3, 1.2])),
        (lambda: ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0), np.array([0.8, 0.4, 0.6])),
        (lambda: levy_model(0.1, 0.3, 0.5, 1.0), np.array([0.2, 0.4, 0.7])),
    ],
)
def test_closed_form_derivatives_match_finite_differences(factory, theta):
    model = factory()
    # (value, x-derivative, theta-gradient) positions in the fused call
    triples = [(0, 2, 4), (1, 3, 5)] + ([(6, 7, 8)] if model.has_jumps else [])
    for x in (-1.3, 0.7, 2.5):
        coef = model.coefficients(x, theta)
        for value, dx, dtheta in triples:
            fn = _entry(value, model.coefficients)
            assert coef[dx] == pytest.approx(_fd_x(fn, x, theta), abs=1e-6)
            for i in range(model.p):
                assert coef[dtheta][i] == pytest.approx(
                    _fd_theta(fn, x, theta, i), abs=1e-6
                )
        if model.has_jumps:
            for z in (0.5, -1.0):
                c, c_x, c_th = model.jump_kernel(x, z, theta)
                kern = lambda xx, th: model.jump_kernel(xx, z, th)[0]
                assert c_x == pytest.approx(_fd_x(kern, x, theta), abs=1e-6)
                for i in range(model.p):
                    assert c_th[i] == pytest.approx(
                        _fd_theta(kern, x, theta, i), abs=1e-6
                    )


def test_jump_compensators_match_sampled_means(ou_model, levy):
    # E[c(x, Z, theta)] over the size law times intensity equals the
    # compensator, and likewise for its theta-gradient
    rng = np.random.default_rng(1234)
    for model in (ou_model, levy):
        th = model.theta0
        z = model.jump.sampler(rng, 400_000)
        for x in (0.5, 2.0):
            c, _, c_th = model.jump_kernel(x, z, th)
            comp, _, comp_th = model.coefficients(x, th)[6:]
            mc = model.jump.intensity * np.mean(c)
            se = model.jump.intensity * np.std(c) / np.sqrt(z.size)
            assert abs(mc - comp) < 4 * se + 1e-12
            lam = model.jump.intensity
            mc_g = [lam * np.mean(np.broadcast_to(g, z.shape)) for g in c_th]
            assert np.allclose(mc_g, comp_th, atol=4 * se + 1e-3)


def test_box_membership():
    m = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    assert np.array_equal(m.require_theta([0.0, 2.0]), [0.0, 2.0])
    with pytest.raises(ValueError):
        m.require_theta(np.array([9.0, 1.0]))
    with pytest.raises(ValueError):
        m.require_theta(np.array([0.0, 1.0, 2.0]))


@pytest.mark.parametrize(
    "theta, message",
    [
        ([9.0, 1.0], "bs_small_noise: mu = 9.0 outside [-5.0, 5.0]"),
        ([0.2, 0.0], "bs_small_noise: sigma = 0.0 outside [1e-08, 10.0]"),
        ([0.2, np.nan], "bs_small_noise: sigma = nan outside [1e-08, 10.0]"),
        ([np.inf, np.nan], "bs_small_noise: mu = inf outside [-5.0, 5.0]"),
    ],
)
def test_require_theta_names_first_bad_coordinate(theta, message):
    m = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    with pytest.raises(ValueError) as err:
        m.require_theta(theta)
    assert str(err.value) == message
    # a factory's theta is checked by the same box when the model is built
    with pytest.raises(ValueError) as err:
        bs_small_noise_model(*theta, EPS, 1.0)
    assert str(err.value) == message


def test_infinite_box_still_rejects_non_finite_theta():
    m = replace(zero_model(), param_box=np.array([[-np.inf, np.inf]]))
    assert m.require_theta([1e300])[0] == 1e300
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match=rf"^zero: c = {value} outside \[-inf, inf\]$"):
            m.require_theta([value])


def test_user_model_with_theta0_outside_box_fails_when_built():
    with pytest.raises(ValueError, match=r"^zero: c = 2.0 outside \[-1.0, 1.0\]$"):
        replace(zero_model(), theta0=np.array([2.0]))
    with pytest.raises(ValueError, match="theta must have dimension 1"):
        replace(zero_model(), theta0=np.zeros(2))


def test_dimension_is_the_number_of_parameter_names():
    assert zero_model().p == 1
    for model in (
        bs_small_noise_model(0.2, 1.0, EPS, 1.0),
        ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0),
        levy_model(0.1, 0.3, 0.5, 1.0),
    ):
        assert model.p == len(model.param_names) == model.param_box.shape[0]


# ---------------------------------------------------------------------------
# The linear tables give the hand-written coefficients
# ---------------------------------------------------------------------------

TABLE_CASES = {
    "bs": (bs_small_noise_model(0.2, 1.0, EPS, 1.0), hand_written_bs(EPS)),
    "ou_lam0": (ou_jump_model(1.0, 0.3, 0.5, 0.0, 1.0), hand_written_ou(0.0)),
    "ou_lam2": (ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0), hand_written_ou(2.0)),
    "levy": (levy_model(0.1, 0.3, 0.5, 1.0), hand_written_levy()),
}


def assert_same_entries(got, want, where):
    """Equal bits entry by entry, tuples entry-wise; a float want may come
    as an array of its value, but an array want must stay an array."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_entries(g, w, (*where, i))
        return
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
    g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert g.shape == np.broadcast_shapes(g.shape, w.shape), where
    w = np.broadcast_to(w, g.shape)
    assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (where, got, want)


def table_probes(model, rng):
    """default_probe_grid, its x in one array, signed zeros, and random
    theta in the box with random x and z arrays."""
    probes = list(default_probe_grid(model))
    xs = np.array([x for x, _, _ in probes[::4]] + [0.0, -0.0])
    probes += [(xs, 0.5, model.theta0), (0.0, -0.0, model.theta0), (-0.0, 0.0, model.theta0)]
    box = model.param_box
    for _ in range(20):
        theta = rng.uniform(box[:, 0], box[:, 1])
        probes.append((rng.normal(0.0, 3.0, 7), rng.normal(0.0, 1.0, 7), theta))
        probes.append((float(rng.normal(0.0, 3.0)), float(rng.normal(0.0, 1.0)), theta))
    return probes


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_table_built_coefficients_equal_hand_written_bit_for_bit(name):
    model, (coefficients, jump_kernel) = TABLE_CASES[name]
    assert model.table is not None
    assert (model.jump_kernel is None) == (jump_kernel is None)
    rng = np.random.default_rng(2024)
    for x, z, theta in table_probes(model, rng):
        where = (name, x, z, theta)
        assert_same_entries(model.coefficients(x, theta), coefficients(x, theta), where)
        if jump_kernel is not None:
            assert_same_entries(model.jump_kernel(x, z, theta), jump_kernel(x, z, theta), where)


def test_model_with_a_table_refuses_other_coefficients():
    # a replaced coefficient call would be ignored by the table's step
    model = ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0)
    for change in (
        {"coefficients": lambda x, th: model.coefficients(x, th)},
        {"jump_kernel": lambda x, z, th: model.jump_kernel(x, z, th)},
        {"jump": JumpSpec(3.0, model.jump.sampler)},
    ):
        with pytest.raises(ValueError, match="takes its coefficients, jump kernel and intensity"):
            replace(model, **change)
        assert replace(model, table=None, **change).table is None
