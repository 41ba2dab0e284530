"""Antisymmetric two-point kernels: consistency gate and symbol recovery."""

import dataclasses
import importlib
import itertools
import math

import numpy as np
import pytest

from weylkit import (
    GaussianAlphaSpec,
    GridSpec,
    RFunction,
    alpha_kernel_from_A,
    autv_residual,
    kernel_to_R,
    recover_A,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianAlphaSpec(tau=-1.0, sigma=1.0)
    with pytest.raises(ValueError):
        GaussianAlphaSpec(tau=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        GaussianAlphaSpec(tau=1.0, sigma=1.0, epsilon=0)


def test_kernel_closed_form_properties():
    spec = GaussianAlphaSpec(tau=1.0, sigma=1.0)
    alpha = spec.alpha_kernel()
    rng = np.random.default_rng(43)
    pts = rng.uniform(-1.5, 1.5, size=(20, 4))
    values = alpha(*pts.T)
    swapped = alpha(pts[:, 2], pts[:, 3], pts[:, 0], pts[:, 1])
    # antisymmetric under point exchange, purely imaginary
    assert np.max(np.abs(values + swapped)) < 1e-15
    assert np.max(np.abs(values.real)) == 0.0
    # diagonal vanishes
    assert np.max(np.abs(alpha(0.3, -0.7, 0.3, -0.7))) == 0.0


def test_r_function_is_the_difference_reindexing():
    spec = GaussianAlphaSpec(tau=0.8, sigma=1.3)
    R = kernel_to_R(spec.alpha_kernel())
    R_closed = spec.r_function()
    rng = np.random.default_rng(45)
    pts = rng.uniform(-1.2, 1.2, size=(30, 4))
    assert np.max(np.abs(R(*pts.T) - R_closed(*pts.T))) < 1e-14
    assert R.u_extent == pytest.approx(R_closed.u_extent)


def test_consistency_residual_separates_the_classes():
    good = autv_residual(GaussianAlphaSpec(tau=1.0, sigma=1.0).r_function())
    bad = autv_residual(
        GaussianAlphaSpec(tau=1.0, sigma=1.0, epsilon=-1).r_function()
    )
    assert isinstance(good, float) and isinstance(bad, float)
    assert good < 1e-8
    assert bad > 0.1
    assert bad / good > 1e3


def test_consistency_residual_custom_probe():
    R = GaussianAlphaSpec(tau=1.0, sigma=1.0).r_function()
    residual = autv_residual(R, probe=[(0.5, -0.5, 1.0, 0.0)])
    assert residual < 1e-10


def test_recovery_matches_generating_symbol():
    spec = GaussianAlphaSpec(tau=1.0, sigma=1.0)
    points = [(x, y) for x in (-1.0, 0.0, 0.5) for y in (-0.5, 0.0, 1.0)]
    values = recover_A(spec.r_function(), points)
    expected = np.array([spec.a_function(x, y) for x, y in points])
    assert np.max(np.abs(values - expected)) < 1e-6


def test_recovery_gate_refuses_inconsistent_kernels():
    bad = GaussianAlphaSpec(tau=1.0, sigma=1.0, epsilon=-1).r_function()
    with pytest.raises(ValueError, match="consistency residual"):
        recover_A(bad, [(0.0, 0.0)])
    # override forces recovery despite the gate
    values = recover_A(bad, [(0.0, 0.0)], override=True)
    assert values.shape == (1,)


def test_kernel_from_grid_samples_matches_closed_form():
    spec = GaussianAlphaSpec(tau=1.0, sigma=1.0)
    n = 32
    grid = GridSpec(n, float(np.sqrt(np.pi / n)))
    samples = spec.a_function(grid.q_matrix(), grid.p_matrix())
    built = alpha_kernel_from_A(samples, grid)
    direct = spec.alpha_kernel()
    rng = np.random.default_rng(49)
    worst = 0.0
    for _ in range(25):
        q1, p1 = rng.uniform(-1.5, 1.5, size=2)
        jq, jp = rng.integers(-8, 9, size=2)
        q2 = q1 + jq * grid.dx / 2
        p2 = p1 + jp * grid.dp / 2
        worst = max(worst, abs(built(q1, p1, q2, p2) - direct(q1, p1, q2, p2)))
    assert worst < 1e-10


def test_gridded_kernel_rejects_off_lattice_points():
    spec = GaussianAlphaSpec(tau=1.0, sigma=1.0)
    grid = GridSpec(16, 0.4)
    samples = spec.a_function(grid.q_matrix(), grid.p_matrix())
    built = alpha_kernel_from_A(samples, grid)
    with pytest.raises(ValueError, match="not grid-aligned"):
        built(0.0, 0.0, grid.dx / 3, 0.0)
    with pytest.raises(ValueError, match="exceeds the tabulated lattice"):
        built(0.0, 0.0, 100 * grid.dx, 0.0)


def test_kernel_builder_argument_validation():
    spec = GaussianAlphaSpec(tau=1.0, sigma=1.0)
    grid = GridSpec(16, 0.4)
    samples = spec.a_function(grid.q_matrix(), grid.p_matrix())
    with pytest.raises(ValueError):
        alpha_kernel_from_A(samples, None)
    with pytest.raises(ValueError):
        alpha_kernel_from_A(samples[:4], grid)
    big = GridSpec(64, 0.25)
    with pytest.raises(ValueError, match="n <= 32"):
        alpha_kernel_from_A(np.zeros(big.phase_shape), big)


def test_anisotropic_family_recovery():
    spec = GaussianAlphaSpec(tau=2.0, sigma=0.5)
    points = [(0.0, 0.0), (1.0, -1.0)]
    values = recover_A(spec.r_function(), points)
    expected = np.array([spec.a_function(x, y) for x, y in points])
    assert np.max(np.abs(values - expected)) < 1e-5
    assert abs(expected[0] - 2 * math.pi) < 1e-12


# ----------------------------------------------------------------------
# the grouped quadrature against the per-integral loop it replaced
# ----------------------------------------------------------------------

factorize_module = importlib.import_module("weylkit.factorize")


def _oracle_sine_integral(R, x, y, up, vp, u, v, weight):
    # one full-mesh evaluation of R per integral
    return weight * np.sum(np.sin(v * x + u * y) * R.fn(u, v, up, vp))


def _oracle_residual(R, probe):
    u, v, weight = factorize_module._uv_mesh(R)
    worst = 0.0
    for x, y, up, vp in probe:
        lhs = _oracle_sine_integral(R, x, y, up, vp, u, v, weight)
        s, t = (up + x) / 2, (vp + y) / 2
        plus = _oracle_sine_integral(R, s, t, s, t, u, v, weight)
        d, e = (up - x) / 2, (vp - y) / 2
        minus = _oracle_sine_integral(R, d, e, d, e, u, v, weight)
        worst = max(worst, abs(lhs - (plus - minus)))
    return worst


def _oracle_recovery(R, points, anchor):
    u, v, weight = factorize_module._uv_mesh(R)

    def g(x, y):
        return 4j * _oracle_sine_integral(R, x, y, x, y, u, v, weight)

    return np.array([g(x, y) - g(*anchor) for x, y in points]).real


DEFAULT_PROBE = [
    (x, y, up, vp)
    for x in np.linspace(-2.0, 2.0, 5)
    for y in np.linspace(-2.0, 2.0, 5)
    for up in np.linspace(-2.0, 2.0, 5)
    for vp in np.linspace(-2.0, 2.0, 5)
]


def _separable_route(R):
    return R


def _mesh_route(R):
    # a plain RFunction of the same fn integrates slice by slice on the mesh
    return RFunction(R.fn, R.u_extent, R.v_extent)


ROUTES = (_separable_route, _mesh_route)


@pytest.mark.parametrize("tau", [0.8, 1.25])
@pytest.mark.parametrize("epsilon", [1, -1])
def test_grouped_residual_matches_per_integral_loop(tau, epsilon):
    for route in ROUTES:
        R = route(GaussianAlphaSpec(tau=tau, sigma=1 / tau, epsilon=epsilon).r_function())
        assert abs(autv_residual(R) - _oracle_residual(R, DEFAULT_PROBE)) < 1e-12


def test_grouped_residual_matches_on_mixed_slices():
    # repeated (u', v') slices next to distinct ones, and a lhs slice that
    # coincides with a half-sum slice of another probe
    probe = [
        (0.5, -0.5, 1.0, 0.0),
        (1.5, 0.25, 1.0, 0.0),
        (-0.7, 0.3, 1.0, 0.0),
        (1.0, 0.0, 1.0, 0.0),
        (0.3, 1.1, -0.4, 0.9),
        (2.0, -1.0, 0.0, 1.0),
    ]
    for epsilon, route in itertools.product((1, -1), ROUTES):
        R = route(GaussianAlphaSpec(tau=1.1, sigma=0.9, epsilon=epsilon).r_function())
        assert abs(autv_residual(R, probe=probe) - _oracle_residual(R, probe)) < 1e-12
        u, v, weight = factorize_module._uv_mesh(R)
        rows = np.array(probe)
        grouped = factorize_module._grouped_integrals(R, rows)
        single = [_oracle_sine_integral(R, *row, u, v, weight) for row in rows]
        assert np.max(np.abs(grouped - single)) < 1e-12


def test_grouped_recovery_matches_per_integral_loop():
    ticks = np.linspace(-2.0, 2.0, 17)
    points = [(x, y) for x in ticks for y in ticks]
    for route in ROUTES:
        R = route(GaussianAlphaSpec(tau=1.0, sigma=1.0).r_function())
        anchor = (
            factorize_module.TAIL_FACTOR ** 2 / R.v_extent,
            factorize_module.TAIL_FACTOR ** 2 / R.u_extent,
        )
        values = recover_A(R, points, override=True)
        assert np.max(np.abs(values - _oracle_recovery(R, points, anchor))) < 1e-12


def test_default_probe_evaluates_each_slice_once():
    base = GaussianAlphaSpec(tau=1.0, sigma=1.0).r_function()
    calls = []

    def counted(u, v, up, vp):
        calls.append((up, vp))
        return base.fn(u, v, up, vp)

    R = RFunction(counted, base.u_extent, base.v_extent)
    # a plain RFunction of the same fn takes the same mesh route
    assert autv_residual(R) == autv_residual(_mesh_route(base))
    # 25 lhs slices and 81 half-sum slices at most; one per integral
    # (1875) without the grouping
    assert len(calls) <= 106
    assert len(set(calls)) == len(calls)


# ----------------------------------------------------------------------
# the Gaussian family's separable route
# ----------------------------------------------------------------------


def _default_rows():
    # the 1875 rows (x, y, u', v') that autv_residual integrates on the
    # default probe: the probe, then its (u' + x)/2 and (u' − x)/2 slices
    probe = np.array(DEFAULT_PROBE)
    x, y, up, vp = probe.T
    halves = [np.stack(2 * [(up + s * x) / 2, (vp + s * y) / 2], axis=-1) for s in (1, -1)]
    return np.concatenate([probe, *halves])


def _closed_form_integrals(spec, rows):
    # each sine integral of the Gaussian R is two Gaussian integrals of a cosine
    x, y, up, vp = rows.T
    tau, sigma, eps = spec.tau, spec.sigma, spec.epsilon
    return 0.5j * math.pi * math.sqrt(tau * sigma) * (
        np.exp(-tau * (y - vp) ** 2 / 4 - sigma * (x - eps * up) ** 2 / 4)
        - np.exp(-tau * (y + vp) ** 2 / 4 - sigma * (x + eps * up) ** 2 / 4)
    )


# Widths the 0.1 step resolves; both routes, each checked, miss the closed
# form by at most 4.6e-13 of max |I| here.  At σ = 0.01 the v box is ±0.53,
# about ten points, and both miss by 1e-4 to 1e-3 (ROADMAP item 1), so
# σ ≤ 0.01 is left out.
RESOLVED_WIDTHS = (0.1, 0.25, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize("sigma", RESOLVED_WIDTHS)
@pytest.mark.parametrize("tau", RESOLVED_WIDTHS)
def test_quadrature_routes_match_the_closed_form(tau, sigma, epsilon, route):
    spec = GaussianAlphaSpec(tau=tau, sigma=sigma, epsilon=epsilon)
    rows = _default_rows()
    exact = _closed_form_integrals(spec, rows)
    integrals = factorize_module._grouped_integrals(route(spec.r_function()), rows)
    assert np.max(np.abs(integrals - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_separable_sums_do_not_depend_on_the_block(monkeypatch):
    # two values per trig table split each axis sum's nine values into
    # five blocks, the last one short; they must give the one-block result
    rows = _default_rows()
    for epsilon in (1, -1):
        R = GaussianAlphaSpec(tau=1.1, sigma=0.9, epsilon=epsilon).r_function()
        whole = factorize_module._grouped_integrals(R, rows)
        u, v, _ = factorize_module._uv_mesh(R)
        with monkeypatch.context() as patch:
            patch.setattr(factorize_module, "_BLOCK_POINTS", 2 * max(u.size, v.size))
            blocked = factorize_module._grouped_integrals(R, rows)
        assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("epsilon", [1, -1])
def test_gaussian_quadratures_never_evaluate_R_on_the_mesh(epsilon):
    base = GaussianAlphaSpec(tau=1.1, sigma=0.9, epsilon=epsilon).r_function()

    def never(u, v, up, vp):
        raise AssertionError("the Gaussian R must take the separable route")

    R = GaussianAlphaSpec(tau=1.1, sigma=0.9, epsilon=epsilon).r_function()
    # fn follows from the spec and cannot be replaced; force it here
    with pytest.raises(ValueError):
        dataclasses.replace(R, fn=never)
    object.__setattr__(R, "fn", never)
    assert autv_residual(R) == autv_residual(base)
    points = [(0.0, 0.0), (1.0, -0.5)]
    assert np.array_equal(recover_A(R, points, override=True),
                          recover_A(base, points, override=True))
    if epsilon == 1:
        assert np.array_equal(recover_A(R, points), recover_A(base, points))


@pytest.mark.parametrize("tau", [0.8, 0.9, 1.1, 1.25])
def test_residual_ratio_has_a_nonzero_scale(tau):
    # the ε = +1 residual is rounding; it scales the report's residual_ratio,
    # and the CLI refuses ε = −1 when it is 0 or no smaller than the ε = −1 one
    calibration = autv_residual(GaussianAlphaSpec(tau, 1 / tau, 1).r_function())
    residual = autv_residual(GaussianAlphaSpec(tau, 1 / tau, -1).r_function())
    assert calibration > 0.0
    assert residual / calibration >= 1e3


def test_override_skips_the_gate(monkeypatch):
    calls = []
    original = factorize_module.autv_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(factorize_module, "autv_residual", counted)
    R = GaussianAlphaSpec(tau=1.0, sigma=1.0).r_function()
    recover_A(R, [(0.0, 0.0)], override=True)
    assert calls == []
    recover_A(R, [(0.0, 0.0)])
    assert calls == [1]


def test_quadrature_mesh_is_capped_before_allocation():
    def never(u, v, up, vp):
        raise AssertionError("R must not be evaluated past the mesh cap")

    # past about 9e306 an extent spans inf steps, which no int can count
    for extents in ((1e150, 1.0), (1.0, 1e150), (5e6, 5.0), (1e308, 1.0), (1.0, 1e308)):
        R = RFunction(never, *extents)
        with pytest.raises(ValueError, match="exceeds the cap"):
            factorize_module._uv_mesh(R)
        with pytest.raises(ValueError, match="exceeds the cap"):
            autv_residual(R)
        with pytest.raises(ValueError, match="exceeds the cap"):
            recover_A(R, [(0.0, 0.0)], override=True)
    # extents that no mesh can cover are refused when R is built
    for extents in ((math.inf, 1.0), (1.0, math.nan), (0.0, 1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            RFunction(never, *extents)
    # the default family sits far below the cap
    R = GaussianAlphaSpec(tau=1.0, sigma=1.0).r_function()
    u, v, _ = factorize_module._uv_mesh(R)
    assert u.size * v.size < factorize_module._MESH_POINTS_MAX // 50
