"""Star product of phase functions: algebra, states, independent quadrature."""

import importlib

import numpy as np
import pytest

from weylkit import (
    GridSpec,
    hermite_basis,
    identity_phase,
    moyal_bracket,
    parity,
    purity_residual,
    star,
    star_adjoint,
    star_twisted_oracle,
    star_unitary_residual,
    weyl_wigner,
    weyl_wigner_inv,
    wigner_of_state,
)

# the package re-exports the function star, which hides the module
star_module = importlib.import_module("weylkit.star")

GRID = GridSpec(32, 0.3125)


def random_phase(rng, grid=GRID):
    K = rng.standard_normal(grid.kernel_shape) + 1j * rng.standard_normal(
        grid.kernel_shape
    )
    return weyl_wigner(K, grid)


def transition_phase(grid, r, s, count=6):
    basis = hermite_basis(grid, count)
    return weyl_wigner(np.outer(basis[r], np.conj(basis[s])), grid)


def test_star_is_exactly_associative():
    rng = np.random.default_rng(31)
    A, B, C = (random_phase(rng) for _ in range(3))
    left = star(star(A, B, GRID), C, GRID)
    right = star(A, star(B, C, GRID), GRID)
    assert np.max(np.abs(left - right)) < 1e-12 * np.max(np.abs(left))


def test_identity_phase_is_the_star_unit():
    rng = np.random.default_rng(33)
    A = random_phase(rng)
    E = identity_phase(GRID)
    assert np.all(E[1::2] == 0) and np.all(E[0::2] == 2.0)
    assert np.max(np.abs(star(E, A, GRID) - A)) < 1e-12 * np.max(np.abs(A))
    assert np.max(np.abs(star(A, E, GRID) - A)) < 1e-12 * np.max(np.abs(A))


def test_star_adjoint_is_complex_conjugation():
    rng = np.random.default_rng(35)
    A = random_phase(rng)
    assert np.max(np.abs(star_adjoint(A, GRID) - np.conj(A))) < 1e-12 * np.max(
        np.abs(A)
    )


def test_moyal_bracket_of_real_phases_is_real_and_antisymmetric():
    rng = np.random.default_rng(37)
    K1 = rng.standard_normal(GRID.kernel_shape) + 1j * rng.standard_normal(
        GRID.kernel_shape
    )
    K1 = K1 + K1.conj().T
    K2 = rng.standard_normal(GRID.kernel_shape)
    K2 = K2 + K2.T
    A, B = weyl_wigner(K1, GRID), weyl_wigner(K2, GRID)
    bracket = moyal_bracket(A, B, GRID)
    scale = np.max(np.abs(bracket))
    assert np.max(np.abs(bracket.imag)) < 1e-12 * scale
    assert np.max(np.abs(bracket + moyal_bracket(B, A, GRID))) < 1e-12 * scale


def test_moyal_bracket_is_the_star_commutator(monkeypatch):
    rng = np.random.default_rng(38)
    A, B = random_phase(rng), random_phase(rng)
    expected = -1j * (star(A, B, GRID) - star(B, A, GRID))
    calls = {"weyl_wigner": 0, "weyl_wigner_inv": 0}
    for name in calls:
        original = getattr(star_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(star_module, name, counted)
    bracket = moyal_bracket(A, B, GRID)
    assert np.max(np.abs(bracket - expected)) < 1e-12 * np.max(np.abs(expected))
    # one kernel commutator: two inverse transforms and one forward
    assert calls == {"weyl_wigner": 1, "weyl_wigner_inv": 2}


def test_ground_state_is_star_idempotent():
    e0 = hermite_basis(GRID, 1)[0]
    W = wigner_of_state(e0, GRID)
    r1, r2 = purity_residual(W, GRID)
    assert r1 < 1e-8
    assert r2 < 1e-8


@pytest.mark.parametrize("n", [4, 64, 256])
def test_real_phase_arrays_and_their_complex_upcast_agree_bit_for_bit(n):
    grid = GridSpec(n, np.sqrt(np.pi / n))
    rng = np.random.default_rng(n)
    W = wigner_of_state(hermite_basis(grid, 2)[1], grid)
    for real in (W, np.ascontiguousarray(W), rng.standard_normal(grid.phase_shape)):
        upcast = real.astype(complex)
        K, K_upcast = weyl_wigner_inv(real, grid), weyl_wigner_inv(upcast, grid)
        assert np.array_equal(K.view(np.int64), K_upcast.view(np.int64))
        residuals = np.array(purity_residual(real, grid))
        upcast_residuals = np.array(purity_residual(upcast, grid))
        assert np.array_equal(residuals.view(np.int64), upcast_residuals.view(np.int64))


def test_distinct_states_star_to_zero():
    basis = hermite_basis(GRID, 2)
    W0 = wigner_of_state(basis[0], GRID)
    W1 = wigner_of_state(basis[1], GRID)
    assert np.max(np.abs(star(W0, W1, GRID))) < 1e-8


def test_transition_symbols_are_matrix_units():
    # Φ_ab ⋆ Φ_cd = δ_bc Φ_ad: the kernel route makes this exact up to the
    # Riemann error of the basis overlaps
    phi01 = transition_phase(GRID, 0, 1)
    phi10 = transition_phase(GRID, 1, 0)
    phi00 = transition_phase(GRID, 0, 0)
    assert np.max(np.abs(star(phi01, phi10, GRID) - phi00)) < 1e-8
    assert np.max(np.abs(star(phi01, phi01, GRID))) < 1e-8


def test_unitary_kernels_have_zero_unitarity_residual():
    rng = np.random.default_rng(39)
    H = rng.standard_normal(GRID.kernel_shape) + 1j * rng.standard_normal(
        GRID.kernel_shape
    )
    H = (H + H.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    U_kernel = (evecs * np.exp(1j * evals)) @ evecs.conj().T / GRID.dx
    U = weyl_wigner(U_kernel, GRID)
    assert star_unitary_residual(U, GRID) < 1e-10
    # a non-unitary kernel must be caught
    assert star_unitary_residual(U * 2, GRID) > 1.0


def test_parity_is_a_star_antihomomorphism():
    # P(A ⋆ B) = P(B) ⋆ P(A), the phase-space face of (K1 K2)^T = K2^T K1^T
    rng = np.random.default_rng(41)
    A, B = random_phase(rng), random_phase(rng)
    lhs = parity(star(A, B, GRID), GRID)
    rhs = star(parity(B, GRID), parity(A, GRID), GRID)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_twisted_quadrature_agrees_with_kernel_route():
    # states are smooth with fast-decaying tails, so the independent
    # quadrature route must reproduce the kernel route to Riemann accuracy
    phi01 = transition_phase(GRID, 0, 1)
    phi12 = transition_phase(GRID, 1, 2)
    exact = star(phi01, phi12, GRID)
    points = [(GRID.n, GRID.n // 2), (GRID.n + 3, GRID.n // 2 - 2), (7, 11)]
    probe = star_twisted_oracle(phi01, phi12, GRID, points=points)
    for value, (s, k) in zip(probe, points):
        assert abs(value - exact[s, k]) < 1e-8


def test_twisted_quadrature_full_array_and_validation():
    # the full-array route includes corner targets whose shifted samples
    # leave the well-resolved region; accuracy there is set by the tails
    phi01 = transition_phase(GRID, 0, 1)
    phi12 = transition_phase(GRID, 1, 2)
    exact = star(phi01, phi12, GRID)
    full = star_twisted_oracle(phi01, phi12, GRID)
    assert full.shape == GRID.phase_shape
    assert np.max(np.abs(full - exact)) < 1e-4
    # interior block is far more accurate than the corners
    n = GRID.n
    interior = np.s_[n // 2 : 3 * n // 2, n // 4 : 3 * n // 4]
    assert np.max(np.abs(full[interior] - exact[interior])) < 1e-8
    with pytest.raises(ValueError):
        star_twisted_oracle(phi01[:4], phi12, GRID)


@pytest.mark.parametrize(
    "point",
    [(0, -1), (-1, 0), (32, 0), (5, 16), (2.7, 3), (3, 2.0), ("2", 3), (1, 2, 3), 7],
    ids=["col-negative", "row-negative", "row-past-end", "col-past-end",
         "row-fractional", "col-float", "row-text", "triple", "scalar"],
)
def test_twisted_quadrature_rejects_points_off_the_array(point, monkeypatch):
    # n = 16: rows 0 <= s < 32, cols 0 <= k < 16; the check runs before
    # the O(n^2) Fourier lattice is built
    grid = GridSpec(16, 0.4)
    phi = transition_phase(grid, 0, 1, count=2)

    def lattice_not_reached(*args):
        raise AssertionError("points validated after the Fourier lattice")

    monkeypatch.setattr(star_module, "_fourier_lattice", lattice_not_reached)
    with pytest.raises(ValueError, match="point"):
        star_twisted_oracle(phi, phi, grid, points=[(1, 1), point])


def test_twisted_quadrature_accepts_numpy_integer_points():
    grid = GridSpec(16, 0.4)
    phi = transition_phase(grid, 0, 1, count=2)
    corner = [(np.int64(31), np.int32(15)), (0, 0)]
    full = star_twisted_oracle(phi, phi, grid)
    assert np.array_equal(star_twisted_oracle(phi, phi, grid, points=corner), full[[31, 0], [15, 0]])


def test_star_shape_validation():
    with pytest.raises(ValueError):
        star(np.zeros((4, 4)), np.zeros(GRID.phase_shape), GRID)


# ----------------------------------------------------------------------
# power-of-two scaled kernel products (star._compose)
# ----------------------------------------------------------------------

_TINY = np.finfo(float).tiny  # 2**-1022
_SUBNORMAL_STEP = 2.0**-1074

FORMS = {
    "product": (2, lambda a, b: a @ b),
    "commutator": (2, lambda a, b: a @ b - b @ a),
    "square": (1, lambda k: k @ k),
    "times_adjoint": (1, lambda k: k @ k.conj().T),
}


def _compose(factors, form, dx):
    return star_module._compose(factors, form, dx)


def random_kernel(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def has_subnormals(K):
    v = np.abs(K.view(float))
    return bool(np.any((v > 0) & (v < _TINY)))


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("name", sorted(FORMS))
@pytest.mark.parametrize("dx", [1.0, 0.3, 3e-12, 1e-300])
def test_compose_is_bit_identical_to_the_plain_product(n, name, dx):
    # with dx = 3e-12 or 1e-300, 2^-shift * dx is not a normal float, so
    # the scale is undone in its own pass before the * dx
    count, form = FORMS[name]
    rng = np.random.default_rng(n)
    factors = [random_kernel(rng, n) for _ in range(count)]
    for K in factors:  # signed zeros, which a complex-valued scaling could flip
        v = K.view(float)
        v[rng.random(v.shape) < 0.3] = 0.0
        v[rng.random(v.shape) < 0.3] = -0.0
    expected = form(*factors) * dx
    got = _compose(tuple(K.copy() for K in factors), form, dx)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(expected.view(float)))


def test_compose_lifts_a_kernel_spanning_the_float_range():
    # 1 ... 1e-170 along each axis: K @ K reaches far below 2^-1022
    n = 64
    u = np.geomspace(1.0, 1e-170, n)
    K = np.outer(u, u).astype(complex)
    assert has_subnormals(K @ K)
    plain = K @ K
    lifted = K.copy()
    got = _compose((lifted,), lambda k: k @ k, 1.0)
    # the operand BLAS saw had no subnormal entry
    assert not has_subnormals(lifted)
    normal = np.abs(plain) >= 2.0**-1000
    assert normal.any() and (~normal).any()
    assert np.array_equal(got[normal], plain[normal])
    assert np.max(np.abs(got - plain)[~normal]) <= n * _SUBNORMAL_STEP
    # two factors: the same entries, with the lift split between them
    A, B = K.copy(), K.copy()
    got2 = _compose((A, B), lambda a, b: a @ b, 1.0)
    assert not has_subnormals(A) and not has_subnormals(B)
    assert np.array_equal(got2[normal], plain[normal])
    assert np.max(np.abs(got2 - plain)[~normal]) <= n * _SUBNORMAL_STEP


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
def test_compose_passes_zero_and_non_finite_factors_on(bad):
    rng = np.random.default_rng(3)
    A = random_kernel(rng, 8)
    B = np.zeros((8, 8), complex) if bad == 0.0 else random_kernel(rng, 8)
    B[2, 5] = bad
    A0, B0 = A.copy(), B.copy()
    with np.errstate(invalid="ignore"):  # inf * 0 inside the product
        expected = (A @ B) * 0.3
        got = _compose((A, B), lambda a, b: a @ b, 0.3)
    assert np.array_equal(got, expected, equal_nan=True)
    # the plain product ran on the factors as given
    assert np.array_equal(A, A0) and np.array_equal(B, B0, equal_nan=True)
    if bad == 0.0:
        assert not got.any()
    else:
        assert not np.isfinite(got).all()


def test_compose_never_scales_a_factor_down():
    # A's row 0 lies near 2^-950 and its other rows near 2^600: scaling A
    # down to balance the factors would round row 0 into subnormals, while
    # the plain product of row 0 with an O(1) factor is normal
    rng = np.random.default_rng(8)
    A = random_kernel(rng, 8, 2.0**600)
    A[0] = random_kernel(rng, 8, 2.0**-950)[0]
    B = random_kernel(rng, 8)
    expected = (A @ B) * 0.5
    assert np.all(np.abs(expected[0]) > _TINY)
    assert np.array_equal(_compose((A.copy(), B.copy()), lambda a, b: a @ b, 0.5), expected)


@pytest.mark.parametrize("scales", [(1e300, 1e-300), (1e-200, 1e150)])
def test_compose_keeps_finite_products_of_extreme_factors(scales):
    # (1e-200, 1e150): A is lifted by more than 2^1000, in steps, and the
    # scale is undone in steps before the * dx
    rng = np.random.default_rng(4)
    A, B = (random_kernel(rng, 8, scale) for scale in scales)
    expected = (A @ B) * 0.5
    assert np.isfinite(expected).all() and np.all(np.abs(expected) > _TINY)
    got = _compose((A.copy(), B.copy()), lambda a, b: a @ b, 0.5)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("dx", [1.0, 1e-300])
def test_compose_keeps_overflow(dx):
    # with dx = 1e-300 the exact product times dx is finite, but the
    # unscaled product overflows first, as it does without the scaling
    rng = np.random.default_rng(5)
    A = random_kernel(rng, 8, 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (A @ A) * dx
        got = _compose((A.copy(),), lambda k: k @ k, dx)
    assert not np.isfinite(expected).all()
    assert not np.isfinite(got).all()
    assert np.array_equal(np.isfinite(got), np.isfinite(expected))


def test_residuals_equal_the_unscaled_formulas():
    # n = 512 Hermite state: its kernel tails reach below 2^-511, so the
    # unscaled K @ K runs through underflow; the residual does not move
    grid = GridSpec(512, float(np.sqrt(np.pi / 512)))
    W = wigner_of_state(hermite_basis(grid, 3)[2], grid)
    K = weyl_wigner_inv(W, grid)
    tail = np.abs(K.view(float))
    assert np.any((tail > 0) & (tail < 2.0**-511))  # products of two underflow
    square = weyl_wigner(K @ K * grid.dx, grid)
    r1 = float(np.max(np.abs(square - W / (2 * np.pi))))
    cell = grid.cell
    r2 = float(abs(2 * np.pi * np.sum(W**2) * cell - 1) + abs(np.sum(W) * cell - 1))
    assert purity_residual(W, grid) == (r1, r2)

    rng = np.random.default_rng(6)
    H = random_kernel(rng, GRID.n)
    evals, evecs = np.linalg.eigh((H + H.conj().T) / 2)
    U = weyl_wigner((evecs * np.exp(1j * evals)) @ evecs.conj().T / GRID.dx, GRID)
    KU = weyl_wigner_inv(U, GRID)
    product = weyl_wigner(KU @ KU.conj().T * GRID.dx, GRID)
    expected = float(np.max(np.abs(product - identity_phase(GRID))))
    assert star_unitary_residual(U, GRID) == expected


def test_star_and_bracket_equal_the_unscaled_formulas():
    rng = np.random.default_rng(7)
    A, B = random_phase(rng), random_phase(rng)
    KA, KB = weyl_wigner_inv(A, GRID), weyl_wigner_inv(B, GRID)
    assert np.array_equal(star(A, B, GRID), weyl_wigner(KA @ KB * GRID.dx, GRID))
    bracket = -1j * weyl_wigner((KA @ KB - KB @ KA) * GRID.dx, GRID)
    assert np.array_equal(moyal_bracket(A, B, GRID), bracket)
