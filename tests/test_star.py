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
    wigner_of_state,
)

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
    # the package re-exports the function star, which hides the module
    star_module = importlib.import_module("weylkit.star")
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


def test_star_shape_validation():
    with pytest.raises(ValueError):
        star(np.zeros((4, 4)), np.zeros(GRID.phase_shape), GRID)
