"""Grid geometry, oscillator basis samples, inner products."""

import math
import warnings

import numpy as np
import pytest

from weylkit import GridSpec, hermite_basis, inner_h, inner_k


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(5, 0.1)
    with pytest.raises(ValueError):
        GridSpec(2, 0.1)
    with pytest.raises(ValueError):
        GridSpec(8, 0.0)
    with pytest.raises(ValueError):
        GridSpec(8, -1.0)
    with pytest.raises(ValueError):
        GridSpec(4.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(8, float("inf"))


def test_grid_geometry():
    grid = GridSpec(8, 0.5)
    assert grid.dp == pytest.approx(math.pi / 4)
    # positions run from −(n/2)dx in steps of dx; the grid is left-heavy
    assert grid.x[0] == -2.0 and grid.x[-1] == 1.5
    assert np.allclose(np.diff(grid.x), 0.5)
    # midpoints are half-spaced, one per kernel anti-diagonal
    assert grid.q.shape == (16,)
    assert grid.q[8] == 0.0
    assert np.allclose(np.diff(grid.q), 0.25)
    assert grid.phase_shape == (16, 8)
    assert grid.kernel_shape == (8, 8)
    assert grid.cell == pytest.approx(0.25 * grid.dp)


def test_momentum_grids_by_parity():
    grid = GridSpec(8, 0.5)
    p0 = grid.p(0)
    p1 = grid.p(1)
    assert p0[4] == 0.0
    # odd rows are offset by half a momentum step
    assert np.allclose(p1 - p0, grid.dp / 2)
    with pytest.raises(ValueError):
        grid.p(2)


def test_phase_matrices():
    grid = GridSpec(8, 0.5)
    P = grid.p_matrix()
    Q = grid.q_matrix()
    assert P.shape == Q.shape == grid.phase_shape
    assert np.array_equal(P[0], grid.p(0))
    assert np.array_equal(P[3], grid.p(1))
    assert np.all(Q[5] == grid.q[5])


def test_hermite_values_match_explicit_polynomials():
    grid = GridSpec(64, 0.25)
    basis = hermite_basis(grid, 4)
    x = grid.x
    gauss = np.exp(-(x**2) / 2)
    norm = math.pi**-0.25
    explicit = [
        norm * gauss,
        norm * gauss * math.sqrt(2) * x,
        norm * gauss * (2 * x**2 - 1) / math.sqrt(2),
        norm * gauss * (2 * x**3 - 3 * x) / math.sqrt(3),
    ]
    for r, reference in enumerate(explicit):
        assert np.allclose(basis[r], reference, atol=1e-13)


def test_hermite_orthonormality():
    grid = GridSpec(128, 0.125)
    basis = hermite_basis(grid, 8)
    gram = np.array(
        [[inner_h(basis[r], basis[s], grid) for s in range(8)] for r in range(8)]
    )
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12


def test_hermite_warns_when_grid_too_small():
    grid = GridSpec(8, 0.5)
    with pytest.warns(UserWarning, match="turning radius"):
        hermite_basis(grid, 12)
    with pytest.raises(ValueError):
        hermite_basis(grid, 0)


def test_hermite_at_huge_dx_warns_only_about_the_extent():
    # x² overflows to inf off the centre; e^{−inf} = 0 is the exact sample
    n = 64
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = hermite_basis(GridSpec(n, 1e300), 6)
    assert [w.category for w in caught] == [UserWarning]
    centre = hermite_basis(GridSpec(n, 0.25), 6)[:, n // 2]
    assert np.array_equal(basis[:, n // 2], centre)
    assert not np.any(np.delete(basis, n // 2, axis=1))


def test_inner_h_contract():
    grid = GridSpec(16, 0.5)
    f = np.exp(-(grid.x**2))
    g = grid.x * f
    value = inner_h(f, g, grid)
    assert isinstance(value, complex)
    assert inner_h(1j * f, g, grid) == pytest.approx(-1j * value)
    with pytest.raises(ValueError):
        inner_h(f[:8], g, grid)


def test_inner_k_shape_check():
    grid = GridSpec(8, 0.5)
    F = np.ones(grid.phase_shape)
    with pytest.raises(ValueError):
        inner_k(F, np.ones((8, 8)), grid)
    # conjugate-linear in the first slot
    G = np.full(grid.phase_shape, 2.0)
    assert inner_k(1j * F, G, grid) == pytest.approx(
        -1j * inner_k(F, G, grid)
    )
