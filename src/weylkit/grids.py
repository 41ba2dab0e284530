"""Finite grids for the discrete phase-space correspondence.

A :class:`GridSpec` fixes a position grid of n points with spacing dx and
the matched momentum spacing dp = π/(n·dx) for which the discrete
kernel-to-phase-function transform is exactly invertible.  Phase functions
live on a (2n, n) array: 2n half-spaced midpoint positions q_s (one per
kernel anti-diagonal) by n momenta, where the momentum grid is offset by
dp/2 on the odd-parity rows.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "hermite_basis", "inner_h", "inner_k"]

# the canonical JSON text of reports and array archives: sorted keys, no spaces, no NaN or inf
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json_numbers(values, name: str) -> np.ndarray:
    """Parsed JSON ``values`` (a number or nested lists of numbers) as an array.

    Raises TypeError for null, strings, true and false.  numpy reads true
    and false among numbers as 1 and 0, so the entries themselves are read.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise TypeError(f"{name} must hold numbers, not {array.dtype}")
    entries = [values]
    for _ in range(array.ndim):
        entries = itertools.chain.from_iterable(entries)
    if bool in set(map(type, entries)):
        raise TypeError(f"{name} must hold numbers, not booleans")
    return array


@dataclass(frozen=True)
class GridSpec:
    """Position grid x_j = (j − n/2)·dx, j = 0..n−1, with matched momenta.

    Parameters
    ----------
    n : even integer >= 4, number of position samples.
    dx : positive, finite grid spacing.

    The momentum spacing is dp = π/(n·dx); half-integer momentum offsets
    appear on phase-function rows of odd parity.
    """

    n: int
    dx: float

    def __post_init__(self):
        n = self.n
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n % 2 or n < 4:
            raise ValueError("n must be an even integer >= 4")
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise ValueError("dx must be positive and finite")

    @property
    def dp(self) -> float:
        return math.pi / (self.n * self.dx)

    @property
    def x(self) -> np.ndarray:
        """Position samples, length n."""
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def q(self) -> np.ndarray:
        """Midpoint positions q_s = (s − n)·dx/2, length 2n (one per row)."""
        return (np.arange(2 * self.n) - self.n) * (self.dx / 2)

    def p(self, sigma: int) -> np.ndarray:
        """Momentum samples for rows of parity sigma (0 or 1), length n."""
        if sigma not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        return (np.arange(self.n) - self.n // 2 + sigma / 2) * self.dp

    @property
    def phase_shape(self) -> tuple:
        return (2 * self.n, self.n)

    @property
    def kernel_shape(self) -> tuple:
        return (self.n, self.n)

    @property
    def cell(self) -> float:
        """Phase-space cell area (dx/2)·dp of the (2n, n) sampling."""
        return (self.dx / 2) * self.dp

    def p_matrix(self) -> np.ndarray:
        """(2n, n) array of momentum values: row s carries parity s mod 2."""
        rows = np.empty(self.phase_shape)
        rows[0::2] = self.p(0)
        rows[1::2] = self.p(1)
        return rows

    def q_matrix(self) -> np.ndarray:
        """(2n, n) array of midpoint positions, constant along each row."""
        return np.repeat(self.q[:, None], self.n, axis=1)


def hermite_basis(grid: GridSpec, count: int) -> np.ndarray:
    """First ``count`` normalized oscillator eigenfunctions on the grid.

    Row r samples e_r(x) = (π^{1/2} 2^r r!)^{−1/2} H_r(x) e^{−x²/2} via the
    stable two-term recurrence

        e_r = x sqrt(2/r) e_{r−1} − sqrt((r−1)/r) e_{r−2}.

    If the classical turning radius of the top state exceeds the grid
    extent in either position or momentum, the samples are still returned
    but a warning is issued: Riemann sums against such states degrade.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    turning = math.sqrt(2 * count - 1)
    extent = (grid.n / 2) * min(grid.dx, grid.dp)
    if turning > extent:
        warnings.warn(
            f"top basis state (index {count - 1}) has turning radius "
            f"{turning:.2f} beyond the grid extent {extent:.2f}; "
            "inner products will lose accuracy",
            stacklevel=2,
        )
    x = grid.x
    out = np.empty((count, grid.n))
    with np.errstate(over="ignore"):  # x² = inf at huge dx; e^{−inf} = 0 is exact
        out[0] = math.pi ** -0.25 * np.exp(-(x ** 2) / 2)
    if count > 1:
        out[1] = x * math.sqrt(2.0) * out[0]
    for r in range(2, count):
        out[r] = x * math.sqrt(2.0 / r) * out[r - 1] - math.sqrt(
            (r - 1) / r
        ) * out[r - 2]
    return out


def inner_h(f: np.ndarray, g: np.ndarray, grid: GridSpec) -> complex:
    """Hilbert-space inner product <f, g> = dx Σ conj(f) g (Riemann)."""
    if f.shape != (grid.n,) or g.shape != (grid.n,):
        raise ValueError("states must be 1-d arrays of length n")
    return complex(grid.dx * np.vdot(f, g))


def inner_k(F: np.ndarray, G: np.ndarray, grid: GridSpec) -> complex:
    """Phase-function inner product (1/2π) Σ conj(F) G · (dx/2) dp.

    Normalized so the transform of kernels is an isometry onto its image:
    <transform(K1), transform(K2)> = dx² Σ conj(K1) K2.
    """
    if F.shape != grid.phase_shape or G.shape != grid.phase_shape:
        raise ValueError("phase functions must have shape (2n, n)")
    return complex(np.vdot(F, G) * grid.cell / (2 * math.pi))


def _fourier_lattice(B: np.ndarray, grid: GridSpec) -> np.ndarray:
    """B̂(a, b) = Σ B[s,k] e^{i(a q_s + b p_k)} (dx/2) dp on the shift lattice.

    a runs over dp·[−(2n−1) .. 2n−1] and b over dx·[−(2n−1) .. 2n−1]
    (4n−1 values each), the exact set reachable by grid-aligned shifts.
    The twisted star oracle and the forward kernel map of ``factorize``
    both integrate against it.
    """
    n = grid.n
    m = 2 * n - 1
    a_vals = grid.dp * np.arange(-m, m + 1)
    b_vals = grid.dx * np.arange(-m, m + 1)
    q = grid.q
    out = np.zeros((2 * m + 1, 2 * m + 1), dtype=complex)
    for sigma in (0, 1):
        rows = np.exp(1j * np.outer(a_vals, q[sigma::2]))
        cols = np.exp(1j * np.outer(grid.p(sigma), b_vals))
        out += rows @ B[sigma::2] @ cols
    return out * grid.cell
