"""Star product of phase functions, two independent routes.

The working route composes the underlying kernels: with K_A, K_B the
kernels of A and B,

    A ⋆ B = transform(K_A · K_B · dx),

which is exactly associative because matrix multiplication is.  The cross
check route never touches kernels: it discretizes the integral form

    (A ⋆ B)(q, p) = (1/π²) ∬ du dv A(q+u, p+v) B̂(−2v, 2u) e^{2i(vq − up)},

    B̂(a, b) = ∬ B(x, y) e^{i(ax + by)} dx dy,

with every shifted evaluation landing on grid points (positions shift in
steps of dx/2 and momenta in steps of dp/2, which is exactly the phase
sampling), so the two routes agree to Riemann accuracy without any
interpolation.

Kernel products and subnormals.  Every kernel composition here (``star``,
the two products of ``moyal_bracket``, ``purity_residual`` and
``star_unitary_residual``) runs through one helper, ``_compose``.  The
kernels of Gaussian states span hundreds of binary orders, so in K_A K_B
many products of tail entries fall below 2^−1022, and BLAS computes them
with subnormal arithmetic, several times slower than normal arithmetic on
x86 cores.  The helper reads the binary exponent of each factor's largest
|Re| or |Im| (one max and one min over the real view), multiplies the
factors in place by powers of two so that the largest possible partial
sum, 2n · max|A| · max|B|, sits just under 2^1000, multiplies, and undoes
the scale by powers of two: folded into the ``· dx`` when 2^−shift · dx is
a normal float, otherwise in its own pass before the ``· dx``, which is
the order of the plain product.  Multiplying by a power of the radix is
exact in floating point, so in the normal range every intermediate is
exactly 2^shift times its unscaled counterpart and the result is bit for
bit the plain ``K_A K_B · dx``.  Only entries the plain product computed
through underflow (|entry| below about 2^−1000) differ, by at most
n · 2^−1074, and there the scaled result is the more accurate one.
Factors are only ever scaled up, so no entry of a factor is rounded.  A
product that might overflow (2n · max|A| · max|B| ≥ 2^1000), and a zero
or non-finite factor, go to the plain product unchanged.

The discrete star identity is the transform of the identity kernel I/dx:
2 on even rows and 0 on odd rows.  The odd-row zeros are a structural
artifact of the half-offset momentum sampling, not an error; unitarity
residuals are measured against this exact array.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

from .grids import GridSpec, _fourier_lattice
from .wigner import _phase_blocks, weyl_wigner, weyl_wigner_inv

__all__ = [
    "star",
    "star_twisted_oracle",
    "moyal_bracket",
    "identity_phase",
    "star_adjoint",
    "purity_residual",
    "star_unitary_residual",
]


_SUM_EXP = 1000  # scaled partial sums stay below 2**_SUM_EXP (overflow is 2**1024)
_MAX, _MIN = np.maximum.reduce, np.minimum.reduce
_TINY = sys.float_info.min  # 2**-1022, the smallest normal float


def _top_exponent(K: np.ndarray):
    """e with max(|Re K|, |Im K|) in [2^(e−1), 2^e); None if K is zero or not finite."""
    v = K.view(np.float64)
    top = max(_MAX(v, axis=None), -_MIN(v, axis=None))  # both NaN if any entry is
    return math.frexp(top)[1] if 0.0 < top < math.inf else None


def _scale(K: np.ndarray, t: int) -> None:
    """K ← 2^t · K in place; exact while the entries stay normal."""
    v = K.view(np.float64)  # a real multiply, so signed zeros are kept
    while abs(t) > 1000:  # keep each factor 2.0**step a normal float
        step = 1000 if t > 0 else -1000
        v *= 2.0 ** step
        t -= step
    v *= 2.0 ** t


def _compose(factors: tuple, form, dx: float) -> np.ndarray:
    """form(*factors) · dx, computed on power-of-two scaled factors.

    ``factors`` holds one or two fresh C-contiguous complex kernels; they
    are scaled in place.  Callers pass them straight in, bound to no name
    of their own, so that they are freed before the product's forward
    transform.  ``form`` is a sum of matrix products each taking
    one copy of every factor, or two copies of a lone factor (K @ K,
    K @ K.conj().T).  See the module docstring for why the result equals
    the plain ``form(*factors) * dx`` bit for bit in the normal range.
    """
    exps = [_top_exponent(K) for K in factors]
    if None in exps:
        return form(*factors) * dx  # a zero or non-finite factor
    # a partial sum is at most 2n · 2^e_A · 2^e_B, and 2n ≤ 2^bit_length(2n − 1)
    headroom = _SUM_EXP - (2 * factors[0].shape[1] - 1).bit_length()
    room = headroom - exps[0] - exps[-1]
    if room < 2:
        return form(*factors) * dx  # nothing to lift, or a product that may overflow
    if len(factors) == 1:
        total = room // 2 * 2
        _scale(factors[0], total // 2)
    else:  # balance the scaled maxima, scaling up only
        first = min(max(headroom // 2 - exps[0], 0), room)
        _scale(factors[0], first)
        _scale(factors[1], room - first)
        total = room
    product = form(*factors)
    folded = math.ldexp(dx, -total)
    if folded >= _TINY:  # 2^−total · dx is exact: undo the scale with the · dx
        product *= folded
    else:
        _scale(product, -total)
        product *= dx
    return product


def star(A: np.ndarray, B: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Star product via kernel composition (exactly associative)."""
    product = _compose((weyl_wigner_inv(A, grid), weyl_wigner_inv(B, grid)), np.matmul, grid.dx)
    return weyl_wigner(product, grid)


def _phase_index(point, n: int) -> tuple:
    """``point`` as an in-range (row, col) of a (2n, n) phase array, else ValueError."""
    try:
        s, k = map(operator.index, point)
    except (TypeError, ValueError):
        raise ValueError(f"point {point!r} is not a (row, col) pair of integers") from None
    if not (0 <= s < 2 * n and 0 <= k < n):
        raise ValueError(f"point {point!r} lies outside the ({2 * n}, {n}) phase array")
    return s, k


def star_twisted_oracle(
    A: np.ndarray, B: np.ndarray, grid: GridSpec, points=None
) -> np.ndarray:
    """Star product by direct quadrature of the twisted integral form.

    ``points`` is an optional iterable of (row, col) phase indices, integers
    with 0 ≤ row < 2n and 0 ≤ col < n (``ValueError`` otherwise); if
    given, a 1-d array of the product at those points is returned instead
    of the full (2n, n) array.  This route is O(n²) per evaluated point
    and exists as an independent check on :func:`star`; quadrature error
    is set by the tails of A and B on the grid.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != grid.phase_shape or B.shape != grid.phase_shape:
        raise ValueError(f"phase functions must have shape {grid.phase_shape}")
    n = grid.n
    if points is None:
        targets = [(s, k) for s in range(2 * n) for k in range(n)]
    else:
        targets = [_phase_index(point, n) for point in points]

    m = 2 * n - 1
    bhat = _fourier_lattice(B, grid)
    q = grid.q
    p_rows = grid.p_matrix()

    s2 = np.arange(2 * n)[:, None]
    k2 = np.arange(n)[None, :]
    sigma2 = s2 % 2

    values = np.empty(len(targets), dtype=complex)
    scale = grid.cell / math.pi ** 2
    for idx, (s1, k1) in enumerate(targets):
        ds = s2 - s1
        v2 = 2 * (k2 - k1) + (sigma2 - s1 % 2)
        u = ds * (grid.dx / 2)
        v = v2 * (grid.dp / 2)
        phase = np.exp(2j * (v * q[s1] - u * p_rows[s1, k1]))
        values[idx] = scale * np.sum(A * bhat[m - v2, m + ds] * phase)

    if points is None:
        return values.reshape(grid.phase_shape)
    return values


def moyal_bracket(A: np.ndarray, B: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Bracket −i(A⋆B − B⋆A); real for real A, B up to roundoff.

    Formed in kernel space as −i · transform((K_A K_B − K_B K_A) · dx).
    """
    bracket = _compose(
        (weyl_wigner_inv(A, grid), weyl_wigner_inv(B, grid)), lambda a, b: a @ b - b @ a, grid.dx
    )
    out = weyl_wigner(bracket, grid)
    return np.multiply(-1j, out, out=out)  # scalar first: the bits of -1j * out


def identity_phase(grid: GridSpec) -> np.ndarray:
    """The exact star identity: 2 on even rows, 0 on odd rows."""
    out = np.zeros(grid.phase_shape, dtype=complex)
    out[0::2] = 2.0
    return out


def star_adjoint(A: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Phase function of the adjoint kernel; complex conjugation in disguise."""
    K = weyl_wigner_inv(A, grid)
    np.conjugate(K, out=K)
    return weyl_wigner(K.T, grid)


def _sum(a: np.ndarray):
    """Σ a, Re and Im summed apart in the order of a real sum (a complex sum
    interleaves them): a real array and its complex upcast agree bit for bit."""
    return complex(np.sum(a.real), np.sum(a.imag)) if np.iscomplexobj(a) else np.sum(a)


def purity_residual(W: np.ndarray, grid: GridSpec) -> tuple:
    """Idempotency and normalization residuals of a candidate pure-state W.

    Returns (r1, r2) with

        r1 = max |(W ⋆ W) − W/2π| ,
        r2 = |2π Σ W² cell − 1| + |Σ W cell − 1| ,

    both ~0 exactly when W is the Wigner function of a unit-norm state.
    """
    W = np.asarray(W)
    # W ⋆ W − W/2π in the transform's own blocks, each reduced as it comes
    # (one block on the table path, which frees K·K first): on the row path
    # only W, the kernel K of W and K·K are alive at the peak
    square = _phase_blocks(grid, _compose((weyl_wigner_inv(W, grid),), lambda k: k @ k, grid.dx))
    W_rows = W.reshape(grid.n, 2, grid.n)
    maxima = []
    for pairs, block in square:
        block -= W_rows[pairs] * (1 / (2 * math.pi))  # the bits of a complex W's division, for a real W too
        maxima.append(np.max(np.abs(block)))
    r1 = float(np.max(maxima))  # a NaN in any block is the result, as in one max
    cell = grid.cell
    r2 = float(
        abs(2 * math.pi * _sum(W ** 2) * cell - 1) + abs(_sum(W) * cell - 1)
    )
    return r1, r2


def star_unitary_residual(U: np.ndarray, grid: GridSpec) -> float:
    """max |U ⋆ U† − identity_phase| — zero iff the kernel of U is unitary.

    U† is the phase function of the conjugate-transposed kernel, so the
    product is formed in kernel space as K_U K_U† dx.
    """
    product = weyl_wigner(
        _compose((weyl_wigner_inv(U, grid),), lambda k: k @ k.conj().T, grid.dx), grid
    )
    product[0::2] -= 2.0  # minus identity_phase(grid), in place
    return float(np.max(np.abs(product)))
