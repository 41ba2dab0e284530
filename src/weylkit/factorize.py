"""Two-point generator kernels and the inverse (factorization) problem.

A real symbol A(q, p) acts on phase functions through an antisymmetric,
purely imaginary two-point kernel α_K(q₁, p₁, q₂, p₂).  The forward map is

    α_K(1, 2) = (i/2π²) Im[ e^{iφ₀} Ã̂(b, c) ] ,
    φ₀ = 2(p₁q₂ − p₂q₁),  b = 2(p₂ − p₁),  c = 2(q₁ − q₂),

where Ã is the decaying part of A and Ã̂(b, c) = ∬ Ã e^{i(bq + cp)} dq dp.
The inverse problem starts from α_K alone.  In the difference coordinates

    u = q₂ − q₁,  v = p₁ − p₂,  u' = q₁ + q₂,  v' = p₁ + p₂,

the kernel becomes R(u, v, u', v') = α_K((u'−u)/2, (v'+v)/2, (u'+u)/2,
(v'−v)/2), and a kernel arises from some A exactly when R satisfies the
three-integral consistency identity

    ∬ sin(vx+uy) R(u,v,u',v') du dv
      = ∬ sin(v(u'+x)/2 + u(v'+y)/2) R(u,v,(u'+x)/2,(v'+y)/2) du dv
      − ∬ sin(v(u'−x)/2 + u(v'−y)/2) R(u,v,(u'−x)/2,(v'−y)/2) du dv

for all (x, y, u', v').  When it holds, the symbol is recovered (up to an
arbitrary real background constant — a constant phase of the factorized
unitary) by

    A(x, y) = 4i ∬ sin(vx+uy) R(u,v,x,y) du dv  −  (same at a
    far-field anchor point),

where the anchor removes the −Ã(0,0) offset inherent in the integral.  The
4i normalization is pinned by the closed-form Gaussian family below, for
which forward map, R, consistency and recovery are all known exactly.

All plane integrals are midpoint Riemann quadratures over boxes sized from
the stated decay extents (tails below ~1e−12); boxes are reported on the
module logger.  One function, ``_uv_mesh``, decides the (u, v) mesh; it is
capped at ``_MESH_POINTS_MAX`` points, checked before anything is allocated.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import GridSpec, _fourier_lattice

__all__ = [
    "AlphaKernel",
    "RFunction",
    "GaussianAlphaSpec",
    "alpha_kernel_from_A",
    "kernel_to_R",
    "autv_residual",
    "recover_A",
]

logger = logging.getLogger(__name__)

# largest grid alpha_kernel_from_A tabulates densely
_DENSE_N_MAX = 32

# Largest (u, v) quadrature mesh.  One R slice on the mesh is a complex
# array of 16 B per point and the default gate evaluates about a hundred
# slices, so 10⁶ points keep a slice near 16 MB and a gate at a few
# seconds, about 90 times the default mesh (~11k points at τσ = 1).
_MESH_POINTS_MAX = 1_000_000

# midpoint step of the (u, v) quadratures
_STEP = 0.1

# values per trig table that the separable quadrature evaluates at once,
# about 2 MB, however long the mesh axis or however many the rows
_BLOCK_POINTS = 1 << 18

# largest consistency residual recover_A admits
_THRESHOLD = 1e-4

# Gaussian tails e^{-L^2/w} drop below 1e-12 for L = TAIL_FACTOR * sqrt(w).
TAIL_FACTOR = math.sqrt(math.log(1e12))  # ~5.26


# ----------------------------------------------------------------------
# kernel containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaKernel:
    """Two-point kernel α_K with a vectorized evaluator.

    ``fn(q1, p1, q2, p2)`` broadcasts over numpy arrays.  ``dq_extent`` and
    ``dp_extent`` bound the decay of the kernel in the point differences
    q₂ − q₁ and p₁ − p₂; downstream quadratures integrate over boxes of
    these half-widths.
    """

    fn: Callable
    dq_extent: float
    dp_extent: float

    def __call__(self, q1, p1, q2, p2):
        return self.fn(q1, p1, q2, p2)


@dataclass(frozen=True)
class RFunction:
    """α_K in difference coordinates; decays in (u, v), smooth in (u', v')."""

    fn: Callable
    u_extent: float
    v_extent: float

    def __post_init__(self):
        if not (0 < self.u_extent < math.inf and 0 < self.v_extent < math.inf):
            raise ValueError("u_extent and v_extent must be positive and finite")

    def __call__(self, u, v, up, vp):
        return self.fn(u, v, up, vp)


@dataclass(frozen=True)
class GaussianAlphaSpec:
    """The closed-form Gaussian kernel family.

    For widths τ, σ > 0 and a sign ε = ±1,

        α_K(1,2) = i sin[(1+ε)(p₁q₂−p₂q₁) − (1−ε)(q₁p₁−q₂p₂)]
                     · exp(−(q₁−q₂)²/τ − (p₁−p₂)²/σ)
        R(u,v,u',v') = i sin(uv' + ε u'v) exp(−u²/τ − v²/σ).

    Only ε = +1 satisfies the consistency identity; its generating symbol
    is A(q,p) = 2π√(στ) exp(−σq² − τp²), up to a real constant.  For
    ε = −1 the kernel is a perfectly good antisymmetric generator but no A
    exists.
    """

    tau: float
    sigma: float
    epsilon: int = 1

    def __post_init__(self):
        if not (0 < self.tau < math.inf and 0 < self.sigma < math.inf):
            raise ValueError("tau and sigma must be positive and finite")
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")

    def alpha_kernel(self) -> AlphaKernel:
        tau, sigma, eps = self.tau, self.sigma, self.epsilon

        def fn(q1, p1, q2, p2):
            arg = (1 + eps) * (p1 * q2 - p2 * q1) - (1 - eps) * (
                q1 * p1 - q2 * p2
            )
            damp = np.exp(-((q1 - q2) ** 2) / tau - ((p1 - p2) ** 2) / sigma)
            return 1j * np.sin(arg) * damp

        return AlphaKernel(
            fn, TAIL_FACTOR * math.sqrt(tau), TAIL_FACTOR * math.sqrt(sigma)
        )

    def r_function(self) -> RFunction:
        return _GaussianR(self)

    def a_function(self, q, p):
        """The generating symbol (meaningful for ε = +1 only)."""
        return 2 * math.pi * math.sqrt(self.sigma * self.tau) * np.exp(
            -self.sigma * np.asarray(q) ** 2 - self.tau * np.asarray(p) ** 2
        )


@dataclass(frozen=True)
class _GaussianR(RFunction):
    """The Gaussian family's R, built from its spec alone, which makes it separable:

        R = i [sin(uv')·cos(εu'v) + cos(uv')·sin(εu'v)]·e^{−u²/τ}·e^{−v²/σ},

    so its quadratures are products of 1-d sums over the mesh axes (see
    :func:`_separable_integrals`) and never call ``fn``.  ``fn`` and the
    extents follow from ``spec``: they can be neither passed nor replaced,
    so they cannot describe another R than the one integrated.  Another
    function needs a plain :class:`RFunction`.
    """

    fn: Callable = field(init=False, repr=False)
    u_extent: float = field(init=False)
    v_extent: float = field(init=False)
    spec: GaussianAlphaSpec

    def __post_init__(self):
        tau, sigma, eps = self.spec.tau, self.spec.sigma, self.spec.epsilon

        def fn(u, v, up, vp):
            return (
                1j
                * np.sin(u * vp + eps * up * v)
                * np.exp(-(u ** 2) / tau - (v ** 2) / sigma)
            )

        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "u_extent", TAIL_FACTOR * math.sqrt(tau))
        object.__setattr__(self, "v_extent", TAIL_FACTOR * math.sqrt(sigma))


# ----------------------------------------------------------------------
# forward map: symbol -> two-point kernel
# ----------------------------------------------------------------------


def alpha_kernel_from_A(A, grid: GridSpec) -> AlphaKernel:
    """Two-point kernel of a symbol sampled as a (2n, n) phase array.

    Ã̂ is tabulated on the shift lattice by dense matrix products and the
    kernel evaluates at grid-aligned points only — positions on the dx/2
    lattice and momenta on the dp/2 lattice.  Off-lattice points raise
    ValueError.  Limited to n <= 32 (the tabulation is dense).

    A constant part of A carries no kernel content but aliases into Ã̂ on
    the finite lattice; subtract it from the samples first.
    """
    if grid is None:
        raise ValueError("the samples need their grid")
    if grid.n > _DENSE_N_MAX:
        raise ValueError(f"dense kernel tabulation is limited to n <= {_DENSE_N_MAX}")
    A = np.asarray(A, dtype=complex)
    if A.shape != grid.phase_shape:
        raise ValueError(f"phase function must have shape {grid.phase_shape}")
    a_hat_table = _fourier_lattice(A, grid)
    m = 2 * grid.n - 1
    dx, dp = grid.dx, grid.dp

    def lattice_index(values, spacing, label):
        scaled = np.asarray(values) / spacing
        idx = np.rint(scaled)
        if np.max(np.abs(scaled - idx)) > 1e-9:
            raise ValueError(
                f"{label} shift is not grid-aligned; gridded kernels "
                f"evaluate only where 2·Δp is a multiple of dp={dp:.6g} and "
                f"2·Δq a multiple of dx={dx:.6g} — refine the grid"
            )
        if np.max(np.abs(idx)) > m:
            raise ValueError(
                f"{label} shift exceeds the tabulated lattice (|index| > {m})"
            )
        return idx.astype(int)

    def fn(q1, p1, q2, p2):
        q1, p1, q2, p2 = np.broadcast_arrays(*map(np.asarray, (q1, p1, q2, p2)))
        phi0 = 2 * (p1 * q2 - p2 * q1)
        ib = lattice_index(2.0 * (p2 - p1), dp, "momentum")
        ic = lattice_index(2.0 * (q1 - q2), dx, "position")
        hat = a_hat_table[m + ib, m + ic]
        return 1j / (2 * math.pi ** 2) * np.imag(np.exp(1j * phi0) * hat)

    return AlphaKernel(fn, (grid.n / 2) * dx, (grid.n / 2) * dp)


# ----------------------------------------------------------------------
# difference coordinates and the consistency identity
# ----------------------------------------------------------------------


def kernel_to_R(alpha: AlphaKernel) -> RFunction:
    """Re-index a two-point kernel into difference coordinates."""

    def fn(u, v, up, vp):
        return alpha.fn(
            (up - u) / 2, (vp + v) / 2, (up + u) / 2, (vp - v) / 2
        )

    return RFunction(fn, alpha.dq_extent, alpha.dp_extent)


def _uv_mesh(R: RFunction):
    """The (u, v) midpoints, as a column and a row, and the cell area.

    Each axis spans R's extent at step ``_STEP`` (at least two points).
    Raises ValueError past ``_MESH_POINTS_MAX`` points, before allocating.
    """
    extents = (R.u_extent, R.v_extent)
    # an extent past about 9e306 spans inf steps, which no int can count
    spans = [2 * extent / _STEP for extent in extents]
    nu, nv = counts = [max(int(round(x)), 2) if x < math.inf else x for x in spans]
    if nu * nv > _MESH_POINTS_MAX:
        raise ValueError(
            f"quadrature mesh of {float(nu) * nv:.3g} points "
            f"(u box ±{R.u_extent:.3g}, "
            f"v box ±{R.v_extent:.3g}, step {_STEP:g}) exceeds the cap of "
            f"{_MESH_POINTS_MAX} points"
        )
    u, v = ((np.arange(n) + 0.5) * (2 * L / n) - L for n, L in zip(counts, extents))
    return u[:, None], v[None, :], (u[1] - u[0]) * (v[1] - v[0])


def _sine_integral(R: RFunction, x, y, up, vp, u, v, weight):
    """∬ sin(vx + uy) R(u, v, u', v') du dv by midpoint quadrature.

    ``x`` and ``y`` are equal-length 1-d arrays that share the one slice
    (u', v'); the result is a complex 1-d array to match.  R is evaluated
    on the mesh once, and the split

        sin(vx + uy) = sin(uy)·cos(vx) + cos(uy)·sin(vx)

    reduces all the sums to two matrix products with that slice.
    """
    r = np.broadcast_to(R.fn(u, v, up, vp), (u.size, v.size))
    uy = np.multiply.outer(y, u.ravel())
    vx = np.multiply.outer(x, v.ravel())
    return weight * np.sum(
        (np.sin(uy) @ r) * np.cos(vx) + (np.cos(uy) @ r) * np.sin(vx), axis=-1
    )


def _axis_sums(axis, damping, c):
    """Σᵢ cos(axisᵢ·c)·dampingᵢ and Σᵢ sin(axisᵢ·c)·dampingᵢ at each value of c.

    Returns the two sums stacked on a new first axis.  cos and sin are
    evaluated once per distinct value of ``c``, a block of values at a
    time, so no array holds more than about ``_BLOCK_POINTS`` values.
    Each value's sums reduce its own row, so they do not depend on the
    block or on the other values of ``c``.
    """
    values, index = np.unique(c, return_inverse=True)
    sums = np.empty((2, values.size))
    block = max(_BLOCK_POINTS // axis.size, 1)
    for start in range(0, values.size, block):
        phase = np.multiply.outer(values[start:start + block], axis)
        sums[:, start:start + block] = (
            np.sum(np.cos(phase) * damping, axis=1), np.sum(np.sin(phase) * damping, axis=1)
        )
    return sums[:, index.reshape(c.shape)]


def _separable_integrals(R: _GaussianR, rows, u, v, weight):
    """The sine integrals of the Gaussian R as products of 1-d sums.

    With a = εu', the integrand sin(vx + uy)·sin(uv' + av) is

        ½ [cos(u(y − v') + v(x − a)) − cos(u(y + v') + v(x + a))],

    and cos(uα + vβ) = cos(uα)·cos(vβ) − sin(uα)·sin(vβ), so each midpoint
    double sum is two products of a sum over u at y ∓ v' and a sum over v
    at x ∓ a.
    """
    x, y, up, vp = rows.T
    a = R.spec.epsilon * up
    cu, su = _axis_sums(u, np.exp(-(u ** 2) / R.spec.tau), np.stack([y - vp, y + vp]))
    cv, sv = _axis_sums(v, np.exp(-(v ** 2) / R.spec.sigma), np.stack([x - a, x + a]))
    at_differences, at_sums = cu * cv - su * sv
    return 0.5j * weight * (at_differences - at_sums)


def _grouped_integrals(R: RFunction, rows: np.ndarray) -> np.ndarray:
    """Sine integrals for an (N, 4) array of rows (x, y, u', v').

    The Gaussian family's R takes :func:`_separable_integrals`.  Any other
    R takes one call of :func:`_sine_integral`, so one R slice, per
    distinct (u', v').  Both integrate on the mesh of :func:`_uv_mesh`.
    """
    u, v, weight = _uv_mesh(R)
    if isinstance(R, _GaussianR):
        return _separable_integrals(R, rows, u.ravel(), v.ravel(), weight)
    slices, which = np.unique(rows[:, 2:], axis=0, return_inverse=True)
    which = which.ravel()
    out = np.empty(len(rows), dtype=complex)
    for k, (up, vp) in enumerate(slices):
        members = np.flatnonzero(which == k)
        x, y = rows[members, 0], rows[members, 1]
        out[members] = _sine_integral(R, x, y, up, vp, u, v, weight)
    return out


def autv_residual(R: RFunction, *, probe=None) -> float:
    """Worst violation of the three-integral consistency identity.

    ``probe`` is an iterable of (x, y, u', v') tuples; the default is the
    5×5×5×5 lattice over [−2, 2]⁴.  Kernels of symbols satisfy the
    identity to quadrature accuracy; kernels outside that class miss by
    O(1), so the residual separates the classes by many orders of
    magnitude.

    The three integrals of every probe go into one array of rows
    (x, y, u', v'), grouped by the slice (u', v') they evaluate R on: the
    lhs integrals sit on the probe's own (u', v'), the other two on the
    half-sums ((u' ± x)/2, (v' ± y)/2).  On the mesh route each group is
    one call of :func:`_sine_integral`, so R is evaluated once per distinct
    slice: 81 times on the default probe (its 25 lhs slices are among the
    81 half-sums) instead of once per integral, 1875 times.  The Gaussian
    family's R never evaluates on the mesh (see :func:`_grouped_integrals`).
    """
    if probe is None:
        ticks = np.linspace(-2.0, 2.0, 5)
        probe = itertools.product(ticks, repeat=4)
    probe = np.asarray(list(probe), dtype=float).reshape(-1, 4)
    x, y, up, vp = probe.T
    plus = np.stack(2 * [(up + x) / 2, (vp + y) / 2], axis=-1)
    minus = np.stack(2 * [(up - x) / 2, (vp - y) / 2], axis=-1)
    logger.debug(
        "autv_residual quadrature: u box ±%.3f, v box ±%.3f, step %.3f",
        R.u_extent,
        R.v_extent,
        _STEP,
    )
    lhs, plus, minus = _grouped_integrals(R, np.concatenate([probe, plus, minus])).reshape(3, -1)
    return float(np.max(np.abs(lhs - (plus - minus)), initial=0.0))


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------


def recover_A(R: RFunction, points, *, override: bool = False) -> np.ndarray:
    """Recover the symbol A at the given (x, y) points from its R kernel.

    The consistency residual is computed first and must not exceed
    ``_THRESHOLD``; ``override=True`` skips that gate altogether (a caller
    that has already gated passes it to avoid a second residual).  Past
    the gate,

        A(x, y) = G(x, y) − G(anchor),
        G(x, y) = 4i ∬ sin(vx + uy) R(u, v, x, y) du dv,

    with the anchor a far-field point, scaled from the decay extents of R,
    where the decaying part of A is negligible, so A is recovered up to
    its real background constant.  Returns the real part; the imaginary
    part is a quadrature residue for consistent kernels.
    """
    if not override:
        residual = autv_residual(R)
        if residual > _THRESHOLD:
            raise ValueError(
                f"consistency residual {residual:.3e} exceeds threshold "
                f"{_THRESHOLD:.1e}; this kernel does not come from a symbol "
                "(pass override=True to force recovery anyway)"
            )
    anchor = (TAIL_FACTOR ** 2 / R.v_extent, TAIL_FACTOR ** 2 / R.u_extent)
    logger.debug("recover_A anchor (%.3f, %.3f), step %.3f", *anchor, _STEP)
    xy = np.asarray([anchor, *points], dtype=float).reshape(-1, 2)
    g = 4j * _grouped_integrals(R, np.concatenate([xy, xy], axis=1))
    return (g[1:] - g[0]).real
