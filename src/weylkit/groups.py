"""Worked group representations on phase space and their factorisations.

Five families of real unitary phase-space representations, each paired
with the recovery of its Hilbert-space counterpart:

* ``hw_action`` / ``hw_factorize`` — the Heisenberg-Weyl group acting by
  phase-space translations, factorising to the canonical pair q̂, p̂ with
  the central extension parameter ħ appearing only after factorisation.
* ``gen_heisenberg_tower`` — the polynomial generalisation: generators
  β_n of arbitrarily high degree whose factorised partners are x^n/n!.
* ``galilei_action`` / ``galilei_factorize`` — the 1-d Galilei group
  (time translation, boost, space translation), factorising to the free
  Hamiltonian, boost and momentum operators with central charge ħm.
* ``sp2_generators`` — two inequivalent sp(2,R) representations (Case A
  quadratic, Case B cubic with a real parameter), factorised through the
  symbolic quantization pipeline and separated by their Casimir values.
* ``time_reversal_check`` — the two-element group realised linearly on
  phase functions by momentum reversal, whose factorisation is the
  antiunitary conjugation operator.

Grid conventions: ``galilei_action`` is a Weyl–Wigner product K -> U K U†
for every element.  ``hw_action`` is the torus permutation of the phase
array, a real unitary representation on the finite grid that does not
factorise under either realignment (σ₂/σ₁ = 0.143/1.0 for a q shift of
2dx, 0.067/0.94 for a p shift of dp, at n = 16).  ``parity`` factorises
antiunitarily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .diffops import DiffOp
from .grids import GridSpec
from .lift import (
    LINE_VARS,
    PHASE_VARS,
    _exact_positive,
    read_off_generator,
    split_test,
    xi_lift,
    z_conjugate,
)
from .rational import CRat, I
from .symbols import NCPoly, PolySymbol, moyal_symbolic, weyl_quantize
from .wigner import parity, weyl_wigner, weyl_wigner_inv

__all__ = [
    "HWElement",
    "GalileiElement",
    "Sp2Params",
    "FactorizationResult",
    "position_representation",
    "hw_generators",
    "hw_action",
    "hw_cocycle",
    "hw_factorize",
    "gen_heisenberg_tower",
    "tower_factorization",
    "galilei_generators",
    "galilei_action",
    "galilei_factorize",
    "sp2_symbols",
    "sp2_generators",
    "time_reversal_check",
]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _lattice_steps(value: float, step: float):
    """Integer number of lattice steps in ``value``, or None if off-lattice."""
    t = value / step
    r = round(t)
    if abs(t - r) <= 1e-9 * max(1.0, abs(t)):
        return int(r)
    return None


def position_representation(op: NCPoly, hbar=1) -> DiffOp:
    """Coordinate realisation of an operator polynomial: q̂ -> x, p̂ -> −iħ∂x.

    Applied to the normal-ordered form, q̂^a p̂^b -> (−iħ)^b x^a ∂x^b.
    """
    p_coeff = -I * CRat(_exact_positive(hbar, "hbar"))
    terms = {
        ((a,), (b,)): c * p_coeff ** b
        for (a, b), c in op.terms.items()
    }
    return DiffOp(LINE_VARS, terms)


def _scaled_factor(alpha: DiffOp, hbar) -> DiffOp:
    """One-sided Hilbert generator ħ·Â from a phase-space generator."""
    return split_test(z_conjugate(alpha, hbar)).require() * CRat(Fraction(hbar))


def _verified(*relations) -> tuple:
    """Check exact relations given as (report label, residual) pairs.

    A residual is an exact value (operator or scalar) that must vanish,
    or a list of them under one label.  Raises ArithmeticError naming the
    first label that fails; returns the labels in order.
    """
    for label, residuals in relations:
        for residual in residuals if isinstance(residuals, list) else [residuals]:
            if residual != 0:
                raise ArithmeticError(
                    f"exact relation failed: {label}; residual {residual}"
                )
    return tuple(label for label, _ in relations)


@dataclass(frozen=True)
class FactorizationResult:
    """Hilbert-space factorisation of a phase-space representation.

    ``hilbert_generators`` are exact one-variable operators (coordinate
    picture unless noted), with every gauge constant fixed to zero, or
    the text of an antiunitary factor such as complex conjugation.
    ``casimir_value`` holds the central invariant of the factorised
    algebra: the quadratic Casimir for sp(2,R), the central charge for the
    centrally extended families.
    """

    example: str
    generator_names: tuple
    hilbert_generators: tuple
    relations_checked: tuple = ()
    max_residual: float = 0.0
    casimir_value: object = None
    details: dict = field(default_factory=dict)

    def report(self) -> dict:
        """The JSON verification report consumed by the CLI; a numeric relation
        in ``relations_checked`` was computed, and ``max_residual`` is its value."""
        value = self.casimir_value
        if isinstance(value, CRat):
            value = float(Fraction(value.re))
        return {
            "example": self.example,
            "relations_checked": list(self.relations_checked),
            "max_residual": float(self.max_residual),
            "casimir_value": value,
            "factorized_generators_pretty": [
                f"{name} = {op}"
                for name, op in zip(self.generator_names, self.hilbert_generators)
            ],
        }


# ----------------------------------------------------------------------
# Heisenberg-Weyl group
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HWElement:
    """Element g(a1, a2) of the abelian two-parameter translation group."""

    a1: float
    a2: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    def compose(self, other: "HWElement") -> "HWElement":
        if self.hbar != other.hbar:
            raise ValueError("cannot compose elements with different hbar")
        return HWElement(self.a1 + other.a1, self.a2 + other.a2, self.hbar)

    def inverse(self) -> "HWElement":
        return HWElement(-self.a1, -self.a2, self.hbar)


def hw_generators() -> tuple:
    """Phase-space generators (α₁, α₂) = (−i∂q, i∂p); they commute."""
    return (
        DiffOp.deriv(PHASE_VARS, "q", coeff=-I),
        DiffOp.deriv(PHASE_VARS, "p", coeff=I),
    )


def hw_action(g: HWElement, F: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Translation action (Π(g)F)(q, p) = F(q + a1, p − a2).

    Both shifts must be lattice-aligned (a1 a multiple of dx, a2 of dp);
    the action is then an exact index permutation of the phase array.
    """
    F = np.asarray(F)
    if F.shape != grid.phase_shape:
        raise ValueError(f"phase array must have shape {grid.phase_shape}")
    t = _lattice_steps(g.a1, grid.dx)
    if t is None:
        raise ValueError(
            f"q-shift a1={g.a1} is not an integer multiple of dx={grid.dx}"
        )
    m2 = _lattice_steps(g.a2, grid.dp)
    if m2 is None:
        raise ValueError(
            f"p-shift a2={g.a2} is not an integer multiple of dp={grid.dp}"
        )
    out = np.roll(F, -2 * t, axis=0)
    return np.roll(out, m2, axis=1)


def hw_cocycle(g1: HWElement, g2: HWElement) -> float:
    """Phase χ with Π(g1)Π(g2) = e^{iχ} Π(g1·g2) in the factorised action.

    With the gauge ω ≡ 0 of :func:`hw_factorize`, χ(g1, g2) = g2.a2·g1.a1/ħ.
    χ is ordering-sensitive exactly when the shifts are crossed, which is
    how the commuting phase-space translations acquire non-commuting
    Hilbert lifts.
    """
    if g1.hbar != g2.hbar:
        raise ValueError("cocycle requires a common hbar")
    return g2.a2 * g1.a1 / g1.hbar


def hw_factorize(hbar=1) -> FactorizationResult:
    """Factorise the translation representation into the canonical pair.

    Returns Â₁ = p̂ = −iħ∂x and Â₂ = q̂ = x (gauge constants p₀ = q₀ = 0)
    and verifies [q̂, p̂] = iħ exactly.  ħ enters only through the
    two-point conjugation; the phase-space generators are ħ-free.
    """
    h = _exact_positive(hbar, "hbar")
    alpha1, alpha2 = hw_generators()
    p_hat = _scaled_factor(alpha1, h)
    q_hat = _scaled_factor(alpha2, h)
    # unit shifts, crossed: chi(g1, g2) − chi(g2, g1) = 1/ħ ≠ 0
    one, zero = Fraction(1), Fraction(0)
    g1, g2 = HWElement(one, zero, h), HWElement(zero, one, h)
    relations = _verified(
        ("[alpha1, alpha2] = 0", alpha1.commutator(alpha2)),
        (
            "[q_hat, p_hat] = i*hbar",
            q_hat.commutator(p_hat) - DiffOp.constant(LINE_VARS, I * CRat(h)),
        ),
        (
            "cocycle chi(g1, g2) = g2.a2*g1.a1/hbar distinguishes crossed shifts",
            hw_cocycle(g1, g2) - hw_cocycle(g2, g1) - one / h,
        ),
    )
    return FactorizationResult(
        example="heisenberg_weyl",
        generator_names=("p_hat", "q_hat"),
        hilbert_generators=(p_hat, q_hat),
        relations_checked=relations,
        casimir_value=float(h),
        details={"hbar": float(h)},
    )


# ----------------------------------------------------------------------
# generalised Heisenberg tower
# ----------------------------------------------------------------------


def gen_heisenberg_tower(N: int) -> list:
    """Tower generators (β_n, B̂_n) for n = 1..N, with 1 ≤ N ≤ 8.

    β_n = (2/n!) Σ_m (i/2)^{n−m} C(n, m) q^m ∂p^{n−m}, the sum running
    over 0 ≤ m ≤ n with n − m odd; its factorised partner, recovered
    through the split/read-off pipeline, is B̂_n = x^n/n!.
    """
    if not isinstance(N, int) or not 1 <= N <= 8:
        raise ValueError("tower depth N must be an integer in [1, 8]")
    half_i = I * CRat(Fraction(1, 2))
    out = []
    for n in range(1, N + 1):
        terms = {}
        for m in range(n - 1, -1, -2):
            k = n - m
            coeff = CRat(Fraction(2, factorial(n))) * half_i**k * comb(n, m)
            terms[((m, 0), (0, k))] = coeff
        beta = DiffOp(PHASE_VARS, terms)
        a_hat = split_test(z_conjugate(beta)).require()
        symbol = read_off_generator(a_hat)
        b_hat = position_representation(weyl_quantize(symbol))
        out.append((beta, b_hat))
    return out


def tower_factorization(N: int = 4) -> FactorizationResult:
    """Exact closure report for the tower algebra {α₁, β_1..β_N}.

    The phase-space algebra closes as [−i∂q, β_n] = −i β_{n−1} with all
    β's mutually commuting; the factorised partners satisfy the same
    relations plus the central term [B̂₁, Â₁] = i that extends it.
    """
    pairs = gen_heisenberg_tower(N)
    alpha1 = DiffOp.deriv(PHASE_VARS, "q", coeff=-I)
    a1_hat = DiffOp.deriv(LINE_VARS, "x", coeff=-I)
    betas = [b for b, _ in pairs]
    b_hats = [bh for _, bh in pairs]

    def lowering(a, ops):
        return [a.commutator(ops[n]) + I * ops[n - 1] for n in range(1, N)]

    def commuting(ops):
        return [x.commutator(y) for j, x in enumerate(ops) for y in ops[j + 1:]]

    relations = _verified(
        ("[alpha1, beta_1] = 0", alpha1.commutator(betas[0])),
        ("[alpha1, beta_n] = -i*beta_(n-1) for 2 <= n <= N", lowering(alpha1, betas)),
        ("[beta_j, beta_k] = 0", commuting(betas)),
        ("[A_1, B_n] = -i*B_(n-1) for 2 <= n <= N", lowering(a1_hat, b_hats)),
        ("[B_j, B_k] = 0", commuting(b_hats)),
        (
            "[B_1, A_1] = i  (central extension, hbar = 1)",
            b_hats[0].commutator(a1_hat) - DiffOp.constant(LINE_VARS, I),
        ),
    )
    return FactorizationResult(
        example="heisenberg_tower",
        generator_names=("A_1",) + tuple(f"B_{n}" for n in range(1, N + 1)),
        hilbert_generators=(a1_hat,) + tuple(b_hats),
        relations_checked=relations,
        casimir_value=1.0,
        details={"depth": N},
    )


# ----------------------------------------------------------------------
# Galilei group
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GalileiElement:
    """Element g(a1, a2, a3): time translation, boost velocity, position shift.

    The representation parameters m (mass) and ħ ride along with the
    element.  The third slot composes as a3 + b3 − b2·a1 — the sign that
    makes the phase-space pullback action a true representation.
    """

    a1: float
    a2: float
    a3: float
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    def compose(self, other: "GalileiElement") -> "GalileiElement":
        if self.m != other.m or self.hbar != other.hbar:
            raise ValueError("cannot compose elements with different m or hbar")
        return GalileiElement(
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3 - other.a2 * self.a1,
            self.m,
            self.hbar,
        )

    def inverse(self) -> "GalileiElement":
        return GalileiElement(
            -self.a1, -self.a2, -self.a3 - self.a2 * self.a1, self.m, self.hbar
        )


def galilei_generators(m=1) -> tuple:
    """Generators α₁ = −i(p/m)∂q, α₂ = im∂p, α₃ = −i∂q (exact, m-free CRs)."""
    m = _exact_positive(m, "m")
    alpha1 = DiffOp(PHASE_VARS, {((0, 1), (1, 0)): -I * CRat(Fraction(1, 1) / m)})
    alpha2 = DiffOp.deriv(PHASE_VARS, "p", coeff=I * CRat(m))
    alpha3 = DiffOp.deriv(PHASE_VARS, "q", coeff=-I)
    return alpha1, alpha2, alpha3


def _galilei_unitary(g: GalileiElement, grid: GridSpec) -> np.ndarray:
    """Hilbert-space unitary implementing the point map on kernels.

    U = U_shear · U_translate · U_boost with U_boost = diag(e^{−ibx}) and
    the other factors spectral multipliers e^{−iωc}, e^{−iλω²/2} in the
    conjugate variable ω; λ = a1/m, c = a2·a1 + a3, b = m·a2.
    """
    lam = g.a1 / g.m
    c = g.a2 * g.a1 + g.a3
    b = g.m * g.a2
    omega = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
    U = np.diag(np.exp(-1j * b * grid.x)).astype(complex)
    mult = np.exp(-1j * c * omega) * np.exp(-1j * lam * omega**2 / 2.0)
    return np.fft.ifft(mult[:, None] * np.fft.fft(U, axis=0), axis=0)


def galilei_action(g: GalileiElement, F: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Point-map action (Π(g)F)(q, p) = F(q − (a1/m)p − a2·a1 − a3, p + m·a2).

    One map for every element, lattice-aligned or not: the kernel sandwich
    K -> U K U† with U from :func:`_galilei_unitary` (spectral resampling,
    exact for tail-free states).
    """
    F = np.asarray(F)
    if F.shape != grid.phase_shape:
        raise ValueError(f"phase array must have shape {grid.phase_shape}")
    U = _galilei_unitary(g, grid)
    K = weyl_wigner_inv(F, grid)
    return weyl_wigner(U @ K @ U.conj().T, grid)


def _galilei_momentum_residual(m: float, grid: GridSpec) -> float:
    """Deviation of the grid action from the closed-form momentum ray action.

    A Gaussian packet is pushed through (i) the kernel sandwich behind
    :func:`galilei_action` and (ii) the momentum-space law
    u(r) -> e^{−i a1 r²/(2m)} e^{−i(a2·a1+a3) r} u(r + m·a2), evaluated by
    direct quadrature; the two rank-one kernels are compared entrywise
    (kernel level, so the arbitrary ray phase drops out).
    """
    g = GalileiElement(0.4, 0.35, -0.3, m=m)
    x = grid.x
    w, q0, r0 = 1.0, 0.25, 0.5
    psi = (w / np.pi) ** 0.25 * np.exp(-w * (x - q0) ** 2 / 2) * np.exp(1j * r0 * x)
    K0 = np.outer(psi, np.conj(psi))
    K_impl = weyl_wigner_inv(galilei_action(g, weyl_wigner(K0, grid), grid), grid)

    omega = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
    b = g.m * g.a2
    c = g.a2 * g.a1 + g.a3
    u_shift = (grid.dx / np.sqrt(2 * np.pi)) * np.exp(
        -1j * np.outer(omega + b, x)
    ) @ psi
    u_prime = np.exp(-1j * g.a1 * omega**2 / (2 * g.m)) * np.exp(-1j * c * omega) * u_shift
    d_omega = 2.0 * np.pi / (grid.n * grid.dx)
    psi_ray = (d_omega / np.sqrt(2 * np.pi)) * np.exp(1j * np.outer(x, omega)) @ u_prime
    K_ray = np.outer(psi_ray, np.conj(psi_ray))
    return float(np.max(np.abs(K_impl - K_ray)))


def galilei_factorize(m=1, hbar=1) -> FactorizationResult:
    """Factorise the Galilei representation into Ĥ, K̂, p̂.

    Returns Ĥ = −(ħ²/2m)∂x², K̂ = m·x, p̂ = −iħ∂x (gauge constants
    e₀ = q₀ = p₀ = 0) and verifies the centrally extended relations
    [Ĥ, K̂] = −iħp̂, [Ĥ, p̂] = 0, [K̂, p̂] = iħm exactly.  When ħ = 1 the
    closed-form momentum-space ray action is also compared numerically
    with the grid action on n = 128, dx = 0.125 (the lattice engine is
    dimensionless, ħ = 1); that residual is reported as ``max_residual``
    for the caller to judge.
    """
    m_exact = _exact_positive(m, "m")
    h = _exact_positive(hbar, "hbar")
    alpha1, alpha2, alpha3 = galilei_generators(m_exact)
    h_hat = _scaled_factor(alpha1, h)
    k_hat = _scaled_factor(alpha2, h)
    p_hat = _scaled_factor(alpha3, h)
    relations = _verified(
        ("[alpha1, alpha2] = -i*alpha3", alpha1.commutator(alpha2) + I * alpha3),
        ("[alpha2, alpha3] = 0", alpha2.commutator(alpha3)),
        ("[alpha1, alpha3] = 0", alpha1.commutator(alpha3)),
        ("[H_hat, K_hat] = -i*hbar*p_hat", h_hat.commutator(k_hat) + I * CRat(h) * p_hat),
        ("[H_hat, p_hat] = 0", h_hat.commutator(p_hat)),
        (
            "[K_hat, p_hat] = i*hbar*m  (central charge hbar*m)",
            k_hat.commutator(p_hat) - DiffOp.constant(LINE_VARS, I * CRat(h * m_exact)),
        ),
    )

    residual = 0.0
    if h == 1:
        residual = _galilei_momentum_residual(float(m_exact), GridSpec(128, 0.125))
        relations += ("momentum-space ray action matches the grid action on a Gaussian",)
    return FactorizationResult(
        example="galilei",
        generator_names=("H_hat", "K_hat", "p_hat"),
        hilbert_generators=(h_hat, k_hat, p_hat),
        relations_checked=relations,
        max_residual=residual,
        casimir_value=float(h * m_exact),
        details={"m": float(m_exact), "hbar": float(h)},
    )


# ----------------------------------------------------------------------
# sp(2, R), Cases A and B
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Sp2Params:
    """Which sp(2,R) representation to build: "A", or "B" with parameter a."""

    case: str
    a: object = None

    def __post_init__(self):
        if self.case not in ("A", "B"):
            raise ValueError('case must be "A" or "B"')
        if self.case == "B":
            if not isinstance(self.a, (int, Fraction)):
                raise ValueError("Case B requires an exact parameter a (int or Fraction)")
        elif self.a is not None:
            raise ValueError("Case A takes no parameter")


def sp2_symbols(params: Sp2Params) -> tuple:
    """Phase-space symbols A_i whose lifts are the sp(2,R) generators."""
    q, p = PolySymbol.q(), PolySymbol.p()
    if params.case == "A":
        half = Fraction(1, 2)
        quarter = Fraction(1, 4)
        return (
            PolySymbol.monomial(1, 1, half),
            q * q * quarter - p * p * quarter,
            q * q * quarter + p * p * quarter,
        )
    a_half = CRat(Fraction(params.a) / 2)
    half = Fraction(1, 2)
    qpp = PolySymbol.monomial(1, 2, half)
    a1 = q * half + p * a_half - qpp
    a2 = PolySymbol.monomial(1, 1)
    a3 = q * (-half) + p * a_half - qpp
    return a1, a2, a3


def _closure_shift(bracket: PolySymbol, target: PolySymbol, relation: str) -> CRat:
    """Constant k with bracket = target + k; the non-constant parts must match."""
    diff = bracket - target
    if not diff.without_constant().is_zero():
        raise ArithmeticError(
            f"sp(2,R) closure failed for {relation}: residual {diff}"
        )
    return diff.constant_term()


def sp2_generators(params: Sp2Params):
    """Generators and factorisation for an sp(2,R) case.

    Returns ``(alphas, result)``: the three phase-space generators
    α_i = ξ(A_i) (exactly the tabulated forms, including the third-order
    derivative terms in Case B), and a :class:`FactorizationResult` whose
    Hilbert operators Â_i are the Weyl quantizations of A_i shifted by
    the unique constants that close the algebra without central terms.
    The quadratic Casimir −Â₁² − Â₂² + Â₃² is evaluated exactly and must
    be a scalar: −3/16 for Case A, −(a² + 1)/4 for Case B.
    """
    syms = sp2_symbols(params)
    alphas = tuple(xi_lift(s) for s in syms)

    # The Weyl correspondence sends the bracket {A, B} to −i[Â, B̂], so the
    # target relations pin each Â_i's additive constant:
    #   {A2, A3} = A1 + k1,  {A3, A1} = A2 + k2,  {A1, A2} = −A3 − k3.
    a1, a2, a3 = syms
    k1 = _closure_shift(moyal_symbolic(a2, a3), a1, "{A2, A3} = A1 + k1")
    k2 = _closure_shift(moyal_symbolic(a3, a1), a2, "{A3, A1} = A2 + k2")
    k3 = -_closure_shift(moyal_symbolic(a1, a2), -a3, "{A1, A2} = -A3 - k3")
    shifts = (k1, k2, k3)
    shifted = tuple(s + PolySymbol.constant(k) for s, k in zip(syms, shifts))
    a_hats = tuple(position_representation(weyl_quantize(s)) for s in shifted)

    casimir = -(a_hats[0] * a_hats[0]) - a_hats[1] * a_hats[1] + a_hats[2] * a_hats[2]
    value = casimir.constant_part()
    relations = _verified(
        ("[alpha1, alpha2] = -i*alpha3", alphas[0].commutator(alphas[1]) + I * alphas[2]),
        ("[alpha2, alpha3] = i*alpha1", alphas[1].commutator(alphas[2]) - I * alphas[0]),
        ("[alpha3, alpha1] = i*alpha2", alphas[2].commutator(alphas[0]) - I * alphas[1]),
        ("[A_1, A_2] = -i*A_3", a_hats[0].commutator(a_hats[1]) + I * a_hats[2]),
        ("[A_2, A_3] = i*A_1", a_hats[1].commutator(a_hats[2]) - I * a_hats[0]),
        ("[A_3, A_1] = i*A_2", a_hats[2].commutator(a_hats[0]) - I * a_hats[1]),
        ("-A_1^2 - A_2^2 + A_3^2 is a scalar", casimir - DiffOp.constant(LINE_VARS, value)),
    )
    if not value.is_real():
        raise ArithmeticError(f"quadratic Casimir {value} is not real")

    label = f"sp2_case_{params.case}"
    result = FactorizationResult(
        example=label,
        generator_names=("A_1", "A_2", "A_3"),
        hilbert_generators=a_hats,
        relations_checked=relations,
        casimir_value=value,
        details={
            "closure_shifts": tuple(str(k) for k in shifts),
            "symbols": tuple(str(s) for s in syms),
            **({"a": str(Fraction(params.a))} if params.case == "B" else {}),
        },
    )
    return alphas, result


# ----------------------------------------------------------------------
# time reversal
# ----------------------------------------------------------------------


def time_reversal_check(grid: GridSpec | None = None, count: int = 20, rng=None) -> dict:
    """Verify the two-element momentum-reversal group and its factorisation.

    Checks, on random kernels:

    * Π(g)² = identity, exactly (the action is an index permutation);
    * for Hermitian kernels f (real phase functions), the factorised
      action is plain conjugation:
      weyl_wigner_inv(parity(weyl_wigner(f))) = conj(f);
    * for arbitrary complex kernels, the antiunitary composite
      weyl_wigner_inv(parity(conj(weyl_wigner(f)))) = conj(f);
    * real symmetric kernels are fixed points.

    Returns the JSON verification report.
    """
    grid = grid or GridSpec(64, 0.25)
    rng = np.random.default_rng(rng)
    n = grid.n

    def random_complex():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    residual = 0.0
    for _ in range(count):
        raw = random_complex()
        herm = (raw + raw.conj().T) / 2
        arbitrary = random_complex()
        sym = rng.standard_normal((n, n))
        sym = (sym + sym.T) / 2
        F = weyl_wigner(herm, grid)
        pairs = (
            (parity(parity(F, grid), grid), F),
            (weyl_wigner_inv(parity(F, grid), grid), herm.conj()),
            (
                weyl_wigner_inv(parity(np.conj(weyl_wigner(arbitrary, grid)), grid), grid),
                arbitrary.conj(),
            ),
            (weyl_wigner_inv(parity(weyl_wigner(sym, grid), grid), grid), sym),
        )
        residual = max(residual, *(float(np.max(np.abs(a - b))) for a, b in pairs))

    return FactorizationResult(
        example="time_reversal",
        generator_names=("Pi(g)",),
        hilbert_generators=(
            "exp(i*omega) * C  (C = complex conjugation, omega fixed to 0)",
        ),
        # report text: z_map/z_inv name weyl_wigner and its inverse as
        # the intertwiner Z and Z^-1
        relations_checked=(
            "Pi(g)^2 = identity (exact index permutation)",
            "hermitian kernels: z_inv(parity(z_map(f))) = conj(f)",
            "complex kernels: z_inv(parity(conj(z_map(f)))) = conj(f)",
            "real symmetric kernels are fixed points",
        ),
        max_residual=residual,
    ).report()
