"""Named invariant suites behind ``weylkit check``.

Each suite re-verifies the library's standing invariants and returns a
machine-readable report: a list of named checks with measured residuals
and the tolerances they were held to.  Exact algebraic identities carry
tolerance 0.0 and a residual that is 0.0 or 1.0 (held or violated);
grid-based identities carry their measured floating-point residual.

Reports are deterministic functions of (suite, seed, grid, tol): random
draws come from a seeded generator and nothing time- or path-dependent is
recorded, so serializing the same report twice gives identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .diffops import DiffOp
from .grids import GridSpec, hermite_basis, inner_k
from .groups import (
    Sp2Params,
    galilei_factorize,
    hw_factorize,
    sp2_generators,
    time_reversal_check,
    tower_factorization,
)
from .lift import (
    PHASE_VARS,
    potential_generator,
    split_test,
    table1_check,
    xi_lift,
    xi_monomial,
    z_conjugate,
    read_off_generator,
)
from .rational import CRat, I
from .star import (
    identity_phase,
    moyal_bracket,
    purity_residual,
    star,
    star_adjoint,
    star_twisted_oracle,
    star_unitary_residual,
)
from .symbols import (
    NCPoly,
    PolySymbol,
    format_symbol,
    moyal_symbolic,
    nc_normalize,
    parse_symbol,
    poisson_bracket,
    star_symbolic,
    weyl_quantize,
    weyl_symbol,
)
from .wigner import parity, weyl_wigner, weyl_wigner_inv, wigner_of_state

__all__ = ["SUITE_NAMES", "run_suite", "run_all"]

SUITE_NAMES = ("wigner", "star", "symweyl", "liftgen", "reps")

# Fixed per-suite stream indices so suites draw independent randomness
# from the same user-facing seed.
_SUITE_STREAM = {name: idx for idx, name in enumerate(SUITE_NAMES)}


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------


def _numeric(name: str, residual: float, tolerance: float) -> dict:
    residual = float(residual)
    tolerance = float(tolerance)
    return {
        "name": name,
        "residual": residual,
        "tolerance": tolerance,
        "passed": residual <= tolerance,
    }


def _exact(name: str, held: bool) -> dict:
    return {
        "name": name,
        "residual": 0.0 if held else 1.0,
        "tolerance": 0.0,
        "passed": bool(held),
    }


def _finish(suite: str, seed: int, invariants: list, grid: GridSpec | None = None) -> dict:
    report = {
        "suite": suite,
        "seed": int(seed),
        "invariants": invariants,
        "passed": all(inv["passed"] for inv in invariants),
    }
    if grid is not None:
        report["grid"] = {"n": grid.n, "dx": grid.dx}
    return report


def _rng(suite: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _SUITE_STREAM[suite]])


def _random_kernel(rng, grid: GridSpec) -> np.ndarray:
    return rng.standard_normal(grid.kernel_shape) + 1j * rng.standard_normal(
        grid.kernel_shape
    )


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


# ----------------------------------------------------------------------
# wigner suite
# ----------------------------------------------------------------------


def _run_wigner(seed: int, tol, grid: GridSpec | None) -> dict:
    grid = grid or GridSpec(64, 0.25)
    rng = _rng("wigner", seed)
    t = tol if tol is not None else 1e-12

    round_k = round_p = parseval = transpose = 0.0
    for _ in range(5):
        K1 = _random_kernel(rng, grid)
        K2 = _random_kernel(rng, grid)
        A1 = weyl_wigner(K1, grid)
        # the entries of W(K) grow with dx: phase-side residuals are relative
        a_scale = _maxabs(A1)
        round_k = max(round_k, _maxabs(weyl_wigner_inv(A1, grid) - K1))
        round_p = max(
            round_p, _maxabs(weyl_wigner(weyl_wigner_inv(A1, grid), grid) - A1) / a_scale
        )
        lhs = inner_k(A1, weyl_wigner(K2, grid), grid)
        rhs = grid.dx**2 * np.vdot(K1, K2)
        # relative to the Cauchy-Schwarz bound: both sides grow as dx²·n
        scale = grid.dx**2 * np.linalg.norm(K1) * np.linalg.norm(K2)
        parseval = max(parseval, abs(lhs - rhs) / scale)
        transpose = max(
            transpose, _maxabs(parity(A1, grid) - weyl_wigner(K1.T, grid)) / a_scale
        )

    F = weyl_wigner(_random_kernel(rng, grid), grid)
    involution = _maxabs(parity(parity(F, grid), grid) - F)

    ident = _maxabs(
        weyl_wigner(np.eye(grid.n) / grid.dx, grid) - identity_phase(grid)
    )

    basis = hermite_basis(grid, 4)
    qs, ps = grid.q_matrix(), grid.p_matrix()
    w0 = wigner_of_state(basis[0], grid)
    gauss = np.exp(-(qs**2) - ps**2) / np.pi
    ground = _maxabs(w0 - gauss)
    w1 = wigner_of_state(basis[1], grid)
    origin = abs(w1[grid.n, grid.n // 2] + 1 / np.pi)

    ortho = 0.0
    phis = {
        (r, s): weyl_wigner(np.outer(basis[r], basis[s].conj()), grid)
        for r in range(4)
        for s in range(4)
    }
    for (r, s), F_rs in phis.items():
        for (u, v), F_uv in phis.items():
            expected = 1.0 if (r == u and s == v) else 0.0
            ortho = max(ortho, abs(inner_k(F_rs, F_uv, grid) - expected))

    invariants = [
        _numeric("kernel round trip: Winv(W(K)) = K", round_k, t),
        _numeric("phase round trip: W(Winv(A)) = A on the transform image", round_p, t),
        _numeric(
            "inner products preserved: <W(K1), W(K2)> = dx^2 sum conj(K1) K2",
            parseval,
            t,
        ),
        _numeric("parity matches kernel transposition: P(W(K)) = W(K^T)", transpose, t),
        _exact("parity is an involution (exact index permutation)", involution == 0.0),
        _numeric("identity kernel maps to the star identity symbol", ident, t),
        _numeric(
            "ground state: W = (1/pi) exp(-q^2 - p^2)",
            ground,
            tol if tol is not None else 1e-8,
        ),
        _numeric(
            "first excited state: W(0, 0) = -1/pi",
            origin,
            tol if tol is not None else 1e-6,
        ),
        _numeric(
            "transition symbols orthonormal: <Phi_rs, Phi_uv> = delta_ru delta_sv",
            ortho,
            tol if tol is not None else 1e-8,
        ),
    ]
    return _finish("wigner", seed, invariants, grid)


# ----------------------------------------------------------------------
# star suite
# ----------------------------------------------------------------------


def _run_star(seed: int, tol, grid: GridSpec | None) -> dict:
    # dx ~ sqrt(pi/n) balances position and momentum ranges, keeping
    # Gaussian tails below the purity tolerance
    grid = grid or GridSpec(32, 0.3125)
    rng = _rng("star", seed)
    t = tol if tol is not None else 1e-12

    A = weyl_wigner(_random_kernel(rng, grid), grid)
    B = weyl_wigner(_random_kernel(rng, grid), grid)
    C = weyl_wigner(_random_kernel(rng, grid), grid)
    left = star(star(A, B, grid), C, grid)
    assoc = _maxabs(left - star(A, star(B, C, grid), grid)) / _maxabs(left)

    one = identity_phase(grid)
    ident = max(
        _maxabs(star(one, A, grid) - A), _maxabs(star(A, one, grid) - A)
    ) / _maxabs(A)

    adjoint = _maxabs(star_adjoint(A, grid) - A.conj()) / _maxabs(A)

    # real *symbols* come from Hermitian kernels
    H1 = weyl_wigner((lambda K: (K + K.conj().T) / 2)(_random_kernel(rng, grid)), grid)
    H2 = weyl_wigner((lambda K: (K + K.conj().T) / 2)(_random_kernel(rng, grid)), grid)
    br = moyal_bracket(H1, H2, grid)
    bracket = max(
        _maxabs(br.imag) / _maxabs(br),
        _maxabs(br + moyal_bracket(H2, H1, grid)) / _maxabs(br),
    )

    basis = hermite_basis(grid, 2)
    w0 = wigner_of_state(basis[0], grid)
    r1, r2 = purity_residual(w0, grid)
    purity = max(r1, r2)

    # unitary built from a random Hermitian kernel via its spectrum
    K = _random_kernel(rng, grid)
    H = (K + K.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    U = (evecs * np.exp(1j * evals)) @ evecs.conj().T
    unitary = star_unitary_residual(weyl_wigner(U / grid.dx, grid), grid)

    phi01 = weyl_wigner(np.outer(basis[0], basis[1].conj()), grid)
    phi10 = weyl_wigner(np.outer(basis[1], basis[0].conj()), grid)
    kernel_route = star(phi01, phi10, grid)
    n = grid.n
    # wrapped onto the grid, which changes them only for n = 4
    points = [
        (r % (2 * n), c % n)
        for r, c in (
            (n, n // 2),
            (n + 2, n // 2 - 1),
            (n - 3, n // 2 + 2),
            (n + 5, n // 2 + 1),
            (2 * n - 4, n // 2),
            (3, n // 2 - 2),
        )
    ]
    quad = star_twisted_oracle(phi01, phi10, grid, points=points)
    routes = float(
        np.max(np.abs(quad - np.array([kernel_route[r, c] for r, c in points])))
    )

    invariants = [
        _numeric("associativity: (A*B)*C = A*(B*C)  (scaled)", assoc, t),
        _numeric("identity element: 1*A = A = A*1  (scaled)", ident, t),
        _numeric("adjoint symbol is the complex conjugate  (scaled)", adjoint, t),
        _numeric(
            "bracket of real symbols is real and antisymmetric  (scaled)", bracket, t
        ),
        _numeric(
            "ground state is a star projector: W*W = W/2pi, integrals 1",
            purity,
            tol if tol is not None else 1e-8,
        ),
        _numeric(
            "unitary kernels give star-unitary symbols",
            unitary,
            tol if tol is not None else 1e-10,
        ),
        _numeric(
            "twisted-integral quadrature agrees with the kernel route",
            routes,
            tol if tol is not None else 1e-6,
        ),
    ]
    return _finish("star", seed, invariants, grid)


# ----------------------------------------------------------------------
# symweyl suite
# ----------------------------------------------------------------------


def _random_symbol(rng, degree: int, *, real: bool = False) -> PolySymbol:
    out = PolySymbol.zero()
    for _ in range(4):
        m = int(rng.integers(0, degree + 1))
        n = int(rng.integers(0, degree + 1 - m))
        re = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        im = 0 if real else Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        out = out + PolySymbol.monomial(m, n, CRat(re, im))
    return out


def _random_operator(rng, degree: int) -> NCPoly:
    out = NCPoly.zero()
    for _ in range(4):
        length = int(rng.integers(0, degree + 1))
        word = "".join("qp"[int(b)] for b in rng.integers(0, 2, size=length))
        re = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        im = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        out = out + NCPoly.from_word(word, CRat(re, im))
    return out


def _run_symweyl(seed: int, tol, grid) -> dict:
    rng = _rng("symweyl", seed)

    sym_round = op_round = hom = parse_round = True
    for _ in range(25):
        A = _random_symbol(rng, 6)
        sym_round = sym_round and weyl_symbol(weyl_quantize(A)) == A
        parse_round = parse_round and parse_symbol(format_symbol(A)) == A
        X = _random_operator(rng, 6)
        op_round = op_round and weyl_quantize(weyl_symbol(X)) == nc_normalize(X)
        Y = _random_operator(rng, 4)
        hom = hom and weyl_symbol(X * Y) == star_symbolic(
            weyl_symbol(X), weyl_symbol(Y)
        )

    q, p = PolySymbol.q(), PolySymbol.p()
    half_i = CRat(0, Fraction(1, 2))
    known_star = star_symbolic(q, p) == q * p + PolySymbol.constant(half_i)
    known_bracket = moyal_symbolic(q * q, p * p) == PolySymbol.monomial(1, 1, 4)

    bracket_vs_star = True
    classical = True
    for _ in range(10):
        A = _random_symbol(rng, 4, real=True)
        B = _random_symbol(rng, 4, real=True)
        commut = star_symbolic(A, B) - star_symbolic(B, A)
        bracket_vs_star = bracket_vs_star and moyal_symbolic(A, B) == commut * (-I)
        Alow = _random_symbol(rng, 2, real=True)
        classical = classical and moyal_symbolic(Alow, B) == poisson_bracket(Alow, B)

    invariants = [
        _exact("symbol -> operator -> symbol is the identity", sym_round),
        _exact("operator -> symbol -> operator reproduces the normal form", op_round),
        _exact("symbol map is a star homomorphism: symbol(XY) = symbol(X)*symbol(Y)", hom),
        _exact("star known value: q * p = qp + i/2", known_star),
        _exact("bracket known value: {q^2, p^2}_GM = 4qp", known_bracket),
        _exact("bracket equals -i(A*B - B*A)", bracket_vs_star),
        _exact(
            "bracket with a degree <= 2 symbol is the classical bracket", classical
        ),
        _exact("printer/parser round trip is exact", parse_round),
    ]
    return _finish("symweyl", seed, invariants)


# ----------------------------------------------------------------------
# liftgen suite
# ----------------------------------------------------------------------


def _run_liftgen(seed: int, tol, grid) -> dict:
    rng = _rng("liftgen", seed)

    closed_form = all(
        xi_monomial(m, n) == xi_lift(PolySymbol.monomial(m, n))
        for m in range(5)
        for n in range(5)
    )

    lie_hom = True
    for _ in range(15):
        A = _random_symbol(rng, 4, real=True)
        B = _random_symbol(rng, 4, real=True)
        lie_hom = lie_hom and xi_lift(A).commutator(xi_lift(B)) == I * xi_lift(
            moyal_symbolic(A, B)
        )

    kills_constants = xi_lift(PolySymbol.constant(7)).is_zero()

    table = table1_check()
    rows_ok = all(
        row["symbol_consistent"] for row in table["rows"]
    ) and table["printed_discrepancies"] == ["qhat*phat*qhat", "phat*qhat*phat"]

    bad = DiffOp(PHASE_VARS, {((2, 0), (0, 1)): I})  # i q^2 d/dp
    rejected = split_test(z_conjugate(bad))
    membership = (not rejected.ok) and len(rejected.obstructions) > 0

    inversion = True
    for m in range(4):
        for n in range(4 - m):
            symbol = PolySymbol.monomial(m, n)
            alpha = xi_lift(symbol)
            a_hat = split_test(z_conjugate(alpha)).require()
            inversion = inversion and read_off_generator(a_hat) == symbol.without_constant()

    xi_q, xi_p = xi_lift(PolySymbol.q()), xi_lift(PolySymbol.p())
    anti = xi_q * xi_p + xi_p * xi_q
    target = xi_lift(PolySymbol.monomial(1, 1, 2))
    not_algebra_hom = (not anti.is_zero()) and anti != target

    potential = True
    for _ in range(10):
        coeffs = rng.integers(-5, 6, size=5)
        V = PolySymbol.zero()
        for k, c in enumerate(coeffs):
            V = V + PolySymbol.monomial(k, 0, int(c))
        potential = potential and potential_generator(V) == xi_lift(V)

    invariants = [
        _exact("closed product form of monomial lifts matches the series lift", closed_form),
        _exact("lift is a bracket homomorphism: [xi(A), xi(B)] = i xi({A,B}_GM)", lie_hom),
        _exact("lift annihilates constants", kills_constants),
        _exact(
            "low-degree table recomputed; the two tabulated mixed-cubic "
            "generators are corrected",
            rows_ok,
        ),
        _exact("membership: i q^2 d/dp is not the lift of any symbol", membership),
        _exact(
            "accepted generators invert to their symbols modulo constants", inversion
        ),
        _exact(
            "lift is not a product homomorphism (anticommutator witness)",
            not_algebra_hom,
        ),
        _exact(
            "potential-lift series terminates and equals the lift on polynomials",
            potential,
        ),
    ]
    return _finish("liftgen", seed, invariants)


# ----------------------------------------------------------------------
# reps suite
# ----------------------------------------------------------------------


def _run_reps(seed: int, tol, grid) -> dict:
    examples = []
    invariants = []

    def add(label, build, tolerance):
        try:
            report = build()
        except (ArithmeticError, ValueError) as exc:
            invariants.append(_exact(f"{label}: failed to build: {exc}", False))
            return None
        examples.append(report)
        invariants.append(
            _numeric(
                f"{label}: all relations hold",
                report["max_residual"],
                tol if tol is not None else tolerance,
            )
        )
        return report

    hw1 = add("heisenberg_weyl (hbar=1)", lambda: hw_factorize(1).report(), 0.0)
    hw2 = add("heisenberg_weyl (hbar=2)", lambda: hw_factorize(2).report(), 0.0)
    add("heisenberg_tower (depth 4)", lambda: tower_factorization(4).report(), 0.0)
    gal1 = add("galilei (m=1)", lambda: galilei_factorize(1, 1).report(), 1e-6)
    gal3 = add("galilei (m=3)", lambda: galilei_factorize(3, 1).report(), 1e-6)
    case_a = add(
        "sp2_case_A", lambda: sp2_generators(Sp2Params("A"))[1].report(), 0.0
    )
    case_b = {
        a: add(
            f"sp2_case_B (a={a})",
            lambda a=a: sp2_generators(Sp2Params("B", a))[1].report(),
            0.0,
        )
        for a in (0, 1, 2)
    }
    add("time_reversal", lambda: time_reversal_check(rng=seed), 1e-12)

    if hw1 and hw2:
        invariants.append(
            _exact(
                "canonical central charge equals hbar (hbar = 1, 2)",
                hw1["casimir_value"] == 1.0 and hw2["casimir_value"] == 2.0,
            )
        )
    if gal1 and gal3:
        invariants.append(
            _exact(
                "Galilei central charge equals hbar*m (m = 1, 3)",
                gal1["casimir_value"] == 1.0 and gal3["casimir_value"] == 3.0,
            )
        )
    if case_a:
        invariants.append(
            _exact("sp(2,R) Case A Casimir = -3/16", case_a["casimir_value"] == -3 / 16)
        )
    if all(case_b.values()):
        invariants.append(
            _exact(
                "sp(2,R) Case B Casimir = -(a^2 + 1)/4 for a = 0, 1, 2",
                all(case_b[a]["casimir_value"] == -(a**2 + 1) / 4 for a in (0, 1, 2)),
            )
        )
        invariants.append(
            _exact(
                "Case A is inequivalent to Case B (Casimirs differ)",
                all(case_b[a]["casimir_value"] != -3 / 16 for a in (0, 1, 2))
                if case_a
                else False,
            )
        )

    report = _finish("reps", seed, invariants)
    report["examples"] = examples
    return report


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

_RUNNERS = {
    "wigner": _run_wigner,
    "star": _run_star,
    "symweyl": _run_symweyl,
    "liftgen": _run_liftgen,
    "reps": _run_reps,
}


def run_suite(name: str, *, seed: int = 0, tol: float | None = None,
              grid: GridSpec | None = None) -> dict:
    """Run one named suite and return its report dict.

    ``tol`` overrides the default tolerance of every inexact invariant;
    exact invariants always require exact equality.  ``grid`` overrides
    the suite's default grid where one is used.
    """
    if name not in _RUNNERS:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    if tol is not None and not tol > 0:
        raise ValueError("tolerance override must be positive")
    return _RUNNERS[name](seed, tol, grid)


def run_all(*, seed: int = 0, tol: float | None = None,
            grid: GridSpec | None = None) -> dict:
    """Run every suite; the combined report nests the individual ones."""
    suites = [run_suite(name, seed=seed, tol=tol, grid=grid) for name in SUITE_NAMES]
    return {
        "suite": "all",
        "seed": int(seed),
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
