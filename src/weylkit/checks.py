"""Named invariant suites behind ``weylkit check``.

Each suite re-verifies the library's standing invariants and returns a
machine-readable report: a list of named checks with measured residuals
and the tolerances they were held to.  Every suite states its checks as
``(name, residual, tolerance)`` rows, and one rule judges them all: a row
passes when its residual is at most its tolerance, and a ``tol`` override
replaces every non-zero tolerance.  Exact algebraic identities carry
tolerance 0.0 and a residual that is 0.0 or 1.0 (held or violated);
grid-based identities carry their measured floating-point residual.

Reports are deterministic functions of (suite, seed, grid, tol): random
draws come from a seeded generator and nothing time- or path-dependent is
recorded, so serializing the same report twice gives identical bytes.
The exact suites (symweyl, liftgen) make all their draws before they check
any row; the grid suites (wigner, star) draw as their rows go, so each
row's arrays are freed before the next row's are built.  Either way a new
row's draws go after the existing ones, so every existing row keeps its
samples and its bytes.
Each suite imports its own layer, so running one loads only that layer.
"""

from __future__ import annotations

import numbers

import numpy as np

from .grids import GridSpec, hermite_basis, inner_k

__all__ = ["SUITE_NAMES", "run_suite", "run_all"]


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------


def _finish(suite: str, seed: int, rows: list, tol, grid: GridSpec | None = None) -> dict:
    """The suite report from its ``(name, residual, tolerance)`` rows; ``tol``,
    if given, replaces every non-zero tolerance."""
    invariants = []
    for name, residual, tolerance in rows:
        residual = float(residual)
        tolerance = float(tol if tol is not None and tolerance else tolerance)
        invariants.append({"name": name, "residual": residual, "tolerance": tolerance,
                           "passed": residual <= tolerance})
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
    # suites draw independent randomness from the same user-facing seed
    return np.random.default_rng([int(seed), SUITE_NAMES.index(suite)])


def _random_kernel(rng, grid: GridSpec) -> np.ndarray:
    return rng.standard_normal(grid.kernel_shape) + 1j * rng.standard_normal(
        grid.kernel_shape
    )


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


# ----------------------------------------------------------------------
# wigner suite
# ----------------------------------------------------------------------


def _transform_rows(rng, grid: GridSpec) -> list:
    """Round trips, inner products and transposition, each the largest
    residual over five random kernel pairs."""
    from .wigner import parity, weyl_wigner, weyl_wigner_inv
    samples = []
    for _ in range(5):
        K1 = _random_kernel(rng, grid)
        K2 = _random_kernel(rng, grid)
        A1 = weyl_wigner(K1, grid)
        # the entries of W(K) grow with dx: phase-side residuals are relative
        a_scale = _maxabs(A1)
        samples.append({
            "kernel round trip: Winv(W(K)) = K": _maxabs(weyl_wigner_inv(A1, grid) - K1),
            "phase round trip: W(Winv(A)) = A on the transform image":
                _maxabs(weyl_wigner(weyl_wigner_inv(A1, grid), grid) - A1) / a_scale,
            # relative to the Cauchy-Schwarz bound: both sides grow as dx²·n
            "inner products preserved: <W(K1), W(K2)> = dx^2 sum conj(K1) K2":
                abs(inner_k(A1, weyl_wigner(K2, grid), grid) - grid.dx**2 * np.vdot(K1, K2))
                / (grid.dx**2 * np.linalg.norm(K1) * np.linalg.norm(K2)),
            "parity matches kernel transposition: P(W(K)) = W(K^T)":
                _maxabs(parity(A1, grid) - weyl_wigner(K1.T, grid)) / a_scale,
        })
    return [(name, np.max([s[name] for s in samples]), 1e-12) for name in samples[0]]


def _involution_moved(rng, grid: GridSpec) -> bool:
    """Whether P(P(F)) differs from F for one random symbol F."""
    from .wigner import parity, weyl_wigner
    F = weyl_wigner(_random_kernel(rng, grid), grid)
    return _maxabs(parity(parity(F, grid), grid) - F) != 0.0


def _state_rows(grid: GridSpec) -> list:
    """The ground and first excited states against their closed forms, and
    the transition symbols of the first four states."""
    from .wigner import wigner_of_state
    basis = hermite_basis(grid, 4)
    return [
        ("ground state: W = (1/pi) exp(-q^2 - p^2)",
         _maxabs(wigner_of_state(basis[0], grid)
                 - np.exp(-(grid.q_matrix() ** 2) - grid.p_matrix() ** 2) / np.pi), 1e-8),
        ("first excited state: W(0, 0) = -1/pi",
         abs(wigner_of_state(basis[1], grid)[grid.n, grid.n // 2] + 1 / np.pi), 1e-6),
        ("transition symbols orthonormal: <Phi_rs, Phi_uv> = delta_ru delta_sv",
         _transition_gram_residual(basis, grid), 1e-8),
    ]


def _transition_gram_residual(basis, grid: GridSpec) -> float:
    """max |<Φ_rs, Φ_uv> − δ_ru δ_sv| over every ordered pair of the transition
    symbols Φ_rs = W(basis_r ⊗ conj(basis_s)).

    Each inner product is formed as with all symbols at hand, so the result
    is the same float, but at most five symbols are alive: a group of four
    is held while every later symbol passes by once (40 transforms, not 16).
    """
    from .wigner import weyl_wigner
    width = 4
    labels = [(r, s) for r in range(len(basis)) for s in range(len(basis))]

    def symbol(label):
        r, s = label
        return weyl_wigner(np.outer(basis[r], basis[s].conj()), grid)

    gaps = []
    for start in range(0, len(labels), width):
        held = {label: symbol(label) for label in labels[start : start + width]}
        for a, F_a in held.items():
            for b, F_b in held.items():
                expected = 1.0 if a == b else 0.0
                gaps.append(abs(inner_k(F_a, F_b, grid) - expected))
        for label in labels[start + width :]:
            F = symbol(label)
            for F_a in held.values():
                gaps += abs(inner_k(F_a, F, grid)), abs(inner_k(F, F_a, grid))
            del F  # before the next symbol is built
        del held
    return np.max(gaps)


def _run_wigner(seed: int, tol, grid: GridSpec | None) -> dict:
    from .star import identity_phase
    from .wigner import weyl_wigner
    grid = grid or GridSpec(64, 0.25)
    rng = _rng("wigner", seed)
    # rows in draw order; each row's arrays are freed before the next is built
    rows = [
        *_transform_rows(rng, grid),
        ("parity is an involution (exact index permutation)", _involution_moved(rng, grid), 0.0),
        ("identity kernel maps to the star identity symbol",
         _maxabs(weyl_wigner(np.eye(grid.n) / grid.dx, grid) - identity_phase(grid)), 1e-12),
        *_state_rows(grid),
    ]
    return _finish("wigner", seed, rows, tol, grid)


# ----------------------------------------------------------------------
# star suite
# ----------------------------------------------------------------------


def _hermitian_kernel(rng, grid: GridSpec) -> np.ndarray:
    K = _random_kernel(rng, grid)
    return (K + K.conj().T) / 2


def _associativity_residual(A, rng, grid: GridSpec) -> float:
    """(A*B)*C against A*(B*C) for two further random symbols B and C."""
    from .star import star
    from .wigner import weyl_wigner
    B, C = (weyl_wigner(_random_kernel(rng, grid), grid) for _ in range(2))
    left = star(star(A, B, grid), C, grid)
    return _maxabs(left - star(A, star(B, C, grid), grid)) / _maxabs(left)


def _bracket_residual(rng, grid: GridSpec) -> float:
    """Imaginary part and antisymmetry of the bracket of two real symbols."""
    from .star import moyal_bracket
    from .wigner import weyl_wigner
    # real *symbols* come from Hermitian kernels
    H1, H2 = (weyl_wigner(_hermitian_kernel(rng, grid), grid) for _ in range(2))
    br = moyal_bracket(H1, H2, grid)
    return np.max([_maxabs(br.imag), _maxabs(br + moyal_bracket(H2, H1, grid))]) / _maxabs(br)


def _random_unitary_symbol(rng, grid: GridSpec) -> np.ndarray:
    """The symbol of a unitary built from a random Hermitian kernel via its spectrum."""
    from .wigner import weyl_wigner
    evals, evecs = np.linalg.eigh(_hermitian_kernel(rng, grid))
    return weyl_wigner((evecs * np.exp(1j * evals)) @ evecs.conj().T / grid.dx, grid)


def _routes_residual(basis, grid: GridSpec) -> float:
    """The twisted-integral quadrature against the kernel route for Φ_01 ⋆ Φ_10."""
    from .star import star, star_twisted_oracle
    from .wigner import weyl_wigner
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
    return _maxabs(quad - np.array([kernel_route[r, c] for r, c in points]))


def _run_star(seed: int, tol, grid: GridSpec | None) -> dict:
    from .star import identity_phase, purity_residual, star, star_adjoint, star_unitary_residual
    from .wigner import weyl_wigner, wigner_of_state
    # dx ~ sqrt(pi/n) balances position and momentum ranges, keeping
    # Gaussian tails below the purity tolerance
    grid = grid or GridSpec(32, 0.3125)
    rng = _rng("star", seed)
    # rows in draw order: A, B, C; H1, H2; the unitary's kernel
    A = weyl_wigner(_random_kernel(rng, grid), grid)
    rows = [
        ("associativity: (A*B)*C = A*(B*C)  (scaled)", _associativity_residual(A, rng, grid),
         1e-12),
        ("identity element: 1*A = A = A*1  (scaled)",
         np.max([_maxabs(star(identity_phase(grid), A, grid) - A),
                 _maxabs(star(A, identity_phase(grid), grid) - A)]) / _maxabs(A), 1e-12),
        ("adjoint symbol is the complex conjugate  (scaled)",
         _maxabs(star_adjoint(A, grid) - A.conj()) / _maxabs(A), 1e-12),
        ("bracket of real symbols is real and antisymmetric  (scaled)",
         _bracket_residual(rng, grid), 1e-12),
    ]
    basis = hermite_basis(grid, 2)
    rows += [
        ("ground state is a star projector: W*W = W/2pi, integrals 1",
         np.max(purity_residual(wigner_of_state(basis[0], grid), grid)), 1e-8),
        ("unitary kernels give star-unitary symbols",
         star_unitary_residual(_random_unitary_symbol(rng, grid), grid), 1e-10),
        ("twisted-integral quadrature agrees with the kernel route",
         _routes_residual(basis, grid), 1e-6),
    ]
    return _finish("star", seed, rows, tol, grid)


# ----------------------------------------------------------------------
# symweyl suite
# ----------------------------------------------------------------------


def _random_coefficient(rng, *, real: bool = False):
    from fractions import Fraction
    from .rational import CRat
    # the real part, then (unless real) the imaginary part
    return CRat(*[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                  for _ in range(1 if real else 2)])


def _random_symbol(rng, degree: int, *, real: bool = False):
    from .symbols import PolySymbol
    out = PolySymbol.zero()
    for _ in range(4):
        m = int(rng.integers(0, degree + 1))
        n = int(rng.integers(0, degree + 1 - m))
        out = out + PolySymbol.monomial(m, n, _random_coefficient(rng, real=real))
    return out


def _random_operator(rng, degree: int):
    from .symbols import NCPoly
    out = NCPoly.zero()
    for _ in range(4):
        length = int(rng.integers(0, degree + 1))
        word = "".join("qp"[int(b)] for b in rng.integers(0, 2, size=length))
        out = out + NCPoly.from_word(word, _random_coefficient(rng))
    return out


def _run_symweyl(seed: int, tol, grid) -> dict:
    from .rational import I
    from .symbols import (PolySymbol, format_symbol, moyal_symbolic, nc_normalize, parse_symbol,
                          poisson_bracket, star_symbolic, weyl_quantize, weyl_symbol)
    rng = _rng("symweyl", seed)
    # (A, X, Y): a symbol and two operators; then (A, B, Alow): real symbols
    mixed = [(_random_symbol(rng, 6), _random_operator(rng, 6), _random_operator(rng, 4))
             for _ in range(25)]
    reals = [tuple(_random_symbol(rng, degree, real=True) for degree in (4, 4, 2))
             for _ in range(10)]

    q, p = PolySymbol.q(), PolySymbol.p()
    rows = [
        ("symbol -> operator -> symbol is the identity",
         all(weyl_symbol(weyl_quantize(A)) == A for A, _, _ in mixed)),
        ("operator -> symbol -> operator reproduces the normal form",
         all(weyl_quantize(weyl_symbol(X)) == nc_normalize(X) for _, X, _ in mixed)),
        ("symbol map is a star homomorphism: symbol(XY) = symbol(X)*symbol(Y)",
         all(weyl_symbol(X * Y) == star_symbolic(weyl_symbol(X), weyl_symbol(Y))
             for _, X, Y in mixed)),
        ("star known value: q * p = qp + i/2",
         star_symbolic(q, p) == q * p + PolySymbol.constant(I / 2)),
        ("bracket known value: {q^2, p^2}_GM = 4qp",
         moyal_symbolic(q * q, p * p) == PolySymbol.monomial(1, 1, 4)),
        ("bracket equals -i(A*B - B*A)",
         all(moyal_symbolic(A, B) == (star_symbolic(A, B) - star_symbolic(B, A)) * (-I)
             for A, B, _ in reals)),
        ("bracket with a degree <= 2 symbol is the classical bracket",
         all(moyal_symbolic(Alow, B) == poisson_bracket(Alow, B) for _, B, Alow in reals)),
        ("printer/parser round trip is exact",
         all(parse_symbol(format_symbol(A)) == A for A, _, _ in mixed)),
    ]
    return _finish("symweyl", seed, [(name, not held, 0.0) for name, held in rows], tol)


# ----------------------------------------------------------------------
# liftgen suite
# ----------------------------------------------------------------------


def _run_liftgen(seed: int, tol, grid) -> dict:
    from .diffops import DiffOp
    from .lift import (PHASE_VARS, potential_generator, read_off_generator, split_test,
                       table1_check, xi_lift, xi_monomial, z_conjugate)
    from .rational import I
    from .symbols import PolySymbol, moyal_symbolic
    rng = _rng("liftgen", seed)
    pairs = [[_random_symbol(rng, 4, real=True) for _ in range(2)] for _ in range(15)]
    potentials = [sum((PolySymbol.monomial(k, 0, int(c))
                       for k, c in enumerate(rng.integers(-5, 6, size=5))), PolySymbol.zero())
                  for _ in range(10)]

    table = table1_check()
    rejected = split_test(z_conjugate(DiffOp(PHASE_VARS, {((2, 0), (0, 1)): I})))  # i q^2 d/dp
    low = [PolySymbol.monomial(m, n) for m in range(4) for n in range(4 - m)]
    xi_q, xi_p = xi_lift(PolySymbol.q()), xi_lift(PolySymbol.p())
    anti = xi_q * xi_p + xi_p * xi_q
    rows = [
        ("closed product form of monomial lifts matches the series lift",
         all(xi_monomial(m, n) == xi_lift(PolySymbol.monomial(m, n))
             for m in range(5) for n in range(5))),
        ("lift is a bracket homomorphism: [xi(A), xi(B)] = i xi({A,B}_GM)",
         all(xi_lift(A).commutator(xi_lift(B)) == I * xi_lift(moyal_symbolic(A, B))
             for A, B in pairs)),
        ("lift annihilates constants", xi_lift(PolySymbol.constant(7)).is_zero()),
        ("low-degree table recomputed; the two tabulated mixed-cubic "
         "generators are corrected",
         all(row["symbol_consistent"] for row in table["rows"])
         and table["printed_discrepancies"] == ["qhat*phat*qhat", "phat*qhat*phat"]),
        ("membership: i q^2 d/dp is not the lift of any symbol",
         not rejected.ok and len(rejected.obstructions) > 0),
        ("accepted generators invert to their symbols modulo constants",
         all(read_off_generator(split_test(z_conjugate(xi_lift(S))).require())
             == S.without_constant() for S in low)),
        ("lift is not a product homomorphism (anticommutator witness)",
         not anti.is_zero() and anti != xi_lift(PolySymbol.monomial(1, 1, 2))),
        ("potential-lift series terminates and equals the lift on polynomials",
         all(potential_generator(V) == xi_lift(V) for V in potentials)),
    ]
    return _finish("liftgen", seed, [(name, not held, 0.0) for name, held in rows], tol)


# ----------------------------------------------------------------------
# reps suite
# ----------------------------------------------------------------------


def _run_reps(seed: int, tol, grid) -> dict:
    from .groups import (Sp2Params, galilei_factorize, hw_factorize, sp2_generators,
                         time_reversal_check, tower_factorization)
    hw = ("heisenberg_weyl (hbar=1)", "heisenberg_weyl (hbar=2)")
    gal = ("galilei (m=1)", "galilei (m=3)")
    case_a = "sp2_case_A"
    case_b = {a: f"sp2_case_B (a={a})" for a in (0, 1, 2)}
    # (label, build, tolerance) of each example, in report order
    example_table = [
        (hw[0], lambda: hw_factorize(1).report(), 0.0),
        (hw[1], lambda: hw_factorize(2).report(), 0.0),
        ("heisenberg_tower (depth 4)", lambda: tower_factorization(4).report(), 0.0),
        (gal[0], lambda: galilei_factorize(1, 1).report(), 1e-6),
        (gal[1], lambda: galilei_factorize(3, 1).report(), 1e-6),
        (case_a, lambda: sp2_generators(Sp2Params("A"))[1].report(), 0.0),
        *[(label, lambda a=a: sp2_generators(Sp2Params("B", a))[1].report(), 0.0)
          for a, label in case_b.items()],
        ("time_reversal", lambda: time_reversal_check(seed), 1e-12),
    ]
    # (name, labels it reads, predicate on the Casimirs c of the built examples);
    # a row appears exactly when every example it reads was built
    relation_table = [
        ("canonical central charge equals hbar (hbar = 1, 2)", hw,
         lambda c: c[hw[0]] == 1.0 and c[hw[1]] == 2.0),
        ("Galilei central charge equals hbar*m (m = 1, 3)", gal,
         lambda c: c[gal[0]] == 1.0 and c[gal[1]] == 3.0),
        ("sp(2,R) Case A Casimir = -3/16", (case_a,), lambda c: c[case_a] == -3 / 16),
        ("sp(2,R) Case B Casimir = -(a^2 + 1)/4 for a = 0, 1, 2", case_b.values(),
         lambda c: all(c[label] == -(a**2 + 1) / 4 for a, label in case_b.items())),
        # fails, rather than vanishes, when Case A was not built
        ("Case A is inequivalent to Case B (Casimirs differ)", case_b.values(),
         lambda c: case_a in c and all(c[label] != -3 / 16 for label in case_b.values())),
    ]

    examples, rows, casimirs = [], [], {}
    for label, build, tolerance in example_table:
        try:
            report = build()
        except (ArithmeticError, ValueError) as exc:
            rows.append((f"{label}: failed to build: {exc}", True, 0.0))
            continue
        examples.append(report)
        rows.append((f"{label}: all relations hold", report["max_residual"], tolerance))
        casimirs[label] = report["casimir_value"]
    rows += [
        (name, not holds(casimirs), 0.0)
        for name, reads, holds in relation_table
        if all(label in casimirs for label in reads)
    ]

    report = _finish("reps", seed, rows, tol)
    report["examples"] = examples
    return report


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

# every suite in report order; a suite's index is its random stream, so a
# new suite goes last
_RUNNERS = {
    "wigner": _run_wigner,
    "star": _run_star,
    "symweyl": _run_symweyl,
    "liftgen": _run_liftgen,
    "reps": _run_reps,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, *, seed: int = 0, tol: float | None = None,
              grid: GridSpec | None = None) -> dict:
    """Run one named suite and return its report dict.

    ``seed`` is a non-negative integer.  ``tol`` overrides the default
    tolerance of every inexact invariant; exact invariants always require
    exact equality.  ``grid`` overrides the suite's default grid where one
    is used.
    """
    if name not in _RUNNERS:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    if tol is not None and not 0 < tol < float("inf"):
        raise ValueError("tolerance override must be positive and finite")
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
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
