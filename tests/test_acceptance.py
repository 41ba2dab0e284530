"""End-to-end acceptance gate: one test per advertised guarantee.

Each test pins the tolerance and, where stated, the runtime budget of a
user-facing guarantee of the package.  The conftest terminal hook prints a
one-line PASS/FAIL verdict per criterion, keyed by the numeric suffix of
the test name and titled from ``CRITERIA``.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from weylkit import (
    CRat,
    DiffOp,
    EXCLUSIONS,
    GaussianAlphaSpec,
    GridSpec,
    I,
    NCPoly,
    PolySymbol,
    Sp2Params,
    autv_residual,
    galilei_factorize,
    hermite_basis,
    hw_factorize,
    inner_k,
    is_excluded,
    moyal_symbolic,
    nc_normalize,
    parity,
    purity_residual,
    read_off_generator,
    recover_A,
    run_suite,
    sp2_generators,
    split_test,
    star,
    star_symbolic,
    star_twisted_oracle,
    table1_check,
    time_reversal_check,
    weyl_quantize,
    weyl_symbol,
    weyl_wigner,
    weyl_wigner_inv,
    wigner_of_state,
    xi_lift,
    z_conjugate,
)
from weylkit.lift import LINE_VARS, PHASE_VARS, xi_monomial

CRITERIA = {
    "01": "transform round trips and Parseval hold at 1e-12",
    "02": "transition-symbol family is orthonormal to 1e-8",
    "03": "pure-state symbols are idempotent and normalized to 1e-8",
    "04": "kernel-route star matches twisted quadrature to 1e-6",
    "05": "symbol/operator maps exactly inverse and star-compatible",
    "06": "low-degree generator table recomputed exactly",
    "07": "the generator lift is a Lie, not algebra, homomorphism",
    "08": "split test rejects cross terms and inverts every table row",
    "09": "consistent Gaussian family recovered, inconsistent refused",
    "10": "factorized commutators and Casimirs are exact",
    "11": "momentum reversal plus conjugation factorizes to conjugation",
    "12": "eigenbasis reduction is a registered exclusion, never claimed",
}


def _random_kernel(rng, n):
    K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return K


def _random_symbol(rng, degree, *, real=False):
    out = PolySymbol.zero()
    for _ in range(4):
        m = int(rng.integers(0, degree + 1))
        n = int(rng.integers(0, degree + 1 - m))
        re = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        im = Fraction(0) if real else Fraction(int(rng.integers(-6, 7)), 3)
        out = out + PolySymbol.monomial(m, n, CRat(re, im))
    return out


def _random_operator(rng, max_length):
    out = NCPoly.from_word("", CRat(Fraction(int(rng.integers(-3, 4)), 2)))
    for _ in range(3):
        length = int(rng.integers(1, max_length + 1))
        word = "".join(rng.choice(list("qp"), size=length))
        coeff = CRat(
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))),
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))),
        )
        out = out + NCPoly.from_word(word, coeff)
    return out


def test_criterion_01():
    """Round trips and the discrete Parseval identity at 1e-12, under 5 s."""
    start = time.monotonic()
    grid = GridSpec(64, 0.25)
    rng = np.random.default_rng(101)
    worst_inverse = worst_forward = worst_parseval = 0.0
    for _ in range(20):
        K1 = _random_kernel(rng, 64)
        K2 = _random_kernel(rng, 64)
        K1 /= np.linalg.norm(K1) * grid.dx
        K2 /= np.linalg.norm(K2) * grid.dx
        A1 = weyl_wigner(K1, grid)
        worst_inverse = max(
            worst_inverse, float(np.max(np.abs(weyl_wigner_inv(A1, grid) - K1)))
        )
        worst_forward = max(
            worst_forward,
            float(np.max(np.abs(weyl_wigner(weyl_wigner_inv(A1, grid), grid) - A1))),
        )
        lhs = inner_k(A1, weyl_wigner(K2, grid), grid)
        rhs = complex(np.vdot(K1, K2)) * grid.dx**2
        worst_parseval = max(worst_parseval, abs(lhs - rhs))
    assert worst_inverse < 1e-12
    assert worst_forward < 1e-12
    assert worst_parseval < 1e-12
    assert time.monotonic() - start < 5.0


def test_criterion_02():
    """Transition symbols Phi_rs are orthonormal under inner_k to 1e-8."""
    grid = GridSpec(128, 0.125)
    basis = hermite_basis(grid, 6)
    phis = {
        (r, s): weyl_wigner(np.outer(basis[r], basis[s].conj()), grid)
        for r in range(6)
        for s in range(6)
    }
    worst = 0.0
    for (r, s), F in phis.items():
        for (u, v), G in phis.items():
            want = 1.0 if (r == u and s == v) else 0.0
            worst = max(worst, abs(inner_k(F, G, grid) - want))
    assert worst < 1e-8


def test_criterion_03():
    """Pure-state symbols: W*W = W/2pi, unit integral, unit square integral."""
    grid = GridSpec(128, 0.125)
    basis = hermite_basis(grid, 10)
    rng = np.random.default_rng(103)
    states = [basis[0], basis[1]]
    for _ in range(10):
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        psi = c @ basis
        psi = psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.dx))
        states.append(psi)
    for psi in states:
        W = wigner_of_state(psi, grid)
        idempotency, _ = purity_residual(W, grid)
        integral = complex(np.sum(W) * grid.cell)
        square = complex(2 * math.pi * np.sum(np.asarray(W) ** 2) * grid.cell)
        assert idempotency <= 1e-8
        assert abs(integral - 1.0) <= 1e-8
        assert abs(square - 1.0) <= 1e-8


def test_criterion_04():
    """Kernel-route star equals the twisted quadrature to 1e-6, under 60 s."""
    start = time.monotonic()
    grid = GridSpec(64, 0.25)
    basis = hermite_basis(grid, 4)
    phis = {
        (r, s): weyl_wigner(np.outer(basis[r], basis[s].conj()), grid)
        for r in range(4)
        for s in range(4)
    }
    points = [(s, k) for s in (16, 32, 64, 96, 112) for k in (8, 32, 56)]
    worst_probe = 0.0
    for A in phis.values():
        for B in phis.values():
            reference = star(A, B, grid)
            sampled = star_twisted_oracle(A, B, grid, points=points)
            worst_probe = max(
                worst_probe,
                max(
                    abs(sampled[i] - reference[s, k])
                    for i, (s, k) in enumerate(points)
                ),
            )
    assert worst_probe < 1e-6

    full_pairs = [
        ((0, 0), (0, 0)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((2, 3), (3, 2)),
        ((3, 3), (3, 3)),
        ((0, 3), (2, 1)),
        ((1, 2), (2, 1)),
        ((3, 0), (0, 3)),
    ]
    worst_full = 0.0
    for ka, kb in full_pairs:
        oracle = star_twisted_oracle(phis[ka], phis[kb], grid)
        reference = star(phis[ka], phis[kb], grid)
        worst_full = max(worst_full, float(np.max(np.abs(oracle - reference))))
    assert worst_full < 1e-6
    assert time.monotonic() - start < 60.0


def _quantize_monomial_symform(m: int, n: int) -> NCPoly:
    """Symmetrised closed form of Q(q^m p^n): 2^{−m} Σ_r C(m,r) q̂^{m−r} p̂^n q̂^r."""
    half_m = CRat(Fraction(1, 2 ** m))
    return NCPoly(
        [
            (half_m * CRat(math.comb(m, r)), "q" * (m - r) + "p" * n + "q" * r)
            for r in range(m + 1)
        ]
    )


def test_criterion_05():
    """Symbol and quantization maps are exactly mutually inverse and the
    symbol map turns operator products into star products, with both
    closed forms of the quantization formula in exact agreement."""
    for m in range(7):
        for n in range(7):
            form1 = nc_normalize(weyl_quantize(PolySymbol.monomial(m, n)))
            form2 = nc_normalize(_quantize_monomial_symform(m, n))
            assert form1 == form2
            op = NCPoly.from_word("q" * m + "p" * n)
            assert weyl_quantize(weyl_symbol(op)) == nc_normalize(op)
            sym = PolySymbol.monomial(m, n)
            assert weyl_symbol(weyl_quantize(sym)) == sym

    rng = np.random.default_rng(105)
    for _ in range(25):
        A = _random_symbol(rng, 6)
        B = _random_symbol(rng, 6)
        assert weyl_symbol(weyl_quantize(A)) == A
        assert weyl_quantize(star_symbolic(A, B)) == weyl_quantize(A) * weyl_quantize(B)
    for _ in range(25):
        X = _random_operator(rng, 6)
        Y = _random_operator(rng, 6)
        assert weyl_quantize(weyl_symbol(X)) == nc_normalize(X)
        assert weyl_symbol(X * Y) == star_symbolic(weyl_symbol(X), weyl_symbol(Y))


def test_criterion_06():
    """Every row of the low-degree table recomputes exactly; the only
    deviations from the tabulated generators are the two mixed cubic rows
    (third-derivative coefficient misprint), and the monomial closed form
    agrees with the lift everywhere up to degree six."""
    report = table1_check()
    rows = report["rows"]
    assert len(rows) == 10
    assert all(row["symbol_consistent"] for row in rows)
    assert report["printed_discrepancies"] == ["qhat*phat*qhat", "phat*qhat*phat"]
    matching = [row["operator"] for row in rows if row["matches_tabulated"]]
    assert len(matching) == 8
    for m in range(7):
        for n in range(7):
            assert xi_monomial(m, n) == xi_lift(PolySymbol.monomial(m, n))


def test_criterion_07():
    """Lifting is a Lie homomorphism onto bracket-derived operators but
    demonstrably not an associative-algebra homomorphism."""
    rng = np.random.default_rng(107)
    for _ in range(50):
        A = _random_symbol(rng, 5, real=True)
        B = _random_symbol(rng, 5, real=True)
        assert xi_lift(A).commutator(xi_lift(B)) == I * xi_lift(moyal_symbolic(A, B))

    xi_q = xi_lift(PolySymbol.q())
    xi_p = xi_lift(PolySymbol.p())
    anticommutator = xi_q.compose(xi_p) + xi_p.compose(xi_q)
    assert anticommutator == DiffOp(PHASE_VARS, {((0, 0), (1, 1)): CRat(2)})
    assert not anticommutator.is_zero()
    assert anticommutator != xi_lift(PolySymbol.monomial(1, 1, 2))


def test_criterion_08():
    """The two-point split rejects a generator with cross terms and inverts
    each tabulated generator back to its symbol up to a constant, exactly."""
    rejected = split_test(z_conjugate(DiffOp(PHASE_VARS, {((2, 0), (0, 1)): I})))
    assert not rejected.ok
    assert any("cross term" in text for text in rejected.obstructions)
    with pytest.raises(ValueError, match="does not split"):
        rejected.require()

    q, p = PolySymbol.q(), PolySymbol.p()
    table_symbols = [
        PolySymbol.one(),
        q,
        p,
        q**2,
        p**2,
        q * p,
        q**3,
        p**3,
        q**2 * p,
        q * p**2,
    ]
    for A in table_symbols:
        result = split_test(z_conjugate(xi_lift(A)))
        assert result.ok
        assert read_off_generator(result.require()) == A.without_constant()


def test_criterion_09():
    """The consistent Gaussian kernel recovers its symbol to 1e-6; the
    inconsistent sign fails the consistency identity by a factor >= 1e3.
    Runs in under 120 s."""
    start = time.monotonic()
    consistent = GaussianAlphaSpec(1.0, 1.0, 1)
    inconsistent = GaussianAlphaSpec(1.0, 1.0, -1)
    residual_good = autv_residual(consistent.r_function())
    residual_bad = autv_residual(inconsistent.r_function())
    assert residual_bad >= 1e3 * max(residual_good, 1e-12)

    ticks = np.linspace(-1.5, 1.5, 5)
    points = [(qv, pv) for qv in ticks for pv in ticks]
    recovered = recover_A(consistent.r_function(), points)
    expected = np.array([float(consistent.a_function(qv, pv)) for qv, pv in points])
    assert float(np.max(np.abs(recovered - expected))) <= 1e-6

    with pytest.raises(ValueError, match="consistency residual"):
        recover_A(inconsistent.r_function(), points)
    assert time.monotonic() - start < 120.0


def test_criterion_10():
    """Factorized commutators and sp(2,R) Casimirs hold in exact arithmetic."""
    for hbar in (1, 2):
        rep = hw_factorize(hbar)
        ops = dict(zip(rep.generator_names, rep.hilbert_generators))
        commutator = ops["q_hat"].commutator(ops["p_hat"])
        assert commutator == DiffOp.constant(LINE_VARS, CRat(0, hbar))

    for m in (1, 3):
        rep = galilei_factorize(m, 1)
        ops = dict(zip(rep.generator_names, rep.hilbert_generators))
        commutator = ops["K_hat"].commutator(ops["p_hat"])
        assert commutator == DiffOp.constant(LINE_VARS, CRat(0, m))

    _, case_a = sp2_generators(Sp2Params(case="A"))
    assert case_a.casimir_value == CRat(Fraction(-3, 16))
    for a in (0, 1, 2):
        _, case_b = sp2_generators(Sp2Params(case="B", a=a))
        assert case_b.casimir_value == CRat(Fraction(-(a * a + 1), 4))


def test_criterion_11():
    """Momentum reversal composed with conjugation pulls back through the
    transform to plain kernel conjugation at 1e-12; the reversal is an
    exact involution."""
    grid = GridSpec(64, 0.25)
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(20):
        K = _random_kernel(rng, 64)
        A = weyl_wigner(K, grid)
        reversed_A = parity(np.conj(A), grid)
        pulled_back = weyl_wigner_inv(reversed_A, grid)
        worst = max(worst, float(np.max(np.abs(pulled_back - np.conj(K)))))
    assert worst < 1e-12

    B = weyl_wigner(_random_kernel(rng, 64), grid)
    twice = parity(np.conj(parity(np.conj(B), grid)), grid)
    assert np.array_equal(twice, B)

    report = time_reversal_check(111)  # on the grid n = 64, dx = 0.25 above
    assert report["max_residual"] < 1e-12


def test_criterion_12():
    """The eigenbasis reduction is registered as out of scope and no
    verified example claims it."""
    assert is_excluded("sp2-case-a-eigenbasis-reduction")
    names = [entry.name for entry in EXCLUSIONS]
    assert "sp2-case-a-eigenbasis-reduction" in names
    report = run_suite("reps", seed=0)
    assert report["passed"]
    for example in report["examples"]:
        assert "eigenbasis" not in example["example"]
