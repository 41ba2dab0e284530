"""The generator lift: symbols to phase-space derivations and back."""

import re
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylkit import (
    CRat,
    DiffOp,
    I,
    ONE,
    PolySymbol,
    Sp2Params,
    moyal_symbolic,
    potential_generator,
    read_off_generator,
    split_test,
    sp2_generators,
    table1_check,
    xi_lift,
    z_conjugate,
)
from weylkit.checks import _random_coefficient, _random_symbol
from weylkit.lift import KERNEL_VARS, LINE_VARS, PHASE_VARS, xi_monomial

Q = PolySymbol.q()
P = PolySymbol.p()


def real_symbols(max_degree: int = 5):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(CRat)
    monomial = st.tuples(
        st.integers(min_value=0, max_value=max_degree),
        st.integers(min_value=0, max_value=max_degree),
        coeff,
    ).filter(lambda t: t[0] + t[1] <= max_degree)
    return st.lists(monomial, min_size=0, max_size=4).map(
        lambda ms: sum(
            (PolySymbol.monomial(m, n, c) for m, n, c in ms),
            PolySymbol.zero(),
        )
    )


# ----------------------------------------------------------------------
# the lift itself
# ----------------------------------------------------------------------


def test_lift_of_coordinates_and_quadratics():
    dq = DiffOp.deriv(PHASE_VARS, "q")
    dp = DiffOp.deriv(PHASE_VARS, "p")
    q_op = DiffOp.mult(PHASE_VARS, "q")
    p_op = DiffOp.mult(PHASE_VARS, "p")
    assert xi_lift(Q) == dp * I
    assert xi_lift(P) == dq * (-I)
    assert xi_lift(Q**2) == q_op * dp * (2 * I)
    assert xi_lift(P**2) == p_op * dq * CRat(0, -2)
    assert xi_lift(Q * P) == q_op * dq * (-I) + p_op * dp * I
    assert xi_lift(PolySymbol.one()).is_zero()
    assert xi_lift(PolySymbol.zero()).is_zero()


def test_lift_of_cubics_has_third_derivative_tail():
    # ξ(q^3) = 3i q^2 ∂p − (i/4) ∂p^3
    expected = DiffOp(
        PHASE_VARS,
        {
            ((2, 0), (0, 1)): CRat(0, 3),
            ((0, 0), (0, 3)): CRat(0, Fraction(-1, 4)),
        },
    )
    assert xi_lift(Q**3) == expected


def test_lift_rejects_non_real_symbols():
    with pytest.raises(ValueError):
        xi_lift(PolySymbol.monomial(1, 0, I))


def test_monomial_closed_form_matches_lift():
    for m in range(7):
        for n in range(7):
            assert xi_monomial(m, n) == xi_lift(PolySymbol.monomial(m, n))


@given(real_symbols(), real_symbols())
def test_lift_is_a_lie_homomorphism(a, b):
    lifted_bracket = xi_lift(a).commutator(xi_lift(b))
    assert lifted_bracket == I * xi_lift(moyal_symbolic(a, b))


def test_lift_is_linear_but_not_multiplicative():
    xi_q, xi_p = xi_lift(Q), xi_lift(P)
    anticommutator = xi_q.compose(xi_p) + xi_p.compose(xi_q)
    # ξ(q)ξ(p) + ξ(p)ξ(q) = 2 ∂q∂p, which is not ξ(2qp)
    assert anticommutator == DiffOp(PHASE_VARS, {((0, 0), (1, 1)): CRat(2)})
    assert anticommutator != xi_lift(PolySymbol.monomial(1, 1, 2))
    assert xi_lift(Q + 3 * P) == xi_q + xi_lift(P) * 3


def test_lift_output_is_purely_imaginary_coefficients():
    op = xi_lift(Q**3 * P - 2 * P**4)
    assert all(c.is_imaginary() for c in op.terms.values())


# ----------------------------------------------------------------------
# two-point conjugation and the splitting test
# ----------------------------------------------------------------------


def test_z_conjugate_generator_images():
    x_op = DiffOp.mult(KERNEL_VARS, "x")
    y_op = DiffOp.mult(KERNEL_VARS, "y")
    dx = DiffOp.deriv(KERNEL_VARS, "x")
    dy = DiffOp.deriv(KERNEL_VARS, "y")
    q_mult = DiffOp.mult(PHASE_VARS, "q")
    assert z_conjugate(q_mult) == (x_op + y_op) * CRat(Fraction(1, 2))
    assert z_conjugate(DiffOp.deriv(PHASE_VARS, "q")) == dx + dy
    assert z_conjugate(DiffOp.deriv(PHASE_VARS, "p")) == (x_op - y_op) * (-I)
    # commutation relations survive transport
    lhs = z_conjugate(xi_lift(Q)).commutator(z_conjugate(xi_lift(P)))
    assert lhs == z_conjugate(xi_lift(Q).commutator(xi_lift(P)))
    with pytest.raises(ValueError):
        z_conjugate(DiffOp.identity(KERNEL_VARS))
    with pytest.raises(ValueError):
        z_conjugate(DiffOp.identity(PHASE_VARS), hbar=0.5)


def _z_conjugate_by_terms(alpha, hbar):
    """Oracle: each term's image as the product of fresh factor-image powers."""
    x_op = DiffOp.mult(KERNEL_VARS, "x")
    y_op = DiffOp.mult(KERNEL_VARS, "y")
    dx = DiffOp.deriv(KERNEL_VARS, "x")
    dy = DiffOp.deriv(KERNEL_VARS, "y")
    h = CRat(Fraction(hbar))
    q_img = (x_op + y_op) * CRat(Fraction(1, 2))
    p_img = (dx * (-I) + dy * I) * (h / 2)
    dq_img = dx + dy
    dp_img = (x_op - y_op) * (-I / h)
    out = DiffOp.zero(KERNEL_VARS)
    for ((a, b), (c, d)), coeff in alpha.terms.items():
        out = out + (q_img**a) * (p_img**b) * (dq_img**c) * (dp_img**d) * coeff
    return out


@pytest.mark.parametrize("hbar", [1, Fraction(2, 3)])
def test_z_conjugate_matches_the_term_by_term_product(hbar):
    tower = [xi_lift(PolySymbol.monomial(n, 0, Fraction(1, factorial(n)))) for n in range(1, 9)]
    alphas, _ = sp2_generators(Sp2Params("B", 2))
    for alpha in tower + list(alphas):
        assert z_conjugate(alpha, hbar).terms == _z_conjugate_by_terms(alpha, hbar).terms


@pytest.mark.parametrize("hbar", [0, -1, 1.5, True])
def test_z_conjugate_rejects_non_positive_or_inexact_hbar(hbar):
    with pytest.raises(ValueError):
        z_conjugate(xi_lift(Q * Q), hbar=hbar)


def test_split_accepts_lifted_generators():
    for symbol in [Q, P, Q * P, Q**3, Q**2 * P, 2 * P**4 - Q**2]:
        result = split_test(z_conjugate(xi_lift(symbol)))
        assert result.ok and not result.obstructions
        assert read_off_generator(result.require()) == symbol.without_constant()


def test_split_round_trip_low_degrees():
    for m in range(4):
        for n in range(4 - m):
            symbol = PolySymbol.monomial(m, n)
            recovered = read_off_generator(
                split_test(z_conjugate(xi_lift(symbol))).require()
            )
            assert recovered == symbol.without_constant()


def test_split_rejects_non_lifted_operator():
    # i q^2 ∂p is formally skew-symmetric but is not a lifted generator
    bad = DiffOp(PHASE_VARS, {((2, 0), (0, 1)): I})
    result = split_test(z_conjugate(bad))
    assert not result.ok
    assert result.obstructions
    assert any("cross term" in entry for entry in result.obstructions)
    with pytest.raises(ValueError):
        result.require()


def test_split_input_validation():
    with pytest.raises(ValueError):
        split_test(DiffOp.identity(PHASE_VARS))


def test_split_mirror_mismatch_is_reported():
    dx = DiffOp.deriv(KERNEL_VARS, "x")
    dy = DiffOp.deriv(KERNEL_VARS, "y")
    lopsided = dx + dy * CRat(2)
    result = split_test(lopsided)
    assert not result.ok
    assert any("mirror mismatch" in entry for entry in result.obstructions)


def test_read_off_generator_drops_imaginary_constant_gauge():
    # Â from the split of ξ(q^2) carries a pure-gauge constant; the
    # read-off must return exactly q^2
    a_hat = split_test(z_conjugate(xi_lift(Q**2))).require()
    assert read_off_generator(a_hat) == Q**2


def test_read_off_generator_rejects_non_symmetric():
    op = DiffOp.mult(LINE_VARS, "x", coeff=I)
    with pytest.raises(ValueError):
        read_off_generator(op)
    with pytest.raises(ValueError):
        read_off_generator(DiffOp.identity(KERNEL_VARS))


# ----------------------------------------------------------------------
# tabulated low-degree rows
# ----------------------------------------------------------------------


def test_table_rows_are_symbol_consistent():
    report = table1_check()
    assert len(report["rows"]) == 10
    assert all(row["symbol_consistent"] for row in report["rows"])


def test_table_mixed_cubic_rows_disagree_with_print():
    report = table1_check()
    assert report["printed_discrepancies"] == ["qhat*phat*qhat", "phat*qhat*phat"]
    by_label = {row["operator"]: row for row in report["rows"]}
    for label in report["printed_discrepancies"]:
        row = by_label[label]
        assert not row["matches_tabulated"]
        assert row["generator"] != row["tabulated_generator"]
    matched = [r for r in report["rows"] if r["matches_tabulated"]]
    assert len(matched) == 8


def test_table_printed_forms_are_pinned():
    # (operator, recomputed generator, tabulated generator) as printed
    expected = [
        ("I", "0", "0"),
        ("qhat", "i*Dp", "i*Dp"),
        ("phat", "-i*Dq", "-i*Dq"),
        ("qhat^2", "2i*q*Dp", "2i*q*Dp"),
        ("phat^2", "-2i*p*Dq", "-2i*p*Dq"),
        ("(qhat*phat + phat*qhat)/2", "i*p*Dp - i*q*Dq", "i*p*Dp - i*q*Dq"),
        ("qhat^3", "3i*q^2*Dp - (1/4)i*Dp^3", "3i*q^2*Dp - (1/4)i*Dp^3"),
        ("phat^3", "-3i*p^2*Dq + (1/4)i*Dq^3", "-3i*p^2*Dq + (1/4)i*Dq^3"),
        (
            "qhat*phat*qhat",
            "2i*q*p*Dp - i*q^2*Dq + (1/4)i*Dq*Dp^2",
            "2i*q*p*Dp - i*q^2*Dq + (1/8)i*Dq*Dp^2",
        ),
        (
            "phat*qhat*phat",
            "i*p^2*Dp - 2i*q*p*Dq - (1/4)i*Dq^2*Dp",
            "i*p^2*Dp - 2i*q*p*Dq - (1/8)i*Dq^2*Dp",
        ),
    ]
    rows = table1_check()["rows"]
    printed = [(r["operator"], r["generator"], r["tabulated_generator"]) for r in rows]
    assert printed == expected


# ----------------------------------------------------------------------
# potential row
# ----------------------------------------------------------------------


def test_potential_generator_matches_lift():
    for V in [Q, Q**2, Q**3, Q**4 - 2 * Q**2 + 1, 5 * Q**6]:
        assert potential_generator(V) == xi_lift(V)


def test_potential_generator_validation():
    with pytest.raises(ValueError):
        potential_generator(Q * P)
    with pytest.raises(ValueError):
        potential_generator(PolySymbol.monomial(1, 0, I))


# ----------------------------------------------------------------------
# split then read off: the split alone admits some non-Hermitian generators,
# and the read-off refuses them
# ----------------------------------------------------------------------


@pytest.mark.parametrize("G, refusal", [
    (DiffOp.identity(PHASE_VARS) * (2 * I), "non-real constant i"),
    (DiffOp.mult(PHASE_VARS, "p") * (-I), "symbol -(1/2)i*p is not real"),
])
def test_read_off_refuses_non_hermitian_generators_that_split(G, refusal):
    split = split_test(z_conjugate(G))
    assert split.ok
    with pytest.raises(ValueError, match=re.escape(refusal)):
        read_off_generator(split.a_hat)
    assert G.adjoint() != G


# ----------------------------------------------------------------------
# the ξ⁻¹ read-off oracle: ξ(A)(q) = −i∂_pA and ξ(A)(p) = i∂_qA, so A follows
# from G(q) and G(p) by one antiderivative; it agrees with split-then-read-off
# ----------------------------------------------------------------------


def _xi_inverse(G):
    """The real A, without constant, with ``xi_lift(A) == G``; None if there is none."""
    dp_A, dq_A = G.apply_to_symbol(Q) * I, G.apply_to_symbol(P) * (-I)
    if dp_A.diff(dq=1) != dq_A.diff(dp=1):
        return None
    A = sum((PolySymbol.monomial(m + 1, n, c / (m + 1)) for (m, n), c in dq_A.terms.items()),
            PolySymbol.zero())
    A = sum((PolySymbol.monomial(0, n + 1, c / (n + 1))
             for (m, n), c in dp_A.terms.items() if m == 0), A)
    return A if A.is_real() and xi_lift(A) == G else None


def _split_then_read_off(G):
    split = split_test(z_conjugate(G))
    return read_off_generator(split.a_hat) if split.ok and G.adjoint() == G else None


def test_xi_inverse_oracle_agrees_with_split_then_read_off():
    rng = np.random.default_rng(30)
    outcomes = []
    for k in range(300):
        G = xi_lift(_random_symbol(rng, 4, real=True))
        if k % 3:
            mult, der = (tuple(int(e) for e in rng.integers(0, 3, size=2)) for _ in range(2))
            T = DiffOp(PHASE_VARS, {(mult, der): _random_coefficient(rng)})
            G = G + T + T.adjoint() if k % 3 == 1 else G + T
        A = _xi_inverse(G)
        assert A == _split_then_read_off(G), G
        outcomes.append(A is not None)
    assert any(outcomes) and not all(outcomes)
