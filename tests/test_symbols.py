"""Exact symbol calculus: polynomials, operator words, transforms, printer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylkit import (
    CRat,
    I,
    NCPoly,
    ONE,
    PolySymbol,
    format_ncpoly,
    format_symbol,
    moyal_symbolic,
    nc_normalize,
    parse_symbol,
    poisson_bracket,
    star_symbolic,
    weyl_quantize,
    weyl_symbol,
    xi_lift,
)

Q = PolySymbol.q()
P = PolySymbol.p()

coeffs = st.builds(
    CRat,
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


def symbols(max_degree: int = 5, *, real: bool = False):
    coeff = (
        st.fractions(min_value=-9, max_value=9, max_denominator=6).map(CRat)
        if real
        else coeffs
    )
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


def operator_words(max_length: int = 5):
    word = st.text(alphabet="qp", min_size=0, max_size=max_length)
    term = st.tuples(coeffs, word)
    return st.lists(term, min_size=0, max_size=3)


def operators(max_length: int = 5):
    return operator_words(max_length).map(NCPoly)


# ----------------------------------------------------------------------
# commutative polynomial symbols
# ----------------------------------------------------------------------


def test_polysymbol_basics():
    A = Q * Q * P - PolySymbol.constant(CRat(0, Fraction(1, 2)))
    assert A.degree() == 3
    assert A.coefficient(2, 1) == ONE
    assert A.constant_term() == CRat(0, Fraction(-1, 2))
    assert A.without_constant() == Q**2 * P
    assert A.diff(dq=1) == 2 * Q * P
    assert A.diff(dq=2, dp=1) == PolySymbol.constant(2)
    assert A.evaluate(2.0, 3.0) == 12 - 0.5j
    assert not A.is_real() and (Q * P).is_real()
    assert A.conjugate() == Q**2 * P + PolySymbol.constant(CRat(0, Fraction(1, 2)))


@given(symbols(), symbols(), symbols())
def test_polysymbol_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == PolySymbol.zero()


@given(symbols(3), symbols(3))
def test_diff_is_a_derivation(a, b):
    assert (a * b).diff(dq=1) == a.diff(dq=1) * b + a * b.diff(dq=1)
    assert (a * b).diff(dp=1) == a.diff(dp=1) * b + a * b.diff(dp=1)


# ----------------------------------------------------------------------
# noncommutative operator polynomials and normal ordering
# ----------------------------------------------------------------------


def test_canonical_commutation_relation():
    qh, ph = NCPoly.q(), NCPoly.p()
    assert nc_normalize(qh.commutator(ph)) == NCPoly.from_word("", I)


def test_normal_ordering_examples():
    qh, ph = NCPoly.q(), NCPoly.p()
    pq = nc_normalize(ph * qh)
    assert pq == NCPoly([(ONE, "qp"), (-I, "")])
    # p̂ q̂^2 = q̂^2 p̂ − 2i q̂
    assert nc_normalize(ph * qh * qh) == NCPoly(
        [(ONE, "qqp"), (CRat(0, -2), "q")]
    )


def test_adjoint_reverses_words():
    x = NCPoly([(I, "qp"), (CRat(2), "qq")])
    assert x.adjoint() == NCPoly([(-I, "pq"), (CRat(2), "qq")])


@given(operators(4), operators(4))
def test_normalize_respects_products(a, b):
    direct = nc_normalize(a * b)
    prenormalized = nc_normalize(nc_normalize(a) * nc_normalize(b))
    assert direct == prenormalized


@given(operators(4), operators(4))
def test_adjoint_antihomomorphism(a, b):
    assert nc_normalize((a * b).adjoint()) == nc_normalize(b.adjoint() * a.adjoint())


def nc_matrix(x: NCPoly, size: int):
    """Matrix of an operator polynomial on a truncated oscillator basis.

    Floating point; an independent brute-force oracle for the exact algebra
    (truncation corrupts the last few rows/columns, so oracle comparisons
    restrict to a leading block).
    """
    lower = np.diag(np.sqrt(np.arange(1, size)), k=1)  # annihilation
    raise_ = lower.T.conj()
    qmat = (lower + raise_) / np.sqrt(2.0)
    pmat = 1j * (raise_ - lower) / np.sqrt(2.0)
    power = np.linalg.matrix_power
    total = np.zeros((size, size), dtype=complex)
    for (a, b), coeff in x.terms.items():
        total += coeff.to_complex() * (power(qmat, a) @ power(pmat, b))
    return total


def test_nc_matrix_oracle_agrees_with_word_algebra():
    # truncated-oscillator matrices multiply like the abstract words on the
    # leading block, giving a float cross-check of the exact normal ordering
    size = 14
    x = NCPoly([(CRat(1, 2), "qqp"), (CRat(0, Fraction(1, 3)), "pp")])
    y = NCPoly([(ONE, "pq"), (CRat(-2), "q")])
    lead = np.s_[:6, :6]
    product = nc_matrix(nc_normalize(x * y), size)
    assert np.allclose(
        product[lead], (nc_matrix(x, size) @ nc_matrix(y, size))[lead], atol=1e-10
    )


@given(operator_words(5))
def test_word_input_matches_letter_by_letter_matrices(words):
    # the oracle multiplies truncated-oscillator matrices letter by letter
    # in each raw word, independently of the library's normal ordering
    size = 12
    lower = np.diag(np.sqrt(np.arange(1, size)), k=1)
    qmat = (lower + lower.T) / np.sqrt(2.0)
    pmat = 1j * (lower.T - lower) / np.sqrt(2.0)
    expected = np.zeros((size, size), dtype=complex)
    for coeff, word in words:
        term = np.eye(size, dtype=complex)
        for letter in word:
            term = term @ (qmat if letter == "q" else pmat)
        expected += coeff.to_complex() * term
    lead = np.s_[:6, :6]
    assert np.allclose(nc_matrix(NCPoly(words), size)[lead], expected[lead], atol=1e-9)


# ----------------------------------------------------------------------
# symbol <-> operator transforms
# ----------------------------------------------------------------------


def test_symbol_known_values():
    qh, ph = NCPoly.q(), NCPoly.p()
    assert weyl_symbol(qh * ph) == Q * P + PolySymbol.constant(I / 2)
    assert weyl_symbol(ph * qh) == Q * P - PolySymbol.constant(I / 2)
    assert weyl_symbol(qh * ph + ph * qh) == 2 * Q * P
    assert weyl_symbol(qh**3) == Q**3
    # q̂^2 p̂^2 -> q^2 p^2 + 2i q p − 1/2
    assert weyl_symbol(qh * qh * ph * ph) == (
        Q**2 * P**2 + PolySymbol.monomial(1, 1, CRat(0, 2)) - CRat(Fraction(1, 2))
    )


def test_quantize_known_values():
    qh, ph = NCPoly.q(), NCPoly.p()
    sym_qp = nc_normalize(CRat(Fraction(1, 2)) * (qh * ph + ph * qh))
    assert weyl_quantize(Q * P) == sym_qp
    assert weyl_quantize(PolySymbol.constant(CRat(3, -1))) == NCPoly(
        [(CRat(3, -1), "")]
    )


def test_round_trip_all_monomials_degree_six():
    for m in range(7):
        for n in range(7 - m):
            A = PolySymbol.monomial(m, n, CRat(1, 1))
            assert weyl_symbol(weyl_quantize(A)) == A
            x = NCPoly.monomial(m, n)
            assert weyl_quantize(weyl_symbol(x)) == nc_normalize(x)


@given(symbols())
def test_round_trip_symbol_side(a):
    assert weyl_symbol(weyl_quantize(a)) == a


@given(operators())
def test_round_trip_operator_side(x):
    assert weyl_quantize(weyl_symbol(x)) == nc_normalize(x)


# ----------------------------------------------------------------------
# star product / brackets
# ----------------------------------------------------------------------


def test_star_known_values():
    assert star_symbolic(Q, P) == Q * P + PolySymbol.constant(I / 2)
    assert star_symbolic(P, Q) == Q * P - PolySymbol.constant(I / 2)
    assert moyal_symbolic(Q, P) == PolySymbol.one()
    assert moyal_symbolic(Q**2, P**2) == 4 * Q * P


def _seeded_symbol(rng, degree):
    out = PolySymbol.zero()
    for _ in range(4):
        m = int(rng.integers(0, degree + 1))
        n = int(rng.integers(0, degree + 1 - m))
        re = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        im = Fraction(int(rng.integers(-6, 7)), 3)
        out = out + PolySymbol.monomial(m, n, CRat(re, im))
    return out


def test_star_left_series_matches_right_acting_series():
    # star_symbolic sums the left-acting series; the right-acting series
    # Σ_k ((−i)^k/k!) B J^k A is an independent oracle for it
    rng = np.random.default_rng(206)
    for _ in range(20):
        A = _seeded_symbol(rng, 6)
        B = _seeded_symbol(rng, 6)
        right = PolySymbol.zero()
        for k in range(max(A.degree() + B.degree(), 0) + 1):
            # B J^k A = 2^{−k} Σ_j C(k,j) (−1)^j (∂_q^{k−j} ∂_p^j B)(∂_q^j ∂_p^{k−j} A)
            for j in range(k + 1):
                term = B.diff(dq=k - j, dp=j) * A.diff(dq=j, dp=k - j)
                right = right + term * ((-I) ** k) * Fraction(
                    (-1) ** j * math.comb(k, j), 2**k * math.factorial(k)
                )
        assert star_symbolic(A, B) == right


def test_star_identity_element():
    A = Q**3 * P - 2 * P**2
    assert star_symbolic(PolySymbol.one(), A) == A
    assert star_symbolic(A, PolySymbol.one()) == A


@given(symbols(3), symbols(3), symbols(3))
def test_star_associativity(a, b, c):
    assert star_symbolic(star_symbolic(a, b), c) == star_symbolic(
        a, star_symbolic(b, c)
    )


@given(symbols(4), symbols(4))
def test_star_matches_operator_product(a, b):
    assert star_symbolic(a, b) == weyl_symbol(weyl_quantize(a) * weyl_quantize(b))


@given(symbols(4), symbols(4))
def test_bracket_is_rescaled_star_commutator(a, b):
    commutator = star_symbolic(a, b) - star_symbolic(b, a)
    assert moyal_symbolic(a, b) == commutator * (-I)


@given(symbols(4, real=True), symbols(4))
def test_lift_applied_is_the_star_commutator(a, b):
    # ξ(A) = ad⋆A: the lift of a real symbol acts as A⋆B − B⋆A = i{A, B}
    commutator = star_symbolic(a, b) - star_symbolic(b, a)
    assert xi_lift(a).apply_to_symbol(b) == commutator
    assert commutator == I * moyal_symbolic(a, b)


@given(symbols(4, real=True), symbols(4, real=True))
def test_bracket_of_real_symbols_is_real(a, b):
    assert moyal_symbolic(a, b).is_real()


@given(symbols(2), symbols(5))
def test_bracket_reduces_to_poisson_for_quadratics(a, b):
    assert moyal_symbolic(a, b) == poisson_bracket(a, b)
    assert moyal_symbolic(b, a) == poisson_bracket(b, a)


def test_bracket_deviates_from_poisson_at_high_degree():
    a, b = Q**3, P**3
    assert moyal_symbolic(a, b) != poisson_bracket(a, b)
    # the correction is the third-order term −(3/2)·(3!)·(1/4) ... pinned:
    assert moyal_symbolic(a, b) - poisson_bracket(a, b) == PolySymbol.constant(
        CRat(Fraction(-3, 2))
    )


# ----------------------------------------------------------------------
# printing and parsing
# ----------------------------------------------------------------------


def test_format_symbol_examples():
    assert format_symbol(PolySymbol.zero()) == "0"
    assert format_symbol(PolySymbol.one()) == "1"
    assert format_symbol(-Q) == "-q"
    assert format_symbol(Q * P - CRat(Fraction(5, 2)) * Q**3) == "-(5/2)*q^3 + q*p"
    assert format_symbol(PolySymbol.monomial(1, 0, I * 2)) == "2i*q"
    assert (
        format_symbol(PolySymbol.monomial(6, 0, CRat(-4, -2)) + Q * P)
        == "(-4 - 2i)*q^6 + q*p"
    )
    assert format_symbol(PolySymbol.constant(CRat(0, Fraction(-1, 2)))) == "-(1/2)i"


def test_format_ncpoly_examples():
    x = NCPoly([(I, "qp"), (CRat(-1), "")])
    assert format_ncpoly(x) == "i*qhat*phat - 1"
    assert format_ncpoly(NCPoly.zero()) == "0"


def test_parse_round_trip_simple():
    for text in ["0", "1", "-q", "q^2*p - (1/2)i", "2i*q*p", "(1/4)*p^3 + q"]:
        assert format_symbol(parse_symbol(text)) == text


def test_parse_signed_complex_coefficients():
    # full complex coefficients print with a sign inside the parentheses;
    # the parser must accept its own printer's output
    A = PolySymbol.monomial(6, 0, CRat(-4, -2)) + PolySymbol.monomial(
        1, 1, CRat(Fraction(1, 3), 5)
    )
    assert parse_symbol(format_symbol(A)) == A
    assert parse_symbol("(-4 - 2i)*q^6") == PolySymbol.monomial(6, 0, CRat(-4, -2))
    assert parse_symbol("(1/3 + 5i)*q*p") == PolySymbol.monomial(
        1, 1, CRat(Fraction(1, 3), 5)
    )


@given(symbols())
def test_parse_inverts_format(a):
    assert parse_symbol(format_symbol(a)) == a


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        (" - 2 q", PolySymbol.monomial(1, 0, -2)),
        ("2q", PolySymbol.monomial(1, 0, 2)),
        ("(-1/2)", PolySymbol.monomial(0, 0, Fraction(-1, 2))),
        ("(+7/3)i", PolySymbol.monomial(0, 0, CRat(0, Fraction(7, 3)))),
        ("1 i", PolySymbol.monomial(0, 0, I)),
        ("q ^ 2*q", PolySymbol.monomial(3, 0)),
        ("( 1/3 + 5 i )*q*p", PolySymbol.monomial(1, 1, CRat(Fraction(1, 3), 5))),
        ("i*p", PolySymbol.monomial(0, 1, I)),
        ("2iq", PolySymbol.monomial(1, 0, CRat(0, 2))),
        ("(1 - 2i)p", PolySymbol.monomial(0, 1, CRat(1, -2))),
        ("q-p+2/4", PolySymbol.monomial(1, 0) - PolySymbol.monomial(0, 1) + Fraction(1, 2)),
        ("p * q^0 - (-3)", PolySymbol.monomial(0, 1) + 3),
    ],
)
def test_parse_accepts_the_grammar(text, expected):
    assert parse_symbol(text) == expected


@pytest.mark.parametrize(
    "bad",
    ["q^", "(1", "@", "q^x", "q p", "1 +", "(1 + 2j)*q", "^2", "q**2",
     "q ", "2*", "1 / 2", "q^2^3", "i i", "(1/2", "q^-1", "((1))",
     "1/0", "(1/0)*q", "(1 + 1/0i)", "q^2 + 3/0"],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        parse_symbol(bad)
