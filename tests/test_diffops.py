"""Normal-ordered differential operators with exact coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylkit import CRat, DiffOp, I, ONE, PolySymbol
from weylkit.lift import PHASE_VARS

X = ("x",)


def mult_x(power=1, coeff=1):
    return DiffOp.mult(X, "x", power, coeff)


def deriv_x(power=1, coeff=1):
    return DiffOp.deriv(X, "x", power, coeff)


coeffs = st.builds(
    CRat,
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
exponents = st.integers(min_value=0, max_value=3)


def ops(variables):
    d = len(variables)
    term = st.tuples(
        st.tuples(*([exponents] * d)), st.tuples(*([exponents] * d)), coeffs
    )
    return st.lists(term, min_size=0, max_size=3).map(
        lambda ts: DiffOp(variables, {(m, der): c for m, der, c in ts})
        if ts
        else DiffOp.zero(variables)
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        DiffOp(())
    with pytest.raises(ValueError):
        DiffOp(("x", "x"))
    with pytest.raises(ValueError):
        DiffOp(X, {((1, 0), (0, 0)): ONE})
    zero = DiffOp(X, {((1,), (0,)): CRat(0)})
    assert zero.is_zero()


def test_immutability_and_equality():
    with pytest.raises(AttributeError):
        DiffOp.identity(X).terms = {}
    assert DiffOp.identity(X) == 1
    assert DiffOp.constant(X, CRat(2, 1)) == CRat(2, 1)
    assert DiffOp.zero(X) != DiffOp.zero(PHASE_VARS)
    with pytest.raises(ValueError):
        DiffOp.zero(X) + DiffOp.zero(PHASE_VARS)


def test_canonical_commutator():
    # [∂x, x] = 1
    assert deriv_x().commutator(mult_x()) == DiffOp.identity(X)


def test_compose_normal_orders():
    # ∂x ∘ x^2 = x^2 ∂x + 2x
    composed = deriv_x().compose(mult_x(2))
    assert composed == DiffOp(X, {((2,), (1,)): ONE, ((1,), (0,)): CRat(2)})
    # ∂x^2 ∘ x = x ∂x^2 + 2 ∂x
    composed = deriv_x(2).compose(mult_x())
    assert composed == DiffOp(X, {((1,), (2,)): ONE, ((0,), (1,)): CRat(2)})


def test_scalar_and_power():
    op = mult_x() * Fraction(1, 2) + deriv_x(coeff=I)
    assert op.coefficient((1,), (0,)) == CRat(Fraction(1, 2))
    assert (deriv_x() ** 3) == deriv_x(3)
    with pytest.raises(TypeError):
        mult_x() * 0.5


@given(ops(X), ops(X))
def test_compose_matches_pointwise_action(a, b):
    # composition must act like nested application on polynomials
    poly = PolySymbol.monomial(3, 0) + PolySymbol.monomial(1, 0, CRat(0, 2)) + 1
    a2 = _promote(a)
    b2 = _promote(b)
    assert a2.compose(b2).apply_to_symbol(poly) == a2.apply_to_symbol(
        b2.apply_to_symbol(poly)
    )


def _promote(op: DiffOp) -> DiffOp:
    """Re-house a 1-variable operator in the phase-space algebra."""
    return DiffOp(
        PHASE_VARS,
        {((m[0], 0), (d[0], 0)): c for (m, d), c in op.terms.items()},
    )


@given(ops(X), ops(X), ops(X))
def test_associativity_and_jacobi(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))
    jacobi = (
        a.commutator(b).commutator(c)
        + b.commutator(c).commutator(a)
        + c.commutator(a).commutator(b)
    )
    assert jacobi.is_zero()


@given(ops(X), ops(X))
def test_adjoint_is_an_antihomomorphism(a, b):
    assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())
    assert a.adjoint().adjoint() == a


def test_adjoint_examples():
    # (x ∂x)† = −∂x ∘ x = −x ∂x − 1
    op = mult_x().compose(deriv_x())
    assert op.adjoint() == -op - 1
    # i ∂x is symmetric
    sym = deriv_x(coeff=I)
    assert sym.adjoint() == sym


def test_queries():
    op = DiffOp(PHASE_VARS, {((2, 0), (0, 1)): I, ((0, 0), (0, 0)): CRat(3)})
    assert op.derivative_order() == 1
    assert op.constant_part() == CRat(3)
    assert op.truncate_order(0) == DiffOp.constant(PHASE_VARS, 3)
    assert DiffOp.zero(X).derivative_order() == -1


def test_apply_to_symbol():
    # (q ∂p)(q p^2) = 2 q^2 p
    op = DiffOp(PHASE_VARS, {((1, 0), (0, 1)): ONE})
    A = PolySymbol.monomial(1, 2)
    assert op.apply_to_symbol(A) == PolySymbol.monomial(2, 1, 2)
    with pytest.raises(ValueError):
        DiffOp.identity(X).apply_to_symbol(A)


def test_pretty_output():
    op = mult_x(2).compose(deriv_x()) - DiffOp.constant(X, CRat(Fraction(1, 2)))
    text = op.pretty()
    assert "x^2*Dx" in text and "1/2" in text
    assert DiffOp.zero(X).pretty() == "0"
