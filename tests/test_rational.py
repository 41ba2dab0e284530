"""Exact complex-rational scalar arithmetic."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylkit import CRat, I, ONE, ZERO

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
crats = st.builds(CRat, rationals, rationals)


def test_construction_is_exact():
    assert CRat(0.5).re == Fraction(1, 2)
    assert CRat(Fraction(3, 7), -2).im == Fraction(-2)
    assert CRat("2/3").re == Fraction(2, 3)
    assert CRat.coerce(0.25 + 0.5j) == CRat(Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(TypeError):
        CRat([1])


def test_constants_and_predicates():
    assert ZERO.is_zero() and not ZERO
    assert ONE.is_real() and ONE
    assert I.is_imaginary() and I * I == -ONE
    assert CRat(2, 3).conjugate() == CRat(2, -3)


def test_division_and_errors():
    z = CRat(1, 2) / CRat(3, -1)
    assert z * CRat(3, -1) == CRat(1, 2)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    assert 1 / CRat(0, 1) == -I


def test_powers():
    assert I**2 == -ONE
    assert CRat(1, 1) ** 4 == CRat(-4)
    assert CRat(2) ** -2 == CRat(Fraction(1, 4))
    assert CRat(5, -3) ** 0 == ONE


def test_mixed_arithmetic_and_hashing():
    assert 2 + CRat(0, 1) == CRat(2, 1)
    assert Fraction(1, 2) * I == CRat(0, Fraction(1, 2))
    assert 3 - CRat(1) == CRat(2)
    assert hash(CRat(5)) == hash(5)
    assert CRat(Fraction(1, 2)) == Fraction(1, 2)
    assert CRat(0, 1) == 1j


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.re = Fraction(2)


def test_printing():
    assert str(CRat(3)) == "3"
    assert str(CRat(-1, 0)) == "-1"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(CRat(0, Fraction(-1, 2))) == "-(1/2)i"
    assert str(CRat(1, 1)) == "(1 + i)"
    assert str(CRat(Fraction(1, 3), -2)) == "(1/3 - 2i)"


@given(crats, crats, crats)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO


@given(crats)
def test_conjugation_and_inverse(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.is_real()
    if a:
        assert a / a == ONE
    z = a.to_complex()
    assert z == complex(float(a.re), float(a.im))


# ----------------------------------------------------------------------
# equality and hashing agree with Python's numbers
# ----------------------------------------------------------------------


def test_equality_with_floats_is_exact():
    assert CRat(Fraction(1, 2)) == 0.5 and 0.5 == CRat(Fraction(1, 2))
    assert CRat(Fraction(1, 3)) != 1 / 3  # 1/3 has no float
    assert CRat(Fraction(1, 4), Fraction(-3, 8)) == 0.25 - 0.375j
    assert CRat(0, 1) != 1.0
    for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(0, math.inf)):
        assert CRat(0) != bad and not CRat(1) == bad


@pytest.mark.parametrize(
    "op",
    [lambda z: z + 0.5, lambda z: 0.5 + z, lambda z: z - 0.5, lambda z: 0.5 - z,
     lambda z: z * 0.5, lambda z: 0.5 * z, lambda z: z / 0.5, lambda z: 0.5 / z,
     lambda z: z + 0.5j],
)
def test_arithmetic_with_floats_is_a_type_error(op):
    with pytest.raises(TypeError):
        op(CRat(1, 1))


def test_hash_matches_equal_python_numbers():
    assert hash(CRat(0, 1)) == hash(1j)
    assert {1j: "v"}.get(CRat(0, 1)) == "v"
    assert len({CRat(0, 1), 1j}) == 1
    assert len({CRat(Fraction(1, 2)), 0.5, Fraction(1, 2)}) == 1
    assert hash(CRat(Fraction(-3, 4), Fraction(5, 8))) == hash(-0.75 + 0.625j)
    assert hash(CRat(-1, -1)) == hash(-1 - 1j)


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_exact_float_input_equals_and_hashes_as_complex(x, y):
    z = CRat.coerce(complex(x, y))
    assert z == complex(x, y) and hash(z) == hash(complex(x, y))
    assert CRat(x) == x and hash(CRat(x)) == hash(x)
    assert z.to_complex() == complex(x, y)


def test_copy_and_pickle_round_trip():
    z = CRat(Fraction(-7, 12), Fraction(5, 3))
    for clone in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert clone == z and clone.re == z.re and clone.im == z.im


# ----------------------------------------------------------------------
# printed forms, pinned on a fixed corpus
# ----------------------------------------------------------------------

PRINTED = [
    ((0, 0), "0", "CRat(Fraction(0, 1), Fraction(0, 1))"),
    ((3, 0), "3", "CRat(Fraction(3, 1), Fraction(0, 1))"),
    ((-1, 0), "-1", "CRat(Fraction(-1, 1), Fraction(0, 1))"),
    ((0, 1), "i", "CRat(Fraction(0, 1), Fraction(1, 1))"),
    ((0, -1), "-i", "CRat(Fraction(0, 1), Fraction(-1, 1))"),
    ((0, Fraction(-1, 2)), "-(1/2)i", "CRat(Fraction(0, 1), Fraction(-1, 2))"),
    ((1, 1), "(1 + i)", "CRat(Fraction(1, 1), Fraction(1, 1))"),
    ((Fraction(1, 3), -2), "(1/3 - 2i)", "CRat(Fraction(1, 3), Fraction(-2, 1))"),
    ((Fraction(-7, 12), Fraction(5, 12)), "(-7/12 + (5/12)i)",
     "CRat(Fraction(-7, 12), Fraction(5, 12))"),
    ((0, Fraction(3, 2)), "(3/2)i", "CRat(Fraction(0, 1), Fraction(3, 2))"),
    ((Fraction(22, 7), 0), "22/7", "CRat(Fraction(22, 7), Fraction(0, 1))"),
    ((2, Fraction(-1, 2)), "(2 - (1/2)i)", "CRat(Fraction(2, 1), Fraction(-1, 2))"),
    ((-5, 7), "(-5 + 7i)", "CRat(Fraction(-5, 1), Fraction(7, 1))"),
    ((Fraction(-1, 2), Fraction(-1, 2)), "(-1/2 - (1/2)i)",
     "CRat(Fraction(-1, 2), Fraction(-1, 2))"),
    ((0, -12), "-12i", "CRat(Fraction(0, 1), Fraction(-12, 1))"),
    ((Fraction(10**20 + 1, 3), Fraction(-1, 10**12)),
     "(100000000000000000001/3 - (1/1000000000000)i)",
     "CRat(Fraction(100000000000000000001, 3), Fraction(-1, 1000000000000))"),
    ((0.5, 0.25), "(1/2 + (1/4)i)", "CRat(Fraction(1, 2), Fraction(1, 4))"),
    (("2/3", 0), "2/3", "CRat(Fraction(2, 3), Fraction(0, 1))"),
]


@pytest.mark.parametrize("parts, text, rep", PRINTED)
def test_printed_forms_are_pinned(parts, text, rep):
    z = CRat(*parts)
    assert str(z) == text and repr(z) == rep


# ----------------------------------------------------------------------
# oracle: every operation against a plain pair of Fractions
# ----------------------------------------------------------------------


def pair(x):
    """The reference value of an operand: (real part, imaginary part)."""
    if isinstance(x, CRat):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def ref_mul(x, y):
    (a, b), (c, d) = pair(x), pair(y)
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = pair(x), pair(y)
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    base = pair(x) if k >= 0 else ref_div(1, x)
    for _ in range(abs(k)):
        out = ref_mul(CRat(*out), CRat(*base))
    return out


def assert_canonical(z):
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (a, b) != (0, 0) or d == 1


# large, coprime and shared denominators, big numerators and zero
big_rationals = st.one_of(
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([7, 11, 2**61 - 1, 10**18 + 9])),
    st.just(Fraction(0)),
)
big_crats = st.builds(CRat, big_rationals, big_rationals)
operands = st.one_of(big_crats, st.integers(-(10**20), 10**20), big_rationals)


@given(big_crats, operands)
def test_operations_match_the_fraction_pair_reference(z, w):
    x, y = pair(z), pair(w)
    cases = [
        (z + w, (x[0] + y[0], x[1] + y[1])),
        (w + z, (x[0] + y[0], x[1] + y[1])),
        (z - w, (x[0] - y[0], x[1] - y[1])),
        (w - z, (y[0] - x[0], y[1] - x[1])),
        (z * w, ref_mul(z, w)),
        (w * z, ref_mul(z, w)),
        (-z, (-x[0], -x[1])),
        (z.conjugate(), (x[0], -x[1])),
    ]
    if any(y):
        cases.append((z / w, ref_div(z, w)))
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
    if any(x):
        cases.append((w / z, ref_div(w, z)))
    for got, want in cases:
        assert_canonical(got)
        assert (got.re, got.im) == want
        assert got == CRat(*want) and hash(got) == hash(CRat(*want))
    assert (z == w) == (x == y)
    if x == y:
        assert hash(z) == hash(w)
    if not x[1]:
        assert hash(z) == hash(x[0]) and z == x[0]


@given(big_crats, st.integers(-6, 6))
def test_powers_match_the_fraction_pair_reference(z, k):
    if k < 0 and z.is_zero():
        with pytest.raises(ZeroDivisionError):
            z**k
        return
    got = z**k
    assert_canonical(got)
    assert (got.re, got.im) == ref_pow(z, k)


@given(big_crats, st.integers(-9, 9))
def test_turns_are_powers_of_i(z, k):
    got = z.turn(k)
    assert_canonical(got)
    assert got == z * I**k


def test_construction_is_canonical():
    for z in (ZERO, ONE, I, CRat(0, Fraction(0, 5)), CRat(Fraction(2, 4), Fraction(1, 6)),
              CRat(-0.0), CRat("-6/8", "3/4"), CRat.coerce(0.5 - 0.25j), CRat(4) / 2):
        assert_canonical(z)
    assert (CRat(Fraction(1, 2)) - Fraction(1, 2))._d == 1
