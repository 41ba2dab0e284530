"""Lifting symbols to phase-space generators, and reading them back off.

A real polynomial symbol A(q, p) induces a first-class derivation of the
star product: its star commutator ξ(A) = ad⋆A, F ↦ A⋆F − F⋆A = i{A, F},
written out as a finite-order differential operator on the phase plane.
:func:`xi_lift` computes that operator exactly, as i times the odd part of
the star product's bidifferential series (:func:`weylkit.symbols._series`):

    ξ(A) = 2i Σ_{k odd} (−1)^{(k−1)/2} / (k! 2^k)
               Σ_j C(k,j) (−1)^j (∂_q^{k−j} ∂_p^j A) ∂_p^{k−j} ∂_q^j .

Key exact facts (all enforced by tests):

* ξ is a Lie-algebra homomorphism up to a fixed factor of i:
  [ξ(A), ξ(B)] = i ξ({A, B}) with the Groenewold-Moyal bracket {.,.};
  it is *not* an associative-algebra homomorphism.
* ξ(A) for monomial A agrees with a closed product formula
  (:func:`xi_monomial`).
* Conjugating ξ(A) to the two-point (kernel) picture yields an operator
  that splits as Â ⊗ 1 − 1 ⊗ conj(Â) (:func:`z_conjugate`,
  :func:`split_test`); Â is the configuration-space operator whose symbol
  is A again (:func:`read_off_generator`).  Operators outside the lifted
  class fail the split, with the obstructing cross terms as a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diffops import DiffOp
from .rational import CRat, I
from .symbols import NCPoly, PolySymbol, _bracket_weight, _series, format_symbol, weyl_symbol

__all__ = [
    "xi_lift",
    "z_conjugate",
    "SplitResult",
    "split_test",
    "read_off_generator",
    "table1_check",
    "potential_generator",
    "PHASE_VARS",
    "KERNEL_VARS",
    "LINE_VARS",
]

PHASE_VARS = ("q", "p")
KERNEL_VARS = ("x", "y")
LINE_VARS = ("x",)


# ----------------------------------------------------------------------
# the lift
# ----------------------------------------------------------------------


def xi_lift(A: PolySymbol) -> DiffOp:
    """Phase-space generator of the bracket action of a real symbol A.

    The result is a differential operator in (q, p) with polynomial
    coefficients; constants in A are annihilated.  Raises ``ValueError``
    for symbols with a nonzero imaginary part, since only real symbols
    generate real flows.
    """
    if not A.is_real():
        raise ValueError("xi_lift requires a real symbol")
    return DiffOp(PHASE_VARS, _series(A, lambda k: I * _bracket_weight(k)))


def xi_monomial(m: int, n: int) -> DiffOp:
    """Closed product form of the lift of q^m p^n.

    2^{−m} Σ_r C(m,r) [ L₊^{m−r} M₋^n L₊^r − L₋^{m−r} M₊^n L₋^r ]
    with L± = q ± (i/2)∂_p and M∓ = p ∓ (i/2)∂_q.  Agrees exactly with
    ``xi_lift(PolySymbol.monomial(m, n))``; the identity is a test
    invariant.
    """
    if m < 0 or n < 0:
        raise ValueError("monomial exponents must be non-negative")
    q_op = DiffOp.mult(PHASE_VARS, "q")
    p_op = DiffOp.mult(PHASE_VARS, "p")
    dq = DiffOp.deriv(PHASE_VARS, "q")
    dp = DiffOp.deriv(PHASE_VARS, "p")
    l_plus = q_op + dp * (I / 2)
    l_minus = q_op - dp * (I / 2)
    m_minus = p_op - dq * (I / 2)
    m_plus = p_op + dq * (I / 2)
    total = DiffOp.zero(PHASE_VARS)
    for r in range(m + 1):
        coeff = CRat(Fraction(math.comb(m, r), 2 ** m))
        left = (l_plus ** (m - r)) * (m_minus ** n) * (l_plus ** r)
        right = (l_minus ** (m - r)) * (m_plus ** n) * (l_minus ** r)
        total = total + (left - right) * coeff
    return total


# ----------------------------------------------------------------------
# two-point (kernel) picture
# ----------------------------------------------------------------------


def _exact_positive(value, name: str) -> Fraction:
    """Coerce an exact positive parameter for the symbolic layer."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = Fraction(value)
    if not isinstance(value, Fraction):
        raise ValueError(f"{name} must be an exact integer or Fraction")
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def z_conjugate(alpha: DiffOp, hbar=1) -> DiffOp:
    """Transport a phase-space operator to the two-point picture.

    Conjugation by the unitary map between phase-space functions and
    two-point kernels sends the generators to

        q  ->  (x + y)/2            ∂_q  ->  ∂_x + ∂_y
        p  ->  (ħ/2)(−i∂_x + i∂_y)  ∂_p  ->  −i(x − y)/ħ

    and each normal-ordered term maps to the composition of the factor
    images.  All canonical commutation relations are preserved, so the
    result is independent of factor ordering ambiguities.
    """
    if alpha.variables != PHASE_VARS:
        raise ValueError("z_conjugate expects an operator in (q, p)")
    h = _exact_positive(hbar, "hbar")
    x_op = DiffOp.mult(KERNEL_VARS, "x")
    y_op = DiffOp.mult(KERNEL_VARS, "y")
    dx = DiffOp.deriv(KERNEL_VARS, "x")
    dy = DiffOp.deriv(KERNEL_VARS, "y")
    q_img = (x_op + y_op) * CRat(Fraction(1, 2))
    p_img = (dx * (-I) + dy * I) * CRat(h / 2)
    dq_img = dx + dy
    dp_img = (x_op - y_op) * (-I / CRat(h))
    images = (q_img, p_img, dq_img, dp_img)
    # powers[i][k] == images[i] ** k, each built once per call
    powers = tuple([DiffOp.identity(KERNEL_VARS)] for _ in images)
    out = DiffOp.zero(KERNEL_VARS)
    for ((a, b), (c, d)), coeff in alpha.terms.items():
        term = DiffOp.identity(KERNEL_VARS) * coeff
        for image, cache, k in zip(images, powers, (a, b, c, d)):
            while len(cache) <= k:
                cache.append(cache[-1] * image)
            term = term * cache[k]
        out = out + term
    return out


@dataclass(frozen=True)
class SplitResult:
    """Outcome of :func:`split_test`.

    ``a_hat`` is the one-variable operator with T = Â(x) ⊗ 1 − 1 ⊗ conj(Â)(y)
    when the split exists (``ok``); otherwise ``obstructions`` lists the
    offending terms or coefficient mismatches as readable strings.
    """

    ok: bool
    a_hat: DiffOp | None
    obstructions: tuple

    def require(self) -> DiffOp:
        if not self.ok:
            raise ValueError(
                "operator does not split into a one-sided generator: "
                + "; ".join(self.obstructions)
            )
        return self.a_hat


def split_test(t: DiffOp) -> SplitResult:
    """Attempt to split a two-point operator as Â(x) ⊗ 1 − 1 ⊗ conj(Â)(y).

    A split exists iff t has no terms mixing the two points, the pure-y
    part mirrors the pure-x part with conjugated, negated coefficients,
    and the scalar part is purely imaginary.  The additive gauge freedom
    (a real constant in Â cancels in the difference) is fixed by giving Â
    a purely imaginary constant: half the scalar part of t.
    """
    if t.variables != KERNEL_VARS:
        raise ValueError("split_test expects an operator in (x, y)")
    x_terms: dict = {}
    y_terms: dict = {}
    scalar = CRat(0)
    obstructions = []
    for ((a, b), (c, d)), coeff in t.terms.items():
        x_active = a or c
        y_active = b or d
        if x_active and y_active:
            piece = DiffOp(KERNEL_VARS, {((a, b), (c, d)): coeff})
            obstructions.append(f"cross term {piece.pretty()}")
        elif x_active:
            x_terms[(a, c)] = coeff
        elif y_active:
            y_terms[(b, d)] = coeff
        else:
            scalar = coeff
    if not scalar.is_imaginary() and not scalar.is_zero():
        obstructions.append(f"scalar part {scalar} is not purely imaginary")
    keys = set(x_terms) | set(y_terms)
    for key in sorted(keys):
        d_x = x_terms.get(key, CRat(0))
        e_y = y_terms.get(key, CRat(0))
        if e_y != -d_x.conjugate():
            a, c = key
            obstructions.append(
                f"mirror mismatch at x^{a} Dx^{c}: x side {d_x}, y side {e_y}"
            )
    if obstructions:
        return SplitResult(False, None, tuple(obstructions))
    out_terms = {((a,), (c,)): coeff for (a, c), coeff in x_terms.items()}
    half_scalar = scalar * CRat(Fraction(1, 2))
    if not half_scalar.is_zero():
        out_terms[((0,), (0,))] = half_scalar
    return SplitResult(True, DiffOp(LINE_VARS, out_terms), ())


def read_off_generator(a_hat: DiffOp) -> PolySymbol:
    """Symbol of a one-variable configuration-space operator.

    Positions map to q̂ and derivatives to i p̂ (momentum −i∂_x in units
    ħ = 1), the resulting operator polynomial is brought to its symbol,
    and the additive constant — pure gauge in the two-point difference —
    is dropped.  Raises ``ValueError`` if the symbol is not real, which
    rejects operators that are not symmetric generators.
    """
    if a_hat.variables != LINE_VARS:
        raise ValueError("read_off_generator expects an operator in (x,)")
    operator = NCPoly(
        {(a, c): coeff * I**c for ((a,), (c,)), coeff in a_hat.terms.items()}
    )
    symbol = weyl_symbol(operator)
    body = symbol.without_constant()
    if not body.is_real():
        raise ValueError(
            f"operator symbol {format_symbol(symbol)} is not real; "
            "not a symmetric generator"
        )
    const = symbol.constant_term()
    if not const.is_real():
        raise ValueError(
            f"operator symbol has non-real constant {const}; "
            "not a symmetric generator"
        )
    return body


# ----------------------------------------------------------------------
# tabulated cross-check of low-degree generators
# ----------------------------------------------------------------------


def _printed_table():
    """The published low-degree table: (label, operator, symbol, printed α)."""
    qv = PolySymbol.q()
    pv = PolySymbol.p()

    def op(word, coeff=1):
        return NCPoly.from_word(word, coeff)

    def gen(entries):
        terms = {}
        for (m, n), der, c in entries:
            terms[((m, n), der)] = CRat.coerce(c)
        return DiffOp(PHASE_VARS, terms)

    i8 = CRat(0, Fraction(1, 8))
    i4 = CRat(0, Fraction(1, 4))
    rows = [
        ("I", NCPoly.identity(), PolySymbol.one(), DiffOp.zero(PHASE_VARS)),
        ("qhat", op("q"), qv, gen([((0, 0), (0, 1), I)])),
        ("phat", op("p"), pv, gen([((0, 0), (1, 0), -I)])),
        ("qhat^2", op("qq"), qv ** 2, gen([((1, 0), (0, 1), 2 * I)])),
        ("phat^2", op("pp"), pv ** 2, gen([((0, 1), (1, 0), -2 * I)])),
        (
            "(qhat*phat + phat*qhat)/2",
            (op("qp") + op("pq")) * CRat(Fraction(1, 2)),
            qv * pv,
            gen([((0, 1), (0, 1), I), ((1, 0), (1, 0), -I)]),
        ),
        (
            "qhat^3",
            op("qqq"),
            qv ** 3,
            gen([((2, 0), (0, 1), 3 * I), ((0, 0), (0, 3), -i4)]),
        ),
        (
            "phat^3",
            op("ppp"),
            pv ** 3,
            gen([((0, 2), (1, 0), -3 * I), ((0, 0), (3, 0), i4)]),
        ),
        (
            "qhat*phat*qhat",
            op("qpq"),
            qv ** 2 * pv,
            gen(
                [
                    ((1, 1), (0, 1), 2 * I),
                    ((2, 0), (1, 0), -I),
                    ((0, 0), (1, 2), i8),
                ]
            ),
        ),
        (
            "phat*qhat*phat",
            op("pqp"),
            qv * pv ** 2,
            gen(
                [
                    ((0, 2), (0, 1), I),
                    ((1, 1), (1, 0), -2 * I),
                    ((0, 0), (2, 1), -i8),
                ]
            ),
        ),
    ]
    return rows


def table1_check() -> dict:
    """Recompute the low-degree operator/symbol/generator table exactly.

    For every row the operator's symbol is verified against the tabulated
    one and the lift of the symbol is compared with the *tabulated*
    generator.  Returns a report dict; ``printed_discrepancies`` names the
    rows whose tabulated generator differs from the recomputed lift (the
    third-derivative coefficients of the two mixed cubic rows are off by a
    factor of 2 in the published table; the recomputed values are
    authoritative and match the general-row formula).
    """
    rows = []
    discrepancies = []
    for label, operator, symbol, printed in _printed_table():
        symbol_ok = weyl_symbol(operator) == symbol
        lifted = xi_lift(symbol)
        matches = lifted == printed
        if not matches:
            discrepancies.append(label)
        rows.append(
            {
                "operator": label,
                "symbol": format_symbol(symbol),
                "generator": lifted.pretty(),
                "tabulated_generator": printed.pretty(),
                "symbol_consistent": symbol_ok,
                "matches_tabulated": matches,
            }
        )
    return {"rows": rows, "printed_discrepancies": discrepancies}


# ----------------------------------------------------------------------
# potential row
# ----------------------------------------------------------------------


def potential_generator(V: PolySymbol) -> DiffOp:
    """Lift of a potential V(q): i V'∂_p − (i/24) V‴∂_p³ + (i/1920) V⁽⁵⁾∂_p⁵ − …

    For a polynomial potential the series terminates and equals
    ``xi_lift(V)`` exactly.
    """
    if not V.is_real():
        raise ValueError("potential must be real")
    if any(n != 0 for (_, n) in V.terms):
        raise ValueError("potential must depend on q only")
    terms: dict = {}
    for k in range(1, V.degree() + 1, 2):
        sign = 1 if (k - 1) // 2 % 2 == 0 else -1
        coeff = I * CRat(Fraction(2 * sign, math.factorial(k) * 2 ** k))
        vk = V.diff(dq=k)
        for (m, _), c in vk.terms.items():
            key = ((m, 0), (0, k))
            terms[key] = terms.get(key, CRat(0)) + c * coeff
    return DiffOp(PHASE_VARS, terms)
