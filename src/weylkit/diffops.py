"""Exact polynomial-coefficient differential operators.

:class:`DiffOp` represents operators of the form

    Σ  c · x1^a1 ... xd^ad · ∂1^c1 ... ∂d^cd

over an ordered tuple of variables, with exact complex-rational
coefficients.  Terms are kept normal ordered (all multiplications to the
left of all derivatives), so the term map is a canonical form and equality
is structural.  Composition and adjoints are exact via the reordering
identity

    ∂^c x^e = Σ_k k! C(c,k) C(e,k) x^{e−k} ∂^{c−k}

applied per variable; its weights come from :func:`weylkit.symbols._reorder`,
the same weights that normal-order p̂^c q̂^e in the Weyl algebra.

These operators serve two roles: phase-space generators acting on symbols
(variables ("q", "p")) and configuration-space operators in one or two
position variables (("x",) or ("x", "y")).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .rational import CRat, ONE
from .symbols import PolySymbol, _join_terms, _reorder

__all__ = ["DiffOp"]


def _normal_terms(a, c, e, f):
    """Normal order (x^a ∂^c)(x^e ∂^f) over all variables: yields (key, weight).

    Each ∂^c_i is pushed through x^e_i with the weights of :func:`_reorder`;
    the key is the (multiplication, derivative) exponent pair of the term.
    """
    choices = [list(_reorder(ci, ei)) for ci, ei in zip(c, e)]
    for combo in itertools.product(*choices):
        ks = [k for k, _ in combo]
        mult = tuple(ai + ei - k for ai, ei, k in zip(a, e, ks))
        der = tuple(ci + fi - k for ci, fi, k in zip(c, f, ks))
        yield (mult, der), math.prod(w for _, w in combo)


class DiffOp:
    """A normal-ordered differential operator with polynomial coefficients.

    Terms map ((mult exponents), (derivative exponents)) -> coefficient,
    both exponent tuples indexed by position in ``variables``.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms: dict | None = None):
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables):
            raise ValueError("variables must be a non-empty tuple of distinct names")
        cleaned = {}
        if terms:
            d = len(variables)
            for (mult, der), c in terms.items():
                mult, der = tuple(map(int, mult)), tuple(map(int, der))
                if len(mult) != d or len(der) != d:
                    raise ValueError("exponent tuples must match variable count")
                c = CRat.coerce(c)
                if not c.is_zero():
                    key = (mult, der)
                    cleaned[key] = cleaned.get(key, CRat(0)) + c
        cleaned = {k: v for k, v in cleaned.items() if not v.is_zero()}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("DiffOp is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "DiffOp":
        return cls(variables, {})

    @classmethod
    def identity(cls, variables) -> "DiffOp":
        return cls.constant(variables, ONE)

    @classmethod
    def constant(cls, variables, c) -> "DiffOp":
        variables = tuple(variables)
        d = len(variables)
        return cls(variables, {((0,) * d, (0,) * d): CRat.coerce(c)})

    @classmethod
    def mult(cls, variables, name: str, power: int = 1, coeff=1) -> "DiffOp":
        """Multiplication operator by (variable)^power."""
        variables = tuple(variables)
        d = len(variables)
        i = variables.index(name)
        mult = tuple(power if j == i else 0 for j in range(d))
        return cls(variables, {(mult, (0,) * d): CRat.coerce(coeff)})

    @classmethod
    def deriv(cls, variables, name: str, power: int = 1, coeff=1) -> "DiffOp":
        """Derivative operator ∂^power in one variable."""
        variables = tuple(variables)
        d = len(variables)
        i = variables.index(name)
        der = tuple(power if j == i else 0 for j in range(d))
        return cls(variables, {((0,) * d, der): CRat.coerce(coeff)})

    @classmethod
    def from_symbol_coefficient(cls, variables, A: PolySymbol, der) -> "DiffOp":
        """Operator (multiplication by A) ∘ (∂^der), for 2-variable algebras.

        ``A``'s monomials q^m p^n map to multiplication exponents (m, n);
        ``der`` is the derivative exponent tuple.
        """
        variables = tuple(variables)
        if len(variables) != 2:
            raise ValueError("symbol coefficients require a 2-variable algebra")
        der = tuple(map(int, der))
        terms = {((m, n), der): c for (m, n), c in A.terms.items()}
        return cls(variables, terms)

    # -- algebra ----------------------------------------------------------

    def _check_same(self, other: "DiffOp"):
        if self.variables != other.variables:
            raise ValueError(
                f"operator algebras differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, CRat(0)) + c
        return DiffOp(self.variables, terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return DiffOp(self.variables, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            c = CRat.coerce(other)
            return DiffOp(self.variables, {k: v * c for k, v in self.terms.items()})
        if isinstance(other, DiffOp):
            return self.compose(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("operator powers must be non-negative integers")
        out = DiffOp.identity(self.variables)
        for _ in range(k):
            out = out.compose(self)
        return out

    def _coerce(self, value):
        if isinstance(value, DiffOp):
            return value
        if isinstance(value, (int, Fraction, CRat)):
            return DiffOp.constant(self.variables, value)
        return None

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator composition self ∘ other, re-normal-ordered exactly."""
        self._check_same(other)
        terms: dict = {}
        for (a, c), c1 in self.terms.items():
            for (e, f), c2 in other.terms.items():
                base = c1 * c2
                for key, w in _normal_terms(a, c, e, f):
                    terms[key] = terms.get(key, CRat(0)) + base * w
        return DiffOp(self.variables, terms)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def adjoint(self) -> "DiffOp":
        """Formal adjoint in the flat L2 pairing: (x^a ∂^c)† = (−1)^{|c|} ∂^c x^a."""
        zeros = (0,) * len(self.variables)
        terms: dict = {}
        for (a, c), coeff in self.terms.items():
            sign = ONE if sum(c) % 2 == 0 else CRat(-1)
            base = coeff.conjugate() * sign
            for key, w in _normal_terms(zeros, c, a, zeros):
                terms[key] = terms.get(key, CRat(0)) + base * w
        return DiffOp(self.variables, terms)

    def conjugate_coefficients(self) -> "DiffOp":
        """Complex-conjugate every coefficient (derivatives untouched)."""
        return DiffOp(
            self.variables, {k: c.conjugate() for k, c in self.terms.items()}
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            other = DiffOp.constant(self.variables, other)
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def derivative_order(self) -> int:
        """Highest total derivative order appearing (-1 for the zero operator)."""
        if not self.terms:
            return -1
        return max(sum(der) for (_, der) in self.terms)

    def constant_part(self) -> CRat:
        d = len(self.variables)
        return self.terms.get(((0,) * d, (0,) * d), CRat(0))

    def coefficient(self, mult, der) -> CRat:
        return self.terms.get((tuple(mult), tuple(der)), CRat(0))

    def truncate_order(self, max_order: int) -> "DiffOp":
        """Drop every term whose total derivative order exceeds max_order."""
        terms = {k: c for k, c in self.terms.items() if sum(k[1]) <= max_order}
        return DiffOp(self.variables, terms)

    # -- actions ----------------------------------------------------------

    def apply_to_symbol(self, A: PolySymbol) -> PolySymbol:
        """Apply to a polynomial in (q, p); only for the 2-variable algebra."""
        if len(self.variables) != 2:
            raise ValueError("apply_to_symbol requires a 2-variable operator")
        out = PolySymbol.zero()
        for ((m, n), (c0, c1)), coeff in self.terms.items():
            piece = A.diff(dq=c0, dp=c1)
            if piece.is_zero():
                continue
            out = out + piece * PolySymbol.monomial(m, n, coeff)
        return out

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"DiffOp({self.variables}, {self.pretty()!r})"

    def pretty(self) -> str:
        """Readable form; derivatives print as D<var> (e.g. x^2*Dx)."""

        def sort_key(item):
            (mult, der), _ = item
            return (sum(der), der, sum(mult), mult)

        def vars_part(mult, der):
            factors = []
            for name, a in zip(self.variables, mult):
                if a:
                    factors.append(name if a == 1 else f"{name}^{a}")
            for name, c in zip(self.variables, der):
                if c:
                    factors.append(f"D{name}" if c == 1 else f"D{name}^{c}")
            return "*".join(factors)

        return _join_terms(
            (coeff, vars_part(mult, der))
            for (mult, der), coeff in sorted(self.terms.items(), key=sort_key)
        )
