"""Exact polynomial-coefficient differential operators.

:class:`DiffOp` represents operators of the form

    Σ  c · x1^a1 ... xd^ad · ∂1^c1 ... ∂d^cd

over an ordered tuple of variables, with exact complex-rational
coefficients.  Terms are kept normal ordered (all multiplications to the
left of all derivatives), so the term map is a canonical form and equality
is structural.  Composition and adjoints are exact via the reordering
identity

    ∂^c x^e = Σ_k k! C(c,k) C(e,k) x^{e−k} ∂^{c−k}

applied per variable by :func:`weylkit.symbols._normal_terms`, the same
Leibniz routine that multiplies operator polynomials in the Weyl algebra.
The ring code (storage, sums, scalar multiples, powers, equality) is the
shared term-map base :class:`weylkit.symbols._TermMap`.

These operators serve two roles: phase-space generators acting on symbols
(variables ("q", "p")) and configuration-space operators in one or two
position variables (("x",) or ("x", "y")).
"""

from __future__ import annotations

from .rational import CRat, ONE
from .symbols import _SCALARS, PolySymbol, _apply, _join_terms, _normal_terms, _TermMap

__all__ = ["DiffOp"]


class DiffOp(_TermMap):
    """A normal-ordered differential operator with polynomial coefficients.

    Terms map ((mult exponents), (derivative exponents)) -> coefficient,
    both exponent tuples indexed by position in ``variables``.
    """

    __slots__ = ("variables",)

    def __init__(self, variables, terms: dict | None = None):
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables):
            raise ValueError("variables must be a non-empty tuple of distinct names")
        object.__setattr__(self, "variables", variables)
        super().__init__(terms)

    def _new(self, terms: dict) -> "DiffOp":
        out = super()._new(terms)
        object.__setattr__(out, "variables", self.variables)
        return out

    def _key(self, key):
        mult, der = (tuple(map(int, part)) for part in key)
        d = len(self.variables)
        if len(mult) != d or len(der) != d:
            raise ValueError("exponent tuples must match variable count")
        return mult, der

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
        return cls(variables, {((0,) * d, (0,) * d): c})

    @classmethod
    def mult(cls, variables, name: str, power: int = 1, coeff=1) -> "DiffOp":
        """Multiplication operator by (variable)^power."""
        variables = tuple(variables)
        d = len(variables)
        i = variables.index(name)
        mult = tuple(power if j == i else 0 for j in range(d))
        return cls(variables, {(mult, (0,) * d): coeff})

    @classmethod
    def deriv(cls, variables, name: str, power: int = 1, coeff=1) -> "DiffOp":
        """Derivative operator ∂^power in one variable."""
        variables = tuple(variables)
        d = len(variables)
        i = variables.index(name)
        der = tuple(power if j == i else 0 for j in range(d))
        return cls(variables, {((0,) * d, der): coeff})

    # -- algebra ----------------------------------------------------------

    def _coerce(self, value):
        if isinstance(value, _SCALARS):
            return DiffOp.constant(self.variables, value)
        if not isinstance(value, DiffOp):
            return None
        if value.variables != self.variables:
            raise ValueError(
                f"operator algebras differ: {self.variables} vs {value.variables}"
            )
        return value

    def _product(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator composition self ∘ other, re-normal-ordered exactly."""
        other = self._coerce(other)
        return self._new(
            _normal_terms(
                (left, right, c1 * c2)
                for left, c1 in self.terms.items()
                for right, c2 in other.terms.items()
            )
        )

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def adjoint(self) -> "DiffOp":
        """Formal adjoint in the flat L2 pairing: (x^a ∂^c)† = (−1)^{|c|} ∂^c x^a."""
        zeros = (0,) * len(self.variables)
        pairs = []
        for (a, c), coeff in self.terms.items():
            coeff = coeff.conjugate()
            pairs.append(((zeros, c), (a, zeros), -coeff if sum(c) % 2 else coeff))
        return self._new(_normal_terms(pairs))

    # -- queries ----------------------------------------------------------

    def constant_part(self) -> CRat:
        d = len(self.variables)
        return self.terms.get(((0,) * d, (0,) * d), CRat(0))

    def coefficient(self, mult, der) -> CRat:
        return self.terms.get((tuple(mult), tuple(der)), CRat(0))

    # -- actions ----------------------------------------------------------

    def apply_to_symbol(self, A: PolySymbol) -> PolySymbol:
        """Apply to a polynomial in (q, p) by :func:`weylkit.symbols._apply`; 2 variables only."""
        if len(self.variables) != 2:
            raise ValueError("apply_to_symbol requires a 2-variable operator")
        return _apply(self.terms, A)

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
