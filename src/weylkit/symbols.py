"""Exact symbolic calculus on the phase plane and the Weyl algebra.

Two polynomial algebras live here, both with exact complex-rational
coefficients (:class:`~weylkit.rational.CRat`):

* :class:`PolySymbol` -- commutative polynomials A(q, p), the symbols;
* :class:`NCPoly` -- noncommutative polynomials in the canonical pair
  (q̂, p̂) with q̂p̂ − p̂q̂ = i (dimensionless units).

One reordering identity underlies both: p̂^b q̂^a and ∂^b x^a are brought
to normal order with the weights k! C(b,k) C(a,k) of :func:`_reorder`,
which :func:`nc_normalize` and :class:`~weylkit.diffops.DiffOp` share.

The maps between the algebras are the symmetric (Weyl) correspondence:
``weyl_symbol`` sends an operator polynomial to its symbol and
``weyl_quantize`` inverts it; both are the one shift :func:`_symmetric_shift`
with opposite parameters ±i/2.  On symbols the operator product transports
to the star product, computed here as a terminating bidifferential series
(``star_symbolic``), and the commutator transports to the Groenewold-Moyal
bracket (``moyal_symbolic``).

All identities in this module are exact; nothing here is floating point.
The functions compute each result one way and do not re-verify it; the
alternative closed forms (the right-acting star series and the symmetrised
quantisation) are checked against them in the test suite.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .rational import CRat, I, ONE

__all__ = [
    "PolySymbol",
    "NCPoly",
    "nc_normalize",
    "weyl_symbol",
    "weyl_quantize",
    "star_symbolic",
    "moyal_symbolic",
    "poisson_bracket",
    "parse_symbol",
    "format_symbol",
    "format_ncpoly",
    "nc_matrix",
]

# ----------------------------------------------------------------------
# commutative symbols
# ----------------------------------------------------------------------


def _clean(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if not c.is_zero()}


class PolySymbol:
    """A polynomial in the commuting variables q and p.

    Terms are stored as a map (m, n) -> coefficient for the monomial
    q^m * p^n.  Zero coefficients are never stored, so equality of term
    maps is equality of polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        cleaned = {}
        if terms:
            for (m, n), c in terms.items():
                c = CRat.coerce(c)
                if not c.is_zero():
                    cleaned[(int(m), int(n))] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PolySymbol is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "PolySymbol":
        return cls({})

    @classmethod
    def one(cls) -> "PolySymbol":
        return cls({(0, 0): ONE})

    @classmethod
    def monomial(cls, m: int, n: int, coeff=1) -> "PolySymbol":
        return cls({(m, n): CRat.coerce(coeff)})

    @classmethod
    def q(cls) -> "PolySymbol":
        return cls.monomial(1, 0)

    @classmethod
    def p(cls) -> "PolySymbol":
        return cls.monomial(0, 1)

    @classmethod
    def constant(cls, c) -> "PolySymbol":
        return cls({(0, 0): CRat.coerce(c)})

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce_symbol(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, CRat(0)) + c
        return PolySymbol(_clean(terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_symbol(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_symbol(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return PolySymbol({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            c = CRat.coerce(other)
            return PolySymbol({key: v * c for key, v in self.terms.items()})
        other = _coerce_symbol(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                key = (m1 + m2, n1 + n2)
                terms[key] = terms.get(key, CRat(0)) + c1 * c2
        return PolySymbol(_clean(terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("symbol powers must be non-negative integers")
        out = PolySymbol.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce_symbol(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ---------------------------------------------------------

    def diff(self, dq: int = 0, dp: int = 0) -> "PolySymbol":
        """Exact partial derivative ∂_q^dq ∂_p^dp."""
        terms: dict = {}
        for (m, n), c in self.terms.items():
            if m < dq or n < dp:
                continue
            factor = Fraction(math.perm(m, dq) * math.perm(n, dp))
            terms[(m - dq, n - dp)] = c * factor
        return PolySymbol(_clean(terms))

    def conjugate(self) -> "PolySymbol":
        return PolySymbol({key: c.conjugate() for key, c in self.terms.items()})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m + n for (m, n) in self.terms)

    def coefficient(self, m: int, n: int) -> CRat:
        return self.terms.get((m, n), CRat(0))

    def constant_term(self) -> CRat:
        return self.coefficient(0, 0)

    def without_constant(self) -> "PolySymbol":
        terms = {k: c for k, c in self.terms.items() if k != (0, 0)}
        return PolySymbol(terms)

    def swap_covariant(self) -> "PolySymbol":
        """The substitution q -> p, p -> -q pushed through the term map."""
        terms: dict = {}
        for (m, n), c in self.terms.items():
            sign = ONE if n % 2 == 0 else CRat(-1)
            key = (n, m)
            terms[key] = terms.get(key, CRat(0)) + c * sign
        return PolySymbol(_clean(terms))

    def evaluate(self, q, p):
        """Evaluate numerically (q, p may be numpy arrays)."""
        total = 0
        for (m, n), c in self.terms.items():
            total = total + c.to_complex() * (q ** m) * (p ** n)
        return total

    def __str__(self) -> str:
        return format_symbol(self)

    def __repr__(self) -> str:
        return f"PolySymbol({format_symbol(self)!r})"


def _coerce_symbol(value):
    if isinstance(value, PolySymbol):
        return value
    if isinstance(value, (int, Fraction, CRat)):
        return PolySymbol.constant(value)
    return None


# ----------------------------------------------------------------------
# noncommutative polynomials in (q̂, p̂)
# ----------------------------------------------------------------------

_WORD_RE = re.compile(r"^[qp]*$")


class NCPoly:
    """A polynomial in the noncommuting pair q̂, p̂ with q̂p̂ − p̂q̂ = i.

    Stored as a list of (coefficient, word) pairs where a word is a string
    over the alphabet {"q", "p"} (empty word = identity).  Words need not be
    normal-ordered; :func:`nc_normalize` produces the canonical form with
    every q̂ to the left of every p̂.  Equality compares canonical forms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        checked = []
        for coeff, word in terms:
            coeff = CRat.coerce(coeff)
            if not _WORD_RE.match(word):
                raise ValueError(f"invalid operator word {word!r}")
            if not coeff.is_zero():
                checked.append((coeff, word))
        object.__setattr__(self, "terms", tuple(checked))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("NCPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def identity(cls) -> "NCPoly":
        return cls([(ONE, "")])

    @classmethod
    def from_word(cls, word: str, coeff=1) -> "NCPoly":
        return cls([(CRat.coerce(coeff), word)])

    @classmethod
    def q(cls) -> "NCPoly":
        return cls.from_word("q")

    @classmethod
    def p(cls) -> "NCPoly":
        return cls.from_word("p")

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "NCPoly":
        """The normal-ordered monomial q̂^a p̂^b."""
        return cls.from_word("q" * a + "p" * b, coeff)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        return NCPoly(self.terms + other.terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return NCPoly([(-c, w) for c, w in self.terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            c = CRat.coerce(other)
            return NCPoly([(v * c, w) for v, w in self.terms])
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        terms = [
            (c1 * c2, w1 + w2) for c1, w1 in self.terms for c2, w2 in other.terms
        ]
        return NCPoly(terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("operator powers must be non-negative integers")
        out = NCPoly.identity()
        for _ in range(k):
            out = out * self
        return out

    def adjoint(self) -> "NCPoly":
        """Formal adjoint: reverse each word, conjugate each coefficient."""
        return NCPoly([(c.conjugate(), w[::-1]) for c, w in self.terms])

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self * other - other * self

    def __eq__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        return nc_normalize(self)._canonical() == nc_normalize(other)._canonical()

    def __hash__(self):
        return hash(frozenset(nc_normalize(self)._canonical().items()))

    def _canonical(self) -> dict:
        """Term map (a, b) -> coeff, assuming already normal ordered."""
        out: dict = {}
        for c, w in self.terms:
            a = w.count("q")
            key = (a, len(w) - a)
            out[key] = out.get(key, CRat(0)) + c
        return {k: v for k, v in out.items() if not v.is_zero()}

    def is_normal_ordered(self) -> bool:
        return all("pq" not in w for _, w in self.terms)

    def degree(self) -> int:
        canon = nc_normalize(self)._canonical()
        if not canon:
            return -1
        return max(a + b for (a, b) in canon)

    def __str__(self) -> str:
        return format_ncpoly(self)

    def __repr__(self) -> str:
        return f"NCPoly({format_ncpoly(self)!r})"


def _coerce_nc(value):
    if isinstance(value, NCPoly):
        return value
    if isinstance(value, (int, Fraction, CRat)):
        return NCPoly([(CRat.coerce(value), "")])
    return None


def _reorder(b: int, a: int):
    """Weights of p̂^b q̂^a = Σ_k (−i)^k w_k q̂^{a−k} p̂^{b−k}: yields (k, w_k).

    w_k = k! C(b,k) C(a,k).  The same weights reorder ∂^b x^a =
    Σ_k w_k x^{a−k} ∂^{b−k} and give the symmetric shift between symbols
    and normal-ordered operators.
    """
    for k in range(min(a, b) + 1):
        yield k, math.factorial(k) * math.comb(b, k) * math.comb(a, k)


def _from_canonical(terms: dict) -> NCPoly:
    """Normal-ordered NCPoly from a term map (a, b) -> coeff, in degree order."""
    return NCPoly(
        (c, "q" * a + "p" * b)
        for (a, b), c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    )


def nc_normalize(x: NCPoly) -> NCPoly:
    """Canonical normal-ordered form (all q̂ left of all p̂); idempotent."""
    total: dict = {}
    for coeff, word in x.terms:
        # fold the word run by run, keeping a normal-ordered partial sum
        partial = {(0, 0): coeff}
        for letter, run in itertools.groupby(word):
            r = len(list(run))
            nxt: dict = {}
            for (a, b), c in partial.items():
                if letter == "p":
                    nxt[(a, b + r)] = c
                    continue
                # (q̂^a p̂^b) q̂^r: move the run of q̂ left through p̂^b
                for k, w in _reorder(b, r):
                    key = (a + r - k, b - k)
                    nxt[key] = nxt.get(key, CRat(0)) + c * (-I) ** k * w
            partial = nxt
        for key, c in partial.items():
            total[key] = total.get(key, CRat(0)) + c
    return _from_canonical(total)


# ----------------------------------------------------------------------
# the symmetric correspondence
# ----------------------------------------------------------------------


def _symmetric_shift(terms: dict, z: CRat) -> dict:
    """Map (a, b) -> Σ_k z^k k! C(a,k) C(b,k) (a−k, b−k) over a term map.

    With z = i/2 this takes normal-ordered operator terms to symbol terms,
    with z = −i/2 it takes symbol terms back to normal-ordered operators.
    """
    out: dict = {}
    for (a, b), coeff in terms.items():
        for k, w in _reorder(b, a):
            key = (a - k, b - k)
            out[key] = out.get(key, CRat(0)) + coeff * z ** k * w
    return out


def weyl_symbol(x: NCPoly) -> PolySymbol:
    """Symbol of an operator polynomial under the symmetric correspondence.

    On normal-ordered monomials,

        q̂^a p̂^b  ->  Σ_k (i/2)^k k! C(a,k) C(b,k) q^{a−k} p^{b−k},

    extended linearly.  The exponent convention is pinned by the
    symmetrization oracle (the symbol of the fully symmetrized product of a
    q̂'s and b p̂'s is exactly q^a p^b) and by mutual inversion with
    :func:`weyl_quantize`; both are enforced in the test suite.
    """
    return PolySymbol(_symmetric_shift(nc_normalize(x)._canonical(), I / 2))


def _quantize_monomial_sumform(m: int, n: int) -> NCPoly:
    """First closed form: Σ_k (−i/2)^k k! C(m,k) C(n,k) q̂^{m−k} p̂^{n−k}."""
    return _from_canonical(_symmetric_shift({(m, n): ONE}, -I / 2))


def _quantize_monomial_symform(m: int, n: int) -> NCPoly:
    """Second closed form: 2^{−m} Σ_r C(m,r) q̂^{m−r} p̂^n q̂^r (test oracle)."""
    terms = []
    half_m = CRat(Fraction(1, 2 ** m))
    for r in range(m + 1):
        c = half_m * CRat(math.comb(m, r))
        terms.append((c, "q" * (m - r) + "p" * n + "q" * r))
    return NCPoly(terms)


def weyl_quantize(A: PolySymbol) -> NCPoly:
    """Operator polynomial with symbol A (inverse of :func:`weyl_symbol`).

    Each monomial maps by the first closed form, q^m p^n -> Σ_k (−i/2)^k
    k! C(m,k) C(n,k) q̂^{m−k} p̂^{n−k}, so the result is normal ordered.
    Agreement with the second form, :func:`_quantize_monomial_symform`, is a
    test invariant and is not checked here.
    """
    return _from_canonical(_symmetric_shift(A.terms, -I / 2))


# ----------------------------------------------------------------------
# star product and bracket (terminating bidifferential series)
# ----------------------------------------------------------------------


def _j_power(A: PolySymbol, B: PolySymbol, k: int) -> PolySymbol:
    """The k-th bidifferential power:

    A J^k B = 2^{−k} Σ_j C(k,j) (−1)^j (∂_q^{k−j} ∂_p^j A)(∂_p^{k−j} ∂_q^j B).
    """
    out = PolySymbol.zero()
    for j in range(k + 1):
        left = A.diff(dq=k - j, dp=j)
        if left.is_zero():
            continue
        right = B.diff(dq=j, dp=k - j)
        if right.is_zero():
            continue
        sign = CRat(math.comb(k, j)) * (ONE if j % 2 == 0 else CRat(-1))
        out = out + left * right * sign
    return out * CRat(Fraction(1, 2 ** k))


def star_symbolic(A: PolySymbol, B: PolySymbol) -> PolySymbol:
    """Star product of polynomial symbols; terminating, exact.

    Computed as the left-acting series Σ_k (i^k / k!) A J^k B.  Its
    agreement with the right-acting series Σ_k ((−i)^k / k!) B J^k A is a
    test invariant, not checked here.
    """
    out = PolySymbol.zero()
    for k in range(max(A.degree() + B.degree(), 0) + 1):
        inv_fact = CRat(Fraction(1, math.factorial(k)))
        out = out + _j_power(A, B, k) * (I ** k) * inv_fact
    return out


def moyal_symbolic(A: PolySymbol, B: PolySymbol) -> PolySymbol:
    """Groenewold-Moyal bracket {A, B}; terminating odd series, exact.

    Equals 2 Σ_{k odd} (−1)^{(k−1)/2} / k! · A J^k B, and also
    −i(A⋆B − B⋆A); the test suite checks the two routes against each other.
    For real A, B the bracket is real; its leading term is the Poisson
    bracket.
    """
    kmax = A.degree() + B.degree()
    out = PolySymbol.zero()
    for k in range(1, max(kmax, 0) + 1, 2):
        sign = ONE if (k - 1) // 2 % 2 == 0 else CRat(-1)
        out = out + _j_power(A, B, k) * sign * CRat(Fraction(2, math.factorial(k)))
    return out


def poisson_bracket(A: PolySymbol, B: PolySymbol) -> PolySymbol:
    """Classical bracket ∂_q A ∂_p B − ∂_p A ∂_q B (the k=1 star term)."""
    return A.diff(dq=1) * B.diff(dp=1) - A.diff(dp=1) * B.diff(dq=1)


# ----------------------------------------------------------------------
# plain-text format: printer and parser
# ----------------------------------------------------------------------
#
# Grammar (round-trips exactly):
#
#   expr     := [sign] term (sign term)*
#   term     := coeff ['*' factors] | factors
#   factors  := var ['^' int] ('*' var ['^' int])*
#   coeff    := rat | [rat | '(' rat ')'] 'i' | '(' [sign] rat sign rat 'i' ')'
#   rat      := int ['/' int]
#   var      := 'q' | 'p'
#
# Examples: "q^2*p - (1/2)i", "2i*q*p", "(1/4)*p^3", "1".


def _fmt_coeff(c: CRat, *, has_vars: bool) -> str:
    if c.is_real():
        r = c.re
        if has_vars and r == 1:
            return ""
        if has_vars and r == -1:
            return "-"
        sign = "-" if r < 0 else ""
        mag = abs(r)
        body = str(mag) if mag.denominator == 1 else f"({mag})"
        return sign + body
    if c.is_imaginary():
        v = c.im
        if v == 1:
            return "i"
        if v == -1:
            return "-i"
        if v.denominator == 1:
            return f"{v}i"
        sign = "-" if v < 0 else ""
        return f"{sign}({abs(v)})i"
    im = c.im
    return f"({c.re} {'+' if im > 0 else '-'} {abs(im)}i)"


def _fmt_vars(m: int, n: int) -> str:
    parts = []
    if m:
        parts.append("q" if m == 1 else f"q^{m}")
    if n:
        parts.append("p" if n == 1 else f"p^{n}")
    return "*".join(parts)


def _join_terms(pairs) -> str:
    """Print (coefficient, variables part) pairs as 'a + b - c'; '0' if none."""
    out = []
    for coeff, vars_part in pairs:
        coeff_part = _fmt_coeff(coeff, has_vars=bool(vars_part))
        if vars_part and coeff_part not in ("", "-"):
            piece = f"{coeff_part}*{vars_part}"
        else:
            piece = coeff_part + vars_part
        if not out:
            out.append(piece)
        elif piece.startswith("-"):
            out.append(f" - {piece[1:]}")
        else:
            out.append(f" + {piece}")
    return "".join(out) or "0"


def format_symbol(A: PolySymbol) -> str:
    keys = sorted(A.terms, key=lambda mn: (-(mn[0] + mn[1]), -mn[0]))
    return _join_terms((A.terms[key], _fmt_vars(*key)) for key in keys)


def format_ncpoly(x: NCPoly) -> str:
    return _join_terms(
        (coeff, "*".join(f"{ch}hat" for ch in word)) for coeff, word in x.terms
    )


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<imag>i)|(?P<var>[qp])|(?P<pow>\^)|(?P<mul>\*)|(?P<sign>[+-]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse symbol text at {text[pos:]!r}")
        pos = match.end()
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
    return tokens


def parse_symbol(text: str) -> PolySymbol:
    """Parse the printer's plain-text format back into a PolySymbol."""
    tokens = _tokenize(text)
    total = PolySymbol.zero()
    idx = 0
    size = len(tokens)

    def parse_coeff_atom(i):
        """Parse rat | (rat) | [rat]i | (rat)i | (rat ± rat i) at i, if any."""
        if i >= size:
            return None, i
        kind, val = tokens[i]
        if kind == "num":
            rat = Fraction(val)
            if i + 1 < size and tokens[i + 1][0] == "imag":
                return CRat(0, rat), i + 2
            return CRat(rat), i + 1
        if kind == "imag":
            return CRat(0, 1), i + 1
        if kind == "lparen":
            # (rat), (rat)i, or ([sign] re ± im i); the real part of the
            # full complex form carries its own sign inside the parens
            j = i + 1
            re_sign = 1
            if j < size and tokens[j][0] == "sign":
                re_sign = 1 if tokens[j][1] == "+" else -1
                j += 1
            if j < size and tokens[j][0] == "num":
                rat = Fraction(tokens[j][1]) * re_sign
                j += 1
                if j < size and tokens[j][0] == "rparen":
                    if j + 1 < size and tokens[j + 1][0] == "imag":
                        return CRat(0, rat), j + 2
                    return CRat(rat), j + 1
                if j + 3 < size and tokens[j][0] == "sign":
                    sign = 1 if tokens[j][1] == "+" else -1
                    if (
                        tokens[j + 1][0] == "num"
                        and tokens[j + 2][0] == "imag"
                        and tokens[j + 3][0] == "rparen"
                    ):
                        im = Fraction(tokens[j + 1][1]) * sign
                        return CRat(rat, im), j + 4
        return None, i

    def parse_term(i):
        """Parse coeff | [coeff '*'] var ('*' var)* with '^'-powers at i."""
        coeff, j = parse_coeff_atom(i)
        has_coeff = coeff is not None
        if not has_coeff:
            coeff = CRat(1)
        if has_coeff and j < size and tokens[j][0] == "mul":
            j += 1
            if j >= size or tokens[j][0] != "var":
                raise ValueError("expected a variable after '*'")
        m = n = 0
        nvars = 0
        while j < size and tokens[j][0] == "var":
            var = tokens[j][1]
            j += 1
            power = 1
            if j < size and tokens[j][0] == "pow":
                if j + 1 >= size or tokens[j + 1][0] != "num":
                    raise ValueError("exponent must be an integer")
                power = int(tokens[j + 1][1])
                j += 2
            if var == "q":
                m += power
            else:
                n += power
            nvars += 1
            if j < size and tokens[j][0] == "mul":
                j += 1
                if j >= size or tokens[j][0] != "var":
                    raise ValueError("expected a variable after '*'")
            else:
                break
        if not has_coeff and nvars == 0:
            found = tokens[i][1] if i < size else "end of input"
            raise ValueError(f"expected a term, found {found!r}")
        return coeff, m, n, j

    if size == 0:
        raise ValueError("empty symbol text")
    first = True
    while idx < size:
        sign = 1
        if tokens[idx][0] == "sign":
            if tokens[idx][1] == "-":
                sign = -1
            idx += 1
        elif not first:
            raise ValueError(f"expected '+' or '-' before {tokens[idx][1]!r}")
        coeff, m, n, idx = parse_term(idx)
        total = total + PolySymbol.monomial(m, n, coeff * sign)
        first = False
    return total


# ----------------------------------------------------------------------
# float matrix representation (test oracle)
# ----------------------------------------------------------------------


def nc_matrix(x: NCPoly, size: int):
    """Matrix of an operator polynomial on a truncated oscillator basis.

    Floating point; intended as an independent brute-force oracle for the
    exact algebra (truncation corrupts the last few rows/columns, so oracle
    comparisons should restrict to a leading block).
    """
    import numpy as np

    lower = np.diag(np.sqrt(np.arange(1, size)), k=1)  # annihilation
    raise_ = lower.T.conj()
    qmat = (lower + raise_) / np.sqrt(2.0)
    pmat = 1j * (raise_ - lower) / np.sqrt(2.0)
    total = np.zeros((size, size), dtype=complex)
    for coeff, word in x.terms:
        term = np.eye(size, dtype=complex)
        for ch in word:
            term = term @ (qmat if ch == "q" else pmat)
        total += coeff.to_complex() * term
    return total
