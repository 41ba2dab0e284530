"""Exact symbolic calculus on the phase plane and the Weyl algebra.

Two polynomial algebras live here, both with exact complex-rational
coefficients (:class:`~weylkit.rational.CRat`):

* :class:`PolySymbol` -- commutative polynomials A(q, p), the symbols;
* :class:`NCPoly` -- noncommutative polynomials in the canonical pair
  (q̂, p̂) with q̂p̂ − p̂q̂ = i (dimensionless units), stored in normal
  order as a term map (a, b) -> coefficient of q̂^a p̂^b.

Both, and :class:`~weylkit.diffops.DiffOp`, are term maps with zero
coefficients dropped and share one private ring base, :class:`_TermMap`.
One reordering identity underlies the noncommutative products: p̂^b q̂^a
and ∂^b x^a are brought to normal order with the weights k! C(b,k) C(a,k)
of :func:`_reorder`, and the one Leibniz routine :func:`_normal_terms`
applies them for the NCPoly product and adjoint (phase −i per
contraction) and for DiffOp composition and adjoint (phase 1).

The maps between the algebras are the symmetric (Weyl) correspondence:
``weyl_symbol`` sends an operator polynomial to its symbol and
``weyl_quantize`` inverts it; both are the one shift :func:`_symmetric_shift`
with opposite parameters ±i/2.  On symbols the operator product transports
to the star product (``star_symbolic``) and the commutator to the
Groenewold-Moyal bracket (``moyal_symbolic``).  Both are one terminating
bidifferential series Σ_k w_k J^k_A, built by :func:`_series` and applied
by :func:`_apply`: w_k = i^k/k! for the star product, 2(−1)^{(k−1)/2}/k!
on odd k for the bracket.  The lift ξ(A) (:mod:`weylkit.lift`) is i times
the bracket series.

All identities in this module are exact; nothing here is floating point.
The functions compute each result one way and do not re-verify it; the
alternative closed forms (the right-acting star series and the symmetrised
quantisation) are checked against them in the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from operator import add, sub

from .rational import CRat, I, ONE, _fmt_imag

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
]

# ----------------------------------------------------------------------
# the shared term-map ring and the Leibniz product
# ----------------------------------------------------------------------

_SCALARS = (int, Fraction, CRat)


def _accumulate(terms: dict, key, c: CRat) -> None:
    terms[key] = terms[key] + c if key in terms else c


def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if not c.is_zero()}


class _TermMap:
    """Ring code shared by the exact term-map algebras.

    ``terms`` maps a monomial key to its coefficient.  Zero coefficients are
    never stored, so equal maps are equal elements.  A subclass supplies
    ``_coerce`` (an operand as an element of the same algebra; None for a
    foreign type, ``ValueError`` for an incompatible algebra), the product
    ``_product`` and, unless its keys are exponent pairs (m, n), the key
    check ``_key``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        out: dict = {}
        for key, c in (terms or {}).items():
            _accumulate(out, self._key(key), CRat.coerce(c))
        object.__setattr__(self, "terms", _nonzero(out))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _new(self, terms: dict):
        """Same-algebra element from a map with checked keys; drops zeros."""
        out = object.__new__(type(self))
        object.__setattr__(out, "terms", _nonzero(terms))
        return out

    @staticmethod
    def _key(key):
        m, n = key
        return int(m), int(n)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(terms, key, c)
        return self._new(terms)

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
        return self._new({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._new({key: v * other for key, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be non-negative integers")
        out = self._coerce(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:  # a DiffOp over other variables
            return False
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms


@functools.lru_cache(maxsize=4096)
def _reorder(b: int, a: int) -> tuple:
    """Weights of p̂^b q̂^a = Σ_k (−i)^k w_k q̂^{a−k} p̂^{b−k}: pairs (k, w_k).

    w_k = k! C(b,k) C(a,k).  The same weights reorder ∂^b x^a =
    Σ_k w_k x^{a−k} ∂^{b−k} and give the symmetric shift between symbols
    and normal-ordered operators.
    """
    return tuple(
        (k, math.factorial(k) * math.comb(b, k) * math.comb(a, k))
        for k in range(min(a, b) + 1)
    )


@functools.lru_cache(maxsize=4096)
def _contractions(c: tuple, e: tuple) -> tuple:
    """Every way to push ∂^c through x^e: (k per variable, Σk, Π w_k)."""
    out = []
    for combo in itertools.product(*map(_reorder, c, e)):
        ks = tuple(k for k, _ in combo)
        out.append((ks, sum(ks), math.prod(w for _, w in combo)))
    return tuple(out)


def _normal_terms(pairs, turn: int = 0) -> dict:
    """Normal-ordered Σ coeff·(x^a ∂^c)(x^e ∂^f) over ((a, c), (e, f), coeff).

    Exponents are tuples with one entry per variable.  Each ∂^c_i is pushed
    through x^e_i with the weights of :func:`_reorder`, and a term with k
    contractions in all carries the phase i^(turn·k), applied as a unit
    rotation: turn 0 composes differential operators, turn −1 (phase −i)
    multiplies in the Weyl algebra (x -> q̂, ∂ -> p̂).  The map is keyed by
    (multiplication, derivative) exponents and may hold zeros.
    """
    out: dict = {}
    for (a, c), (e, f), coeff in pairs:
        ae = tuple(map(add, a, e))
        cf = tuple(map(add, c, f))
        for ks, k, w in _contractions(c, e):
            term = coeff * w if w != 1 else coeff
            if turn and k:
                term = term.turn(turn * k)
            key = (tuple(map(sub, ae, ks)), tuple(map(sub, cf, ks)))
            prev = out.get(key)
            out[key] = term if prev is None else prev + term
    return out


# ----------------------------------------------------------------------
# commutative symbols
# ----------------------------------------------------------------------


class PolySymbol(_TermMap):
    """A polynomial in the commuting variables q and p.

    Terms are stored as a map (m, n) -> coefficient for the monomial
    q^m * p^n.  Zero coefficients are never stored, so equality of term
    maps is equality of polynomials.
    """

    __slots__ = ()

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "PolySymbol":
        return cls({})

    @classmethod
    def one(cls) -> "PolySymbol":
        return cls({(0, 0): ONE})

    @classmethod
    def monomial(cls, m: int, n: int, coeff=1) -> "PolySymbol":
        return cls({(m, n): coeff})

    @classmethod
    def q(cls) -> "PolySymbol":
        return cls.monomial(1, 0)

    @classmethod
    def p(cls) -> "PolySymbol":
        return cls.monomial(0, 1)

    @classmethod
    def constant(cls, c) -> "PolySymbol":
        return cls({(0, 0): c})

    # -- ring operations ------------------------------------------------

    def _coerce(self, value):
        if isinstance(value, PolySymbol):
            return value
        if isinstance(value, _SCALARS):
            return PolySymbol.constant(value)
        return None

    def _product(self, other: "PolySymbol") -> "PolySymbol":
        terms: dict = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                _accumulate(terms, (m1 + m2, n1 + n2), c1 * c2)
        return self._new(terms)

    # -- calculus ---------------------------------------------------------

    def diff(self, dq: int = 0, dp: int = 0) -> "PolySymbol":
        """Exact partial derivative ∂_q^dq ∂_p^dp."""
        terms: dict = {}
        for (m, n), c in self.terms.items():
            if m < dq or n < dp:
                continue
            terms[(m - dq, n - dp)] = c * (math.perm(m, dq) * math.perm(n, dp))
        return self._new(terms)

    def conjugate(self) -> "PolySymbol":
        return self._new({key: c.conjugate() for key, c in self.terms.items()})

    # -- queries ----------------------------------------------------------

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m + n for (m, n) in self.terms), default=-1)

    def coefficient(self, m: int, n: int) -> CRat:
        return self.terms.get((m, n), CRat(0))

    def constant_term(self) -> CRat:
        return self.coefficient(0, 0)

    def without_constant(self) -> "PolySymbol":
        return self._new({k: c for k, c in self.terms.items() if k != (0, 0)})

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


# ----------------------------------------------------------------------
# noncommutative polynomials in (q̂, p̂)
# ----------------------------------------------------------------------

_WORD_RE = re.compile(r"^[qp]*$")
_BLOCK_RE = re.compile(r"q*p*")


def _nc_terms(pairs) -> dict:
    """Normal-ordered Σ coeff·(q̂^a p̂^b)(q̂^e p̂^f) over ((a, b), (e, f), coeff)."""
    line = _normal_terms(
        ((((a,), (b,)), ((e,), (f,)), c) for (a, b), (e, f), c in pairs), -1
    )
    return {(m, d): c for ((m,), (d,)), c in line.items()}


class NCPoly(_TermMap):
    """A polynomial in the noncommuting pair q̂, p̂ with q̂p̂ − p̂q̂ = i.

    Stored normal ordered, as a map (a, b) -> coefficient for q̂^a p̂^b
    (every q̂ left of every p̂); zero coefficients are never stored, so
    equality of term maps is equality of operators.  The constructor takes
    such a map, or (coefficient, word) pairs where a word is a string over
    {"q", "p"} (empty word = identity); each word is normal ordered once,
    as the product of its q̂^a p̂^b blocks.  Terms keep the order in which
    they first appear; :func:`nc_normalize` sorts them by degree.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            super().__init__(terms)
            return
        out: dict = {}
        for coeff, word in terms:
            if not _WORD_RE.match(word):
                raise ValueError(f"invalid operator word {word!r}")
            part = {(0, 0): CRat.coerce(coeff)}
            for block in filter(None, _BLOCK_RE.findall(word)):
                a = block.count("q")
                right = (a, len(block) - a)
                part = _nc_terms((key, right, c) for key, c in part.items())
            for key, c in part.items():
                _accumulate(out, key, c)
        object.__setattr__(self, "terms", _nonzero(out))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def identity(cls) -> "NCPoly":
        return cls({(0, 0): ONE})

    @classmethod
    def from_word(cls, word: str, coeff=1) -> "NCPoly":
        return cls([(coeff, word)])

    @classmethod
    def q(cls) -> "NCPoly":
        return cls.from_word("q")

    @classmethod
    def p(cls) -> "NCPoly":
        return cls.from_word("p")

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "NCPoly":
        """The normal-ordered monomial q̂^a p̂^b."""
        return cls({(a, b): coeff})

    # -- algebra ----------------------------------------------------------

    def _coerce(self, value):
        if isinstance(value, NCPoly):
            return value
        if isinstance(value, _SCALARS):
            return NCPoly({(0, 0): value})
        return None

    def _product(self, other: "NCPoly") -> "NCPoly":
        return self._new(
            _nc_terms(
                (k1, k2, c1 * c2)
                for k1, c1 in self.terms.items()
                for k2, c2 in other.terms.items()
            )
        )

    def adjoint(self) -> "NCPoly":
        """Formal adjoint: (c q̂^a p̂^b)† = conj(c) p̂^b q̂^a, normal ordered."""
        pairs = (((0, b), (a, 0), c.conjugate()) for (a, b), c in self.terms.items())
        return self._new(_nc_terms(pairs))

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self * other - other * self

    def degree(self) -> int:
        return max((a + b for (a, b) in self.terms), default=-1)

    def __str__(self) -> str:
        return format_ncpoly(self)

    def __repr__(self) -> str:
        return f"NCPoly({format_ncpoly(self)!r})"


def _from_canonical(terms: dict) -> NCPoly:
    """NCPoly from a term map (a, b) -> coeff, in ascending degree order."""
    return NCPoly(dict(sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))))


def nc_normalize(x: NCPoly) -> NCPoly:
    """The same operator with its terms in canonical order; idempotent.

    An NCPoly is always stored normal ordered (all q̂ left of all p̂); the
    canonical order sorts its terms by total degree, then by the power of q̂.
    """
    return _from_canonical(x.terms)


# ----------------------------------------------------------------------
# the symmetric correspondence
# ----------------------------------------------------------------------


def _symmetric_shift(terms: dict, z: CRat) -> dict:
    """Map (a, b) -> Σ_k z^k k! C(a,k) C(b,k) (a−k, b−k) over a term map.

    With z = i/2 this takes normal-ordered operator terms to symbol terms,
    with z = −i/2 it takes symbol terms back to normal-ordered operators.
    """
    out: dict = {}
    z_powers = [ONE]
    for (a, b), coeff in terms.items():
        for k, w in _reorder(b, a):
            if k == len(z_powers):
                z_powers.append(z_powers[-1] * z)
            _accumulate(out, (a - k, b - k), coeff * z_powers[k] * w)
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
    return PolySymbol(_symmetric_shift(x.terms, I / 2))


def weyl_quantize(A: PolySymbol) -> NCPoly:
    """Operator polynomial with symbol A (inverse of :func:`weyl_symbol`).

    Each monomial maps by the closed form q^m p^n -> Σ_k (−i/2)^k
    k! C(m,k) C(n,k) q̂^{m−k} p̂^{n−k}, so the result is normal ordered.
    Agreement with the symmetrised form 2^{−m} Σ_r C(m,r) q̂^{m−r} p̂^n q̂^r
    is a test invariant (acceptance criterion 05) and is not checked here.
    """
    return _from_canonical(_symmetric_shift(A.terms, -I / 2))


# ----------------------------------------------------------------------
# star product and bracket (terminating bidifferential series)
# ----------------------------------------------------------------------


def _bracket_weight(k: int) -> CRat:
    """2 (−1)^{(k−1)/2} / k! for odd k, else 0: the weights of the bracket."""
    return CRat(2 * (-1) ** (k // 2)) / math.factorial(k) if k % 2 else CRat(0)


def _series(A: PolySymbol, weights) -> dict:
    """Σ_k weights(k)·J^k_A, the operator B ↦ Σ_k weights(k)·A J^k B, where

        A J^k B = 2^{−k} Σ_j C(k,j) (−1)^j (∂_q^{k−j} ∂_p^j A)(∂_q^j ∂_p^{k−j} B),

    as a term map ((m, n), (j, k − j)) -> coefficient of q^m p^n ∂_q^j ∂_p^{k−j}.
    k runs up to deg A; a zero weight skips its k.
    """
    terms: dict = {}
    for k in range(A.degree() + 1):
        w = weights(k)
        if not w:
            continue
        for j in range(k + 1):
            c = w * Fraction(-math.comb(k, j) if j % 2 else math.comb(k, j), 2 ** k)
            for mn, a in A.diff(dq=k - j, dp=j).terms.items():
                terms[mn, (j, k - j)] = a * c
    return terms


def _apply(terms: dict, B: PolySymbol) -> PolySymbol:
    """Apply an operator term map ((m, n), (dq, dp)) -> c to a symbol B."""
    out: dict = {}
    diffs: dict = {}
    for ((m, n), der), c in terms.items():
        if der not in diffs:
            diffs[der] = B.diff(*der).terms
        for (a, b), cb in diffs[der].items():
            _accumulate(out, (a + m, b + n), c * cb)
    return B._new(out)


def star_symbolic(A: PolySymbol, B: PolySymbol) -> PolySymbol:
    """Star product of polynomial symbols; terminating, exact.

    Computed as the left-acting series Σ_k (i^k / k!) A J^k B.  Its
    agreement with the right-acting series Σ_k ((−i)^k / k!) B J^k A is a
    test invariant, not checked here.
    """
    return _apply(_series(A, lambda k: ONE.turn(k) / math.factorial(k)), B)


def moyal_symbolic(A: PolySymbol, B: PolySymbol) -> PolySymbol:
    """Groenewold-Moyal bracket {A, B}; terminating odd series, exact.

    Equals 2 Σ_{k odd} (−1)^{(k−1)/2} / k! · A J^k B, and also
    −i(A⋆B − B⋆A); the test suite checks the two routes against each other.
    For real A, B the bracket is real; its leading term is the Poisson
    bracket.
    """
    return _apply(_series(A, _bracket_weight), B)


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
#   term     := coeff [['*'] factors] | factors
#   factors  := var ['^' int] ('*' var ['^' int])*
#   coeff    := rat | '(' [sign] rat ')' | [rat | '(' [sign] rat ')'] 'i'
#             | '(' [sign] rat sign rat 'i' ')'
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
        return _fmt_imag(c.im)
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
        (coeff, "*".join(["qhat"] * a + ["phat"] * b))
        for (a, b), coeff in x.terms.items()
    )


_RAT = r"\d+(?:/\d+)?"
_FACTOR = r"([qp])(?:\s*\^\s*(\d+))?"  # a variable and its power

# One term; every token may follow whitespace, but nothing may trail the
# last token.  All parts are optional: the loop rejects an empty term.
_TERM_RE = re.compile(
    rf"""
    \s*(?P<sign>[+-])?
    (?:\s*(?P<coeff>
        (?:(?P<rat>{_RAT}) | \(\s*(?P<prat>[+-]?\s*{_RAT})\s*\))   # rat | (±rat)
        (?P<imag>\s*i)?                                             #   [times i]
      | \(\s*(?P<re>[+-]?\s*{_RAT})\s*(?P<im>[+-]\s*{_RAT})\s*i\s*\)   # (±rat ± rat i)
      | (?P<unit>i)
    ))?
    (?:(?(coeff)\s*\*?)                   # a '*' only after a coefficient
       \s*(?P<factors>{_FACTOR}(?:\s*\*\s*{_FACTOR})*))?
    """,
    re.VERBOSE,
)


def _rat(text: str) -> Fraction:
    """'[sign] int[/int]', spaces after the sign allowed; d = 0 is a ValueError."""
    text = "".join(text.split())
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_symbol(text: str) -> PolySymbol:
    """Parse the printer's plain-text format back into a PolySymbol."""
    if not text:
        raise ValueError("empty symbol text")
    total = PolySymbol.zero()
    pos = 0
    while pos < len(text):
        term = _TERM_RE.match(text, pos)
        if not (term["coeff"] or term["factors"]) or (pos and not term["sign"]):
            raise ValueError(f"cannot parse symbol text at {text[pos:]!r}")
        if term["re"]:
            coeff = CRat(_rat(term["re"]), _rat(term["im"]))
        else:  # rat or (±rat), either times i; a lone i; or no coefficient
            rat = _rat(term["rat"] or term["prat"] or "1")
            coeff = CRat(0, rat) if term["imag"] or term["unit"] else CRat(rat)
        powers = {"q": 0, "p": 0}
        for var, power in re.findall(_FACTOR, term["factors"] or ""):
            powers[var] += int(power or 1)
        sign = -1 if term["sign"] == "-" else 1
        total = total + PolySymbol.monomial(powers["q"], powers["p"], coeff * sign)
        pos = term.end()
    return total
