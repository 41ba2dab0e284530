"""``exact`` workload: the exact layer, in process and warm.

Symbols and operator words have the shapes of ``checks._random_symbol``
and ``checks._random_operator``: four random monomials (or words) of
degree at most 6 with small rational coefficients.  The cost is
``Fraction``/``CRat`` arithmetic in the three term-map engines (symbols,
diffops, lift); there is no FFT or BLAS, so a numeric-layer change should
leave this workload unchanged.  Each slot of a pass fixes the monomial
degrees and word letters; the seed picks the coefficients, so passes cost
the same across seeds while their inputs differ.
"""

from __future__ import annotations

from fractions import Fraction

import weylkit as wk

from common import Passes, load_refs, pool_rng, text_digest, timed

NAME = "exact"
VARIANTS = 8
DEGREE = 6
BRACKET_DEGREE = 4

# (class, requests per pass); the counts put the median inside the
# ``bracket`` block and the 90th percentile inside the ``star`` block
PASS = (
    ("parse", 60),
    ("normal", 80),
    ("bracket", 120),
    ("quantize", 60),
    ("star", 30),
    ("lift", 10),
    ("compose", 10),
)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def _coeff(rng, real):
    re = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    im = 0 if real else Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return wk.CRat(re, im)


def _symbol(shape, coeffs, degree, real=False):
    out = wk.PolySymbol.zero()
    for _ in range(4):
        m = int(shape.integers(0, degree + 1))
        n = int(shape.integers(0, degree + 1 - m))
        out = out + wk.PolySymbol.monomial(m, n, _coeff(coeffs, real))
    return out


def _operator(shape, coeffs, degree):
    out = wk.NCPoly.zero()
    for _ in range(4):
        length = int(shape.integers(0, degree + 1))
        word = "".join("qp"[int(b)] for b in shape.integers(0, 2, size=length))
        out = out + wk.NCPoly.from_word(word, _coeff(coeffs, False))
    return out


def make_inputs(cls: str, slot: int, variant: int) -> tuple:
    shape = pool_rng(NAME, cls, slot, "shape")
    coeffs = pool_rng(NAME, cls, slot, variant)
    if cls == "normal":
        return (_operator(shape, coeffs, DEGREE),)
    if cls == "bracket":
        return tuple(_symbol(shape, coeffs, BRACKET_DEGREE, real=True) for _ in range(2))
    real = cls in ("lift", "compose")
    arity = 2 if cls in ("star", "compose") else 1
    return tuple(_symbol(shape, coeffs, DEGREE, real=real) for _ in range(arity))


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------


def _lift(A):
    alpha = wk.xi_lift(A)
    t = wk.z_conjugate(alpha)
    a_hat = wk.split_test(t).require()
    return alpha, t, a_hat, wk.read_off_generator(a_hat)


def execute(cls, inputs):
    if cls == "quantize":
        X = wk.weyl_quantize(inputs[0])
        return X, wk.weyl_symbol(X)
    if cls == "normal":
        return wk.nc_normalize(inputs[0])
    if cls == "star":
        return wk.star_symbolic(*inputs)
    if cls == "bracket":
        return wk.moyal_symbolic(*inputs)
    if cls == "lift":
        return _lift(inputs[0])
    if cls == "compose":
        A, B = inputs
        return wk.xi_lift(A).commutator(wk.xi_lift(B))
    text = wk.format_symbol(inputs[0])
    return text, wk.parse_symbol(text)


def printed(cls, out) -> str:
    """Canonical printed form of an output; its digest is the reference."""
    if cls == "quantize":
        return f"{wk.format_ncpoly(out[0])}|{wk.format_symbol(out[1])}"
    if cls == "normal":
        return wk.format_ncpoly(out)
    if cls in ("star", "bracket"):
        return wk.format_symbol(out)
    if cls == "lift":
        return "|".join([str(out[0]), str(out[1]), str(out[2]), wk.format_symbol(out[3])])
    if cls == "compose":
        return str(out)
    return f"{out[0]}|{wk.format_symbol(out[1])}"


def check(cls, inputs, out, ref):
    if text_digest(printed(cls, out)) != ref:
        return f"{cls}: printed result differs from the reference"
    if cls == "quantize" and out[1] != inputs[0]:
        return "quantize: symbol(quantize(A)) != A"
    if cls == "lift" and out[3] != inputs[0].without_constant():
        return "lift: read-off generator differs from the lifted symbol"
    if cls == "parse" and out[1] != inputs[0]:
        return "parse: parse(format(A)) != A"
    return None


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------


class Plan:
    name = NAME
    in_process = True

    def __init__(self, seed: int, refs=None):
        self.seed = seed
        self.refs = load_refs(NAME) if refs is None else refs
        self.slots = [(cls, j) for cls, count in PASS for j in range(count)]
        self.passes = Passes(seed, NAME, self.slots, VARIANTS)

    def requests(self, p: int) -> list:
        return [self.slots[i] + (variant,) for i, variant in self.passes.make(p)]

    trace_requests = requests

    def warm_up(self):
        return [(cls, 0, 0) for cls, _ in PASS]

    @staticmethod
    def label(req) -> str:
        return req[0]

    def prepare(self, req):
        return make_inputs(*req)

    def measure(self, req, inputs, tracer=None, rid=None):
        return timed(lambda: execute(req[0], inputs), tracer, rid)

    def verify(self, req, inputs, sample):
        out = sample.out
        cls, slot, variant = req
        return check(cls, inputs, out, self.refs[cls][slot][variant]), {}

    def close(self):
        pass


def make_refs() -> dict:
    return {
        cls: [
            [text_digest(printed(cls, execute(cls, make_inputs(cls, j, v)))) for v in range(VARIANTS)]
            for j in range(count)
        ]
        for cls, count in PASS
    }
