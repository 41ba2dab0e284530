"""Group representations on phase space and their Hilbert factorizations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from weylkit import (
    CRat,
    DiffOp,
    GalileiElement,
    GridSpec,
    HWElement,
    I,
    NCPoly,
    PolySymbol,
    Sp2Params,
    galilei_action,
    galilei_factorize,
    galilei_generators,
    gen_heisenberg_tower,
    hermite_basis,
    hw_action,
    hw_cocycle,
    hw_factorize,
    hw_generators,
    parity,
    parse_symbol,
    sp2_generators,
    sp2_symbols,
    time_reversal_check,
    tower_factorization,
    weyl_quantize,
    weyl_wigner,
    weyl_wigner_inv,
    wigner_of_state,
    xi_lift,
)
from weylkit.checks import _random_symbol
from weylkit.groups import _scaled_factor, _verified
from weylkit.lift import LINE_VARS, PHASE_VARS, _exact_positive


# ----------------------------------------------------------------------
# coordinate realisation: the oracle for the two-point split
# ----------------------------------------------------------------------


def position_representation(op: NCPoly, hbar=1) -> DiffOp:
    """Coordinate realisation of an operator polynomial: q̂ -> x, p̂ -> −iħ∂x.

    Applied to the normal-ordered form, q̂^a p̂^b -> (−iħ)^b x^a ∂x^b.
    """
    p_coeff = -I * CRat(_exact_positive(hbar, "hbar"))
    return DiffOp(
        LINE_VARS, {((a,), (b,)): c * p_coeff ** b for (a, b), c in op.terms.items()}
    )


def test_position_representation_word_order_and_hbar():
    x_op = DiffOp.mult(LINE_VARS, "x")
    dx = DiffOp.deriv(LINE_VARS, "x")
    qp = NCPoly.from_word("qp")
    pq = NCPoly.from_word("pq")
    assert position_representation(qp) == x_op * dx * (-I)
    assert position_representation(pq) == x_op * dx * (-I) + DiffOp.constant(
        LINE_VARS, -I
    )
    assert position_representation(NCPoly.p(), hbar=2) == dx * CRat(0, -2)
    with pytest.raises(ValueError):
        position_representation(NCPoly.q(), hbar=0.5)


def test_split_reads_off_the_weyl_quantization_up_to_a_real_constant():
    # the split fixes every real gauge constant to zero, so it agrees with
    # quantisation up to one: q²p² quantises to −x²∂x² − 2x∂x − 1/2
    rng = np.random.default_rng(2024)
    shifted = 0
    for _ in range(300):
        A = _random_symbol(rng, 4, real=True).without_constant()
        gap = _scaled_factor(xi_lift(A), 1) - position_representation(weyl_quantize(A))
        constant = gap.constant_part()
        assert gap == DiffOp.constant(LINE_VARS, constant), str(A)
        assert constant.is_real(), str(A)
        shifted += not constant.is_zero()
    assert shifted > 0


# ----------------------------------------------------------------------
# translation group
# ----------------------------------------------------------------------


def test_hw_element_group_laws():
    g = HWElement(1.0, -2.0)
    h = HWElement(0.5, 3.0)
    assert g.compose(h) == HWElement(1.5, 1.0)
    assert g.compose(g.inverse()) == HWElement(0.0, 0.0)
    with pytest.raises(ValueError):
        g.compose(HWElement(0.0, 0.0, hbar=2.0))
    with pytest.raises(ValueError):
        HWElement(0.0, 0.0, hbar=-1.0)


def test_hw_generators_commute():
    a1, a2 = hw_generators()
    assert a1.commutator(a2).is_zero()


def test_hw_generators_are_the_closed_forms():
    # (α₁, α₂) = (−i∂q, i∂p), written out
    assert hw_generators() == (
        DiffOp.deriv(PHASE_VARS, "q", coeff=-I),
        DiffOp.deriv(PHASE_VARS, "p", coeff=I),
    )


@pytest.mark.parametrize(
    "params",
    [
        dict(a1=0.0, a2=0.0, hbar=math.nan),
        dict(a1=0.0, a2=0.0, hbar=math.inf),
        dict(a1=0.0, a2=0.0, hbar=0.0),
        dict(a1=math.inf, a2=0.0),
        dict(a1=0.0, a2=-math.inf),
        dict(a1=math.nan, a2=0.0),
    ],
    ids=["hbar-nan", "hbar-inf", "hbar-zero", "a1-inf", "a2-minus-inf", "a1-nan"],
)
def test_hw_element_rejects_non_finite_parameters(params):
    with pytest.raises(ValueError):
        HWElement(**params)


def test_hw_element_accepts_exact_fractions():
    g = HWElement(Fraction(1), Fraction(-3, 2), Fraction(1, 2))
    assert g.compose(g.inverse()) == HWElement(0, 0, Fraction(1, 2))


def test_hw_action_is_an_exact_lattice_translation():
    grid = GridSpec(64, 0.25)
    e0 = hermite_basis(grid, 1)[0]
    W = wigner_of_state(e0, grid)
    g = HWElement(4 * grid.dx, 2 * grid.dp)
    moved = hw_action(g, W, grid)
    # (Π(g)W)(q, p) = W(q + a1, p − a2): a Gaussian recentred at (−a1, a2)
    q, p = grid.q_matrix(), grid.p_matrix()
    expected = np.exp(-((q + g.a1) ** 2) - (p - g.a2) ** 2) / math.pi
    expected[-1] = 0.0
    assert np.max(np.abs(moved - expected)) < 1e-8
    # pure translations compose exactly
    h = HWElement(-2 * grid.dx, 3 * grid.dp)
    assert np.array_equal(
        hw_action(h, hw_action(g, W, grid), grid),
        hw_action(g.compose(h), W, grid),
    )


def test_hw_action_rejects_off_lattice_shifts():
    grid = GridSpec(16, 0.5)
    F = np.zeros(grid.phase_shape)
    with pytest.raises(ValueError, match="a1"):
        hw_action(HWElement(0.3, 0.0), F, grid)
    with pytest.raises(ValueError, match="a2"):
        hw_action(HWElement(0.5, 0.1), F, grid)
    with pytest.raises(ValueError):
        hw_action(HWElement(0.0, 0.0), F[:4], grid)


def test_hw_cocycle_detects_crossed_shifts():
    g = HWElement(1.0, 0.0)
    h = HWElement(0.0, 1.0)
    assert hw_cocycle(g, h) != hw_cocycle(h, g)
    assert hw_cocycle(g, h) - hw_cocycle(h, g) == pytest.approx(1.0)
    # χ(g1, g2) = g2.a2 · g1.a1 / ħ
    scaled = hw_cocycle(HWElement(1.0, 0.0, 2.0), HWElement(0.0, 1.0, 2.0))
    assert scaled == pytest.approx(0.5)
    assert hw_cocycle(HWElement(0.0, 1.0, 2.0), HWElement(1.0, 0.0, 2.0)) == (
        pytest.approx(0.0)
    )
    with pytest.raises(ValueError):
        hw_cocycle(g, HWElement(0.0, 0.0, hbar=2.0))


def test_hw_factorization_is_exact():
    for hbar in (1, 2, Fraction(1, 2)):
        result = hw_factorize(hbar)
        assert result.max_residual == 0.0
        p_hat, q_hat = result.hilbert_generators
        assert q_hat == DiffOp.mult(LINE_VARS, "x")
        assert p_hat == DiffOp.deriv(LINE_VARS, "x", coeff=-I * CRat(Fraction(hbar)))
        assert q_hat.commutator(p_hat) == DiffOp.constant(
            LINE_VARS, I * CRat(Fraction(hbar))
        )
        assert result.casimir_value == float(hbar)
    report = hw_factorize().report()
    assert report["example"] == "heisenberg_weyl"
    assert report["casimir_value"] == 1.0
    assert len(report["factorized_generators_pretty"]) == 2
    with pytest.raises(ValueError):
        hw_factorize(hbar=0)
    with pytest.raises(ValueError):
        hw_factorize(hbar=True)


# ----------------------------------------------------------------------
# generalised tower
# ----------------------------------------------------------------------


def _tower_closed_form(n: int) -> DiffOp:
    """β_n = (2/n!) Σ_m (i/2)^{n−m} C(n, m) q^m ∂p^{n−m}, over n − m odd."""
    half_i = I * CRat(Fraction(1, 2))
    return DiffOp(
        PHASE_VARS,
        {
            ((m, 0), (0, n - m)): CRat(Fraction(2, math.factorial(n)))
            * half_i ** (n - m)
            * math.comb(n, m)
            for m in range(n - 1, -1, -2)
        },
    )


def test_tower_generators_are_lifted_monomials():
    pairs = gen_heisenberg_tower(8)
    assert len(pairs) == 8
    for n, (beta, b_hat) in enumerate(pairs, start=1):
        assert beta == _tower_closed_form(n)
        weight = Fraction(1, math.factorial(n))
        assert b_hat == DiffOp.mult(LINE_VARS, "x", power=n, coeff=weight)


def test_tower_depth_validation():
    for bad in (0, 9, 2.5, True):
        with pytest.raises(ValueError):
            gen_heisenberg_tower(bad)


def test_shallow_tower_lists_only_relations_with_an_instance():
    # at depth 1 there is no lowering relation and no pair to commute
    assert tower_factorization(1).relations_checked == (
        "[alpha1, beta_1] = 0",
        "[B_1, A_1] = i  (central extension, hbar = 1)",
    )
    assert len(tower_factorization(2).relations_checked) == 6


def test_tower_factorization_report():
    result = tower_factorization(4)
    assert result.max_residual == 0.0
    assert result.casimir_value == 1.0
    assert result.generator_names == ("A_1", "B_1", "B_2", "B_3", "B_4")
    assert any("central extension" in r for r in result.relations_checked)


def test_verified_names_the_first_failing_relation():
    x = DiffOp.mult(LINE_VARS, "x")
    zero = DiffOp.zero(LINE_VARS)
    assert _verified(("a", zero), ("b", [zero, zero]), ("c", Fraction(0))) == ("a", "b", "c")
    assert _verified(("a", zero), ("empty", []), ("c", zero)) == ("a", "c")
    with pytest.raises(ArithmeticError, match=r"relation failed: b; residual x"):
        _verified(("a", zero), ("b", [zero, x]), ("c", x))
    with pytest.raises(ArithmeticError, match=r"relation failed: c; residual 1/2"):
        _verified(("a", zero), ("c", Fraction(1, 2)))


# ----------------------------------------------------------------------
# Galilei group
# ----------------------------------------------------------------------


def test_galilei_element_group_laws():
    g = GalileiElement(1.0, 0.5, -2.0)
    h = GalileiElement(-0.5, 1.5, 0.25)
    k = GalileiElement(2.0, -1.0, 1.0)
    assert g.compose(g.inverse()) == GalileiElement(0.0, 0.0, 0.0)
    left = g.compose(h).compose(k)
    right = g.compose(h.compose(k))
    assert left == pytest.approx(right, abs=0) or left == right
    # the third slot twists: a3 + b3 − b2·a1
    assert g.compose(h).a3 == pytest.approx(-2.0 + 0.25 - 1.5 * 1.0)
    with pytest.raises(ValueError):
        GalileiElement(0.0, 0.0, 0.0, m=-1.0)
    with pytest.raises(ValueError):
        g.compose(GalileiElement(0.0, 0.0, 0.0, m=2.0))


@pytest.mark.parametrize("m", [1, 3, Fraction(5, 2)])
def test_galilei_generators_are_the_closed_forms(m):
    # (α₁, α₂, α₃) = (−i(p/m)∂q, im∂p, −i∂q), written out
    m = Fraction(m)
    assert galilei_generators(m) == (
        DiffOp(PHASE_VARS, {((0, 1), (1, 0)): -I * CRat(1 / m)}),
        DiffOp.deriv(PHASE_VARS, "p", coeff=I * CRat(m)),
        DiffOp.deriv(PHASE_VARS, "q", coeff=-I),
    )


@pytest.mark.parametrize(
    "params",
    [
        dict(m=math.nan),
        dict(m=math.inf),
        dict(m=0.0),
        dict(hbar=math.nan),
        dict(hbar=math.inf),
        dict(a1=math.inf),
        dict(a2=math.nan),
        dict(a3=-math.inf),
    ],
    ids=["m-nan", "m-inf", "m-zero", "hbar-nan", "hbar-inf", "a1-inf", "a2-nan", "a3-minus-inf"],
)
def test_galilei_element_rejects_non_finite_parameters(params):
    args = dict(a1=0.0, a2=0.0, a3=0.0) | params
    with pytest.raises(ValueError):
        GalileiElement(**args)


def test_galilei_generator_relations():
    for m in (1, 3):
        a1, a2, a3 = galilei_generators(m)
        assert a1.commutator(a2) == a3 * (-I)
        assert a2.commutator(a3).is_zero()
        assert a1.commutator(a3).is_zero()


def test_galilei_lattice_translations_are_kernel_shifts():
    # with no time step and lattice-aligned shifts the action is still the
    # sandwich K -> U K U†, with U = S·D: S the cyclic shift by a3/dx and
    # D = diag(e^{−i·m·a2·x}) the momentum kick
    grid = GridSpec(32, 0.25)
    rng = np.random.default_rng(51)
    K = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    g = GalileiElement(0.0, 2 * grid.dp, 3 * grid.dx, m=1.0)
    U = np.roll(np.eye(32), 3, axis=0) @ np.diag(np.exp(-1j * g.m * g.a2 * grid.x))
    expected = weyl_wigner(U @ K @ U.conj().T, grid)
    moved = galilei_action(g, weyl_wigner(K, grid), grid)
    assert np.max(np.abs(moved - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_galilei_shear_matches_free_packet_evolution():
    # closed-form free evolution of a Gaussian packet (m = ħ = 1):
    # ψ_t(x) = (w/π)^{1/4} s^{−1/2} exp(−w(x−q0−r0 t)²/(2s)) e^{i(r0 x − r0² t/2)},
    # s = 1 + i w t; the sheared Wigner function must match W(ψ_t)
    grid = GridSpec(128, 0.125)
    w, q0, r0, t = 1.0, 0.25, 0.5, 0.4
    x = grid.x
    psi0 = (w / math.pi) ** 0.25 * np.exp(-w * (x - q0) ** 2 / 2) * np.exp(
        1j * r0 * x
    )
    s = 1 + 1j * w * t
    psi_t = (
        (w / math.pi) ** 0.25
        / np.sqrt(s)
        * np.exp(-w * (x - q0 - r0 * t) ** 2 / (2 * s))
        * np.exp(1j * (r0 * x - r0**2 * t / 2))
    )
    sheared = galilei_action(
        GalileiElement(t, 0.0, 0.0), wigner_of_state(psi0, grid), grid
    )
    assert np.max(np.abs(sheared - wigner_of_state(psi_t, grid))) < 1e-9


def _realigned_ratios(T, grid):
    """σ₂/σ₁ of the kernel map of a phase-space map T, realigned two ways.

    M[i, j, k, l] is entry (i, j) of Winv(T(W(E_kl))) for the basis
    kernels E_kl.  A Weyl–Wigner product K -> U K U† has
    M = U[i, k]·conj(U[j, l]), of rank one with rows (i, k) and columns
    (j, l); an antiunitary K -> U Kᵀ U† has M = U[i, l]·conj(U[j, k]), of
    rank one with rows (i, l) and columns (j, k) (Van Loan & Pitsianis).
    Returns the (unitary, antiunitary) ratios.
    """
    n = grid.n
    M = np.empty((n, n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[k, l] = 1.0
            M[:, :, k, l] = weyl_wigner_inv(T(weyl_wigner(E, grid)), grid)

    def ratio(R):
        s = np.linalg.svd(R.reshape(n * n, n * n), compute_uv=False)
        return s[1] / s[0]

    return ratio(M.transpose(0, 2, 1, 3)), ratio(M.transpose(0, 3, 1, 2))


_REALIGN_GRID = GridSpec(16, 0.4)


@pytest.mark.parametrize(
    "a1, a2_steps, a3_steps",
    [(0.4, 0, 0), (0.0, 0, 2), (0.0, 1, 0), (0.0, 2, 3)],
    ids=["shear", "shift", "boost", "shift-and-boost"],
)
def test_galilei_action_is_a_weyl_wigner_product(a1, a2_steps, a3_steps):
    grid = _REALIGN_GRID
    g = GalileiElement(a1, a2_steps * grid.dp, a3_steps * grid.dx)
    unitary, _ = _realigned_ratios(lambda F: galilei_action(g, F, grid), grid)
    assert unitary <= 1e-12


def test_galilei_action_is_continuous_at_zero_time_step():
    grid = GridSpec(32, 0.25)
    rng = np.random.default_rng(52)
    K = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    F = weyl_wigner(K, grid)
    at_zero = galilei_action(GalileiElement(0.0, 2 * grid.dp, 3 * grid.dx), F, grid)
    near_zero = galilei_action(
        GalileiElement(1e-12, 2 * grid.dp, 3 * grid.dx), F, grid
    )
    assert np.max(np.abs(at_zero - near_zero)) <= 1e-8


@pytest.mark.parametrize("a1_steps, a2_steps", [(2, 0), (0, 1)], ids=["q", "p"])
def test_hw_action_is_not_a_weyl_wigner_product(a1_steps, a2_steps):
    # the torus roll is a real unitary representation on the finite grid
    # that factorises under neither realignment
    grid = _REALIGN_GRID
    g = HWElement(a1_steps * grid.dx, a2_steps * grid.dp)
    ratios = _realigned_ratios(lambda F: hw_action(g, F, grid), grid)
    assert min(ratios) > 0.05


def test_parity_factorises_antiunitarily():
    # momentum reversal is K -> Kᵀ: the conjugation of criterion 11,
    # found from the phase-space map alone
    grid = _REALIGN_GRID
    unitary, antiunitary = _realigned_ratios(lambda F: parity(F, grid), grid)
    assert antiunitary <= 1e-12
    assert unitary > 0.05


def test_galilei_action_validation():
    grid = GridSpec(16, 0.5)
    with pytest.raises(ValueError):
        galilei_action(GalileiElement(0.0, 0.0, 0.0), np.zeros((4, 4)), grid)


def test_galilei_factorization_exact_relations():
    for m in (1, 3):
        result = galilei_factorize(m=m)
        h_hat, k_hat, p_hat = result.hilbert_generators
        assert k_hat == DiffOp.mult(LINE_VARS, "x", coeff=m)
        assert p_hat == DiffOp.deriv(LINE_VARS, "x", coeff=-I)
        assert h_hat == DiffOp.deriv(
            LINE_VARS, "x", power=2, coeff=CRat(Fraction(-1, 2 * m))
        )
        assert k_hat.commutator(p_hat) == DiffOp.constant(LINE_VARS, I * CRat(m))
        assert result.casimir_value == float(m)
        assert result.max_residual < 1e-6


def test_galilei_factorization_hbar_scaling():
    result = galilei_factorize(m=1, hbar=2)
    h_hat, k_hat, p_hat = result.hilbert_generators
    assert p_hat == DiffOp.deriv(LINE_VARS, "x", coeff=CRat(0, -2))
    assert h_hat == DiffOp.deriv(LINE_VARS, "x", power=2, coeff=CRat(-2))
    assert result.casimir_value == 2.0
    # the grid ray check only runs in the dimensionless setting
    assert result.max_residual == 0.0
    with pytest.raises(ValueError):
        galilei_factorize(m=0.5)


# ----------------------------------------------------------------------
# sp(2, R)
# ----------------------------------------------------------------------


def test_sp2_params_validation():
    with pytest.raises(ValueError):
        Sp2Params("C")
    with pytest.raises(ValueError):
        Sp2Params("B", 0.5)
    with pytest.raises(ValueError):
        Sp2Params("B")
    with pytest.raises(ValueError):
        Sp2Params("A", 1)
    with pytest.raises(ValueError):
        Sp2Params("B", True)
    assert Sp2Params("B", Fraction(3, 2)).a == Fraction(3, 2)


def test_sp2_case_a_symbols_and_casimir():
    q, p = PolySymbol.q(), PolySymbol.p()
    syms = sp2_symbols(Sp2Params("A"))
    assert syms[0] == PolySymbol.monomial(1, 1, Fraction(1, 2))
    assert syms[1] == (q * q - p * p) * Fraction(1, 4)
    assert syms[2] == (q * q + p * p) * Fraction(1, 4)
    alphas, result = sp2_generators(Sp2Params("A"))
    assert result.casimir_value == CRat(Fraction(-3, 16))
    assert result.details["closure_shifts"] == ("0", "0", "0")
    # Â₁ = −(i/2)(x ∂x + 1/2)
    expected = DiffOp(
        LINE_VARS,
        {((1,), (1,)): CRat(0, Fraction(-1, 2)), ((0,), (0,)): CRat(0, Fraction(-1, 4))},
    )
    assert result.hilbert_generators[0] == expected


def test_sp2_case_a_lifted_generators():
    alphas, _ = sp2_generators(Sp2Params("A"))
    # α₁ = ξ(qp/2) = (i/2)(p∂p − q∂q)
    expected = DiffOp(
        ("q", "p"),
        {
            ((0, 1), (0, 1)): CRat(0, Fraction(1, 2)),
            ((1, 0), (1, 0)): CRat(0, Fraction(-1, 2)),
        },
    )
    assert alphas[0] == expected
    # closure of the lifted algebra
    assert alphas[0].commutator(alphas[1]) == alphas[2] * (-I)
    assert alphas[1].commutator(alphas[2]) == alphas[0] * I
    assert alphas[2].commutator(alphas[0]) == alphas[1] * I


@pytest.mark.parametrize("a", [0, 1, 2, Fraction(3, 2)])
def test_sp2_case_b_casimir_tracks_the_parameter(a):
    _, result = sp2_generators(Sp2Params("B", a))
    expected = CRat(-(Fraction(a) ** 2 + 1) / 4)
    assert result.casimir_value == expected
    assert result.max_residual == 0.0
    shift = result.details["closure_shifts"]
    assert shift == ("0", str(CRat(-Fraction(a) / 2)), "0")


@pytest.mark.parametrize(
    "params",
    [Sp2Params("A")] + [Sp2Params("B", a) for a in (0, 1, 2, Fraction(1, 3), -5)],
    ids=["A", "B0", "B1", "B2", "B1/3", "B-5"],
)
def test_sp2_split_factors_are_the_shifted_weyl_quantizations(params):
    _, result = sp2_generators(params)
    shifts = result.details["closure_shifts"]
    for sym, k, a_hat in zip(sp2_symbols(params), shifts, result.hilbert_generators):
        assert a_hat == position_representation(weyl_quantize(sym + parse_symbol(k)))


def test_sp2_case_b_lifts_have_third_order_terms():
    alphas, _ = sp2_generators(Sp2Params("B", 1))
    assert max(sum(der) for a in alphas for _, der in a.terms) == 3


def test_sp2_report_shape():
    _, result = sp2_generators(Sp2Params("B", 2))
    report = result.report()
    assert report["example"] == "sp2_case_B"
    assert report["casimir_value"] == -1.25
    assert len(report["factorized_generators_pretty"]) == 3


def test_factorized_generators_print_as_pinned():
    assert hw_factorize().report()["factorized_generators_pretty"] == [
        "p_hat = -i*Dx",
        "q_hat = x",
    ]
    assert galilei_factorize().report()["factorized_generators_pretty"] == [
        "H_hat = -(1/2)*Dx^2",
        "K_hat = x",
        "p_hat = -i*Dx",
    ]
    _, result = sp2_generators(Sp2Params("A"))
    assert result.report()["factorized_generators_pretty"] == [
        "A_1 = -(1/4)i - (1/2)i*x*Dx",
        "A_2 = (1/4)*x^2 + (1/4)*Dx^2",
        "A_3 = (1/4)*x^2 - (1/4)*Dx^2",
    ]


# ----------------------------------------------------------------------
# time reversal
# ----------------------------------------------------------------------


def test_time_reversal_laws_hold_to_machine_precision():
    report = time_reversal_check(count=5, rng=7)
    assert report["max_residual"] < 1e-12
    assert report["casimir_value"] is None
    assert len(report["relations_checked"]) == 4


@pytest.mark.parametrize("count", [0, -1, 2.5, True])
def test_time_reversal_refuses_an_empty_check(count):
    with pytest.raises(ValueError, match="count"):
        time_reversal_check(count=count)


def test_time_reversal_is_deterministic_given_a_seed():
    r1 = time_reversal_check(count=3, rng=11)
    r2 = time_reversal_check(count=3, rng=11)
    assert r1 == r2
