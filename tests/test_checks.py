"""Invariant suite runner: determinism, report shape, failure behavior."""

import importlib
import json

import numpy as np
import pytest

from weylkit import (
    EXCLUSIONS,
    GridSpec,
    SUITE_NAMES,
    is_excluded,
    run_all,
    run_suite,
)


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("wigner", "star", "symweyl", "liftgen", "reps")


def test_unknown_suite_and_bad_tolerance_raise():
    with pytest.raises(ValueError):
        run_suite("nosuch")
    with pytest.raises(ValueError):
        run_suite("wigner", tol=0.0)
    with pytest.raises(ValueError):
        run_suite("wigner", tol=-1e-6)
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            run_suite("star", tol=tol)
    # refused before any suite runs, and so by run_all as well
    for seed in (-1, 1.5, True, "0", None):
        for run in (lambda: run_suite("reps", seed=seed), lambda: run_all(seed=seed)):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                run()


def test_numpy_and_large_integer_seeds_are_accepted():
    assert run_suite("liftgen", seed=np.int64(3)) == run_suite("liftgen", seed=3)
    report = run_suite("symweyl", seed=2**70)
    assert report["seed"] == 2**70 and report["passed"]


def test_every_suite_passes_at_defaults():
    for name in SUITE_NAMES:
        report = run_suite(name, seed=0)
        assert report["suite"] == name
        assert report["passed"], [
            inv["name"] for inv in report["invariants"] if not inv["passed"]
        ]
        for inv in report["invariants"]:
            assert set(inv) == {"name", "residual", "tolerance", "passed"}
            assert inv["residual"] <= inv["tolerance"] or inv["tolerance"] == 0.0


def test_reports_are_deterministic_given_a_seed():
    for name in ("wigner", "star", "reps"):
        r1 = run_suite(name, seed=3)
        r2 = run_suite(name, seed=3)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_different_seeds_change_random_residuals():
    r1 = run_suite("wigner", seed=0)
    r2 = run_suite("wigner", seed=1)
    residuals1 = [inv["residual"] for inv in r1["invariants"]]
    residuals2 = [inv["residual"] for inv in r2["invariants"]]
    assert residuals1 != residuals2


def test_run_all_aggregates():
    report = run_all(seed=0)
    assert [s["suite"] for s in report["suites"]] == list(SUITE_NAMES)
    assert report["passed"]
    assert report["seed"] == 0
    assert report["suite"] == "all"


def test_grid_override_is_recorded_and_respected():
    grid = GridSpec(64, 0.25)
    report = run_suite("star", seed=0, grid=grid)
    assert report["grid"] == {"n": 64, "dx": 0.25}
    assert report["passed"]


@pytest.mark.parametrize("dx", [4.0, 8.0, 64.0, 128.0])
def test_parseval_holds_on_wide_grids(dx):
    # the residual is relative to dx²·‖K1‖·‖K2‖, so a wide grid passes;
    # so do the phase round trip and parity, relative to max |W(K1)|
    # the basis extent outgrows so wide a box, and the suite says so
    with pytest.warns(UserWarning, match="turning radius"):
        report = run_suite("wigner", seed=0, grid=GridSpec(64, dx))
    for prefix in ("inner products", "phase round trip", "parity matches"):
        (inv,) = [i for i in report["invariants"] if i["name"].startswith(prefix)]
        assert inv["tolerance"] == 1e-12
        assert inv["passed"], inv


def test_coarse_grids_fail_honestly():
    # a grid whose Gaussian tails exceed the tolerance must report failure
    # rather than pass silently
    report = run_suite("wigner", seed=0, grid=GridSpec(16, 0.5))
    assert not report["passed"]
    assert any(not inv["passed"] for inv in report["invariants"])


def test_loose_tolerance_rescues_a_coarse_grid():
    report = run_suite("wigner", seed=0, grid=GridSpec(32, 0.3125), tol=1e-3)
    numeric = [inv for inv in report["invariants"] if inv["tolerance"] > 0.0]
    assert all(inv["tolerance"] == 1e-3 for inv in numeric)
    assert report["passed"]


def test_exact_suites_report_zero_residuals():
    for name in ("symweyl", "liftgen"):
        report = run_suite(name, seed=0)
        for inv in report["invariants"]:
            assert inv["tolerance"] == 0.0
            assert inv["residual"] == 0.0


def test_reps_suite_lists_examples():
    report = run_suite("reps", seed=0)
    examples = report["examples"]
    labels = [e["example"] for e in examples]
    assert labels.count("heisenberg_weyl") == 2
    assert labels.count("galilei") == 2
    assert labels.count("sp2_case_B") == 3
    assert "sp2_case_A" in labels and "time_reversal" in labels
    casimirs = [e["casimir_value"] for e in examples]
    assert -0.1875 in casimirs  # Case A quadratic Casimir


_HW_RELATIONS = [
    "[alpha1, alpha2] = 0",
    "[q_hat, p_hat] = i*hbar",
    "cocycle chi(g1, g2) = g2.a2*g1.a1/hbar distinguishes crossed shifts",
]
_GALILEI_RELATIONS = [
    "[alpha1, alpha2] = -i*alpha3",
    "[alpha2, alpha3] = 0",
    "[alpha1, alpha3] = 0",
    "[H_hat, K_hat] = -i*hbar*p_hat",
    "[H_hat, p_hat] = 0",
    "[K_hat, p_hat] = i*hbar*m  (central charge hbar*m)",
    "momentum-space ray action matches the grid action on a Gaussian",
]
_SP2_RELATIONS = [
    "[alpha1, alpha2] = -i*alpha3",
    "[alpha2, alpha3] = i*alpha1",
    "[alpha3, alpha1] = i*alpha2",
    "[A_1, A_2] = -i*A_3",
    "[A_2, A_3] = i*A_1",
    "[A_3, A_1] = i*A_2",
    "-A_1^2 - A_2^2 + A_3^2 is a scalar",
]
# (example, relations_checked) of every reps example, in report order:
# hw at hbar = 1, 2; the tower; Galilei at m = 1, 3; sp(2,R) A, then B at
# a = 0, 1, 2; time reversal
REPS_RELATIONS = [
    ("heisenberg_weyl", _HW_RELATIONS),
    ("heisenberg_weyl", _HW_RELATIONS),
    ("heisenberg_tower", [
        "[alpha1, beta_1] = 0",
        "[alpha1, beta_n] = -i*beta_(n-1) for 2 <= n <= N",
        "[beta_j, beta_k] = 0",
        "[A_1, B_n] = -i*B_(n-1) for 2 <= n <= N",
        "[B_j, B_k] = 0",
        "[B_1, A_1] = i  (central extension, hbar = 1)",
    ]),
    ("galilei", _GALILEI_RELATIONS),
    ("galilei", _GALILEI_RELATIONS),
    ("sp2_case_A", _SP2_RELATIONS),
    ("sp2_case_B", _SP2_RELATIONS),
    ("sp2_case_B", _SP2_RELATIONS),
    ("sp2_case_B", _SP2_RELATIONS),
    ("time_reversal", [
        "Pi(g)^2 = identity (exact index permutation)",
        "hermitian kernels: z_inv(parity(z_map(f))) = conj(f)",
        "complex kernels: z_inv(parity(conj(z_map(f)))) = conj(f)",
        "real symmetric kernels are fixed points",
    ]),
]


def test_reps_relations_checked_are_pinned():
    report = run_suite("reps", seed=0)
    got = [(e["example"], e["relations_checked"]) for e in report["examples"]]
    assert got == REPS_RELATIONS


def test_tol_decides_the_galilei_ray_check(monkeypatch):
    import weylkit.groups

    monkeypatch.setattr(weylkit.groups, "_galilei_momentum_residual", lambda m, grid: 5e-6)

    def ray_check(**kwargs):
        report = run_suite("reps", seed=0, **kwargs)
        (found,) = [
            inv for inv in report["invariants"]
            if inv["name"] == "galilei (m=1): all relations hold"
        ]
        return found

    strict = ray_check()
    assert not strict["passed"]
    assert strict["residual"] == 5e-6 and strict["tolerance"] == 1e-6
    assert ray_check(tol=1e-5)["passed"]


def test_tol_overrides_only_the_inexact_reps_rows():
    def tolerances(**kwargs):
        report = run_suite("reps", seed=0, **kwargs)
        return {
            inv["name"].split(":")[0]: inv["tolerance"]
            for inv in report["invariants"] if inv["name"].endswith(": all relations hold")
        }

    exact = [
        "heisenberg_weyl (hbar=1)", "heisenberg_weyl (hbar=2)", "heisenberg_tower (depth 4)",
        "sp2_case_A", "sp2_case_B (a=0)", "sp2_case_B (a=1)", "sp2_case_B (a=2)",
    ]
    inexact = ["galilei (m=1)", "galilei (m=3)", "time_reversal"]
    loose = tolerances(tol=1e-5)
    assert sorted(loose) == sorted(exact + inexact)
    assert all(loose[label] == 0.0 for label in exact)
    assert all(loose[label] == 1e-5 for label in inexact)
    default = tolerances()
    assert all(default[label] == 0.0 for label in exact)
    assert [default[label] for label in inexact] == [1e-6, 1e-6, 1e-12]


def test_exclusion_registry():
    assert len(EXCLUSIONS) == 1
    entry = EXCLUSIONS[0]
    assert entry.name == "sp2-case-a-eigenbasis-reduction"
    assert entry.summary and entry.reason
    assert is_excluded("sp2-case-a-eigenbasis-reduction")
    assert not is_excluded("anything-else")
    # the excluded reduction must not silently appear in the verified examples
    report = run_suite("reps", seed=0)
    for example in report["examples"]:
        assert "eigenbasis" not in example["example"]


# ----------------------------------------------------------------------
# reps failure path: an example that fails to build takes out exactly the
# summary rows that read it
# ----------------------------------------------------------------------


def _reps_with_failing(monkeypatch, capsys, tmp_path, name, fails):
    """The reps rows by name, and ``check reps``'s exit code and stderr, with
    ``weylkit.groups.<name>`` raising ``ArithmeticError`` when ``fails(*args)``."""
    import weylkit.groups
    from weylkit.cli import main

    build = getattr(weylkit.groups, name)

    def failing(*args, **kwargs):
        if fails(*args):
            raise ArithmeticError("injected")
        return build(*args, **kwargs)

    monkeypatch.setattr(weylkit.groups, name, failing)
    rows = {inv["name"]: inv for inv in run_suite("reps", seed=0)["invariants"]}
    code = main(["check", "reps", "--out", str(tmp_path)])
    return rows, code, capsys.readouterr().err


def test_reps_hw_failure_drops_the_central_charge_row(monkeypatch, capsys, tmp_path):
    rows, code, err = _reps_with_failing(monkeypatch, capsys, tmp_path, "hw_factorize",
                                         lambda hbar: True)
    for label in ("heisenberg_weyl (hbar=1)", "heisenberg_weyl (hbar=2)"):
        row = rows[f"{label}: failed to build: injected"]
        assert (row["residual"], row["tolerance"], row["passed"]) == (1.0, 0.0, False)
        assert f"{label}: all relations hold" not in rows
    assert not any(name.startswith("canonical central charge") for name in rows)
    assert rows["Galilei central charge equals hbar*m (m = 1, 3)"]["passed"]
    assert code == 1 and "Traceback" not in err


def test_reps_case_a_failure_fails_the_inequivalence_row(monkeypatch, capsys, tmp_path):
    rows, code, err = _reps_with_failing(monkeypatch, capsys, tmp_path, "sp2_generators",
                                         lambda params: params.case == "A")
    assert not rows["sp2_case_A: failed to build: injected"]["passed"]
    assert "sp(2,R) Case A Casimir = -3/16" not in rows
    assert rows["sp(2,R) Case B Casimir = -(a^2 + 1)/4 for a = 0, 1, 2"]["passed"]
    inequivalent = rows["Case A is inequivalent to Case B (Casimirs differ)"]
    assert (inequivalent["residual"], inequivalent["passed"]) == (1.0, False)
    assert code == 1 and "Traceback" not in err


def test_reps_one_case_b_failure_drops_both_case_b_rows(monkeypatch, capsys, tmp_path):
    rows, code, err = _reps_with_failing(monkeypatch, capsys, tmp_path, "sp2_generators",
                                         lambda params: params.a == 1)
    assert not rows["sp2_case_B (a=1): failed to build: injected"]["passed"]
    assert rows["sp2_case_B (a=0): all relations hold"]["passed"]
    assert rows["sp2_case_B (a=2): all relations hold"]["passed"]
    assert rows["sp(2,R) Case A Casimir = -3/16"]["passed"]
    assert not any("Case B" in name and "sp2_case_B" not in name for name in rows)
    assert code == 1 and "Traceback" not in err


# ----------------------------------------------------------------------
# suite failure path: a broken layer function fails exactly the row that
# reads it, and the CLI reports it without a traceback
# ----------------------------------------------------------------------


def _suite_with_patched(monkeypatch, capsys, tmp_path, suite, module, name, replacement):
    """The unpatched and patched rows of ``suite`` by name, and ``check
    <suite>``'s exit code and stderr, with ``<module>.<name>`` replaced."""
    from weylkit.cli import main

    clean = {inv["name"]: inv for inv in run_suite(suite, seed=0)["invariants"]}
    monkeypatch.setattr(module, name, replacement)
    rows = {inv["name"]: inv for inv in run_suite(suite, seed=0)["invariants"]}
    code = main(["check", suite, "--out", str(tmp_path)])
    return clean, rows, code, capsys.readouterr().err


def _only_row_fails(clean, rows, failing, residual=1.0, tolerance=0.0):
    assert list(rows) == list(clean)
    assert (rows[failing]["residual"], rows[failing]["tolerance"]) == (residual, tolerance)
    assert not rows[failing]["passed"]
    assert {k: v for k, v in rows.items() if k != failing} == {
        k: v for k, v in clean.items() if k != failing
    }


def test_symweyl_broken_parser_fails_only_the_round_trip_row(monkeypatch, capsys, tmp_path):
    from weylkit import PolySymbol

    clean, rows, code, err = _suite_with_patched(
        monkeypatch, capsys, tmp_path, "symweyl", importlib.import_module("weylkit.symbols"),
        "parse_symbol", lambda text: PolySymbol.zero())
    assert len(rows) == 8
    _only_row_fails(clean, rows, "printer/parser round trip is exact")
    assert code == 1 and "Traceback" not in err


def test_liftgen_broken_potential_lift_fails_only_the_potential_row(monkeypatch, capsys,
                                                                    tmp_path):
    from weylkit import DiffOp
    from weylkit.lift import PHASE_VARS

    clean, rows, code, err = _suite_with_patched(
        monkeypatch, capsys, tmp_path, "liftgen", importlib.import_module("weylkit.lift"),
        "potential_generator", lambda V: DiffOp.zero(PHASE_VARS))
    assert len(rows) == 8
    _only_row_fails(
        clean, rows, "potential-lift series terminates and equals the lift on polynomials")
    assert code == 1 and "Traceback" not in err


# ----------------------------------------------------------------------
# grid suites: the rows each one reports
# ----------------------------------------------------------------------

GRID_SUITE_ROWS = {
    "wigner": [
        ("kernel round trip: Winv(W(K)) = K", 1e-12),
        ("phase round trip: W(Winv(A)) = A on the transform image", 1e-12),
        ("inner products preserved: <W(K1), W(K2)> = dx^2 sum conj(K1) K2", 1e-12),
        ("parity matches kernel transposition: P(W(K)) = W(K^T)", 1e-12),
        ("parity is an involution (exact index permutation)", 0.0),
        ("identity kernel maps to the star identity symbol", 1e-12),
        ("ground state: W = (1/pi) exp(-q^2 - p^2)", 1e-8),
        ("first excited state: W(0, 0) = -1/pi", 1e-6),
        ("transition symbols orthonormal: <Phi_rs, Phi_uv> = delta_ru delta_sv", 1e-8),
    ],
    "star": [
        ("associativity: (A*B)*C = A*(B*C)  (scaled)", 1e-12),
        ("identity element: 1*A = A = A*1  (scaled)", 1e-12),
        ("adjoint symbol is the complex conjugate  (scaled)", 1e-12),
        ("bracket of real symbols is real and antisymmetric  (scaled)", 1e-12),
        ("ground state is a star projector: W*W = W/2pi, integrals 1", 1e-8),
        ("unitary kernels give star-unitary symbols", 1e-10),
        ("twisted-integral quadrature agrees with the kernel route", 1e-6),
    ],
}


@pytest.mark.parametrize("suite", sorted(GRID_SUITE_ROWS))
def test_grid_suite_rows_are_pinned(suite):
    report = run_suite(suite, seed=0)
    got = [(inv["name"], inv["tolerance"]) for inv in report["invariants"]]
    assert got == GRID_SUITE_ROWS[suite]


@pytest.mark.parametrize("suite, failing, residual", [
    ("wigner", "identity kernel maps to the star identity symbol", 2.0),
    ("star", "identity element: 1*A = A = A*1  (scaled)", 1.0),
])
def test_grid_suite_doubled_identity_fails_only_the_identity_row(monkeypatch, capsys, tmp_path,
                                                                 suite, failing, residual):
    # ``weylkit.star`` is the function; patch the module it comes from
    module = importlib.import_module("weylkit.star")
    identity_phase = module.identity_phase
    clean, rows, code, err = _suite_with_patched(
        monkeypatch, capsys, tmp_path, suite, module, "identity_phase",
        lambda grid: 2 * identity_phase(grid))
    assert len(rows) == len(GRID_SUITE_ROWS[suite])
    _only_row_fails(clean, rows, failing, pytest.approx(residual, rel=1e-12), 1e-12)
    assert code == 1 and "Traceback" not in err
