"""Invariant suite runner: determinism, report shape, failure behavior."""

import json

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
