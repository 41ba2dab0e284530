"""The package namespace: the modules' own ``__all__`` lists, exported once."""

import importlib

import weylkit

# every package-level name of the hand-written export list that the
# modules' lists replaced, by owning module; the keys are in import order
_EARLIER_EXPORTS = {
    "rational": "CRat ZERO ONE I",
    "symbols": "PolySymbol NCPoly nc_normalize weyl_symbol weyl_quantize star_symbolic "
    "moyal_symbolic poisson_bracket parse_symbol format_symbol format_ncpoly nc_matrix",
    "diffops": "DiffOp",
    "lift": "xi_lift z_conjugate SplitResult split_test read_off_generator table1_check "
    "potential_generator",
    "grids": "GridSpec hermite_basis inner_h inner_k",
    "wigner": "weyl_wigner weyl_wigner_inv parity wigner_of_state",
    "star": "star star_twisted_oracle moyal_bracket identity_phase star_adjoint "
    "purity_residual star_unitary_residual",
    "factorize": "AlphaKernel RFunction GaussianAlphaSpec alpha_kernel_from_A kernel_to_R "
    "autv_residual recover_A",
    "groups": "HWElement GalileiElement Sp2Params FactorizationResult position_representation "
    "hw_generators hw_action hw_cocycle hw_factorize gen_heisenberg_tower tower_factorization "
    "galilei_generators galilei_action galilei_factorize sp2_symbols sp2_generators "
    "time_reversal_check",
    "_exclusions": "Exclusion EXCLUSIONS is_excluded",
    "checks": "SUITE_NAMES run_suite run_all",
}


def _module(name):
    return importlib.import_module(f"weylkit.{name}")


def test_earlier_exports_resolve_to_the_same_objects():
    for module, names in _EARLIER_EXPORTS.items():
        for name in names.split():
            assert name in weylkit.__all__
            assert getattr(weylkit, name) is getattr(_module(module), name), name


def test_all_is_the_version_then_each_module_list_in_import_order():
    expected = ["__version__"]
    for module in _EARLIER_EXPORTS:
        expected += _module(module).__all__
    assert weylkit.__all__ == expected
    assert len(set(weylkit.__all__)) == len(weylkit.__all__)
    namespace = {}
    exec("from weylkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
    for name in expected:
        assert getattr(weylkit, name) is namespace[name]


def test_star_is_the_function_and_xi_monomial_stays_unexported():
    assert weylkit.star is _module("star").star
    assert "xi_monomial" not in weylkit.__all__
    assert not hasattr(weylkit, "xi_monomial")
