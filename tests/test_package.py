"""The package namespace: the modules' own ``__all__`` lists, exported once
and loaded on first use, each CLI request loading only the layer it uses,
no module importing a name it never uses, and the BLAS default the package
sets before numpy loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit

# every package-level name of the hand-written export list that the
# modules' lists replaced, by owning module; the keys are in import order
_EARLIER_EXPORTS = {
    "rational": "CRat ZERO ONE I",
    "symbols": "PolySymbol NCPoly nc_normalize weyl_symbol weyl_quantize star_symbolic "
    "moyal_symbolic poisson_bracket parse_symbol format_symbol format_ncpoly",
    "diffops": "DiffOp",
    "lift": "xi_lift z_conjugate SplitResult split_test read_off_generator table1_check "
    "potential_generator",
    "grids": "GridSpec hermite_basis inner_h inner_k",
    "wigner": "weyl_wigner weyl_wigner_inv parity wigner_of_state",
    "star": "star star_twisted_oracle moyal_bracket identity_phase star_adjoint "
    "purity_residual star_unitary_residual",
    "factorize": "AlphaKernel RFunction GaussianAlphaSpec alpha_kernel_from_A kernel_to_R "
    "autv_residual recover_A",
    "groups": "HWElement GalileiElement Sp2Params FactorizationResult "
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


def test_numpy_floor_is_at_least_2_0():
    # the transforms run their FFTs in place through ``out=``, new in numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    (floor,) = [dep.split(">=")[1] for dep in dependencies if dep.startswith("numpy")]
    assert int(floor.split(".")[0]) >= 2


def _fresh(code, preset=None):
    """What ``code`` prints in a fresh interpreter; ``preset`` is its
    OPENBLAS_THREAD_TIMEOUT, unset if None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(weylkit.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _timeout_after(statement, preset=None):
    """OPENBLAS_THREAD_TIMEOUT in a fresh interpreter after ``statement``."""
    return _fresh(
        f"import os; {statement}; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))", preset
    )


def test_import_sets_the_openblas_thread_timeout_before_numpy_loads():
    assert _timeout_after("import weylkit") == "4"


def test_a_preset_openblas_thread_timeout_is_kept():
    assert _timeout_after("import weylkit", preset="7") == "7"


def test_numpy_loaded_first_leaves_the_environment_alone():
    assert _timeout_after("import numpy, weylkit") == "None"


# the weylkit modules a fresh process holds after ``main(argv)``: ``cli`` and
# the ``checks`` and ``grids`` it imports at its top (numpy alone beyond
# them), then the grid layer, the exact layer or both, as the request uses them
_GRID = "checks cli grids star wigner"
_EXACT = "checks cli grids rational symbols"
_LOADED_BY = {
    "wigner hermite:1": _GRID,
    "star-demo": _GRID,
    "check wigner": _GRID,
    "check star": _GRID,
    "check symweyl": _EXACT,
    "check liftgen": _EXACT + " diffops lift",
    "check reps": _EXACT + " diffops groups lift wigner",
    "reps": _EXACT + " diffops groups lift wigner",
    "check all": _EXACT + " diffops groups lift star wigner",
    "factorize --tau 1 --sigma 1 --epsilon 1": "checks cli grids factorize",
    "factorize --tau 1 --sigma 1 --epsilon 1 --grid-n 16": "checks cli grids factorize",
    "wigner hermite:99": "checks cli grids",  # a usage error, found before any work
    "check nosuch": "checks cli grids",  # refused by the parser
}


@pytest.mark.parametrize("argv", _LOADED_BY)
def test_each_request_loads_only_the_layer_it_uses(argv, tmp_path):
    printed = _fresh(
        "import contextlib, io, sys\n"
        "from weylkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    main({argv.split()!r} + ['--out', {str(tmp_path)!r}])\n"
        "print(' '.join(sorted(m[8:] for m in sys.modules if m.startswith('weylkit.'))))"
    )
    assert printed.split() == sorted(_LOADED_BY[argv].split())


def test_an_exact_name_loads_no_numpy():
    printed = _fresh(
        "import sys, weylkit\n"
        "before = 'PolySymbol' in vars(weylkit)\n"
        "cls = weylkit.PolySymbol\n"
        "from weylkit.symbols import PolySymbol\n"
        "print(before, vars(weylkit)['PolySymbol'] is cls is PolySymbol, 'numpy' in sys.modules)"
    )
    # not there before its first use, then kept in the package namespace
    assert printed == "False True False"


_EXACT_LAYER = ("rational", "symbols", "diffops", "lift")


def test_the_exact_layer_imports_no_numpy():
    # no floats in the symbolic layer: numpy neither loads with it nor is
    # imported inside any of its functions
    printed = _fresh(
        f"import sys, {', '.join('weylkit.' + name for name in _EXACT_LAYER)}\n"
        "print('numpy' in sys.modules)"
    )
    assert printed == "False"
    for name in _EXACT_LAYER:
        tree = ast.parse(Path(_module(name).__file__).read_text(encoding="utf-8"))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        assert "numpy" not in {module.split(".")[0] for module in modules}, name


# what runs before ``weylkit.star`` is first read
_BEFORE_STAR = {
    "nothing": "pass",
    "import": "import weylkit.star",
    "star-demo": "import weylkit.cli; weylkit.cli.main(['star-demo', '--out', {out!r}])",
}


@pytest.mark.parametrize("before", _BEFORE_STAR)
def test_star_is_the_function_whichever_import_comes_first(before, tmp_path):
    printed = _fresh(
        "import contextlib, io, sys, weylkit\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {_BEFORE_STAR[before].format(out=str(tmp_path))}\n"
        "print(weylkit.star is sys.modules['weylkit.star'].star)"
    )
    assert printed == "True"


def test_a_submodule_resolves_on_first_access():
    printed = _fresh(
        "import sys, types, weylkit\n"
        "before = 'weylkit.wigner' in sys.modules\n"
        "print(before, isinstance(weylkit.wigner, types.ModuleType), "
        "weylkit.wigner.write_phase_csv.__module__, 'weylkit.symbols' in sys.modules)"
    )
    assert printed == "False True weylkit.wigner False"


def test_an_unknown_name_raises_attribute_error():
    printed = _fresh(
        "import weylkit\n"
        "try:\n    weylkit.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)"
    )
    assert printed == "module 'weylkit' has no attribute 'no_such_name'"


def test_a_private_probe_loads_nothing():
    # such probes (``hasattr(obj, "__wrapped__")`` in inspect and doctest) name
    # nothing that a module exports; a private module still resolves
    printed = _fresh(
        "import sys, weylkit\n"
        "probes = [hasattr(weylkit, name) for name in ('__wrapped__', '_nope')]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('weylkit.', 'numpy')))\n"
        "print(probes, loaded, weylkit._exclusions.__name__)"
    )
    assert printed == "[False, False] [] weylkit._exclusions"


_MODULE_FILES = sorted(
    path for path in Path(weylkit.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads; its ``__all__`` counts as a use."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder_sees_plain_dotted_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom math import comb, factorial as fact, pi\n"
        "__all__ = ['pi']\n"
        "def f():\n    return fact(3) + len(sys.argv)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (4, "comb")]


@pytest.mark.parametrize("path", _MODULE_FILES, ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
