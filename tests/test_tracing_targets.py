"""The benchmark's per-layer trace wraps package attributes by name.

``perfbench/tracing.py`` rebinds each function it lists; a rename or a
deletion in the package would break ``perfbench/run.py --trace 1`` without
failing anything else, so every name it lists must resolve, and the
benchmark's own self-test, which rebinds and restores every binding that
``import weylkit.cli`` and the target modules make, must pass.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(mod_name, attr):
    module = importlib.import_module(f"weylkit.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in getattr(module, cls_name).__dict__
    return callable(getattr(module, attr, None))


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    names = [(mod, attr) for mod, attr, *_ in tracing.TARGETS + tracing.TALLIES]
    assert names
    assert [f"{m}.{a}" for m, a in names if not _resolves(m, a)] == []


def test_crat_init_is_wrappable():
    from weylkit.rational import CRat

    assert "__init__" in CRat.__dict__


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_both_quadrature_routes_tally_their_integrals():
    # the tally wraps the one entry that computes sine integrals, so the
    # separable route counts the same 1875 integrals as the mesh route
    from weylkit import factorize
    from weylkit.factorize import GaussianAlphaSpec, RFunction

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer)
    R = GaussianAlphaSpec(1.1, 1 / 1.1, -1).r_function()
    points = [(0.0, 0.0), (1.0, -0.5), (0.25, 2.0)]
    try:
        tracer.request = 0
        factorize.autv_residual(R)
        factorize.autv_residual(RFunction(R.fn, R.u_extent, R.v_extent))
        factorize.recover_A(R, points, override=True)
    finally:
        installation.restore()
    integrals = [(name, (sizes or {}).get("integrals")) for name, *_, sizes in tracer.spans]
    assert integrals == [
        ("factorize.autv_residual", 1875),
        ("factorize.autv_residual", 1875),
        ("factorize.recover_A", len(points) + 1),
    ]
