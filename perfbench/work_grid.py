"""``grid`` workload: the numeric layer, in process and warm.

Grids are balanced (dx = sqrt(pi/n)) at n = 64, 256 and 1024, so one
(2n, n) complex phase array is 128 KB, 2 MB or 32 MB: below, near and
above a 4 MiB L2.  At n = 64 a request costs mostly per-call overhead; at
n = 1024 it costs FFT, exp and matmul.  The pass below is weighted so that
no class and no size takes half of its wall time, and so that the median
and the 90th percentile fall inside a block of like requests rather than
on a jump between two classes.  ``evolve`` stops at n = 256: one request
at n = 1024 would take most of a pass, and ``state`` already runs ``star``
at that size.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

import weylkit as wk
import weylkit.cli  # noqa: F401  (canonical_json serialises the JSON archive)

from common import OUT_DIR, Passes, checksum, checksum_error, load_refs, pool_rng, timed

NAME = "grid"
VARIANTS = 16
ORACLE_N = 32
ORACLE_POINTS = 64

# (class, n, requests per pass)
PASS = (
    ("roundtrip", 64, 64),
    ("roundtrip", 256, 30),
    ("roundtrip", 1024, 1),
    ("state", 64, 36),
    ("state", 256, 14),
    ("state", 1024, 1),
    ("evolve", 64, 6),
    ("evolve", 256, 6),
    ("oracle", ORACLE_N, 6),
    ("archive.csv", 64, 3),
    ("archive.json", 64, 5),
    ("archive.json", 256, 1),
)

# tolerances of the matching invariants in weylkit's check suites
PURITY_TOL = 1e-8
UNITARY_TOL = 1e-10
ROUTES_TOL = 1e-6
ROUNDTRIP_TOL = 1e-12


def grid_of(n: int) -> wk.GridSpec:
    return wk.GridSpec(n, math.sqrt(math.pi / n))


# ----------------------------------------------------------------------
# inputs: pure functions of (class, n, variant)
# ----------------------------------------------------------------------


def _kernel(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _packets(rng, grid):
    """Unit-norm superposition of three coherent states near the origin."""
    x = grid.x
    psi = np.zeros(grid.n, dtype=complex)
    for _ in range(3):
        x0, p0 = rng.uniform(-1.0, 1.0, size=2)
        c = complex(*rng.standard_normal(2))
        psi += c * np.exp(-((x - x0) ** 2) / 2 + 1j * p0 * x)
    return psi / (math.sqrt(grid.dx) * np.linalg.norm(psi))


def _low_state(rng, grid):
    """Unit-norm combination of the two lowest oscillator states."""
    x = grid.x
    e0 = math.pi ** -0.25 * np.exp(-(x ** 2) / 2)
    c = rng.standard_normal(4)
    psi = complex(c[0], c[1]) * e0 + complex(c[2], c[3]) * math.sqrt(2.0) * x * e0
    return psi / (math.sqrt(grid.dx) * np.linalg.norm(psi))


def make_inputs(cls: str, n: int, variant: int) -> tuple:
    rng = pool_rng(NAME, cls, n, variant)
    grid = grid_of(n)
    if cls == "roundtrip":
        return (_kernel(rng, n), grid)
    if cls == "state":
        return (_packets(rng, grid), grid)
    if cls == "evolve":
        K = _kernel(rng, n)
        evals, evecs = np.linalg.eigh((K + K.conj().T) / 2)
        U = (evecs * np.exp(1j * evals)) @ evecs.conj().T
        return (wk.weyl_wigner(U / grid.dx, grid), wk.wigner_of_state(_packets(rng, grid), grid), grid)
    if cls == "oracle":
        psi1, psi2 = _low_state(rng, grid), _low_state(rng, grid)
        A = wk.weyl_wigner(np.outer(psi1, psi2.conj()), grid)
        B = wk.weyl_wigner(np.outer(psi2, psi1.conj()), grid)
        rows = rng.integers(n // 2, 3 * n // 2, size=ORACLE_POINTS)
        cols = rng.integers(n // 4, 3 * n // 4, size=ORACLE_POINTS)
        return (A, B, grid, list(zip(rows.tolist(), cols.tolist())))
    if cls.startswith("archive."):
        A = rng.standard_normal(grid.phase_shape) + 1j * rng.standard_normal(grid.phase_shape)
        return (A, grid)
    raise ValueError(cls)


# ----------------------------------------------------------------------
# requests: only these calls are timed
# ----------------------------------------------------------------------


def _roundtrip(K, grid):
    A = wk.weyl_wigner(K, grid)
    return A, wk.weyl_wigner_inv(A, grid)


def _state(psi, grid):
    W = wk.wigner_of_state(psi, grid)
    return W, wk.purity_residual(W, grid)


def _evolve(U, W, grid):
    U_dag = wk.star_adjoint(U, grid)
    evolved = wk.star(wk.star(U, W, grid), U_dag, grid)
    return evolved, wk.star_unitary_residual(U, grid)


def _oracle(A, B, grid, points):
    quad = wk.star_twisted_oracle(A, B, grid, points=points)
    kernel_route = wk.star(A, B, grid)
    rows, cols = zip(*points)
    return quad, kernel_route[list(rows), list(cols)]


def _archive_csv(A, grid, path):
    with open(path, "w") as fh:
        wk.wigner.write_phase_csv(fh, A, grid)
    with open(path) as fh:
        return wk.wigner.read_phase_csv(fh)


def _archive_json(A, grid, path):
    path.write_text(wk.cli.canonical_json(wk.wigner.phase_to_json(A, grid)) + "\n")
    return wk.wigner.phase_from_json(path.read_text())


def execute(cls, inputs, path=None):
    if cls == "roundtrip":
        return _roundtrip(*inputs)
    if cls == "state":
        return _state(*inputs)
    if cls == "evolve":
        return _evolve(*inputs)
    if cls == "oracle":
        return _oracle(*inputs)
    if cls == "archive.csv":
        return _archive_csv(*inputs, path)
    return _archive_json(*inputs, path)


def reference_of(cls, out):
    """The part of an output that is compared with the recorded reference."""
    return checksum(out[0]) if cls in ("roundtrip", "state", "evolve", "oracle") else None


def check(cls, inputs, out, ref):
    if cls.startswith("archive."):
        A, grid = inputs
        A2, grid2 = out
        if grid2 != grid or A2.shape != A.shape or not np.array_equal(A2, A):
            return "archive round trip is not bit-exact"
        return None
    err = checksum_error(out[0], ref, cls)
    if err:
        return err
    if cls == "roundtrip":
        K = inputs[0]
        if np.max(np.abs(out[1] - K)) > ROUNDTRIP_TOL * np.max(np.abs(K)):
            return "kernel round trip exceeds 1e-12"
    elif cls == "state":
        r1, r2 = out[1]
        if not (r1 <= PURITY_TOL and r2 <= PURITY_TOL):
            return f"purity residuals {r1:.3e}, {r2:.3e} exceed {PURITY_TOL}"
    elif cls == "evolve":
        if not out[1] <= UNITARY_TOL:
            return f"unitarity residual {out[1]:.3e} exceeds {UNITARY_TOL}"
    elif cls == "oracle":
        gap = float(np.max(np.abs(out[0] - out[1])))
        if not gap <= ROUTES_TOL:
            return f"oracle and kernel route differ by {gap:.3e}"
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
        self.slots = [(cls, n, j) for cls, n, count in PASS for j in range(count)]
        self.passes = Passes(seed, NAME, self.slots, VARIANTS)
        self.workdir = OUT_DIR / f"{NAME}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def requests(self, p: int) -> list:
        return [self.slots[i][:2] + (variant,) for i, variant in self.passes.make(p)]

    trace_requests = requests

    def warm_up(self):
        """Requests that fill lazily built state: every size, every class."""
        seen = set()
        reqs = []
        for cls, n, _ in PASS:
            if cls == "roundtrip" or cls not in seen:
                reqs.append((cls, n, 0))
            seen.add(cls)
        return reqs

    @staticmethod
    def label(req) -> str:
        return f"{req[0]}.n{req[1]}"

    def prepare(self, req):
        cls, n, variant = req
        return make_inputs(cls, n, variant)

    def measure(self, req, inputs, tracer=None, rid=None):
        cls = req[0]
        path = self.workdir / f"a.{cls.split('.')[-1]}" if cls.startswith("archive.") else None
        return timed(lambda: execute(cls, inputs, path), tracer, rid)

    def verify(self, req, inputs, sample):
        out = sample.out
        cls, n, variant = req
        ref = None if cls.startswith("archive.") else self.refs[f"{cls}/{n}"][variant]
        error = check(cls, inputs, out, ref)
        extra = {}
        if cls.startswith("archive."):
            size = (self.workdir / f"a.{cls.split('.')[-1]}").stat().st_size
            extra = {"wigner.io.bytes_written": size, "wigner.io.bytes_read": size}
        return error, extra

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_refs() -> dict:
    refs = {}
    for cls, n, _ in PASS:
        if cls.startswith("archive.") or f"{cls}/{n}" in refs:
            continue
        refs[f"{cls}/{n}"] = [
            reference_of(cls, execute(cls, make_inputs(cls, n, v))) for v in range(VARIANTS)
        ]
    return refs
