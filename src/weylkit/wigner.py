"""Discrete kernel <-> phase-function transform, exactly invertible.

The transform maps an n×n sampled integral kernel K(x_i, x_j) to a
(2n, n) phase function

    A[s, k] = 2 dx Σ_i K[i, s−i] exp(i p_k (s − 2i) dx),

one row per kernel anti-diagonal i + j = s (midpoint q_s = (s−n) dx/2),
with the parity-matched momentum grid p_k = (k − n/2 + σ/2) dp, σ = s mod 2
and dp = π/(n dx).

Row layout.  Row s stores its anti-diagonal by centred offset: slot m holds
K[i, j] with i − j = 2m' + σ, where m' ≡ m (mod n) is taken in [−n/2, n/2)
(slots with no such kernel entry hold 0).  In this layout the phase
factorises as

    exp(i p_k (s − 2i) dx) = c_σ[k] / (2 dx) · exp(−2πi k m/n) · w_σ[m],
    w_σ[m] = (−1)^{m'} exp(−iπσ m'/n),
    c_σ[k] = 2 dx exp(iπσ ((n − σ)/(2n) − k/n)),

so each row is one length-n FFT between two 1-d phase vectors that depend
only on the parity, every phase argument lies within π, and the transform
and its inverse are exact mutual inverses in exact arithmetic and
round-trip at machine precision in floats.  The slot index of each kernel
entry and the vectors w_σ, c_σ are built once per grid (``_plan``, cached
on the ``GridSpec``).

Structural facts used throughout (and enforced by tests):

* row 2n−1 has no kernel anti-diagonal and is identically zero;
* the transform is an isometry:
  <transform(K1), transform(K2)>_phase = dx² Σ conj(K1) K2;
* Hermitian kernels have real phase functions, and kernel transposition
  is momentum reflection (the parity map).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from .grids import GridSpec

__all__ = [
    "weyl_wigner",
    "weyl_wigner_inv",
    "parity",
    "wigner_of_state",
    "write_phase_csv",
    "read_phase_csv",
    "write_kernel_csv",
    "read_kernel_csv",
    "phase_to_json",
    "phase_from_json",
    "kernel_to_json",
    "kernel_from_json",
]


# ----------------------------------------------------------------------
# the transform
# ----------------------------------------------------------------------


class _Plan(NamedTuple):
    """Per-grid tables of the transform in the centred-offset layout.

    ``scatter[i, j]`` is the flat slot s·n + m of kernel entry (i, j) in
    the (2n, n) row layout; ``weight[σ]`` and ``phase[σ]`` are the vectors
    w_σ and c_σ of the module docstring, and ``inv_weight``/``inv_phase``
    the conj(w_σ) and 1/c_σ that undo them in the inverse transform.
    """

    scatter: np.ndarray
    weight: np.ndarray
    phase: np.ndarray
    inv_weight: np.ndarray
    inv_phase: np.ndarray


@functools.lru_cache(maxsize=8)
def _plan(grid: GridSpec) -> _Plan:
    n = grid.n
    # intp, numpy's own index type: an int32 index would be cast afresh on
    # every gather and scatter, which doubles their time
    i = np.arange(n, dtype=np.intp)[:, None]
    j = np.arange(n, dtype=np.intp)[None, :]
    s = i + j
    scatter = s * n + (i - j - s % 2) // 2 % n
    m = np.arange(n)
    centred = (m + n // 2) % n - n // 2  # m' ≡ m (mod n), in [−n/2, n/2)
    sigma = np.arange(2)[:, None]
    weight = (-1.0) ** centred * np.exp(-1j * math.pi * sigma * centred / n)
    phase = 2 * grid.dx * np.exp(
        1j * math.pi * sigma * ((n - sigma) / (2 * n) - m / n)
    )
    tables = _Plan(scatter, weight, phase, weight.conj(), 1 / phase)
    for table in tables:
        table.flags.writeable = False  # shared by every caller on this grid
    return tables


def weyl_wigner(K: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Phase function of a sampled integral kernel (shape (2n, n)).

    ``K[i, j]`` samples the kernel at (x_i, x_j); a matrix acting on
    coefficient vectors corresponds to the kernel ``matrix / dx``.
    """
    K = np.asarray(K)
    if K.shape != grid.kernel_shape:
        raise ValueError(f"kernel must have shape {grid.kernel_shape}")
    n = grid.n
    plan = _plan(grid)
    rows = np.zeros((n, 2, n), dtype=complex)  # axis 1 is the parity σ
    rows.reshape(-1)[plan.scatter] = K
    rows *= plan.weight
    A = np.fft.fft(rows, axis=2)
    A *= plan.phase
    return A.reshape(grid.phase_shape)


def weyl_wigner_inv(A: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Kernel of a phase function; exact inverse of :func:`weyl_wigner`.

    Row 2n−1 carries no kernel data and is ignored.  A real ``A`` is not
    upcast: its complex rows have the bits of those of ``A.astype(complex)``.
    """
    A = np.asarray(A)
    if A.shape != grid.phase_shape:
        raise ValueError(f"phase function must have shape {grid.phase_shape}")
    n = grid.n
    plan = _plan(grid)
    rows = np.fft.ifft(A.reshape(n, 2, n) * plan.inv_phase, axis=2)
    rows *= plan.inv_weight
    return rows.ravel()[plan.scatter]


def parity(A: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Momentum reflection (PA)(q, p) = A(q, −p); exact on both parities.

    Even rows reflect by k → (n − k) mod n (the wrapped entry is exact by
    the n·dp periodicity of even rows); odd rows reverse, since their
    half-offset momenta come in exact ± pairs.  On the kernel side this is
    transposition: parity(weyl_wigner(K)) == weyl_wigner(K.T).
    """
    A = np.asarray(A)
    if A.shape != grid.phase_shape:
        raise ValueError(f"phase function must have shape {grid.phase_shape}")
    n = grid.n
    out = np.empty_like(A)
    out[0::2] = A[0::2][:, (n - np.arange(n)) % n]
    out[1::2] = A[1::2][:, ::-1]
    return out


def wigner_of_state(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Wigner function of a pure state: transform of ψ ⊗ ψ̄ over 2π.

    A real float64 array, bit for bit the real part of that quotient: the
    kernel is Hermitian, so its imaginary part is rounding alone.  For a
    unit-norm state Σ W · (dx/2) dp = 1 up to the Riemann error of the tails.
    """
    psi = np.asarray(psi)
    if psi.shape != (grid.n,):
        raise ValueError("state must be a 1-d array of length n")
    W = weyl_wigner(np.outer(psi, np.conj(psi)), grid)
    W /= 2 * math.pi  # in place: the bits of the out-of-place complex division
    return W.real


# ----------------------------------------------------------------------
# serialization: CSV and JSON
# ----------------------------------------------------------------------
#
# An archive states the axes of its array as ``_axes`` gives them, rows
# first.  CSV: the header "# axes q:<2n>:<dq> p:<n>:<dp>" (a kernel's is
# "x:<n>:<dx> y:<n>:<dx>"), then one "re,im" line per entry in row-major
# order.  JSON: {"grid", "axes", "re", "im"}.  Floats serialize via repr
# and so round-trip bit-exactly; a real array writes an exact 0.0 as im.


def _axes(kind: str, grid: GridSpec) -> dict:
    """Name -> (count, step) of the axes of a "phase" or "kernel" array on ``grid``."""
    if kind == "phase":
        return {"q": (2 * grid.n, grid.dx / 2), "p": (grid.n, grid.dp)}
    return {"x": (grid.n, grid.dx), "y": (grid.n, grid.dx)}


def _check_axes(stated: dict, kind: str, grid: GridSpec) -> tuple:
    """Require the ``stated`` axes to be those of a ``kind`` array on ``grid``: the same
    names in order, equal counts, steps equal to a relative 1e-12.  Returns its shape."""
    expected = _axes(kind, grid)
    if list(stated) != list(expected) or any(
        stated[name][0] != count or not math.isclose(stated[name][1], step, rel_tol=1e-12)
        for name, (count, step) in expected.items()
    ):
        raise ValueError(f"axes {stated} are not those of a {kind} array on {grid}: {expected}")
    return tuple(count for count, _ in expected.values())


def _write_csv(fh, data: np.ndarray, grid: GridSpec, kind: str):
    axes = " ".join(f"{name}:{count}:{step!r}" for name, (count, step) in _axes(kind, grid).items())
    fh.write(f"# axes {axes}\n")
    data = np.asarray(data, dtype=complex if np.iscomplexobj(data) else float)
    # a row at a time: the text of the whole array at once would set the peak memory
    for row in data.reshape(-1, grid.n):
        fh.write("".join(map("{!r},{!r}\n".format, row.real.tolist(), row.imag.tolist())))


def _read_csv(fh, kind: str) -> tuple:
    lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty {kind} CSV: missing axes header")
    parts = lines[0].split()
    if parts[:2] != ["#", "axes"] or len(parts) != 4:
        raise ValueError(f"malformed axes header: {lines[0]!r}")
    fields = (text.split(":") for text in parts[2:])
    stated = {name: (int(count), float(step)) for name, count, step in fields}
    (_, step), (n, _) = stated.values()  # the row step and the column count
    try:
        grid = GridSpec(n, 2 * step if kind == "phase" else step)
        shape = _check_axes(stated, kind, grid)
    except OverflowError as exc:  # a count too large for a float
        raise ValueError(f"malformed axes header: {exc!r}") from exc
    count, rows = shape[0] * shape[1], lines[1:]
    # checked first: the header alone would size the allocation
    if len(rows) != count:
        raise ValueError(f"expected {count} data rows, found {len(rows)}")
    if any(row.count(",") != 1 for row in rows):
        raise ValueError("every data row must be re,im")
    # C-level maps; one split of the joined rows is no faster, at 1.7× the peak memory
    entries = itertools.chain.from_iterable(map(str.split, rows, itertools.repeat(",")))
    values = np.fromiter(map(float, entries), dtype=float, count=2 * count)
    return values.view(complex).reshape(shape), grid


def _to_json(data: np.ndarray, grid: GridSpec, kind: str) -> dict:
    data = np.asarray(data, dtype=complex if np.iscomplexobj(data) else float)
    if np.iscomplexobj(data):
        im = data.imag.tolist()
    else:  # exact zeros: rows that share one list, not a float object per entry
        im = functools.reduce(lambda row, size: [row] * size, reversed(data.shape), 0.0)
    return {
        "grid": {"n": grid.n, "dx": grid.dx},
        "axes": {name: {"count": count, "step": step} for name, (count, step) in _axes(kind, grid).items()},
        "re": data.real.tolist(),
        "im": im,
    }


def _from_json(payload, kind: str) -> tuple:
    if isinstance(payload, str):
        payload = json.loads(payload)
    try:
        grid = GridSpec(payload["grid"]["n"], float(payload["grid"]["dx"]))
        re, im = (np.asarray(payload[part], dtype=float) for part in ("re", "im"))
        # a JSON object's members carry no order: take the grid's axis names first
        axes = {**dict.fromkeys(_axes(kind, grid)), **payload["axes"]}
        stated = {name: (axis["count"], axis["step"]) for name, axis in axes.items()}
        shape = _check_axes(stated, kind, grid)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed array payload: {exc!r}") from exc
    if re.shape != shape or im.shape != shape:
        raise ValueError(f"re and im must each have shape {shape}")
    data = np.empty(shape, dtype=complex)  # 1j * inf would put a NaN in .real
    data.real, data.imag = re, im
    return data, grid


def write_phase_csv(fh, A: np.ndarray, grid: GridSpec):
    _write_csv(fh, A, grid, "phase")


def read_phase_csv(fh):
    """Read a phase-function CSV; returns (array, GridSpec)."""
    return _read_csv(fh, "phase")


def write_kernel_csv(fh, K: np.ndarray, grid: GridSpec):
    _write_csv(fh, K, grid, "kernel")


def read_kernel_csv(fh):
    """Read a kernel CSV; returns (array, GridSpec)."""
    return _read_csv(fh, "kernel")


def phase_to_json(A: np.ndarray, grid: GridSpec) -> dict:
    return _to_json(A, grid, "phase")


def phase_from_json(payload) -> tuple:
    return _from_json(payload, "phase")


def kernel_to_json(K: np.ndarray, grid: GridSpec) -> dict:
    return _to_json(K, grid, "kernel")


def kernel_from_json(payload) -> tuple:
    return _from_json(payload, "kernel")
