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
round-trip at machine precision in floats.  The vectors w_σ, c_σ are
built once per grid (``_plan``, cached on the ``GridSpec``).

Two paths move kernel entries into slots, with the same arithmetic on the
same values; ``_streams`` picks one from n alone, once per direction.  A
grid whose (2n, n) complex array fits a 4 MiB L2 (n ≤ 362) moves the whole
kernel through a cached n×n table of slots (``_scatter``) as one block.  A
larger grid streams blocks of whole row pairs, each row taking its
anti-diagonal as one strided slice, so that no index table, no full row
array and, for a state, no outer product is built.  Every forward caller
draws its blocks from one generator (``_phase_blocks``), which runs the
weight, FFT and phase passes; the inverse is one loop over blocks.  Every
pass keeps the (pairs, 2, n) × (2, n) broadcast of the full transform:
numpy may pick another complex-multiply loop for another shape, and its
bits can differ.

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

from .grids import _CANONICAL, GridSpec, _json_numbers

__all__ = [
    "weyl_wigner",
    "weyl_wigner_inv",
    "parity",
    "wigner_of_state",
    "write_phase_csv",
    "read_phase_csv",
    "write_phase_json",
    "phase_to_json",
    "phase_from_json",
]


# ----------------------------------------------------------------------
# the transform
# ----------------------------------------------------------------------


class _Plan(NamedTuple):
    """Per-grid phase vectors of the transform in the centred-offset layout.

    ``weight[σ]`` and ``phase[σ]`` are the vectors w_σ and c_σ of the module
    docstring, and ``inv_weight``/``inv_phase`` the conj(w_σ) and 1/c_σ
    that undo them in the inverse transform.
    """

    weight: np.ndarray
    phase: np.ndarray
    inv_weight: np.ndarray
    inv_phase: np.ndarray


@functools.lru_cache(maxsize=8)
def _plan(grid: GridSpec) -> _Plan:
    n = grid.n
    m = np.arange(n)
    centred = (m + n // 2) % n - n // 2  # m' ≡ m (mod n), in [−n/2, n/2)
    sigma = np.arange(2)[:, None]
    weight = (-1.0) ** centred * np.exp(-1j * math.pi * sigma * centred / n)
    phase = 2 * grid.dx * np.exp(
        1j * math.pi * sigma * ((n - sigma) / (2 * n) - m / n)
    )
    tables = _Plan(weight, phase, weight.conj(), 1 / phase)
    for table in tables:
        table.flags.writeable = False  # shared by every caller on this grid
    return tables


_L2_BYTES = 4 << 20
_BLOCK_BYTES = 256 << 10  # a block of rows stays in L2 through its three passes


def _streams(n: int) -> bool:
    """Whether an n-point grid takes the row path: its (2n, n) complex array outgrows L2."""
    return 32 * n * n > _L2_BYTES


def _block_pairs(n: int) -> int:
    """Row pairs per block of the row path."""
    return max(1, _BLOCK_BYTES // (32 * n))


@functools.lru_cache(maxsize=4)
def _scatter(n: int) -> np.ndarray:
    """``table[i, j]``: the flat slot s·n + m of kernel entry (i, j) in the
    (2n, n) row layout (table path only)."""
    # intp, numpy's own index type: an int32 index would be cast afresh on
    # every gather and scatter, which doubles their time
    i = np.arange(n, dtype=np.intp)[:, None]
    j = np.arange(n, dtype=np.intp)[None, :]
    s = i + j
    table = s * n + (i - j - s % 2) // 2 % n
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _diagonals(n: int) -> list:
    """Per row s < 2n − 1 (row path only): (s, entries, mirror, first, head, tail).

    Kernel entries K[i, s − i] for i in ``entries`` (lo ≤ i ≤ hi), whose
    column indices s − i run through ``mirror``, sit at the cyclic slots
    (i − ⌈s/2⌉) mod n: the first ``first`` of them at ``head``, the rest
    at ``tail``; every other slot of the row is 0.
    """
    rows = []
    for s in range(2 * n - 1):
        lo, hi = max(0, s - n + 1), min(s, n - 1)
        start = (lo - (s + 1) // 2) % n
        first = min(n - start, hi - lo + 1)
        mirror = slice(s - lo, s - hi - 1 if s > hi else None, -1)
        rows.append((s, slice(lo, hi + 1), mirror, first, slice(start, start + first),
                     slice(0, hi - lo + 1 - first)))
    return rows


def _skew(K: np.ndarray) -> np.ndarray:
    """A view D of an n×n ``K`` with D[s, i] = K[i, s − i].

    D spans memory outside K: only entries with 0 ≤ s − i < n may be
    touched, which the slices of ``_diagonals`` guarantee.
    """
    n = K.shape[0]
    st0, st1 = K.strides
    return np.lib.stride_tricks.as_strided(
        K, (2 * n - 1, n), (st1, st0 - st1), writeable=K.flags.writeable
    )


def _phase_blocks(grid: GridSpec, K=None, psi=None, out=None):
    """Yield (pairs, block): the transform of the kernel ``K``, or of ψ ⊗ ψ̄
    for a state ``psi``, in blocks of the (n, 2, n) row layout.

    The table path yields one block of all n pairs; the row path yields
    blocks of ``_block_pairs(n)`` pairs and builds no outer product.  The
    blocks are views of a zeroed ``out`` of shape (n, 2, n) if one is
    given, else of one buffer block that the next block overwrites.  Pass
    ``K`` bound to no other name: the table path frees it before yielding.
    """
    n = grid.n
    plan = _plan(grid)
    streams = _streams(n)
    step = _block_pairs(n) if streams else n
    if streams:
        rows = _diagonals(n)
        if psi is None:
            skew = _skew(K)
        else:
            conj = np.conj(psi)
    elif psi is not None:
        K = np.outer(psi, np.conj(psi))
    if out is None:
        buffer = np.empty((step, 2, n), dtype=complex)
    for r0 in range(0, n, step):
        if out is None:
            block = buffer[: n - r0]
            block.fill(0)
        else:
            block = out[r0 : r0 + step]
        if streams:
            block_rows = block.reshape(-1, n)
            for row, (s, entries, mirror, first, head, tail) in zip(
                block_rows, rows[2 * r0 : 2 * r0 + len(block_rows)]
            ):
                # a state's anti-diagonal ψ_i conj(ψ_{s−i}) is its own product
                values = skew[s, entries] if psi is None else psi[entries] * conj[mirror]
                row[head] = values[:first]
                row[tail] = values[first:]
        else:
            block.reshape(-1)[_scatter(n)] = K
            del K
        block *= plan.weight
        np.fft.fft(block, axis=2, out=block)
        block *= plan.phase
        yield slice(r0, r0 + len(block)), block


def weyl_wigner(K: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Phase function of a sampled integral kernel (shape (2n, n)).

    ``K[i, j]`` samples the kernel at (x_i, x_j); a matrix acting on
    coefficient vectors corresponds to the kernel ``matrix / dx``.
    """
    K = np.asarray(K)
    if K.shape != grid.kernel_shape:
        raise ValueError(f"kernel must have shape {grid.kernel_shape}")
    n = grid.n
    rows = np.zeros((n, 2, n), dtype=complex)  # axis 1 is the parity σ
    for _ in _phase_blocks(grid, K, out=rows):
        pass  # the blocks are views of rows
    return rows.reshape(grid.phase_shape)


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
    streams = _streams(n)
    step = _block_pairs(n) if streams else n
    if streams:
        K = np.empty(grid.kernel_shape, dtype=complex)  # every entry lies on one anti-diagonal
        skew = _skew(K)
        rows = _diagonals(n)
    buffer = np.empty((step, 2, n), dtype=complex)
    for r0 in range(0, n, step):
        pairs = A.reshape(n, 2, n)[r0 : r0 + step]
        block = np.multiply(pairs, plan.inv_phase, out=buffer[: len(pairs)])
        np.fft.ifft(block, axis=2, out=block)
        block *= plan.inv_weight
        if not streams:  # the one block holds every row
            return block.reshape(-1)[_scatter(n)]
        block_rows = block.reshape(-1, n)
        for row, (s, entries, _, first, head, tail) in zip(
            block_rows, rows[2 * r0 : 2 * r0 + len(block_rows)]
        ):
            values = skew[s, entries]
            values[:first] = row[head]
            values[first:] = row[tail]
    return K


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

    A real float64 array that owns its data, bit for bit the real part of
    that quotient: the kernel is Hermitian, so its imaginary part is
    rounding alone, and a view would keep it alive.  For a
    unit-norm state Σ W · (dx/2) dp = 1 up to the Riemann error of the tails.
    """
    psi = np.asarray(psi)
    if psi.shape != (grid.n,):
        raise ValueError("state must be a 1-d array of length n")
    n = grid.n
    W = None  # made at the first block, once the table path has freed its outer product
    for pairs, block in _phase_blocks(grid, psi=psi):
        block /= 2 * math.pi  # in place: the bits of the out-of-place complex division
        if W is None:
            W = np.empty(grid.phase_shape)
        W.reshape(n, 2, n)[pairs] = block.real
    return W


# ----------------------------------------------------------------------
# float text: repr, a block at a time
# ----------------------------------------------------------------------
#
# ``_repr_rows`` writes ``repr(float(v))`` for a whole block of floats with
# numpy operations, in place of one ``repr`` call per value (shortest
# round-trip digits from scaled fixed-point arithmetic: Steele & White,
# PLDI 1990; Adams, "Ryū", PLDI 2018).  With e the decade of |v|,
# y = |v|·10^(16−e) lies in [1e16, 1e17) and is formed as a double-double
# from a 106-bit power of ten, to within 1e-14.  Its nearest
# multiples of 100, 10 and 1 are v's nearest 15-, 16- and 17-digit
# decimals.  repr prints the shortest decimal within half a gap of v, and
# of equal lengths the nearest; at most one 15-digit decimal fits in the
# gap (DBL_DIG = 15), and a shorter one padded with zeros would be it.  So
# the first of the three candidates within half a gap is repr's, and its
# digits, trailing zeros dropped, are repr's digits.
#
# An entry whose choice the error bound cannot settle -- a candidate within
# _MARGIN of a gap edge, or y within _MARGIN of a rounding tie -- and every
# entry the argument does not cover -- subnormals, power-of-two mantissas
# (whose lower half gap is half the upper), |v| beyond 1e±305, nan and ±inf
# -- is formatted by repr itself.  ±0.0 need no digits.

_MARGIN = 1e-7  # units of y's last digit; y and the half gap err by < 1e-14
_E_MIN, _E_MAX = -310, 310  # the decades of the power table
_E16, _E17 = 10**16, 10**17
_SLOTS = 29  # per value: sign and "0.000" (6), digits and point (18), "e-308" (5)


class _ReprTables(NamedTuple):
    """Lookup tables of ``_repr_rows``, built on first use.

    Row e − _E_MIN of ``high``, ``low`` and ``shift``: 10^(16−e) =
    (high + low)·2^shift to 106 bits, ``high`` a 53-bit integer and
    0 ≤ ``low`` < 1.  ``quads[i]``: the four ASCII digits of i < 10⁴.
    ``prefix[:, 5·sign + z]``: the sign, then "0." and z < 4 zeros (z = 4:
    none), right-aligned in 6 bytes.  ``tail[:, x + 324]``: "e±XX" or
    "e±XXX" for the decimal exponent x; its last column is empty.  Unused
    bytes are 0, which the text drops.
    """

    high: np.ndarray
    low: np.ndarray
    shift: np.ndarray
    quads: np.ndarray
    prefix: np.ndarray
    tail: np.ndarray


@functools.cache
def _repr_tables() -> _ReprTables:
    mants, shifts = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        x = 10 ** abs(16 - e)
        if e <= 16:  # 10^(16−e) is an integer: its leading 106 bits
            shift = x.bit_length() - 106
            mants.append(x >> shift if shift >= 0 else x << -shift)
        else:  # 1/x: 2^(bits + 105) // x has 106 bits
            shift = -(x.bit_length() + 105)
            mants.append((1 << -shift) // x)
        shifts.append(shift + 53)
    high = np.array([float(m >> 53) for m in mants])
    low = np.array([float(m & ((1 << 53) - 1)) for m in mants]) / 2.0**53
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    quads = np.ascontiguousarray(digits, dtype=np.uint8).view(np.uint32).ravel()

    def text(rows: list, width: int) -> np.ndarray:
        return np.frombuffer("".join(rows).encode(), np.uint8).reshape(-1, width).T.copy()

    prefix = text([(s + ("0." + "0" * z if z < 4 else "")).rjust(6, "\0")
                   for s in ("", "-") for z in range(5)], 6)
    tail = text([f"e{x:+03d}".ljust(5, "\0") for x in range(-324, 309)] + ["\0" * 5], 5)
    return _ReprTables(high, low, np.array(shifts, np.int32), quads, prefix, tail)


def _scaled(a: np.ndarray, e: np.ndarray, t: _ReprTables) -> tuple:
    """y = a·10^(16−e) as J + r (J an int64, 0 ≤ r < 1), and a's half gap in units of y."""
    m, c = np.frexp(a)
    row = e - _E_MIN
    c += t.shift[row]  # int32: numpy's ldexp is far slower on int64 exponents
    high = t.high[row]
    err = m * t.low[row]
    half_gap = np.ldexp(high, c - 54)  # a's ulp is 2^(ex − 53), ex from frexp
    p = m * high  # Dekker's product: p + (its error) = m·high exactly
    m_hi = m * 134217729.0  # Veltkamp's split in halves of 26 bits: 2^27 + 1
    m_hi -= m_hi - m
    m -= m_hi
    high_hi = high * 134217729.0
    high_hi -= high_hi - high
    high -= high_hi
    err += ((m_hi * high_hi - p) + m_hi * high + m * high_hi) + m * high
    p = np.ldexp(p, c)  # an integer: y ≥ 1e16 > 2^53 > p
    np.ldexp(err, c, out=err)
    whole = np.floor(err)
    err -= whole
    J = p.astype(np.int64)
    J += whole.astype(np.int64)
    return J, err, half_gap


def _shortest(a: np.ndarray, t: _ReprTables) -> tuple:
    """repr's digits of the positive floats ``a``: (M, point, ok).

    M has 17 digits, which with trailing zeros dropped are repr's digits,
    and a = 0.M × 10^point.  Entries where ``ok`` is false are not settled.
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    J, r, h = _scaled(a, e, t)
    off = np.flatnonzero((J < _E16) | (J > _E17))  # log10 missed the decade
    if off.size:
        e[off] += np.where(J[off] > _E17, 1, -1)
        J[off], r[off], h[off] = _scaled(a[off], e[off], t)
    M15 = (J + 50) // 100 * 100
    M16 = (J + 5) // 10 * 10
    d15 = np.abs((J - M15) + r)
    d16 = np.abs((J - M16) + r)
    ok = (J >= _E16) & (J <= _E17) & (np.abs(r - 0.5) > _MARGIN) & (d16 < 5 - _MARGIN)
    ok &= (np.abs(d15 - h) > _MARGIN) & (np.abs(d16 - h) > _MARGIN)
    M = np.where(d15 < h, M15, np.where(d16 < h, M16, J + (r >= 0.5)))
    over = M == _E17  # rounded up to the next decade: its one digit is 1
    M[over | ~ok] = _E16
    return M, e + 1 + over, ok


def _value_planes(v: np.ndarray) -> tuple:
    """(planes, ok): byte j of the text of every value in row j of a
    (_SLOTS, len(v)) array, and whether that text is repr's."""
    count = v.size
    if not np.any(v.view(np.uint64) << np.uint64(1)):  # ±0.0 only, as in a wide grid's empty rows
        planes = np.zeros((_SLOTS, count), np.uint8)
        planes[5] = np.signbit(v) * np.uint8(ord("-"))
        planes[6:9] = np.frombuffer(b"0.0", np.uint8)[:, None]
        return planes, np.ones(count, bool)
    t = _repr_tables()
    a = np.abs(v)
    zero = a == 0
    fast = (a >= 1e-305) & (a <= 1e305)  # false for nan and inf
    fast &= (v.view(np.uint64) & np.uint64((1 << 52) - 1)) != 0  # no power-of-two mantissa
    np.copyto(a, 1.0, where=~fast)  # 1.0 prints as "1.0"
    M, point, ok = _shortest(a, t)
    ok &= fast | zero
    del a, fast
    # the 17 digits of M, as five 4-digit groups of which the first holds one
    groups = np.empty((5, count), np.int32)
    groups[0] = M // _E16
    M -= groups[0] * np.int64(_E16)
    high = M // 10**8
    M -= high * 10**8
    groups[1], groups[2] = high // 10**4, high % 10**4
    groups[3], groups[4] = M // 10**4, M % 10**4
    del high, M
    digits = t.quads[groups].view(np.uint8).reshape(5, count, 4)
    digits = digits.transpose(0, 2, 1).reshape(20, count)[3:]
    del groups
    digits[0] -= zero  # "1.0" becomes "0.0"
    place = np.arange(1, 19, dtype=np.uint8)[:, None]  # uint8 compares: 4× faster
    n = np.max((digits != ord("0")) * place[:17], axis=0)  # the digits repr prints
    sci = (point < -3) | (point > 16)  # repr's exponent form
    # digits past the last printed one are dropped; fixed notation prints
    # its zeros up to the point and one after it (".0" on an integral value)
    digits *= place[:17] <= np.where(sci, n, np.maximum(n, point + 1)).astype(np.uint8)
    # the point follows digit ``dot`` (18: no point among the digits)
    dot = np.where(sci, np.where(n > 1, 1, 18), np.where(point >= 1, point, 18))
    dot = dot.astype(np.uint8)
    planes = np.empty((_SLOTS, count), np.uint8)
    body = planes[6:24]
    body[:17] = digits
    body[17] = 0
    np.copyto(body[1:], digits, where=place[:17] > dot)
    np.copyto(body, ord("."), where=place - 1 == dot)
    lead = np.where(~sci & (point <= 0), -point, 4) + 5 * np.signbit(v)
    np.take(t.prefix, lead, axis=1, out=planes[:6])
    np.take(t.tail, np.where(sci, point + 323, -1), axis=1, out=planes[24:])
    return planes, ok


def _repr_rows(rows: np.ndarray, sep: str, end: str) -> str:
    """Text of a 2-d float block: each row's ``repr(float(v))`` joined by
    ``sep``, each row followed by ``end`` (ASCII separators)."""
    v = np.ascontiguousarray(rows, dtype=float).ravel()
    planes, ok = _value_planes(v)
    # one line of bytes per value: its text, then its separator
    seps = np.zeros((rows.shape[-1], max(len(sep), len(end))), np.uint8)
    seps[:-1, : len(sep)] = np.frombuffer(sep.encode(), np.uint8)
    seps[-1, : len(end)] = np.frombuffer(end.encode(), np.uint8)
    text = np.empty((v.size, _SLOTS + seps.shape[1]), np.uint8)
    text[:, :_SLOTS] = planes.T
    del planes
    text[:, _SLOTS:].reshape(-1, *seps.shape)[...] = seps
    slow = np.flatnonzero(~ok)
    if slow.size:
        fallback = "".join(repr(x).ljust(_SLOTS, "\0") for x in v[slow].tolist())
        text[slow, :_SLOTS] = np.frombuffer(fallback.encode(), np.uint8).reshape(-1, _SLOTS)
    return text.tobytes().translate(None, b"\0").decode()  # unused bytes are 0


# ----------------------------------------------------------------------
# serialization: CSV and JSON
# ----------------------------------------------------------------------
#
# An archive states the axes of its phase array as ``_axes`` gives them,
# rows first.  CSV: the header "# axes q:<2n>:<dq> p:<n>:<dp>", then one
# "re,im" line per entry in row-major order.  JSON: {"grid", "axes", "re",
# "im"}, as canonical text: sorted keys, no spaces, no NaN or inf.  Floats
# serialize as their repr text (``_repr_rows``) and so round-trip
# bit-exactly; a real array writes an exact 0.0 as im.  The writers format
# a block of rows at a time: the text of the whole array at once would set
# the peak memory.

_TEXT_BLOCK = 2048  # floats formatted at once


def _text_blocks(rows: np.ndarray, per_entry: int = 1):
    """Blocks of whole rows of a 2-d array, about _TEXT_BLOCK floats each."""
    step = max(1, _TEXT_BLOCK // (rows.shape[1] * per_entry))
    return (rows[r0 : r0 + step] for r0 in range(0, len(rows), step))


def _axes(grid: GridSpec) -> dict:
    """Name -> (count, step) of the axes of a phase array on ``grid``."""
    return {"q": (2 * grid.n, grid.dx / 2), "p": (grid.n, grid.dp)}


def _check_axes(stated: dict, grid: GridSpec) -> tuple:
    """Require the ``stated`` axes to be those of a phase array on ``grid``: the same
    names in order, equal counts, steps equal to a relative 1e-12.  Returns its shape."""
    expected = _axes(grid)
    if list(stated) != list(expected) or any(
        stated[name][0] != count or not math.isclose(stated[name][1], step, rel_tol=1e-12)
        for name, (count, step) in expected.items()
    ):
        raise ValueError(f"axes {stated} are not those of a phase array on {grid}: {expected}")
    return grid.phase_shape


def _header(grid: GridSpec) -> dict:
    return {
        "grid": {"n": grid.n, "dx": grid.dx},
        "axes": {name: {"count": count, "step": step} for name, (count, step) in _axes(grid).items()},
    }


def _json_rows(part: np.ndarray):
    """The rows of a 2-d float array as JSON lists, one text per block of rows."""
    for block in _text_blocks(part):
        if not np.isfinite(block).all():
            raise ValueError("Out of range float values are not JSON compliant")
        yield "[" + _repr_rows(block, ",", "],[")[:-2]


def write_phase_csv(fh, A: np.ndarray, grid: GridSpec):
    axes = " ".join(f"{name}:{count}:{step!r}" for name, (count, step) in _axes(grid).items())
    fh.write(f"# axes {axes}\n")
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    rows = A.reshape(-1, grid.n)
    if np.iscomplexobj(A):  # each entry as its (re, im) pair of floats
        for block in _text_blocks(rows, 2):
            fh.write(_repr_rows(np.ascontiguousarray(block).view(float).reshape(-1, 2), ",", "\n"))
    else:  # the exact 0.0 of every im is part of the separator
        for block in _text_blocks(rows):
            fh.write(_repr_rows(block.reshape(-1, 1), "", ",0.0\n"))


def read_phase_csv(fh):
    """Read a phase-function CSV; returns (array, GridSpec)."""
    lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty phase CSV: missing axes header")
    parts = lines[0].split()
    if parts[:2] != ["#", "axes"] or len(parts) != 4:
        raise ValueError(f"malformed axes header: {lines[0]!r}")
    fields = (text.split(":") for text in parts[2:])
    stated = {name: (int(count), float(step)) for name, count, step in fields}
    (_, step), (n, _) = stated.values()  # the row step and the column count
    try:
        grid = GridSpec(n, 2 * step)
        shape = _check_axes(stated, grid)
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


def write_phase_json(fh, A: np.ndarray, grid: GridSpec):
    """Write ``phase_to_json(A, grid)`` as canonical JSON text and a newline."""
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    encode = _CANONICAL.encode
    if np.iscomplexobj(A):
        im = _json_rows(A.imag)
    else:  # exact zeros: one row of text, written for every row
        im = itertools.repeat(encode([0.0] * A.shape[1]), A.shape[0])
    re = _json_rows(A.real)
    fh.write(encode(_header(grid))[:-1])  # left open: sorted keys put "im" and "re" last
    for key, rows in (("im", im), ("re", re)):
        fh.write(f',"{key}":[')
        for i, text in enumerate(rows):
            fh.write("," + text if i else text)
        fh.write("]")
    fh.write("}\n")


def phase_to_json(A: np.ndarray, grid: GridSpec) -> dict:
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    if np.iscomplexobj(A):
        im = A.imag.tolist()
    else:  # exact zeros: rows that share one list, not a float object per entry
        im = functools.reduce(lambda row, size: [row] * size, reversed(A.shape), 0.0)
    return {**_header(grid), "re": A.real.tolist(), "im": im}


def phase_from_json(payload) -> tuple:
    if isinstance(payload, str):
        payload = json.loads(payload)
    try:
        dx = payload["grid"]["dx"]
        if isinstance(dx, bool) or not isinstance(dx, (int, float)):
            raise TypeError(f"grid dx {dx!r} is not a number")
        grid = GridSpec(payload["grid"]["n"], float(dx))
        re, im = (_json_numbers(payload[part], part) for part in ("re", "im"))
        # a JSON object's members carry no order: take the grid's axis names first
        axes = {**dict.fromkeys(_axes(grid)), **payload["axes"]}
        stated = {name: (axis["count"], axis["step"]) for name, axis in axes.items()}
        shape = _check_axes(stated, grid)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed array payload: {exc!r}") from exc
    if re.shape != shape or im.shape != shape:
        raise ValueError(f"re and im must each have shape {shape}")
    A = np.empty(shape, dtype=complex)  # 1j * inf would put a NaN in .real
    A.real, A.imag = re, im
    return A, grid
