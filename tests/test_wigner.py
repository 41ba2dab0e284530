"""Kernel <-> phase-function transform: exactness, structure, serialization."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from weylkit import (
    GridSpec,
    hermite_basis,
    inner_k,
    moyal_bracket,
    parity,
    purity_residual,
    star,
    star_adjoint,
    weyl_wigner,
    weyl_wigner_inv,
    wigner_of_state,
)
from weylkit import wigner
from weylkit.wigner import (
    _plan,
    phase_from_json,
    phase_to_json,
    read_phase_csv,
    write_phase_csv,
    write_phase_json,
)
from weylkit.checks import _transition_gram_residual
from weylkit.cli import _parse_state, canonical_json
from weylkit.star import _compose

GRID = GridSpec(64, 0.25)


def random_kernel(rng, grid=GRID):
    shape = grid.kernel_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_round_trips_at_machine_precision():
    rng = np.random.default_rng(11)
    for _ in range(5):
        K = random_kernel(rng)
        A = weyl_wigner(K, GRID)
        assert np.max(np.abs(weyl_wigner_inv(A, GRID) - K)) < 1e-12
        B = weyl_wigner(weyl_wigner_inv(A, GRID), GRID)
        assert np.max(np.abs(B - A)) < 1e-12


def defining_sum(K, grid):
    """A[s, k] = 2 dx Σ_i K[i, s−i] exp(i p_k (s − 2i) dx), term by term."""
    n = grid.n
    A = np.zeros(grid.phase_shape, dtype=complex)
    for s in range(2 * n):
        p = grid.p(s % 2)
        for i in range(max(0, s - n + 1), min(n, s + 1)):
            A[s] += K[i, s - i] * np.exp(1j * p * (s - 2 * i) * grid.dx)
    return 2 * grid.dx * A


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_transform_matches_its_defining_sum(n):
    grid = GridSpec(n, 0.37)  # not the balanced spacing sqrt(pi/n)
    K = random_kernel(np.random.default_rng(n), grid)
    expected = defining_sum(K, grid)
    A = weyl_wigner(K, grid)
    scale = np.max(np.abs(expected))
    for sigma in (0, 1):
        rows = slice(sigma, None, 2)
        assert np.max(np.abs(A[rows] - expected[rows])) <= 1e-12 * scale
    assert np.max(np.abs(weyl_wigner_inv(expected, grid) - K)) <= 1e-12 * np.max(
        np.abs(K)
    )


def test_transform_plan_is_cached_and_compact():
    n = 64
    plan = _plan(GridSpec(n, 0.25))
    assert _plan(GridSpec(n, 0.25)) is plan
    assert _plan(GridSpec(n, 0.5)) is not plan
    tables = [t for t in plan if isinstance(t, np.ndarray)]
    assert not any(np.iscomplexobj(t) and t.shape == (2 * n, n) for t in tables)
    assert not any(t.flags.writeable for t in tables)
    assert sum(t.nbytes for t in tables) <= 12 * n**2 + 64 * n


def test_transform_shapes_and_validation():
    K = np.zeros(GRID.kernel_shape)
    assert weyl_wigner(K, GRID).shape == GRID.phase_shape
    with pytest.raises(ValueError):
        weyl_wigner(np.zeros((4, 8)), GRID)
    with pytest.raises(ValueError):
        weyl_wigner_inv(np.zeros((64, 64)), GRID)


def test_last_row_is_structurally_zero():
    rng = np.random.default_rng(3)
    A = weyl_wigner(random_kernel(rng), GRID)
    assert np.all(A[-1] == 0)


def test_transform_is_an_isometry():
    rng = np.random.default_rng(5)
    K1, K2 = random_kernel(rng), random_kernel(rng)
    lhs = inner_k(weyl_wigner(K1, GRID), weyl_wigner(K2, GRID), GRID)
    rhs = GRID.dx**2 * np.sum(np.conj(K1) * K2)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_hermitian_kernels_have_real_phase_functions():
    rng = np.random.default_rng(7)
    K = random_kernel(rng)
    K = K + K.conj().T
    A = weyl_wigner(K, GRID)
    assert np.max(np.abs(A.imag)) < 1e-13 * np.max(np.abs(A))


def test_parity_is_kernel_transposition():
    rng = np.random.default_rng(9)
    K = random_kernel(rng)
    assert np.max(
        np.abs(parity(weyl_wigner(K, GRID), GRID) - weyl_wigner(K.T, GRID))
    ) < 1e-12


def test_parity_is_a_bitwise_involution():
    rng = np.random.default_rng(13)
    A = weyl_wigner(random_kernel(rng), GRID)
    assert np.array_equal(parity(parity(A, GRID), GRID), A)
    with pytest.raises(ValueError):
        parity(np.zeros((4, 4)), GRID)


def test_identity_kernel_maps_to_flat_even_rows():
    # the identity operator has kernel delta(x−y)/dx -> I/dx on the grid;
    # its phase function is 2 on even rows and 0 on odd rows
    A = weyl_wigner(np.eye(GRID.n) / GRID.dx, GRID)
    assert np.allclose(A[0::2], 2.0, atol=1e-12)
    assert np.allclose(A[1::2], 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# state Wigner functions against continuum formulas
# ----------------------------------------------------------------------


def test_ground_state_wigner_is_a_gaussian():
    grid = GridSpec(128, 0.125)
    e0 = hermite_basis(grid, 1)[0]
    W = wigner_of_state(e0, grid)
    reference = np.exp(-grid.q_matrix() ** 2 - grid.p_matrix() ** 2) / math.pi
    reference[-1] = 0.0
    assert np.max(np.abs(W - reference)) < 1e-8


def test_first_excited_wigner_attains_minus_one_over_pi():
    grid = GridSpec(128, 0.125)
    e1 = hermite_basis(grid, 2)[1]
    W = wigner_of_state(e1, grid)
    origin = W[grid.n, grid.n // 2]
    assert abs(origin.real + 1 / math.pi) < 1e-8
    assert abs(origin.imag) < 1e-12


def test_transition_symbol_closed_form():
    # the 0-1 transition symbol is 2√2 (q ± i p) e^{−q²−p²}; the transform
    # fixes one of the two sign conventions, and it must match to 1e−8
    grid = GridSpec(128, 0.125)
    basis = hermite_basis(grid, 2)
    K = np.outer(basis[0], np.conj(basis[1]))
    phi = weyl_wigner(K, grid)
    q, p = grid.q_matrix(), grid.p_matrix()
    envelope = 2 * math.sqrt(2) * np.exp(-(q**2) - p**2)
    errors = {
        sign: np.max(np.abs(phi - envelope * (q + sign * 1j * p)))
        for sign in (1, -1)
    }
    assert min(errors.values()) < 1e-8
    assert max(errors.values()) > 0.1  # only one convention can match


def test_transition_symbols_are_orthonormal():
    grid = GridSpec(128, 0.125)
    basis = hermite_basis(grid, 4)
    phis = {}
    for r in range(4):
        for s in range(4):
            K = np.outer(basis[r], np.conj(basis[s]))
            phis[r, s] = weyl_wigner(K, grid)
    worst = 0.0
    for (r, s), F in phis.items():
        for (u, v), G in phis.items():
            expected = 1.0 if (r, s) == (u, v) else 0.0
            worst = max(worst, abs(inner_k(F, G, grid) - expected))
    assert worst < 1e-8


def test_state_wigner_normalization_and_purity_integrals():
    grid = GridSpec(128, 0.125)
    psi = hermite_basis(grid, 3)[2]
    W = wigner_of_state(psi, grid)
    total = np.sum(W).real * grid.cell
    square = np.sum(W.real**2) * grid.cell
    assert abs(total - 1.0) < 1e-10
    assert abs(2 * math.pi * square - 1.0) < 1e-10
    with pytest.raises(ValueError):
        wigner_of_state(psi[:10], grid)


def bits(value):
    """The uint64 words of an array or tuple of floats: equality is bit for bit."""
    return np.ascontiguousarray(np.asarray(value)).view(np.uint64)


def on_both_paths(monkeypatch, compute, pairs):
    """compute() on the table path, then on the row path in blocks of ``pairs`` row pairs."""
    results = []
    for streams in (False, True):
        monkeypatch.setattr(wigner, "_streams", lambda n: streams)
        monkeypatch.setattr(wigner, "_block_pairs", lambda n: pairs)
        results.append(bits(compute()))
    return results


@pytest.mark.parametrize(
    "n, pairs",
    # blocks of 2·pairs rows that do and do not divide 2n, on both sides of
    # the crossover (n = 362 gathers by table, n = 364 streams)
    [(4, 1), (4, 3), (6, 3), (6, 4), (362, 5), (364, 7), (364, 22), (512, 16)],
)
def test_row_path_is_the_table_path_bit_for_bit(monkeypatch, n, pairs):
    assert wigner._streams(n) == (n >= 364)
    # tails out to |x| = 40 (38 at n ≤ 6): subnormal samples, and beyond
    # them exact ±0.0
    grid = GridSpec(n, 80 / n if n > 6 else 38 / (n // 2))
    rng = np.random.default_rng(n + pairs)
    K = random_kernel(rng, grid)
    A = weyl_wigner(K, grid)
    # at n ≤ 6 the grid is too coarse for the basis, and says so
    with pytest.warns(UserWarning) if n <= 6 else contextlib.nullcontext():
        odd = hermite_basis(grid, 2)[1]
    assert odd[n // 2] == 0.0  # the node at x = 0
    odd[n // 2] = -0.0
    assert np.any(np.abs(odd[odd != 0]) < sys.float_info.min)
    psi = (0.6 - 0.8j) * odd
    W = wigner_of_state(psi, grid)
    for compute in [
        lambda: weyl_wigner(K, grid),
        lambda: weyl_wigner(K.T, grid),  # a strided kernel is read in place
        lambda: weyl_wigner_inv(A, grid),
        lambda: weyl_wigner_inv(A.real.copy(), grid),
        lambda: wigner_of_state(odd, grid),
        lambda: wigner_of_state(psi, grid),
        lambda: purity_residual(W, grid),
    ]:
        table, rows = on_both_paths(monkeypatch, compute, pairs)
        assert np.array_equal(table, rows)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 64, 256, 512])
def test_wigner_of_state_is_the_real_part_of_the_transform(n):
    # bit for bit, signed zeros included: compared through an int64 view
    grid = GridSpec(n, math.sqrt(math.pi / n))
    rng = np.random.default_rng(n)
    basis = hermite_basis(grid, 2)
    states = [
        basis[0],
        basis[1],
        0.6 * basis[0] - 0.8j * basis[1],
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    ]
    for psi in states:
        W = wigner_of_state(psi, grid)
        expected = (weyl_wigner(np.outer(psi, psi.conj()), grid) / (2 * math.pi)).real
        assert W.dtype == np.float64 and W.shape == grid.phase_shape
        assert np.array_equal(W.view(np.int64), expected.view(np.int64))


def test_phase_csv_round_trip_is_exact():
    rng = np.random.default_rng(21)
    grid = GridSpec(8, 0.5)
    A = weyl_wigner(random_kernel(rng, grid), grid)
    buf = io.StringIO()
    write_phase_csv(buf, A, grid)
    buf.seek(0)
    back, grid_back = read_phase_csv(buf)
    assert grid_back == grid
    assert np.array_equal(back, A)


def test_csv_header_is_machine_readable():
    grid = GridSpec(8, 0.5)
    buf = io.StringIO()
    write_phase_csv(buf, np.zeros(grid.phase_shape), grid)
    header = buf.getvalue().splitlines()[0]
    assert header == f"# axes q:16:{0.25!r} p:8:{grid.dp!r}"


def test_csv_malformed_inputs_raise():
    with pytest.raises(ValueError):
        read_phase_csv(io.StringIO("# axes q:16:0.25\n"))
    with pytest.raises(ValueError):
        read_phase_csv(io.StringIO("# axes x:16:0.25 p:8:0.1\n"))
    grid = GridSpec(8, 0.5)
    buf = io.StringIO()
    write_phase_csv(buf, np.zeros(grid.phase_shape), grid)
    truncated = "\n".join(buf.getvalue().splitlines()[:-3])
    with pytest.raises(ValueError):
        read_phase_csv(io.StringIO(truncated))
    # inconsistent dp
    with pytest.raises(ValueError):
        read_phase_csv(io.StringIO("# axes q:16:0.25 p:8:0.5\n" + "0.0,0.0\n" * 128))
    # a huge header over one data row is refused before anything is sized
    # from it (n = 10**5 would ask for 298 GiB)
    n = 100_000
    header = f"# axes q:{2 * n}:0.25 p:{n}:{math.pi / (n * 0.5)!r}\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="data rows"):
            read_phase_csv(io.StringIO(header + "0.0,0.0\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # counts too large for a float over one data row: the grid's dp would
    # overflow, and the reader refuses them as malformed
    big = 10**400
    with pytest.raises(ValueError, match="malformed"):
        read_phase_csv(io.StringIO(f"# axes q:{2 * big}:0.25 p:{big}:0.0\n0.0,0.0\n"))
    # one comma a row, even where the fields of two rows would add up
    lines = buf.getvalue().splitlines()
    lines[1], lines[2] = "0.0", "0.0,0.0,0.0"
    with pytest.raises(ValueError, match="re,im"):
        read_phase_csv(io.StringIO("\n".join(lines)))
    # empty input has no axes header
    for text in ("", "\n  \n"):
        with pytest.raises(ValueError, match="empty"):
            read_phase_csv(io.StringIO(text))


def test_phase_csv_rows_are_the_repr_of_each_value():
    grid = GridSpec(4, 0.5)
    edge = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e16, 1e-5, -1e-5, 1.0 / 3]
    flat = np.array(edge * 4)[: 2 * grid.n * grid.n]
    A = np.zeros(grid.phase_shape, dtype=complex)
    A.real, A.imag = flat.reshape(grid.phase_shape), flat[::-1].reshape(grid.phase_shape)
    for data in (A, A.real):
        buf = io.StringIO()
        write_phase_csv(buf, data, grid)
        body = buf.getvalue().split("\n", 1)[1]
        expected = "".join(f"{v.real!r},{v.imag!r}\n" for v in data.astype(complex).ravel().tolist())
        assert body == expected
    # a real array writes an exact, positive 0.0 as every im
    assert all(line.endswith(",0.0") for line in body.splitlines())


# the variant-0 states of the ``cli`` benchmark's n = 64, 256 and 512 wigner requests
_CLI_STATES = {
    64: "(0.294-0.787j)*hermite:2+(-0.297-0.852j)*hermite:5+(-0.218+0.663j)*hermite:7",
    256: "(-0.652-0.779j)*hermite:0+(-0.505-0.712j)*hermite:7",
    512: "(-0.638+0.781j)*hermite:1+(-0.200+0.736j)*hermite:4",
}


def _repr_edges() -> list:
    edges = [0.0, 5e-324, 2.5e-310, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, 9.999999999999999e-05, math.nan, math.inf]
    centres = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    centres += [1e-4, 1e-5, 1e16, 1e17]
    for x in centres:
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
    return edges + [-x for x in edges]


def test_repr_rows_is_repr_byte_for_byte():
    rng = np.random.default_rng(2024)
    normals = rng.standard_normal(200_000)
    sets = {
        "bit patterns": rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
        "standard normals": normals,
        "rounded to 0-16 decimals": [
            round(x, d) for x, d in zip((normals[:50_000] * 1e3).tolist(), rng.integers(0, 17, 50_000))
        ],
        "Ne±E literals": [
            float(f"{m}e{e}")
            for m, e in zip(rng.integers(1, 10 ** rng.integers(1, 18, 50_000)), rng.integers(-330, 311, 50_000))
        ],
        "edges": _repr_edges(),
        "zeros only": [0.0, -0.0] * 8,
    }
    for n, spec in _CLI_STATES.items():
        grid = GridSpec(n, math.sqrt(math.pi / n))
        psi = _parse_state(spec, grid, 8)
        sets[f"cli wigner n = {n}"] = wigner_of_state(psi / (math.sqrt(grid.dx) * np.linalg.norm(psi)), grid)
    for name, values in sets.items():
        values = np.asarray(values, dtype=float).ravel()
        lines = wigner._repr_rows(values.reshape(-1, 1), "", "\n").split("\n")
        assert lines.pop() == ""
        expected = [repr(v) for v in values.tolist()]
        mismatched = [(e, line) for e, line in zip(expected, lines) if e != line]
        assert len(lines) == len(expected) and not mismatched, (name, mismatched[:5])
    # rows joined by one separator and ended by another
    block = normals[:60].reshape(5, 12)
    expected = "".join(",".join(map(repr, row)) + "],[" for row in block.tolist())
    assert wigner._repr_rows(block, ",", "],[") == expected


def test_import_builds_no_repr_table():
    # only a request that writes an array pays for the power-of-ten table
    code = (
        "import weylkit, weylkit.cli as cli, weylkit.wigner as w\n"
        "assert w._repr_tables.cache_info().currsize == 0\n"
        "cli.main(['check', 'symweyl', '--out', {out!r}])\n"
        "assert w._repr_tables.cache_info().currsize == 0\n"
    )
    import tempfile

    # the child imports the weylkit this process imported, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(wigner.__file__).parents[1])}
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable, "-c", code.format(out=out)], env=env,
                              capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_phase_csv_is_written_a_row_at_a_time(tmp_path):
    # the text of the whole n = 256 array (131,072 entries) takes well
    # over 4 MiB; one row of it takes about 10 KiB
    grid = GridSpec(256, math.sqrt(math.pi / 256))
    rng = np.random.default_rng(3)
    A = rng.standard_normal(grid.phase_shape) + 1j * rng.standard_normal(grid.phase_shape)
    with open(tmp_path / "a.csv", "w") as fh:
        tracemalloc.start()
        try:
            write_phase_csv(fh, A, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20
    with open(tmp_path / "a.csv") as fh:
        assert np.array_equal(read_phase_csv(fh)[0], A)


def test_real_csv_rows_are_those_of_the_complex_upcast():
    # the real path joins each row with ",0.0\n"; the bytes are those of the
    # general "re,im" path, on tails that reach 1e-300, subnormals and −0.0
    grid = GridSpec(64, 1.0)
    W = wigner_of_state(hermite_basis(grid, 1)[0], grid)
    assert np.min(np.abs(W[W != 0])) < 2.3e-308  # the Gaussian's tails reach subnormals
    W[-1, :4] = [-0.0, 5e-324, -2.5e-310, -1e-300]
    real, upcast = io.StringIO(), io.StringIO()
    write_phase_csv(real, W, grid)
    write_phase_csv(upcast, W.astype(complex), grid)
    assert real.getvalue() == upcast.getvalue()


@pytest.mark.parametrize("n", [4, 64])
def test_phase_json_writer_is_the_canonical_text_of_phase_to_json(n):
    grid = GridSpec(n, math.sqrt(math.pi / n))
    rng = np.random.default_rng(n)
    arrays = [
        wigner_of_state(hermite_basis(grid, 2)[1], grid),
        weyl_wigner(random_kernel(rng, grid), grid),
        np.full(grid.phase_shape, -0.0),
        np.full(grid.phase_shape, complex(-0.0, -0.0)),
    ]
    for A in arrays:
        buf = io.StringIO()
        write_phase_json(buf, A, grid)
        assert buf.getvalue() == canonical_json(phase_to_json(A, grid)) + "\n"
    with pytest.raises(ValueError):  # canonical text has no NaN
        write_phase_json(io.StringIO(), np.full(grid.phase_shape, math.nan), grid)


def test_wigner_pipeline_peaks_are_bounded(tmp_path):
    # traced peak of each stage at n = 512, in units of one (2n, n) complex
    # array (8 MiB): no dead full-size array is alive at a stage's peak
    grid = GridSpec(512, math.sqrt(math.pi / 512))
    unit = 2 * grid.n * grid.n * 16
    psi1, psi = hermite_basis(grid, 3)[1:]
    K = np.outer(psi, psi.conj())
    A = weyl_wigner(K, grid)
    B = weyl_wigner(np.outer(psi, psi1.conj()), grid)
    W = wigner_of_state(psi, grid)
    assert W.base is None and W.flags.c_contiguous and W.dtype == np.float64
    # scaling the transform in place keeps the bits of the plain product -1j * W(...)
    commutator = _compose(
        (weyl_wigner_inv(A, grid), weyl_wigner_inv(B, grid)), lambda a, b: a @ b - b @ a, grid.dx
    )
    old = -1j * weyl_wigner(commutator, grid)
    assert np.array_equal(moyal_bracket(A, B, grid).view(np.uint64), old.view(np.uint64))
    del commutator, old

    def write_json():
        with open(tmp_path / "w.json", "w") as fh:
            write_phase_json(fh, W, grid)

    def write_csv():
        with open(tmp_path / "w.csv", "w") as fh:
            write_phase_csv(fh, W, grid)

    basis = hermite_basis(grid, 4)
    assert wigner._streams(grid.n)  # n = 512 takes the row path
    stages = [
        (lambda: weyl_wigner(K, grid), 1.25),  # the row array, transformed in place
        (lambda: weyl_wigner_inv(A, grid), 0.75),  # the n×n kernel and one block
        (lambda: wigner_of_state(psi, grid), 0.75),  # W alone is 0.5: no outer product
        (lambda: purity_residual(W, grid), 1.25),  # K and K·K; W ⋆ W reduced by blocks
        (lambda: star(A, A, grid), 1.75),
        (lambda: star_adjoint(A, grid), 1.75),
        (lambda: moyal_bracket(A, B, grid), 2.25),  # two kernels and their two products
        (write_json, 0.05),  # a block of rows of text at a time
        (write_csv, 0.05),
        # the Gram stage of check wigner: five transition symbols and one outer product
        (lambda: _transition_gram_residual(basis, grid), 5.5),
    ]
    for stage, bound in stages:
        stage()  # the grid's plan is cached before tracing
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * unit, (stage, peak / unit)


def test_table_path_peaks_are_bounded():
    # the stages of the test above at n = 256, which takes the table path:
    # each holds a full (2n, n) row array, in units of one (2 MiB)
    grid = GridSpec(256, math.sqrt(math.pi / 256))
    assert not wigner._streams(grid.n)
    unit = 2 * grid.n * grid.n * 16
    psi1, psi = hermite_basis(grid, 3)[1:]
    K = np.outer(psi, psi.conj())
    A = weyl_wigner(K, grid)
    B = weyl_wigner(np.outer(psi, psi1.conj()), grid)
    W = wigner_of_state(psi, grid)
    stages = [
        (lambda: weyl_wigner(K, grid), 1.25),
        (lambda: weyl_wigner_inv(A, grid), 1.75),  # the row array and the kernel
        (lambda: wigner_of_state(psi, grid), 1.75),  # W is made once the outer product is freed
        (lambda: purity_residual(W, grid), 1.75),
        (lambda: star(A, A, grid), 2.25),
        (lambda: star_adjoint(A, grid), 1.75),
        (lambda: moyal_bracket(A, B, grid), 2.25),
    ]
    for stage, bound in stages:
        stage()  # the grid's plan and slot table are cached before tracing
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * unit, (stage, peak / unit)


def test_real_json_im_is_shared_zero_rows():
    # a real array's im rows share one list of exact zeros; the text is
    # that of its complex upcast
    grid = GridSpec(256, math.sqrt(math.pi / 256))
    W = wigner_of_state(hermite_basis(grid, 3)[2], grid)
    tracemalloc.start()
    try:
        payload = phase_to_json(W, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    assert json.dumps(payload) == json.dumps(phase_to_json(W.astype(complex), grid))


def test_json_round_trips_are_exact():
    rng = np.random.default_rng(25)
    grid = GridSpec(8, 0.5)
    A = weyl_wigner(random_kernel(rng, grid), grid)
    for data in (A, A.real):
        back, read_grid = phase_from_json(json.dumps(phase_to_json(data, grid)))
        assert read_grid == grid
        assert np.array_equal(back, data)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_reader_keeps_an_infinite_im_as_the_csv_reader_does():
    grid = GridSpec(4, 0.5)
    A = np.ones(grid.phase_shape, dtype=complex)
    A[0, 0] = complex(1.0, math.inf)
    payload = phase_to_json(A, grid)
    assert payload["im"][0][0] == math.inf
    from_json, _ = phase_from_json(json.dumps(payload))
    buf = io.StringIO()
    write_phase_csv(buf, A, grid)
    buf.seek(0)
    from_csv, _ = read_phase_csv(buf)
    assert from_json[0, 0].real == 1.0 and from_json[0, 0].imag == math.inf
    assert np.array_equal(from_json, from_csv)
    assert np.array_equal(from_json, A)


def test_json_readers_refuse_entries_that_are_not_numbers():
    grid = GridSpec(4, 1.0)
    text = json.dumps(phase_to_json(np.zeros(grid.phase_shape), grid))

    def read(edit):
        changed = json.loads(text)
        edit(changed)
        return phase_from_json(json.dumps(changed))

    for key in ("re", "im"):
        for bad in (None, True, False, "1.0"):
            with pytest.raises(ValueError):
                read(lambda p: p.update({key: [[bad] * len(row) for row in p[key]]}))
        with pytest.raises(ValueError):  # one null among numbers
            read(lambda p: p[key][0].__setitem__(0, None))
    for dx in ("1.0", True, None, [1.0]):
        with pytest.raises(ValueError):
            read(lambda p: p["grid"].update(dx=dx))
    # integers are JSON numbers
    data, read_grid = read(lambda p: (p["grid"].update(dx=1), p.update(re=[[1] * len(row) for row in p["re"]])))
    assert read_grid == grid and np.all(data == 1.0)


@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize("row", [[0.5, True], [1, False]])
def test_json_reader_refuses_a_boolean_among_numbers(key, row):
    # numpy gives these rows a float64 and an int64 dtype, so the dtype check misses them
    grid = GridSpec(4, 1.0)
    payload = json.loads(json.dumps(phase_to_json(np.zeros(grid.phase_shape), grid)))
    payload[key][3] = row * 2
    with pytest.raises(ValueError, match="booleans"):
        phase_from_json(json.dumps(payload))


def test_json_shape_and_axes_validation():
    grid = GridSpec(8, 0.5)
    payload = phase_to_json(np.zeros(grid.phase_shape), grid)
    payload["re"] = payload["re"][:-1]
    with pytest.raises(ValueError):
        phase_from_json(payload)
    for axis in ("q", "p"):  # a missing axis
        payload = phase_to_json(np.zeros(grid.phase_shape), grid)
        del payload["axes"][axis]
        with pytest.raises(ValueError):
            phase_from_json(payload)
    # a non-integral grid size is rejected, not truncated
    payload = phase_to_json(np.zeros(grid.phase_shape), grid)
    payload["grid"]["n"] = 8.7
    with pytest.raises(ValueError):
        phase_from_json(payload)
    # re and im must each have the grid's shape: no broadcasting
    for key, value in (("im", 5), ("im", [[1.0]] * 16), ("re", [[0.0] * 8])):
        payload = phase_to_json(np.zeros(grid.phase_shape), grid)
        payload[key] = value
        with pytest.raises(ValueError):
            phase_from_json(payload)
    payload = phase_to_json(np.zeros(grid.phase_shape), grid)
    payload["re"] = 0.0  # a scalar re
    with pytest.raises(ValueError):
        phase_from_json(payload)
    # the stated axes must be the grid's
    for axis, key, value in (("q", "count", 999), ("p", "count", 9), ("p", "step", -grid.dp),
                             ("q", "step", 0.5)):
        payload = phase_to_json(np.zeros(grid.phase_shape), grid)
        payload["axes"][axis][key] = value
        with pytest.raises(ValueError):
            phase_from_json(payload)
    # missing keys and non-object payloads
    for bad in ("{}", "[]", '"text"', '{"grid": 8}', {"grid": {"n": 8}}):
        with pytest.raises(ValueError):
            phase_from_json(bad)


def test_stated_steps_match_the_grid_to_a_relative_1e_12():
    # the CSV reader builds its grid from the q step, so its dp is the one
    # step that a header can misstate; the JSON reader checks both steps
    grid = GridSpec(8, 0.5)
    rows = "0.0,0.0\n" * 128
    for rel, accepted in ((1e-14, True), (1e-10, False)):
        text = f"# axes q:16:0.25 p:8:{grid.dp * (1 + rel)!r}\n" + rows
        archives = [(read_phase_csv, io.StringIO(text))]
        for axis in ("q", "p"):
            payload = phase_to_json(np.zeros(grid.phase_shape), grid)
            payload["axes"][axis]["step"] *= 1 + rel
            archives.append((phase_from_json, payload))
        for read, archive in archives:
            if accepted:
                assert read(archive)[1] == grid
            else:
                with pytest.raises(ValueError):
                    read(archive)
    # a JSON object's members carry no order; a CSV header's axes do
    payload = phase_to_json(np.zeros(grid.phase_shape), grid)
    payload["axes"] = dict(reversed(payload["axes"].items()))
    assert phase_from_json(payload)[1] == grid
    with pytest.raises(ValueError):
        read_phase_csv(io.StringIO(f"# axes p:8:{grid.dp!r} q:16:0.25\n" + rows))


def test_an_old_kernel_layout_archive_is_refused():
    # n×n kernels once had their own archive layout, with axes x and y
    grid = GridSpec(8, 0.5)
    for entries in (64, 128):  # a kernel's count of rows, and a phase array's
        text = "# axes x:8:0.5 y:8:0.5\n" + "0.0,0.0\n" * entries
        with pytest.raises(ValueError, match="not those of a phase array"):
            read_phase_csv(io.StringIO(text))
    zeros = [[0.0] * 8] * 8
    kernel = {
        "grid": {"n": 8, "dx": 0.5},
        "axes": {"x": {"count": 8, "step": 0.5}, "y": {"count": 8, "step": 0.5}},
        "re": zeros,
        "im": zeros,
    }
    with pytest.raises(ValueError):
        phase_from_json(json.dumps(kernel))
    with pytest.raises(ValueError):  # even over a phase array's entries
        phase_from_json({**kernel, "re": [[0.0] * 8] * 16, "im": [[0.0] * 8] * 16})
