"""Kernel <-> phase-function transform: exactness, structure, serialization."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from weylkit import (
    GridSpec,
    hermite_basis,
    inner_k,
    parity,
    weyl_wigner,
    weyl_wigner_inv,
    wigner_of_state,
)
from weylkit.wigner import (
    _plan,
    kernel_from_json,
    kernel_to_json,
    phase_from_json,
    phase_to_json,
    read_kernel_csv,
    read_phase_csv,
    write_kernel_csv,
    write_phase_csv,
)

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


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 64, 256])
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


def test_kernel_csv_round_trip_is_exact():
    rng = np.random.default_rng(23)
    grid = GridSpec(8, 0.5)
    K = random_kernel(rng, grid)
    buf = io.StringIO()
    write_kernel_csv(buf, K, grid)
    buf.seek(0)
    back, grid_back = read_kernel_csv(buf)
    assert grid_back == grid
    assert np.array_equal(back, K)


def test_csv_header_is_machine_readable():
    grid = GridSpec(8, 0.5)
    buf = io.StringIO()
    write_phase_csv(buf, np.zeros(grid.phase_shape), grid)
    header = buf.getvalue().splitlines()[0]
    assert header == f"# axes q:16:{0.25!r} p:8:{grid.dp!r}"
    buf = io.StringIO()
    write_kernel_csv(buf, np.zeros(grid.kernel_shape), grid)
    assert buf.getvalue().splitlines()[0] == "# axes x:8:0.5 y:8:0.5"


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
    # from it (n = 10**5 would ask for 298 GiB and 149 GiB)
    n = 100_000
    huge = {
        read_phase_csv: f"# axes q:{2 * n}:0.25 p:{n}:{math.pi / (n * 0.5)!r}\n",
        read_kernel_csv: f"# axes x:{n}:0.5 y:{n}:0.5\n",
    }
    for reader, header in huge.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="data rows"):
                reader(io.StringIO(header + "0.0,0.0\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # counts too large for a float over one data row: the phase grid's dp
    # would overflow, and both readers refuse them as malformed
    big = 10**400
    with pytest.raises(ValueError):
        read_phase_csv(io.StringIO(f"# axes q:{2 * big}:0.25 p:{big}:0.0\n0.0,0.0\n"))
    with pytest.raises(ValueError):
        read_kernel_csv(io.StringIO(f"# axes x:{big}:0.5 y:{big}:0.5\n0.0,0.0\n"))
    # one comma a row, even where the fields of two rows would add up
    lines = buf.getvalue().splitlines()
    lines[1], lines[2] = "0.0", "0.0,0.0,0.0"
    with pytest.raises(ValueError, match="re,im"):
        read_phase_csv(io.StringIO("\n".join(lines)))
    # empty input has no axes header
    for reader in (read_phase_csv, read_kernel_csv):
        with pytest.raises(ValueError):
            reader(io.StringIO(""))
        with pytest.raises(ValueError):
            reader(io.StringIO("\n  \n"))


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
    K = random_kernel(rng, grid)
    A = weyl_wigner(K, grid)
    K2, gk = kernel_from_json(json.dumps(kernel_to_json(K, grid)))
    A2, ga = phase_from_json(json.dumps(phase_to_json(A, grid)))
    assert gk == grid and ga == grid
    assert np.array_equal(K2, K)
    assert np.array_equal(A2, A)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_reader_keeps_an_infinite_im_as_the_csv_reader_does():
    grid = GridSpec(4, 0.5)
    K = np.ones(grid.kernel_shape, dtype=complex)
    K[0, 0] = complex(1.0, math.inf)
    payload = kernel_to_json(K, grid)
    assert payload["im"][0][0] == math.inf
    from_json, _ = kernel_from_json(json.dumps(payload))
    buf = io.StringIO()
    write_kernel_csv(buf, K, grid)
    buf.seek(0)
    from_csv, _ = read_kernel_csv(buf)
    assert from_json[0, 0].real == 1.0 and from_json[0, 0].imag == math.inf
    assert np.array_equal(from_json, from_csv)
    assert np.array_equal(from_json, K)


def test_json_shape_and_axes_validation():
    grid = GridSpec(8, 0.5)
    payload = phase_to_json(np.zeros(grid.phase_shape), grid)
    payload["re"] = payload["re"][:-1]
    with pytest.raises(ValueError):
        phase_from_json(payload)
    payload = kernel_to_json(np.zeros(grid.kernel_shape), grid)
    del payload["axes"]["x"]
    with pytest.raises(ValueError):
        kernel_from_json(payload)
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
    payload = kernel_to_json(np.zeros(grid.kernel_shape), grid)
    payload["re"] = 0.0
    with pytest.raises(ValueError):
        kernel_from_json(payload)
    # the stated axes must be the grid's
    for axis, key, value in (("q", "count", 999), ("p", "step", -grid.dp), ("q", "step", 0.5)):
        payload = phase_to_json(np.zeros(grid.phase_shape), grid)
        payload["axes"][axis][key] = value
        with pytest.raises(ValueError):
            phase_from_json(payload)
    payload = kernel_to_json(np.zeros(grid.kernel_shape), grid)
    payload["axes"]["y"]["count"] = 9
    with pytest.raises(ValueError):
        kernel_from_json(payload)
    # missing keys and non-object payloads
    for reader in (phase_from_json, kernel_from_json):
        for bad in ("{}", "[]", '"text"', '{"grid": 8}', {"grid": {"n": 8}}):
            with pytest.raises(ValueError):
                reader(bad)


def test_stated_steps_match_the_grid_to_a_relative_1e_12():
    grid = GridSpec(8, 0.5)
    rows = "0.0,0.0\n" * 64
    for rel, accepted in ((1e-14, True), (1e-10, False)):
        text = f"# axes x:8:0.5 y:8:{0.5 * (1 + rel)!r}\n" + rows
        payload = kernel_to_json(np.zeros(grid.kernel_shape), grid)
        payload["axes"]["y"]["step"] *= 1 + rel
        for read, archive in ((read_kernel_csv, io.StringIO(text)), (kernel_from_json, payload)):
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
        read_kernel_csv(io.StringIO("# axes y:8:0.5 x:8:0.5\n" + rows))
