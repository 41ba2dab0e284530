"""Command-line interface: exit codes, report files, config handling."""

import contextlib
import dataclasses
import errno
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weylkit
from weylkit import GaussianAlphaSpec, GridSpec, alpha_kernel_from_A
from weylkit.cli import (
    RunConfig,
    _build_config,
    _build_parser,
    _grid_consistency,
    canonical_json,
    main,
)
from weylkit.wigner import phase_from_json


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# global behavior
# ----------------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip()


def test_stdout_carries_the_canonical_report(tmp_path, capsys):
    code, out, _ = run(capsys, "check", "star", "--out", str(tmp_path))
    assert code == 0
    on_disk = (tmp_path / "check-star.json").read_text()
    assert out == on_disk + "\n" or out == on_disk
    payload = json.loads(out)
    assert canonical_json(payload) == on_disk.strip()


def test_reports_are_byte_identical_across_output_dirs(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert run(capsys, "check", "star", "--seed", "4", "--out", str(d1))[0] == 0
    assert run(capsys, "check", "star", "--seed", "4", "--out", str(d2))[0] == 0
    assert (d1 / "check-star.json").read_bytes() == (
        d2 / "check-star.json"
    ).read_bytes()


def test_report_envelope(tmp_path, capsys):
    run(capsys, "check", "symweyl", "--seed", "9", "--out", str(tmp_path))
    report = read_json(tmp_path / "check-symweyl.json")
    assert report["command"] == "check"
    assert report["seed"] == 9
    assert "version" in report
    assert "out" not in report["config"]
    assert report["config"]["seed"] == 9


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------


def test_config_file_values_and_cli_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn = 64\ndx = 0.25\nseed = 5\n")
    code, out, _ = run(
        capsys,
        "check",
        "star",
        "--config",
        str(cfg),
        "--seed",
        "7",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["n"] == 64
    assert report["config"]["dx"] == 0.25
    assert report["config"]["seed"] == 7  # CLI flag beats the file
    assert report["grid"] == {"n": 64, "dx": 0.25}


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("unknown = 1\n", "unknown"),
        ("n = not-a-number\n", "n"),
        ("n 64\n", "n 64"),
    ],
)
def test_config_file_errors(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    code, _, err = run(capsys, "check", "star", "--config", str(cfg))
    assert code == 2
    assert "error:" in err and fragment in err


# field -> (flag, value as text): one non-default value for every setting
_SETTINGS = {
    "n": ("--grid-n", "16"),
    "dx": ("--dx", "0.5"),
    "r_max": ("--r-max", "4"),
    "out": ("--out", "reports"),
    "format": ("--format", "csv"),
    "seed": ("--seed", "3"),
    "tol": ("--tol", "1e-06"),
}
_SUBCOMMANDS = {
    "wigner": ["wigner", "hermite:0"],
    "check": ["check", "star"],
    "factorize": ["factorize", "--tau", "1", "--sigma", "1", "--epsilon", "1"],
    "reps": ["reps"],
    "star-demo": ["star-demo"],
}


def test_every_setting_is_a_flag_and_a_config_key():
    assert set(_SETTINGS) == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@pytest.mark.parametrize("key", sorted(_SETTINGS))
def test_flag_and_config_key_give_the_same_config(tmp_path, monkeypatch, command, key):
    monkeypatch.chdir(tmp_path)
    flag, value = _SETTINGS[key]
    (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
    parser = _build_parser()
    by_flag = _build_config(parser.parse_args([*_SUBCOMMANDS[command], flag, value]))
    by_file = _build_config(parser.parse_args([*_SUBCOMMANDS[command], "--config", "run.cfg"]))
    assert by_flag == by_file
    assert by_flag[0] != RunConfig() and by_flag[1] == {key}


@pytest.mark.parametrize("source", ["flag", "file"])
def test_unknown_format_is_a_usage_error(tmp_path, monkeypatch, capsys, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("format = xml\n")
    args = ("--format", "xml") if source == "flag" else ("--config", "run.cfg")
    code, out, err = run(capsys, "star-demo", *args)
    assert code == 2 and err.startswith("error:") and "format" in err and not out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", "star", "--config", str(tmp_path / "no.cfg"))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "args",
    [
        ("check", "star", "--grid-n", "7"),
        ("check", "star", "--dx", "-0.5"),
        ("check", "star", "--tol", "-1"),
        ("check", "star", "--seed", "-3"),
        ("check", "star", "--format", "xml"),
        ("wigner", "hermite:0", "--dx", "inf"),
        ("factorize", "--tau", "1", "--sigma", "1", "--epsilon", "1", "--grid-n", "64"),
        ("factorize", "--tau", "inf", "--sigma", "1", "--epsilon", "1"),
        ("factorize", "--tau", "1", "--sigma", "inf", "--epsilon", "1"),
        # quadrature meshes past the cap, rejected before any allocation
        ("factorize", "--tau", "1e300", "--sigma", "1", "--epsilon", "1"),
        ("factorize", "--tau", "1e12", "--sigma", "1", "--epsilon", "1"),
        ("factorize", "--tau", "1", "--sigma", "1e300", "--epsilon", "1"),
        ("factorize", "--tau", "1", "--sigma", "1e12", "--epsilon", "1"),
    ],
)
def test_invalid_flag_values(tmp_path, monkeypatch, capsys, args):
    # no --out: a case that got past validation would write into the cwd
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, *args)
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("wigner", "hermite:0", "--grid-n", "100000", "--dx", "0.01"),
        ("check", "wigner", "--grid-n", "100000"),
        ("check", "star", "--grid-n", "2050"),
        ("check", "wigner", "--config", "n.cfg"),
    ],
)
def test_grid_size_past_the_cap_is_refused_before_allocating(tmp_path, monkeypatch, capsys,
                                                             args):
    # a 10^5 grid would need about 149 GiB; the refusal must cost nothing
    config_dir, work = tmp_path / "config", tmp_path / "work"
    config_dir.mkdir()
    work.mkdir()
    (config_dir / "n.cfg").write_text("n = 100000\n")
    monkeypatch.chdir(config_dir if "--config" in args else work)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and err.startswith("error:") and "2048" in err and not out
    assert list(work.iterdir()) == [] and list(config_dir.iterdir()) == [config_dir / "n.cfg"]
    assert peak < 2**20


def test_grid_size_at_the_cap_is_accepted(tmp_path):
    args = _build_parser().parse_args(["check", "wigner", "--grid-n", "2048",
                                       "--out", str(tmp_path)])
    assert _build_config(args)[0].n == 2048


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


def test_check_all_passes(tmp_path, capsys):
    code, out, _ = run(capsys, "check", "all", "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert (tmp_path / "check-all.json").exists()


def test_check_unknown_suite(capsys):
    code, _, _ = run(capsys, "check", "nosuch")
    assert code == 2


def test_check_fails_with_exit_one_on_coarse_grid(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "check",
        "wigner",
        "--grid-n",
        "16",
        "--dx",
        "0.5",
        "--out",
        str(tmp_path),
    )
    assert code == 1
    assert not json.loads(out)["passed"]


def test_check_loose_tolerance_passes_coarse_grid(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "check",
        "wigner",
        "--grid-n",
        "32",
        "--dx",
        "0.3125",
        "--tol",
        "1e-3",
        "--out",
        str(tmp_path),
    )
    assert code == 0


_NON_FINITE = "error: the run gives non-finite values; choose a grid spacing within float range\n"


def _basis_warning(err):
    """The one ``warning:`` line of ``err``, which must be the basis-extent warning."""
    lines = [line for line in err.splitlines(keepends=True) if line.startswith("warning: ")]
    assert len(lines) == 1 and lines[0].startswith("warning: top basis state"), err
    assert "turning radius" in lines[0]
    return lines[0]


@pytest.mark.parametrize("dx", ["1e-300", "1e-200", "1e152"])
def test_a_nan_residual_is_refused_not_passed(tmp_path, capsys, dx):
    # dx² leaves float range, so the relative Parseval residual is 0/0 or
    # inf/inf; a running Python max dropped that NaN and reported 0.0 as a pass
    code, out, err = run(capsys, "check", "wigner", "--dx", dx, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", _basis_warning(err) + _NON_FINITE)


@pytest.mark.parametrize(
    "argv",
    [("check", "star", "--dx", "1e300"), ("check", "wigner", "--dx", "1e-310"),
     ("star-demo", "--dx", "1e200")],
)
def test_extreme_spacings_warn_only_about_the_basis(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    # one basis warning and one error line: no numpy RuntimeWarning is printed
    assert code == 2 and not out
    assert err == _basis_warning(err) + _NON_FINITE


@pytest.mark.parametrize(
    "flags, argv, expected",
    [(("-W", "error"), ("check", "wigner", "--dx", "0.01"), 1),
     ((), ("wigner", "hermite:127", "--r-max", "200"), 0)],
)
def test_warnings_print_one_line_whatever_the_filters(tmp_path, flags, argv, expected):
    # -W error and PYTHONWARNINGS=error would turn the basis warning into a traceback
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(pathlib.Path(weylkit.__file__).parents[1])
    if not flags:
        env["PYTHONWARNINGS"] = "error"
    done = subprocess.run([sys.executable, *flags, "-m", "weylkit", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr == _basis_warning(done.stderr)


def test_main_restores_the_callers_warning_and_float_state(tmp_path, capsys):
    before = (warnings.showwarning, list(warnings.filters), np.geterr())
    run(capsys, "check", "wigner", "--dx", "1e152", "--out", str(tmp_path))
    assert (warnings.showwarning, list(warnings.filters), np.geterr()) == before


# ----------------------------------------------------------------------
# wigner
# ----------------------------------------------------------------------


def test_wigner_ground_state(tmp_path, capsys):
    code, out, _ = run(
        capsys, "wigner", "hermite:0", "--out", str(tmp_path), "--grid-n", "64"
    )
    assert code == 0
    body = json.loads(out)
    assert body["state"] == "hermite:0"
    assert abs(body["w_at_origin"] - 1 / math.pi) < 1e-8
    assert body["purity"]["idempotency"] < 1e-8
    assert (tmp_path / body["files"]["wigner"]).exists()
    assert (tmp_path / "wigner-report.json").exists()


def test_wigner_first_excited_origin(tmp_path, capsys):
    code, out, _ = run(capsys, "wigner", "hermite:1", "--out", str(tmp_path))
    assert code == 0
    body = json.loads(out)
    assert abs(body["w_at_origin"] + 1 / math.pi) < 1e-6


def test_wigner_superposition_is_normalized(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "wigner",
        "0.6*hermite:0 + 0.8j*hermite:1",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    body = json.loads(out)
    assert body["input_norm"] == pytest.approx(1.0, abs=1e-12)
    assert body["normalized"] is True
    assert body["purity"]["idempotency"] < 1e-8


def test_wigner_json_array_is_canonical_text(tmp_path, capsys):
    from weylkit.wigner import phase_from_json, phase_to_json

    code, out, _ = run(capsys, "wigner", "hermite:1", "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / json.loads(out)["files"]["wigner"]).read_text()
    A, grid = phase_from_json(text)  # floats round-trip bit-exactly
    assert text == canonical_json(phase_to_json(A, grid)) + "\n"


def test_wigner_csv_output(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "wigner",
        "hermite:2",
        "--format",
        "csv",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    name = json.loads(out)["files"]["wigner"]
    assert name.endswith(".csv")
    header = (tmp_path / name).read_text().splitlines()[0]
    assert header.startswith("# axes q:")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_wigner_array_carries_an_exact_zero_im(tmp_path, capsys, fmt):
    code, out, _ = run(
        capsys, "wigner", "0.6*hermite:0 + 0.8j*hermite:1", "--format", fmt, "--out", str(tmp_path)
    )
    assert code == 0
    text = (tmp_path / json.loads(out)["files"]["wigner"]).read_text()
    if fmt == "csv":
        rows = text.splitlines()[1:]
        assert len(rows) == 2 * 64 * 64 and all(row.endswith(",0.0") for row in rows)
    else:
        im = json.loads(text)["im"]
        assert '"im":[[0.0,' in text and np.array_equal(im, np.zeros((2 * 64, 64)))
        assert not np.signbit(im).any()


def test_wigner_state_from_file(tmp_path, capsys):
    # build a state file from the CLI's own basis convention: a JSON list
    from weylkit import GridSpec, hermite_basis

    grid = GridSpec(64, 0.25)
    psi = hermite_basis(grid, 1)[0]
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"re": psi.tolist()}))
    code, out, _ = run(
        capsys, "wigner", f"file:{state}", "--out", str(tmp_path)
    )
    assert code == 0
    body = json.loads(out)
    assert abs(body["w_at_origin"] - 1 / math.pi) < 1e-8


def test_wigner_state_file_csv_lines(tmp_path, capsys):
    from weylkit import GridSpec, hermite_basis

    grid = GridSpec(64, 0.25)
    psi = hermite_basis(grid, 2)[1]
    state = tmp_path / "state.txt"
    state.write_text("\n".join(f"{float(v)!r},0.0" for v in psi))
    code, out, _ = run(capsys, "wigner", f"file:{state}", "--out", str(tmp_path))
    assert code == 0
    assert abs(json.loads(out)["w_at_origin"] + 1 / math.pi) < 1e-6


@pytest.mark.parametrize(
    "state",
    [
        "hermite:99",
        "hermite:-1",
        "hermite:x",
        "0*hermite:0",
        "nonsense:3",
        "nan*hermite:0",
        "inf*hermite:0",
        "1e400*hermite:0",
        "1e300*hermite:0+1e300*hermite:1",
        "1e308*hermite:0+1e308*hermite:0+1e308*hermite:0",
        "file:{huge}",
        # specs outside the term grammar
        "",
        "+",
        "--hermite:0",
        "hermite:0)+(hermite:1",
        "2*3*hermite:0",
        "((2))*hermite:1",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wigner_bad_states(tmp_path, capsys, state):
    # bad coefficients and overflowing norms are the state's fault, not the grid's
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"re": [1e200] * 64}))
    code, _, err = run(capsys, "wigner", state.format(huge=huge))
    assert code == 2
    assert "error:" in err
    assert "grid spacing" not in err


def test_negative_basis_index_is_named(tmp_path, capsys):
    # the sign after "hermite:" is the index's, not the start of a second term
    code, _, err = run(capsys, "wigner", "hermite:-1", "--out", str(tmp_path))
    assert code == 2
    assert "basis index -1 out of range" in err
    assert "'hermite:'" not in err
    code, _, err = run(capsys, "wigner", "hermite:0-hermite:-2", "--out", str(tmp_path))
    assert code == 2
    assert "basis index -2 out of range" in err


# a real literal: digits, a point, and an exponent that may carry a sign
_REAL = st.builds(
    lambda whole, frac, exp: f"{whole}{frac}{exp}",
    st.integers(0, 999),
    st.sampled_from(["", ".", ".5", ".125"]),
    st.sampled_from(["", "e3", "E+2", "e-3", "e-20", "E+20"]),
)
_SPACE = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _state_terms(draw):
    """A spec from the term grammar and its terms as (sign, coefficient, k)."""
    parts, terms = [], []
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        kind = draw(st.sampled_from(["absent", "real", "imag", "pair"]))
        a, b = draw(_REAL), draw(_REAL)
        pair_sign = draw(st.sampled_from("+-"))
        text, coeff = {
            "absent": ("", 1.0),
            "real": (a, complex(float(a), 0.0)),
            "imag": (f"{a}j", complex(0.0, float(a))),
            "pair": (f"({a}{pair_sign}{b}j)", complex(float(a), float(pair_sign + b))),
        }[kind]
        if text:
            text += draw(_SPACE) + "*" + draw(_SPACE)
        k = draw(st.integers(0, 7))
        parts.append(sign + draw(_SPACE) + text + f"hermite:{k}" + draw(_SPACE))
        terms.append((-1.0 if sign == "-" else 1.0, coeff, k))
    return draw(_SPACE) + "".join(parts), terms


@given(_state_terms())
def test_state_grammar_gives_the_explicit_sum(spec_terms):
    from weylkit import hermite_basis
    from weylkit.cli import _parse_state

    spec, terms = spec_terms
    grid = GridSpec(64, 0.25)
    basis = hermite_basis(grid, max(k for _, _, k in terms) + 1)
    expected = np.zeros(grid.n, dtype=complex)
    for sign, coeff, k in terms:
        expected = expected + (sign * coeff) * basis[k]
    assert _parse_state(spec, grid, 8).tobytes() == expected.tobytes(), spec


@pytest.mark.parametrize(
    "state,fragment",
    [
        ("", "names no term"),
        ("  ", "names no term"),
        ("hermite:0)+(hermite:1", "parenthesis in state at ')+(hermite:1'"),
    ],
)
def test_state_spec_faults_are_named(tmp_path, capsys, state, fragment):
    # the spec is at fault, not a state it names
    code, _, err = run(capsys, "wigner", state, "--out", str(tmp_path))
    assert code == 2
    assert fragment in err and "identically zero" not in err


def test_leading_sign_spec_follows_a_double_dash_or_a_space(tmp_path, capsys):
    # argparse reads a bare leading '-' as an option, so the state is missing
    spec = "-0.5*hermite:1+hermite:2"
    code, _, err = run(capsys, "wigner", spec, "--out", str(tmp_path))
    assert code == 2 and "required: state" in err
    arrays = []
    for name, argv in (("dashes", ["--", spec]), ("space", [" " + spec])):
        code, out, _ = run(capsys, "wigner", "--out", str(tmp_path / name), *argv)
        assert code == 0
        arrays.append((tmp_path / name / json.loads(out)["files"]["wigner"]).read_bytes())
    assert arrays[0] == arrays[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wigner_tiny_states_are_not_zero(tmp_path, capsys):
    # the squares of 1e-170 underflow: the plain norm reads 0
    def wigner_array(state):
        out_dir = tmp_path / state
        code, out, _ = run(capsys, "wigner", state, "--out", str(out_dir))
        assert code == 0
        return json.loads(out), phase_from_json(read_json(out_dir / "wigner.json"))[0]

    _, ground = wigner_array("hermite:0")
    report, tiny = wigner_array("1e-170*hermite:0")
    assert report["input_norm"] == pytest.approx(1e-170, rel=1e-12)
    assert np.max(np.abs(tiny - ground)) <= 1e-12 * np.max(np.abs(ground))
    # subnormal samples: fewer bits, but a state all the same
    report, _ = wigner_array("1e-320*hermite:0")
    assert report["w_at_origin"] == pytest.approx(1 / math.pi, rel=1e-2)
    code, _, err = run(capsys, "wigner", "0*hermite:0", "--out", str(tmp_path / "zero"))
    assert code == 2 and "identically zero" in err


def test_wigner_builds_only_the_referenced_basis_rows(tmp_path, monkeypatch, capsys):
    import weylkit.cli

    counts = []
    build = weylkit.cli.hermite_basis

    def recording_basis(grid, count):
        counts.append(count)
        return build(grid, count)

    monkeypatch.setattr(weylkit.cli, "hermite_basis", recording_basis)
    code, _, _ = run(
        capsys, "wigner", "hermite:0", "--r-max", "100000", "--out", str(tmp_path)
    )
    assert code == 0
    assert counts == [1]
    code, _, _ = run(
        capsys, "wigner", "hermite:0 + hermite:3", "--out", str(tmp_path / "b")
    )
    assert code == 0
    assert counts == [1, 4]


def test_basis_index_past_2n_is_refused_before_building_the_basis(tmp_path, monkeypatch,
                                                                  capsys):
    # 10^8 rows of n = 2048 would be 1.5 TiB; --r-max alone does not bound them
    import weylkit.cli

    def never(grid, count):
        raise AssertionError(f"hermite_basis({count}) must not be called")

    monkeypatch.setattr(weylkit.cli, "hermite_basis", never)
    for index, n in (("99999999", "2048"), ("128", "64"), ("8", "4")):
        code, out, err = run(capsys, "wigner", f"hermite:{index}", "--r-max", "100000000",
                             "--grid-n", n, "--out", str(tmp_path))
        assert code == 2 and not out
        assert f"basis index {index} out of range for n = {n}" in err
    assert list(tmp_path.iterdir()) == []
    # the r_max check comes first and keeps its message
    code, _, err = run(capsys, "wigner", "hermite:99", "--grid-n", "4")
    assert code == 2 and "(r_max = 8)" in err


def test_wigner_bad_state_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"re": [1.0, 2.0]}))  # wrong length
    code, _, err = run(capsys, "wigner", f"file:{bad}")
    assert code == 2 and "error:" in err


# re and im of 64 samples each, or one broadcast over the other
_SAMPLES = json.dumps([0.1 * k for k in range(64)])


@pytest.mark.parametrize(
    "content",
    [
        f'{{"re": {_SAMPLES}, "im": 0.5}}',
        f'{{"re": {_SAMPLES}, "im": [0.0]}}',
        f'{{"re": 1.0, "im": {_SAMPLES}}}',
    ],
    ids=["im-scalar", "im-one-sample", "re-scalar"],
)
def test_wigner_state_file_parts_must_each_hold_n_samples(tmp_path, capsys, content):
    state = tmp_path / "state.json"
    state.write_text(content)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "wigner", f"file:{state}", "--out", str(out_dir))
    assert code == 2 and err.startswith("error:") and not out
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "name,content",
    [
        ("nan.json", '{"re": [1.0, NaN, 0.0, 0.0]}'),
        ("inf.csv", "1.0\ninf,0\n0\n0\n"),
        ("inf-im.json", '{"re": [1.0, 0.0, 0.0, 0.0], "im": [1e400, 0.0, 0.0, 0.0]}'),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wigner_non_finite_state_file(tmp_path, capsys, name, content):
    state = tmp_path / name
    state.write_text(content)
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "wigner", f"file:{state}", "--grid-n", "4", "--out", str(out_dir)
    )
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1 and not out
    assert not out_dir.exists()


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("entry", [True, False, "0.5", 2**64])
def test_wigner_state_file_holds_json_numbers_only(tmp_path, capsys, part, entry):
    # numpy would read these as 1.0, 0.0, 0.5 and 1.8e19 among float samples
    payload = {"re": [0.1 * k for k in range(64)], "im": [0.0] * 64}
    payload[part][10] = entry
    state = tmp_path / "state.json"
    state.write_text(json.dumps(payload))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "wigner", f"file:{state}", "--out", str(out_dir))
    assert code == 2 and not out and not out_dir.exists()
    assert err.startswith("error: malformed state file") and f"{part} must hold numbers" in err


def _no_work(*args, **kwargs):
    raise AssertionError("the command ran before --out was validated")


@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_not_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch, below):
    monkeypatch.setattr("weylkit.cli.hermite_basis", _no_work)
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep me\n")
    out = taken / "sub" if below else taken
    code, stdout, err = run(capsys, "star-demo", "--out", str(out))
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert not stdout
    assert taken.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_output_write_failure_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def disk_full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(pathlib.Path, "write_text", disk_full)
    code, stdout, err = run(capsys, "star-demo", "--out", str(tmp_path))
    assert code == 2 and err.startswith("error: cannot write outputs:")
    assert "No space left on device" in err and not stdout


def test_wigner_out_of_range_spacing_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "wigner", "hermite:0", "--grid-n", "4", "--dx", "1e-300", "--out", str(out_dir),
    )
    _basis_warning(err)  # the basis outgrows the tiny grid
    assert code == 2 and "error:" in err and not out
    assert not out_dir.exists()


# ----------------------------------------------------------------------
# factorize
# ----------------------------------------------------------------------


def test_factorize_consistent_family(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "factorize",
        "--tau",
        "1.0",
        "--sigma",
        "1.0",
        "--epsilon",
        "1",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert '"spec":{"background":0.0,"epsilon":1,"sigma":1.0,"tau":1.0}' in out
    body = json.loads(out)
    assert body["admitted"] is True
    assert body["residual"] < 1e-8
    recovered = read_json(tmp_path / body["recovered_A_path"])
    values = np.asarray(recovered["values"])
    qs = np.asarray(recovered["q"])
    ps = np.asarray(recovered["p"])
    assert values.shape == (qs.size, ps.size)
    expected = 2 * math.pi * np.exp(-(qs[:, None] ** 2) - ps[None, :] ** 2)
    assert np.max(np.abs(values - expected)) < 1e-6


def test_factorize_inconsistent_family_is_refused(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "factorize",
        "--tau",
        "1.0",
        "--sigma",
        "1.0",
        "--epsilon",
        "-1",
        "--out",
        str(tmp_path),
    )
    assert code == 1
    body = json.loads(out)
    assert body["admitted"] is False
    assert body["residual_ratio"] >= 1e3
    assert body["recovered_A_path"] is None


def test_factorize_override_forces_recovery(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "factorize",
        "--tau",
        "1.0",
        "--sigma",
        "1.0",
        "--epsilon",
        "-1",
        "--override",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    body = json.loads(out)
    assert body["overridden"] is True
    assert body["recovered_A_path"] is not None


def test_factorize_csv_recovery(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "factorize",
        "--tau",
        "1.0",
        "--sigma",
        "1.0",
        "--epsilon",
        "1",
        "--format",
        "csv",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    path = tmp_path / json.loads(out)["recovered_A_path"]
    lines = path.read_text().splitlines()
    assert lines[0] == "# columns q,p,A"
    q, p, a = (float(part) for part in lines[1].split(","))
    assert abs(a - 2 * math.pi * math.exp(-(q**2) - p**2)) < 1e-6


def test_factorize_grid_consistency_check(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "factorize",
        "--tau",
        "1.0",
        "--sigma",
        "1.0",
        "--epsilon",
        "1",
        "--grid-n",
        "32",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    body = json.loads(out)
    assert body["grid_consistency"] < 1e-10


def _grid_consistency_loop(spec, n, seed):
    """The per-point loop that cli._grid_consistency replaced (oracle)."""
    grid = GridSpec(n, float(np.sqrt(np.pi / n)))
    samples = spec.a_function(grid.q_matrix(), grid.p_matrix())
    gridded = alpha_kernel_from_A(samples, grid)
    closed = spec.alpha_kernel()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        q1, p1 = rng.uniform(-1.5, 1.5, size=2)
        jq, jp = rng.integers(-8, 9, size=2)
        q2 = q1 + jq * grid.dx / 2
        p2 = p1 + jp * grid.dp / 2
        worst = max(worst, float(abs(gridded(q1, p1, q2, p2) - closed(q1, p1, q2, p2))))
    return worst


@pytest.mark.parametrize("n,seed", [(16, 0), (32, 0), (32, 7)])
def test_grid_consistency_matches_the_per_point_loop(n, seed):
    spec = GaussianAlphaSpec(1.0, 1.0, 1)
    expected = _grid_consistency_loop(spec, n, seed)
    got = _grid_consistency(spec, n, seed)
    assert got > 0
    assert abs(got - expected) <= 1e-12 * expected


@pytest.mark.parametrize(
    "flags,gates",
    [
        (("--epsilon", "1"), 1),
        (("--epsilon", "1", "--grid-n", "32"), 1),
        # the refused sign also runs the calibration residual of ε = +1
        (("--epsilon", "-1"), 2),
        (("--epsilon", "-1", "--override"), 2),
    ],
)
def test_factorize_computes_each_gate_once(tmp_path, capsys, monkeypatch, flags, gates):
    factorize_module = importlib.import_module("weylkit.factorize")
    original = factorize_module.autv_residual
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the CLI imports the gate from its owning module when the command runs
    monkeypatch.setattr(factorize_module, "autv_residual", counted)
    run(capsys, "factorize", "--tau", "1.0", "--sigma", "1.0", *flags, "--out", str(tmp_path))
    assert len(calls) == gates


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_factorize_outputs_are_byte_identical_across_runs(tmp_path, capsys, fmt):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        args = ("--tau", "0.8", "--sigma", "1.25", "--epsilon", "-1", "--override")
        assert run(capsys, "factorize", *args, "--format", fmt, "--out", str(out))[0] == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["factorize-report.json", f"recovered_A.{fmt}"]
    assert outputs[0] == outputs[1]


def test_factorize_too_narrow_a_width_names_the_widths(tmp_path, capsys):
    # the v box is so narrow that the quadrature cannot tell the signs apart:
    # the epsilon = +1 residual that scales residual_ratio equals the -1 one
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "factorize", "--tau", "1.1", "--sigma", "5e-324",
                         "--epsilon", "-1", "--out", str(out_dir))
    assert code == 2 and err.startswith("error:") and not out
    assert "sigma" in err and "grid spacing" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("tau,sigma", [("5e-324", "1.1"), ("1.1", "1e-100")])
def test_factorize_refuses_widths_where_the_signs_tie(tmp_path, capsys, tau, sigma):
    # both residuals are rounding, equal at these widths: no ratio to report
    widths = ("--tau", tau, "--sigma", sigma, "--out", str(tmp_path))
    code, out, err = run(capsys, "factorize", *widths, "--epsilon", "-1")
    assert code == 2 and not out and not any(tmp_path.iterdir())
    assert f"--tau {float(tau)!r} and --sigma {float(sigma)!r} are too narrow" in err
    assert run(capsys, "factorize", *widths, "--epsilon", "1")[0] == 0


@pytest.mark.parametrize("tau,sigma", [("1e12", "1"), ("1", "1e12"), ("5e6", "5")])
def test_factorize_refuses_a_mesh_past_the_cap_by_the_mesh_rule(capsys, tau, sigma):
    factorize_module = importlib.import_module("weylkit.factorize")
    with pytest.raises(ValueError, match="exceeds the cap") as refusal:
        factorize_module._uv_mesh(GaussianAlphaSpec(float(tau), float(sigma)).r_function())
    code, out, err = run(capsys, "factorize", "--tau", tau, "--sigma", sigma, "--epsilon", "1")
    assert (code, out, err) == (2, "", f"error: {refusal.value}\n")


def test_factorize_usage_errors(capsys):
    assert run(capsys, "factorize", "--tau", "-1", "--sigma", "1", "--epsilon", "1")[0] == 2
    assert run(capsys, "factorize", "--tau", "1", "--sigma", "1", "--epsilon", "0")[0] == 2
    assert run(capsys, "factorize", "--tau", "1", "--sigma", "1")[0] == 2
    # the gridded gate only applies to the consistent sign
    assert (
        run(
            capsys,
            "factorize",
            "--tau",
            "1",
            "--sigma",
            "1",
            "--epsilon",
            "-1",
            "--grid-n",
            "16",
        )[0]
        == 2
    )


# ----------------------------------------------------------------------
# reps and star-demo
# ----------------------------------------------------------------------


def test_reps_report(tmp_path, capsys):
    code, out, _ = run(capsys, "reps", "--out", str(tmp_path))
    assert code == 0
    body = json.loads(out)
    casimirs = [e["casimir_value"] for e in body["examples"]]
    assert -0.1875 in casimirs
    assert (tmp_path / "reps-report.json").exists()


def test_star_demo(tmp_path, capsys):
    code, out, _ = run(capsys, "star-demo", "--out", str(tmp_path))
    assert code == 0
    body = json.loads(out)
    assert body["passed"] is True
    assert (tmp_path / body["files"]["product"]).exists()
    assert (tmp_path / "star-demo-report.json").exists()


# ----------------------------------------------------------------------
# pinned report bytes of the exact suites
# ----------------------------------------------------------------------

# sha256 of the report files; these suites are exact, so the bytes do not
# depend on the machine
EXACT_REPORTS = {
    ("symweyl", 0): "985ed2ed321cc1b84a85fa2e2622ffce32e51ea5afbaf5034579072553368e8f",
    ("liftgen", 0): "c38229dfd32f06acfd723fc4ba6b8bfbd7f2a901d19c61fdd271f15dc588b3db",
    ("symweyl", 1): "467ac5c12dadd749a8fff1b295b03850c1899582ebad9e2782aeea01fa78bf9d",
    ("liftgen", 1): "09570d7889927bc670acc8c6cf6197f86136d8f2b3868133f5d898fa194cc5bd",
}


@pytest.mark.parametrize("suite, seed", sorted(EXACT_REPORTS))
def test_exact_suite_reports_are_pinned(tmp_path, capsys, suite, seed):
    code, out, _ = run(capsys, "check", suite, "--seed", str(seed), "--out", str(tmp_path))
    assert code == 0
    data = (tmp_path / f"check-{suite}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXACT_REPORTS[suite, seed]
    assert out.encode() == data


# ----------------------------------------------------------------------
# exit-code contract over generated argv
# ----------------------------------------------------------------------

def _mostly(valid, refused):
    """Valid values four draws in five, so most argv get past the usage
    checks into the computation; refused extremes on the fifth."""
    return st.sampled_from([valid] * 4 + [refused]).flatmap(lambda values: values)


# non-finite and extreme values beside ordinary ones; grid sizes stay small
# (or are refused before any allocation), so no example allocates much
_FLOATS = _mostly(
    st.floats(0.05, 5.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300,
                     1e-20, 1e20, 1e300, 1.7e308]),
)
_COUNTS = _mostly(st.sampled_from([1, 2, 8]), st.sampled_from([-1, 0, 10**30]))
_STATES = _mostly(
    st.sampled_from(["hermite:0", "hermite:3", "(0.5+0.5j)*hermite:1-hermite:2",
                     "0*hermite:0"]),
    st.sampled_from(["hermite:99", "bogus", "hermite:x", "file:missing.json",
                     "1e308*hermite:0", "nan*hermite:0"]),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["wigner", "check", "factorize", "reps", "star-demo"]))
    argv = [command]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, str(draw(values))])

    if command == "factorize":
        argv += ["--tau", repr(draw(_FLOATS)), "--sigma", repr(draw(_FLOATS)),
                 "--epsilon", draw(_mostly(st.sampled_from(["1", "-1"]), st.just("0")))]
        # 10**30 and 34 are refused by the dense-tabulation bound
        maybe("--grid-n", _mostly(st.sampled_from([4, 6, 8]),
                                  st.sampled_from([-4, 3, 34, 10**30])))
        if draw(st.booleans()):
            argv.append("--override")
        maybe("--tol", _FLOATS.map(repr))
        return argv
    if command == "wigner":
        argv.append(draw(_STATES))
    if command == "check":
        argv.append(draw(st.sampled_from(["wigner", "star", "symweyl", "liftgen", "reps",
                                          "all"])))
    argv += ["--grid-n", str(draw(_mostly(st.sampled_from([4, 6, 8, 16]),
                                          st.sampled_from([5, -4]))))]
    maybe("--dx", _FLOATS.map(repr))
    maybe("--r-max", _COUNTS)
    maybe("--seed", _COUNTS)
    maybe("--tol", _FLOATS.map(repr))
    maybe("--format", _mostly(st.sampled_from(["csv", "json"]), st.just("xml")))
    return argv


# requests that once ended in a traceback
@example(argv=["check", "star", "--grid-n", "4"])
@example(argv=["check", "star", "--grid-n", "8", "--tol", "inf"])
@example(argv=["check", "star", "--grid-n", "8", "--dx", "1e+300"])
@example(argv=["check", "star", "--grid-n", "6", "--dx", "1e-300"])
@example(argv=["check", "wigner", "--grid-n", "4", "--dx", "1.7e+308"])
@example(argv=["star-demo", "--grid-n", "8", "--dx", "1e+300"])
@example(argv=["factorize", "--tau", "1.0", "--sigma", "1.0", "--epsilon", "1", "--grid-n", "4"])
@example(argv=["wigner", "hermite:0", "--grid-n", "100000", "--dx", "0.01"])
@example(argv=["check", "wigner", "--grid-n", "100000"])
@given(argv=_argv())
def test_every_argv_keeps_the_exit_code_contract(argv):
    # every example runs in a fresh empty directory, so nothing it writes
    # (or fails to write) can reach the next one
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            # no warning filter here: under the suite's filterwarnings = error,
            # a warning that escapes main fails the example
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
