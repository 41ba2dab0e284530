"""Command-line driver: demos, invariant suites, factorisation, data export.

Every run emits a canonical JSON report (sorted keys, compact separators,
no timestamps) embedding the effective config, the seed, and the tool
version, so identical config + seed reproduce byte-identical reports.
Array outputs are written in the CSV or JSON layouts of
:mod:`weylkit.wigner`; reports themselves are always JSON.  Each command
imports the layers it uses, so a grid request loads no exact module.

Exit codes: 0 success, 1 invariant failure or gate refusal, 2 usage error
(including a grid size n above ``_GRID_N_MAX``, an ``--out`` that is not
a directory, outputs that cannot be written, or a run whose values leave
float range, which writes nothing).  Every command runs with numpy's float
warnings off; a warning from the library prints as one ``warning:`` line on
stderr, whatever the interpreter's warning filters say.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .checks import SUITE_NAMES, run_all, run_suite
from .grids import _CANONICAL, GridSpec, _json_numbers, hermite_basis

__all__ = ["RunConfig", "main"]


class UsageError(Exception):
    """Invalid arguments, config, or input files (exit code 2)."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def _setting(default, flag: str, kind: type, help_text: str):
    """A run setting: its default, its flag on every subcommand, the type that
    flag and config-file key are read with, and its help."""
    return field(default=default, metadata={"flag": flag, "type": kind, "help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Effective run configuration, recorded verbatim in every report."""

    n: int = _setting(64, "--grid-n", int, "grid size n")
    dx: float = _setting(0.25, "--dx", float, "grid spacing")
    r_max: int = _setting(8, "--r-max", int, "basis size bound")
    out: str = _setting(".", "--out", str, "output directory (default '.')")
    format: str = _setting("json", "--format", str, "array file format: json (default) or csv")
    seed: int = _setting(0, "--seed", int, "seed for randomized checks")
    tol: float | None = _setting(None, "--tol", float, "tolerance override")


# every grid array is n x n or 2n x n complex, so n bounds the memory a
# run can ask for before anything is allocated
_GRID_N_MAX = 2048


def _load_config_file(path: str) -> dict:
    """Parse a flat key=value config file ('#' starts a comment)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    types = {setting.name: setting.metadata["type"] for setting in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in types:
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(known: {', '.join(sorted(types))})"
            )
        try:
            values[key] = types[key](value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def _build_config(args) -> tuple:
    """Resolve defaults <- config file <- CLI flags; returns (config, explicit)."""
    values = _load_config_file(args.config) if args.config else {}
    for setting in fields(RunConfig):
        flag = getattr(args, setting.name)
        if flag is not None:
            values[setting.name] = flag
    explicit = set(values)
    config = RunConfig(**values)
    if config.format not in ("csv", "json"):
        raise UsageError("format must be 'csv' or 'json'")
    if config.r_max < 1:
        raise UsageError("r_max must be a positive integer")
    if config.seed < 0:
        raise UsageError("seed must be non-negative")
    if config.tol is not None and not 0 < config.tol < float("inf"):
        raise UsageError("tol must be positive and finite")
    if config.n > _GRID_N_MAX:
        raise UsageError(f"grid size n is limited to {_GRID_N_MAX}, got {config.n}")
    try:
        GridSpec(config.n, config.dx)
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_out(config.out)
    return config, explicit


def _check_out(out: str) -> None:
    """Refuse an output directory that cannot be made, without making it.

    The path itself, or else its nearest existing ancestor, must be a
    directory; this runs before any work so a bad ``--out`` costs nothing.
    """
    path = Path(out)
    try:
        existing = next((p for p in (path, *path.parents) if p.exists()), None)
    except OSError as exc:  # a name too long, a loop of links, ...
        raise UsageError(f"cannot use {out!r} as the output directory: {exc}")
    if existing is not None and not existing.is_dir():
        where = "is" if existing == path else f"lies below {str(existing)!r}, which is"
        raise UsageError(f"--out {out!r} {where} not a directory")


def _grid(config: RunConfig) -> GridSpec:
    return GridSpec(config.n, config.dx)


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------


def canonical_json(report: dict) -> str:
    return _CANONICAL.encode(report)


def _envelope(command: str, config: RunConfig, body: dict) -> dict:
    # the output directory is deliberately not embedded: the same
    # config + seed gives byte-identical reports wherever they land
    settings = asdict(config)
    del settings["out"]
    return {
        "command": command,
        "config": settings,
        "seed": config.seed,
        "version": __version__,
        **body,
    }


def _emit(name: str, report: dict, config: RunConfig, files: dict) -> None:
    """Write ``files`` and then the report ``name`` under ``--out``; print the report.

    ``files`` maps a file name to (values, write); ``write(fh, values)``
    writes the file.  The report is encoded and every values array checked
    before the directory is made, so a non-finite run writes nothing.
    """
    try:
        text = canonical_json(report)
    except ValueError:  # allow_nan=False: a NaN or inf reached the report
        raise FloatingPointError from None
    if not all(np.isfinite(values).all() for values, _ in files.values()):
        raise FloatingPointError
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for file_name, (values, write) in files.items():
        with open(out / file_name, "w") as fh:
            write(fh, values)
    (out / name).write_text(text + "\n")
    print(text)


def _phase_writer(grid: GridSpec, config: RunConfig):
    from .wigner import write_phase_csv, write_phase_json
    write = write_phase_csv if config.format == "csv" else write_phase_json
    return lambda fh, A: write(fh, A, grid)


# ----------------------------------------------------------------------
# wigner subcommand
# ----------------------------------------------------------------------


# One term of a superposition: [sign] [coefficient "*"] name.  A piece of a
# term is a parenthesised group, a character that is neither a parenthesis nor
# a sign, or a sign after e, E, *, / or : (it starts a number: 1e-3,
# hermite:-1).  Any other sign starts the next term.  complex() and int()
# judge the coefficient and the index.
_PIECE = r"\([^()]*\) | [^()+-] | (?<=[eE*/:])[+-]"
_STATE_TERM = re.compile(
    rf"""
    (?P<sign>[+-])?\s*
    (?P<body>(?:(?P<coeff>(?:{_PIECE})*)\*)?    # up to the last '*' outside a group
             (?P<name>(?:(?!\*)(?:{_PIECE}))*))
    """,
    re.VERBOSE,
)


def _basis_index(name: str, r_max: int) -> int:
    kind, sep, index = name.partition(":")
    if kind != "hermite" or not sep:
        raise UsageError(f"unknown state name {name!r} (expected 'hermite:k')")
    try:
        k = int(index)
    except ValueError:
        raise UsageError(f"bad basis index in {name!r}")
    if not 0 <= k < r_max:
        raise UsageError(f"basis index {k} out of range (r_max = {r_max})")
    return k


def _load_state_file(path: str, n: int) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read state file: {exc}")
    try:
        if path.endswith(".json"):
            payload = json.loads(text)
            re = _json_numbers(payload["re"], "re")
            im = _json_numbers(payload.get("im", np.zeros_like(re)), "im")
            if im.shape != re.shape:  # one would broadcast over the other
                raise UsageError(f"state file {path!r}: im has shape {im.shape}, re {re.shape}")
            psi = np.empty(re.shape, dtype=complex)  # 1j * inf would put a NaN in .real
            psi.real, psi.imag = re, im
        else:
            rows = [ln for ln in text.splitlines() if ln.strip()]
            psi = np.array(
                [
                    complex(*(float(part) for part in ln.split(",")))
                    if "," in ln
                    else complex(float(ln))
                    for ln in rows
                ]
            )
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"malformed state file {path!r}: {exc}")
    if not np.isfinite(psi).all():
        raise UsageError(f"state file {path!r} holds non-finite samples")
    if psi.shape != (n,):
        raise UsageError(
            f"state file holds {psi.size} samples but the grid needs {n}"
        )
    return psi


def _parse_state(spec: str, grid: GridSpec, r_max: int) -> np.ndarray:
    spec = spec.strip()
    if spec.startswith("file:"):
        return _load_state_file(spec[5:], grid.n)
    if not spec:
        raise UsageError("the state spec names no term (expected e.g. 'hermite:0')")
    terms, pos = [], 0
    while pos < len(spec):
        term = _STATE_TERM.match(spec, pos)
        pos = term.end()
        if pos < len(spec) and spec[pos] not in "+-":  # a term ends at a sign
            raise UsageError(f"unpaired or nested parenthesis in state at {spec[pos:]!r}")
        coeff = 1.0
        if term["coeff"] is not None:
            try:
                coeff = complex(term["coeff"])
            except ValueError:
                raise UsageError(f"bad coefficient {term['coeff']!r} in state")
            if not np.isfinite(coeff):
                raise UsageError(f"coefficient of term {term['body'].rstrip()!r} is not finite")
        sign = -1.0 if term["sign"] == "-" else 1.0
        terms.append((sign * coeff, _basis_index(term["name"].strip(), r_max)))
    # rows only up to the highest referenced index, however large r_max is,
    # and never more than 2n: the basis stays within half of one phase array
    top = max(k for _, k in terms)
    if top + 1 > 2 * grid.n:
        raise UsageError(
            f"basis index {top} out of range for n = {grid.n} (at most 2n - 1 = {2 * grid.n - 1})"
        )
    basis = hermite_basis(grid, top + 1)
    psi = np.zeros(grid.n, dtype=complex)
    for coeff, k in terms:
        psi = psi + coeff * basis[k]  # an overflow shows as a non-finite norm
    return psi


def cmd_wigner(args, config: RunConfig, explicit) -> int:
    grid = _grid(config)
    psi = _parse_state(args.state, grid, config.r_max)
    norm = float(np.sqrt(grid.dx) * np.linalg.norm(psi))
    peak = 1.0
    if norm == 0.0 and psi.any():  # the squares of tiny samples underflow
        # by parts: a complex divide by a subnormal peak overflows
        peak = float(np.max(np.abs(psi)))
        psi = psi.real / peak + 1j * (psi.imag / peak)
        norm = float(np.sqrt(grid.dx) * np.linalg.norm(psi))
    if not np.isfinite(norm):
        raise UsageError(
            "the state's norm is not finite: its coefficients or samples are too large"
        )
    if norm == 0.0:
        raise UsageError("state is identically zero")
    psi = psi / norm  # unit norm: dx * sum |psi|^2 = 1
    from .star import purity_residual  # here: a bad state loads no grid layer
    from .wigner import wigner_of_state
    W = wigner_of_state(psi, grid)
    r1, r2 = purity_residual(W, grid)
    name = f"wigner.{config.format}"
    report = _envelope(
        "wigner",
        config,
        {
            "state": args.state,
            "input_norm": norm * peak,
            "normalized": True,
            "purity": {"idempotency": r1, "integrals": r2},
            "w_at_origin": float(W[grid.n, grid.n // 2].real),
            "files": {"wigner": name},
        },
    )
    _emit("wigner-report.json", report, config, {name: (W, _phase_writer(grid, config))})
    return 0


# ----------------------------------------------------------------------
# check and reps subcommands
# ----------------------------------------------------------------------


def cmd_check(args, config: RunConfig, explicit) -> int:
    """Run ``args.suite``; ``reps`` is this command on the reps suite."""
    grid = _grid(config) if explicit & {"n", "dx"} else None
    if args.suite == "all":
        body = run_all(seed=config.seed, tol=config.tol, grid=grid)
    else:
        body = run_suite(args.suite, seed=config.seed, tol=config.tol, grid=grid)
    report = _envelope(args.command, config, body)
    name = "reps-report.json" if args.command == "reps" else f"check-{args.suite}.json"
    _emit(name, report, config, {})
    return 0 if body["passed"] else 1


# ----------------------------------------------------------------------
# factorize subcommand
# ----------------------------------------------------------------------


def _recovery_lattice():
    ticks = np.linspace(-2.0, 2.0, 17)
    return ticks, [(x, y) for x in ticks for y in ticks]


def _recovered_writer(ticks, config: RunConfig):
    """write(fh, values) for A at (ticks[i], ticks[j]) = values[i, j]."""
    def write(fh, values):
        if config.format == "json":
            payload = {"q": ticks.tolist(), "p": ticks.tolist(), "values": values.tolist()}
            return fh.write(canonical_json(payload) + "\n")
        fh.write("# columns q,p,A\n")
        for i, x in enumerate(ticks):
            for j, y in enumerate(ticks):
                fh.write(f"{float(x)!r},{float(y)!r},{float(values[i, j])!r}\n")
    return write


def _grid_consistency(spec, n: int, seed: int) -> float:
    """Residual between the gridded forward map and the closed-form kernel.

    Samples the generating symbol of ``spec``, a ``GaussianAlphaSpec``, on
    an n-point grid, rebuilds the two-point kernel from the samples, and
    compares it with the closed form at random shift-aligned point pairs.
    """
    from .factorize import alpha_kernel_from_A
    grid = GridSpec(n, float(np.sqrt(np.pi / n)))
    qs, ps = grid.q_matrix(), grid.p_matrix()
    samples = spec.a_function(qs, ps)
    gridded = alpha_kernel_from_A(samples, grid)
    closed = spec.alpha_kernel()
    rng = np.random.default_rng(seed)
    # 100 point pairs, each drawn as (q1, p1) then (jq, jp), in that order
    draws = [
        (rng.uniform(-1.5, 1.5, size=2), rng.integers(-8, 9, size=2)) for _ in range(100)
    ]
    starts, shifts = zip(*draws)
    (q1, p1), (jq, jp) = np.array(starts).T, np.array(shifts).T
    q2 = q1 + jq * grid.dx / 2
    p2 = p1 + jp * grid.dp / 2
    return float(np.max(np.abs(gridded(q1, p1, q2, p2) - closed(q1, p1, q2, p2))))


def cmd_factorize(args, config: RunConfig, explicit) -> int:
    from .factorize import (_DENSE_N_MAX, _STEP, _THRESHOLD, GaussianAlphaSpec, _uv_mesh,
                            autv_residual, recover_A)
    try:
        spec = GaussianAlphaSpec(args.tau, args.sigma, args.epsilon)
        R = spec.r_function()
        _uv_mesh(R)  # refuses a mesh past the cap before any quadrature runs
    except ValueError as exc:
        raise UsageError(str(exc))
    # --grid-n is checked as a grid when the config is built; a config-file
    # n does not ask for the consistency grid
    if args.n is not None:
        if spec.epsilon != 1:
            raise UsageError(
                "--grid-n samples the generating symbol, which exists only "
                "for epsilon = +1"
            )
        if args.n > _DENSE_N_MAX:
            raise UsageError(
                f"--grid-n is limited to {_DENSE_N_MAX} (the kernel tabulation is dense)"
            )
        if args.n < 6:
            raise UsageError(
                "--grid-n must be at least 6: the consistency probes shift by up "
                "to 8 half-steps, past the lattice of a smaller grid"
            )
    threshold = config.tol if config.tol is not None else _THRESHOLD
    residual = autv_residual(R)

    ratio = None
    if spec.epsilon == -1:
        calibration = autv_residual(
            GaussianAlphaSpec(spec.tau, spec.sigma, 1).r_function()
        )
        # both residuals are rounding once the mesh cannot resolve a width
        if not 0.0 < calibration < residual:
            raise UsageError(
                f"--tau {spec.tau!r} and --sigma {spec.sigma!r} are too narrow for the quadrature "
                f"step {_STEP}: the epsilon = +1 residual {calibration:.3g} that scales "
                f"residual_ratio is not between 0 and the epsilon = -1 residual {residual:.3g}"
            )
        ratio = float(residual / calibration)

    grid_consistency = None
    if args.n is not None:
        grid_consistency = _grid_consistency(spec, args.n, config.seed)

    admitted = residual <= threshold
    files = {}
    ticks, points = _recovery_lattice()
    if admitted or args.override:
        # the gate above has already decided; recover without repeating it
        values = np.asarray(recover_A(R, points, override=True), dtype=float)
        files[f"recovered_A.{config.format}"] = (values.reshape(ticks.size, -1),
                                                 _recovered_writer(ticks, config))

    body = {
        "spec": {
            "tau": spec.tau,
            "sigma": spec.sigma,
            "epsilon": spec.epsilon,
            "background": 0.0,
        },
        "residual": residual,
        "threshold": threshold,
        "admitted": admitted,
        "overridden": bool(args.override and not admitted),
        "residual_ratio": ratio,
        "recovered_A_path": next(iter(files), None),
        "box": {"q": [-2.0, 2.0], "p": [-2.0, 2.0]},
        "probe_lattice": {"count": int(ticks.size), "step": float(ticks[1] - ticks[0])},
    }
    if grid_consistency is not None:
        body["grid_consistency"] = grid_consistency
    report = _envelope("factorize", config, body)
    _emit("factorize-report.json", report, config, files)
    return 0 if admitted or args.override else 1


# ----------------------------------------------------------------------
# star-demo subcommand
# ----------------------------------------------------------------------


def cmd_star_demo(args, config: RunConfig, explicit) -> int:
    from .star import purity_residual, star
    from .wigner import weyl_wigner, wigner_of_state
    grid = (
        _grid(config)
        if explicit & {"n", "dx"}
        else GridSpec(32, 0.3125)
    )
    basis = hermite_basis(grid, 2)
    w0 = wigner_of_state(basis[0], grid)
    w1 = wigner_of_state(basis[1], grid)
    phi01 = weyl_wigner(np.outer(basis[0], basis[1].conj()), grid)
    phi10 = weyl_wigner(np.outer(basis[1], basis[0].conj()), grid)
    phi00 = weyl_wigner(np.outer(basis[0], basis[0].conj()), grid)

    # each identity's residual, in report order; product is also written out
    residuals = {
        "ground state is a star projector": np.max(purity_residual(w0, grid)),
        "first excited state is a star projector": np.max(purity_residual(w1, grid)),
        "orthogonal projectors star to zero: W0 * W1 = 0": np.max(np.abs(star(w0, w1, grid))),
        "transition symbols are star matrix units: Phi_01 * Phi_10 = Phi_00":
            np.max(np.abs((product := star(phi01, phi10, grid)) - phi00)),
        "off-diagonal symbols are star-nilpotent: Phi_01 * Phi_01 = 0":
            np.max(np.abs(star(phi01, phi01, grid))),
    }

    tol = config.tol if config.tol is not None else 1e-8
    passed = bool(np.max(list(residuals.values())) <= tol)

    name = f"star-demo-product.{config.format}"
    report = _envelope(
        "star-demo",
        config,
        {
            "grid": {"n": grid.n, "dx": grid.dx},
            "invariants": [
                {"name": label, "residual": float(residual)}
                for label, residual in residuals.items()
            ],
            "tolerance": tol,
            "passed": passed,
            "files": {"product": name},
        },
    )
    _emit("star-demo-report.json", report, config,
          {name: (product, _phase_writer(grid, config))})
    return 0 if passed else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_common(sub, **reworded) -> None:
    """Add every run setting, and --config, to ``sub``; ``reworded`` maps a field to its help."""
    for setting in fields(RunConfig):
        meta = setting.metadata
        sub.add_argument(meta["flag"], dest=setting.name, type=meta["type"],
                         help=reworded.get(setting.name, meta["help"]))
    sub.add_argument("--config", help="flat key=value config file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Phase-space transform demos, invariant suites, and "
        "kernel factorisation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    wigner = subs.add_parser(
        "wigner", help="Wigner function of a named or sampled state"
    )
    wigner.add_argument(
        "state",
        help="'hermite:k', a superposition like '0.6*hermite:0+0.8j*hermite:1', "
        "or 'file:PATH'; put '--' before a spec that starts with '-' "
        "(wigner -- '-0.5*hermite:1'), or start it with a space",
    )
    _add_common(wigner)
    wigner.set_defaults(func=cmd_wigner)

    check = subs.add_parser("check", help="run a named invariant suite")
    check.add_argument("suite", choices=("all",) + SUITE_NAMES)
    _add_common(check)
    check.set_defaults(func=cmd_check)

    factorize = subs.add_parser(
        "factorize", help="consistency gate + symbol recovery for Gaussian kernels"
    )
    factorize.add_argument("--tau", type=float, required=True, help="position width")
    factorize.add_argument("--sigma", type=float, required=True, help="momentum width")
    factorize.add_argument(
        "--epsilon", type=int, required=True, choices=(1, -1), help="sign parameter"
    )
    factorize.add_argument(
        "--override",
        action="store_true",
        help="recover even when the consistency gate refuses",
    )
    _add_common(factorize, n="also cross-check the gridded forward map at this grid size")
    factorize.set_defaults(func=cmd_factorize)

    reps = subs.add_parser(
        "reps", help="group-representation factorisation reports"
    )
    _add_common(reps)
    reps.set_defaults(func=cmd_check, suite="reps")

    demo = subs.add_parser("star-demo", help="worked star-product demonstration")
    _add_common(demo)
    demo.set_defaults(func=cmd_star_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # one float rule and one warning channel for every command, restored on
    # return: numpy's float warnings are off (_emit refuses a non-finite
    # value), and each library warning prints once per place as one line
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config, explicit = _build_config(args)
            return args.func(args, config, explicit)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:  # reads are UsageErrors already: this is an output write
            print(f"error: cannot write outputs: {exc}", file=sys.stderr)
            return 2
        except ArithmeticError:  # from _emit, a float overflow or a division by an underflowed 0
            print("error: the run gives non-finite values; choose a grid spacing within "
                  "float range", file=sys.stderr)
            return 2
