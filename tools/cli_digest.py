"""Digest what a fixed list of ``weylkit`` commands print and write.

Each command of ``COMMANDS`` runs as ``python -m weylkit ...``, and each of
``W_ERROR`` as ``python -W error -m weylkit ...``, with the tree's ``src``
first on ``PYTHONPATH`` and ``PYTHONWARNINGS`` unset, in a fresh temporary
directory that holds only the input files of ``INPUTS``.  One line is
printed per command: a sha256 over its stdout, its stderr, its exit code
and the name and bytes of every file it wrote, then the command.  The
temporary directory and the tree path are replaced by fixed tokens before
hashing, so two trees print the same line exactly when the command behaves
the same in both.

    python tools/cli_digest.py [TREE]

TREE defaults to the tree that holds this script.  To check that a change
leaves the command line byte-identical, digest both trees and compare:

    python tools/cli_digest.py path/to/parent > parent.txt
    python tools/cli_digest.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SUITES = ("all", "wigner", "star", "symweyl", "liftgen", "reps")
SEEDS = (0, 1, 5, 7)
# grid spacings from a subnormal to near the float range
DX_SWEEP = ("1e-310", "1e-300", "1e-100", "1e-10", "0.01", "0.25", "1", "10", "1e10",
            "1e100", "1e300")


def _with(samples: list, changes: dict) -> list:
    samples = list(samples)
    for index, value in changes.items():
        samples[index] = value
    return samples


# the ground state on the default grid, n = 64 and dx = 0.25
_PSI = [math.pi ** -0.25 * math.exp(-(((j - 32) * 0.25) ** 2) / 2) for j in range(64)]
# input files written into every command's directory; never digested
INPUTS = {
    "s.json": json.dumps({"re": _PSI, "im": [0.0] * 64}),
    "re-only.json": json.dumps({"re": _PSI}),
    "int.json": json.dumps({"re": [1] + [0] * 63}),
    "s.csv": "\n".join(f"{v!r},0.0" for v in _PSI) + "\n",
    "real.csv": "\n".join(repr(v) for v in _PSI) + "\n",
    "bool-string.json": json.dumps({"re": _with(_PSI, {10: True, 20: "0.5"})}),
    "bool.json": json.dumps({"re": _with(_PSI, {10: True})}),
    "false-im.json": json.dumps({"re": _PSI, "im": _with([0.0] * 64, {3: False})}),
    "string.json": json.dumps({"re": _with(_PSI, {20: "0.5"})}),
    "big-int.json": json.dumps({"re": _with(_PSI, {5: 2 ** 64})}),
    "short.json": json.dumps({"re": [1.0, 2.0]}),
    "nan.json": '{"re": [1.0, NaN, 0.0, 0.0]}',
    "inf-im.json": '{"re": [1.0, 0.0, 0.0, 0.0], "im": [1e400, 0.0, 0.0, 0.0]}',
    "huge.json": json.dumps({"re": [1e200] * 64}),
    "im-scalar.json": json.dumps({"re": _PSI, "im": 0.5}),
    "broken.json": '{"re": [1.0,',
    "run.cfg": "n = 32\ndx = 0.3125\nseed = 3\n",
    "bad.cfg": "n = 32\nwidth = 2\n",
}

_GATE = ("factorize", "--tau", "1.0", "--sigma", "1.0", "--epsilon")
_NARROW = ("factorize", "--tau", "1.1", "--sigma")

COMMANDS = [
    *[("check", suite, "--seed", str(seed)) for suite in SUITES for seed in SEEDS],
    ("check", "all", "--format", "csv"),
    ("check", "wigner", "--tol", "1e-20"),
    ("check", "star", "--tol", "1e-20"),  # the override fails every inexact row
    ("check", "star", "--config", "run.cfg"),
    *[("reps", "--seed", str(seed)) for seed in SEEDS],
    ("reps", "--tol", "1e-5"),
    ("check", "reps", "--tol", "1e-5"),
    ("check", "all", "--seed", "3", "--tol", "1e-5"),
    ("check", "symweyl", "--seed", "2"),
    ("check", "liftgen", "--seed", "2"),
    ("check", "liftgen", "--tol", "1e-5"),  # exact rows ignore --tol
    *[("check", suite, "--dx", dx) for suite in ("wigner", "star") for dx in DX_SWEEP],
    ("star-demo",),
    ("star-demo", "--format", "csv"),
    ("star-demo", "--grid-n", "16", "--dx", "0.5"),
    ("star-demo", "--grid-n", "64", "--seed", "7"),
    ("star-demo", "--config", "run.cfg"),
    ("wigner", "hermite:0"),
    ("wigner", "hermite:2", "--format", "csv"),
    ("wigner", "0.6*hermite:0+0.8j*hermite:1"),
    ("wigner", "hermite:3 - 2*hermite:1", "--grid-n", "128", "--dx", "0.2"),
    # the state grammar: a parenthesised pair, an exponent sign, a spaced leading sign,
    # a leading sign after '--'
    ("wigner", "(0.5-0.5j)*hermite:1-hermite:2"),
    ("wigner", "1e-3*hermite:0+hermite:1"),
    ("wigner", " - hermite:1"),
    ("wigner", "--", "-0.5*hermite:1+hermite:2"),
    # n ≥ 364 takes the row path of the transforms
    ("wigner", "hermite:1", "--grid-n", "512", "--dx", repr(math.sqrt(math.pi / 512))),
    ("wigner", "hermite:1", "--grid-n", "512", "--dx", repr(math.sqrt(math.pi / 512)),
     "--format", "csv"),
    ("check", "wigner", "--grid-n", "400", "--dx", "0.0886"),
    ("check", "star", "--grid-n", "400", "--dx", "0.0886"),
    ("star-demo", "--grid-n", "384", "--dx", "0.0905"),
    # values that leave float range: exit 2, nothing written
    ("star-demo", "--dx", "1e200"),
    ("wigner", "hermite:0", "--grid-n", "4", "--dx", "1e-300"),
    # two basis warnings, from two suites
    ("check", "all", "--dx", "1"),
    ("wigner", "1e-170*hermite:0"),
    ("wigner", "1e-320*hermite:0"),
    # the top basis index that n = 64 accepts (2n − 1), and one past it
    ("wigner", "hermite:127", "--r-max", "200"),
    ("wigner", "hermite:128", "--r-max", "200"),
    *[("wigner", f"file:{name}") for name in sorted(INPUTS) if name.endswith((".json", ".csv"))],
    ("wigner", "file:s.csv", "--format", "csv"),
    ("wigner", "file:nan.json", "--grid-n", "4"),
    ("wigner", "file:missing.json"),
    (*_GATE, "1"),
    (*_GATE, "-1"),
    (*_GATE, "-1", "--override"),
    (*_GATE, "1", "--format", "csv"),
    (*_GATE, "-1", "--override", "--format", "csv"),
    (*_GATE, "1", "--grid-n", "16"),
    (*_GATE, "1", "--grid-n", "32", "--seed", "7"),
    (*_GATE, "1", "--tol", "1e-20"),
    ("factorize", "--tau", "1e12", "--sigma", "1", "--epsilon", "1"),
    ("factorize", "--tau", "1", "--sigma", "1e12", "--epsilon", "1"),
    ("factorize", "--tau", "5e6", "--sigma", "5", "--epsilon", "1"),
    (*_NARROW, "5e-324", "--epsilon", "1"),
    (*_NARROW, "5e-324", "--epsilon", "-1"),
    (*_NARROW, "1e-3", "--epsilon", "1"),
    (*_NARROW, "1e-3", "--epsilon", "-1"),
    ("factorize", "--tau", "2.0", "--sigma", "0.5", "--epsilon", "1", "--format", "csv"),
    *[("factorize", "--tau", repr(tau), "--sigma", repr(1 / tau), "--epsilon", eps)
      for tau in (0.8, 1.25) for eps in ("1", "-1")],
    # the separable quadrature's edges: a forced recovery, an anisotropic pair,
    # a mesh near the cap, and a width where the two signs tie
    (*_GATE, "-1", "--override", "--tol", "1e-6"),
    ("factorize", "--tau", "100", "--sigma", "0.01", "--epsilon", "1"),
    ("factorize", "--tau", "100", "--sigma", "0.01", "--epsilon", "-1"),
    ("factorize", "--tau", "2500", "--sigma", "2.5", "--epsilon", "1"),
    ("factorize", "--tau", "5e-324", "--sigma", "1.1", "--epsilon", "-1"),
    # usage errors
    (),
    ("--version",),
    ("--help",),
    ("check", "nope"),
    ("check", "all", "--format", "xml"),
    ("check", "all", "--seed", "-1"),
    ("check", "all", "--config", "bad.cfg"),
    ("check", "all", "--config", "missing.cfg"),
    ("wigner", "hermite:99"),
    ("wigner", "hermite:-1"),
    ("wigner", "nan*hermite:0"),
    ("wigner", "0*hermite:0"),
    ("wigner", "2*3*hermite:0"),
    ("wigner", "hermite:0)+(hermite:1"),
    ("wigner", ""),
    ("wigner", "hermite:0", "--dx", "inf"),
    ("wigner", "hermite:0", "--grid-n", "5"),
    ("wigner", "hermite:0", "--out", "s.json"),
    (*_GATE, "1", "--grid-n", "64"),
    (*_GATE, "1", "--grid-n", "4"),
    (*_GATE, "-1", "--grid-n", "16"),
    (*_GATE, "0"),
    ("factorize", "--tau", "-1", "--sigma", "1", "--epsilon", "1"),
    ("factorize", "--tau", "nan", "--sigma", "1", "--epsilon", "1"),
    ("factorize", "--tau", "1", "--sigma", "inf", "--epsilon", "1"),
]

# run under ``python -W error``: a library warning still prints as one line
W_ERROR = [
    ("check", "wigner", "--dx", "0.01"),
    ("wigner", "hermite:127", "--r-max", "200"),
]


def digest(argv: tuple, tree: Path, flags: tuple = ()) -> str:
    """sha256 of one command's stdout, stderr, exit code and written files;
    ``flags`` go to the interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        work = Path(tmp)
        for name, text in INPUTS.items():
            (work / name).write_text(text)
        try:
            proc = subprocess.run([sys.executable, *flags, "-m", "weylkit", *argv], cwd=work,
                                  env=env, capture_output=True, timeout=300)
            parts = [proc.stdout, proc.stderr, str(proc.returncode).encode()]
        except subprocess.TimeoutExpired:
            parts = [b"timeout"]
        for path in sorted(work.rglob("*")):
            name = path.relative_to(work).as_posix()
            if path.is_file() and name not in INPUTS:
                parts += [name.encode(), path.read_bytes()]
        places = {str(work.resolve()): b"<tmp>", str(work): b"<tmp>",
                  str(tree.resolve()): b"<tree>"}
        h = hashlib.sha256()
        for part in parts:
            for place, token in places.items():
                part = part.replace(place.encode(), token)
            h.update(b"%d\n" % len(part) + part)
        return h.hexdigest()


def main(args: list) -> int:
    tree = Path(args[0] if args else Path(__file__).resolve().parents[1]).resolve()
    if not (tree / "src" / "weylkit").is_dir():
        print(f"error: {tree} holds no src/weylkit", file=sys.stderr)
        return 2
    for argv in COMMANDS:
        print(f"{digest(argv, tree)}  {shlex.join(argv)}", flush=True)
    for argv in W_ERROR:
        print(f"{digest(argv, tree, ('-W', 'error'))}  -W error {shlex.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
