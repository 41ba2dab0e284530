"""``cli`` workload: a fresh ``python -m weylkit`` process per request.

This is what a CLI user pays: every request starts an interpreter,
imports weylkit and numpy, and begins with every cache cold, so a cache
that lives across calls in one process shows no gain here.  Requests write
reports and arrays and read state files, and this is the only workload
that reaches ``factorize`` and ``groups``.

A pass is the 21 requests of CORE, one of every kind the CLI serves.

The two requests in KNOWN_DEFECTS should exit 2 (usage error) but end in
a traceback with exit 1 at the commit that defined this benchmark.  They
run in every run and their outcome is printed and recorded, but outside
the timed pass and its failure count, so that the workload itself has no
failing operation.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO

import numpy as np

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    Passes,
    Sample,
    checksum,
    checksum_error,
    close,
    load_refs,
    pool_rng,
    run_rng,
)

NAME = "cli"
VARIANTS = 8
FILE_N = 128
R_MAX = 8  # the CLI's default basis size
TAUS = (0.8, 0.9, 1.1, 1.25)  # sigma = 1/tau keeps the quadrature mesh size fixed
PURITY_TOL = 1e-8
STATE_DIR = OUT_DIR.relative_to(ROOT) / "cli-states"

CORE = (
    "check.wigner", "check.star", "check.symweyl", "check.liftgen", "check.reps", "check.all",
    "reps", "star-demo",
    "wigner.64.json", "wigner.64.csv", "wigner.256.json", "wigner.256.csv",
    "wigner.512.json", "wigner.512.csv",
    "wigner-file.json", "wigner-file.csv",
    "factorize.plus", "factorize.minus", "factorize.override", "factorize.grid32",
    "usage",
)
KNOWN_DEFECTS = (
    ("wigner", "hermite:0", "--dx", "inf"),
    ("factorize", "--tau", "1.0", "--sigma", "1.0", "--epsilon", "1", "--grid-n", "64"),
)
# report scalars compared with the reference to a relative 1e-12; the
# residual ratio divides by a residual at rounding level, so only its
# size is checked, against the bound the tier-1 tests use
SCALAR_KEYS = ("input_norm", "w_at_origin", "grid_consistency")
RATIO_MIN = 1e3
NUMERIC_KEYS = {"residual", "max_residual", "input_norm", "w_at_origin", "idempotency",
                "integrals", "residual_ratio", "grid_consistency"}


def dx_of(n: int) -> float:
    return math.sqrt(math.pi / n)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def wigner_spec(n: int, variant: int) -> str:
    """Superposition of two or three Hermite states, e.g. '(0.412-0.770j)*hermite:0+...'."""
    rng = pool_rng(NAME, "wigner", n, variant)
    rows = rng.choice(R_MAX, size=int(rng.integers(2, 4)), replace=False)
    terms = []
    for k in sorted(rows.tolist()):
        a, b = rng.uniform(-1, 1, size=2)
        terms.append(f"({a:.3f}{b:+.3f}j)*hermite:{k}")
    return "+".join(terms)


def file_state(variant: int) -> np.ndarray:
    rng = pool_rng(NAME, "file", variant)
    x = (np.arange(FILE_N) - FILE_N // 2) * dx_of(FILE_N)
    psi = np.zeros(FILE_N, dtype=complex)
    for _ in range(2):
        x0, p0 = rng.uniform(-1.0, 1.0, size=2)
        psi += complex(*rng.standard_normal(2)) * np.exp(-((x - x0) ** 2) / 2 + 1j * p0 * x)
    return psi


def write_state(path, psi) -> None:
    if path.suffix == ".json":
        path.write_text(json.dumps({"re": psi.real.tolist(), "im": psi.imag.tolist()}))
    else:
        path.write_text("".join(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in psi))


def argv_of(cls: str, variant: int, seed: int, state_dir) -> list:
    kind, _, rest = cls.partition(".")
    if kind == "check":
        return ["check", rest, "--seed", str(seed)]
    if kind == "reps":
        return ["reps", "--seed", str(seed)]
    if kind == "star-demo":
        return ["star-demo"]
    if kind == "wigner":
        n, fmt = rest.split(".")
        n = int(n)
        return ["wigner", wigner_spec(n, variant), "--grid-n", str(n), "--dx", repr(dx_of(n)),
                "--format", fmt]
    if kind == "wigner-file":
        path = state_dir / f"state{variant}.{rest}"
        return ["wigner", f"file:{path}", "--grid-n", str(FILE_N), "--dx", repr(dx_of(FILE_N)),
                "--format", rest]
    if kind == "factorize":
        tau = TAUS[variant % len(TAUS)]
        argv = ["factorize", "--tau", repr(tau), "--sigma", repr(1 / tau),
                "--epsilon", "-1" if rest in ("minus", "override") else "1"]
        if rest == "override":
            argv.append("--override")
        if rest == "grid32":
            argv += ["--grid-n", "32"]
        return argv
    if kind == "usage":
        return ["wigner", "hermite:99"]
    raise ValueError(cls)


def expected_exit(cls: str) -> int:
    if cls == "usage":
        return 2
    return 1 if cls == "factorize.minus" else 0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def normalize(report):
    """The report with seeds and inexact numbers blanked; compared exactly.

    Residuals of invariants held to tolerance 0 (exact identities) stay;
    the others are checked against their printed tolerance instead.
    """
    report = json.loads(json.dumps(report))

    def walk(node):
        if isinstance(node, dict):
            invariants = node.get("invariants")
            if isinstance(invariants, list) and isinstance(node.get("examples"), list):
                for example, inv in zip(node["examples"], invariants):
                    example["_exact"] = inv.get("tolerance") == 0.0
            exact = node.pop("_exact", False) or node.get("tolerance") == 0.0
            for key in list(node):
                if key == "seed":
                    node[key] = None
                elif key in NUMERIC_KEYS and isinstance(node[key], float) and not exact:
                    node[key] = None
                else:
                    walk(node[key])
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(report)
    return report


def tolerance_errors(report) -> list:
    errors = []

    def walk(node, tol=None):
        if isinstance(node, dict):
            tol = node.get("tolerance", tol)
            for inv in node.get("invariants", []):
                limit = inv.get("tolerance", tol)
                if not inv["residual"] <= limit:
                    errors.append(f"{inv['name']}: residual {inv['residual']} above {limit}")
            for key, value in node.items():
                if key != "invariants":
                    walk(value, tol)
        elif isinstance(node, list):
            for item in node:
                walk(item, tol)

    walk(report)
    purity = report.get("purity")
    if purity and not max(purity.values()) <= PURITY_TOL:
        errors.append(f"purity residuals {purity} above {PURITY_TOL}")
    return errors


def read_array(path) -> np.ndarray:
    text = path.read_text()
    if path.suffix == ".csv":
        header, body = text.split("\n", 1)
        columns = 3 if header.startswith("# columns") else 2  # recovered_A or phase layout
        values = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, columns)
        return values[:, 2] if columns == 3 else values[:, 0] + 1j * values[:, 1]
    payload = json.loads(text)
    if "values" in payload:
        return np.asarray(payload["values"], dtype=float).ravel()
    return (np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)).ravel()


def outputs(cls: str, out_dir):
    """(report dict, report text, array path or None) as the CLI wrote them."""
    reports = sorted(out_dir.glob("*.json"))
    reports = [p for p in reports if p.name.endswith("-report.json") or p.name.startswith("check-")]
    if len(reports) != 1:
        return None, None, None
    text = reports[0].read_text()
    report = json.loads(text)
    files = report.get("files", {})
    name = files.get("wigner") or files.get("product") or report.get("recovered_A_path")
    return report, text, (out_dir / name if name else None)


def reference_of(cls: str, out_dir) -> dict:
    report, _, array = outputs(cls, out_dir)
    ref = {"report": normalize(report)}
    if array is not None:
        ref["array"] = checksum(read_array(array))
    for key in SCALAR_KEYS:
        if isinstance(report.get(key), float):
            ref[key] = report[key]
    return ref


def ref_key(cls: str, variant: int) -> str:
    if cls.startswith("wigner"):
        return f"{cls}/{variant}"
    if cls.startswith("factorize."):
        return f"{cls}/{variant % len(TAUS)}"
    return cls


def check(cls, sample, ref, out_dir):
    got = sample.out
    if got["exit"] != expected_exit(cls):
        return f"exit {got['exit']}, expected {expected_exit(cls)}"
    if b"Traceback" in got["stderr"]:
        return "traceback on stderr"
    if cls == "usage":
        if not got["stderr"].startswith((b"error:", b"usage:")) or any(out_dir.glob("*.json")):
            return "usage error without a message, or with a report"
        return None
    report, text, array = outputs(cls, out_dir)
    if report is None:
        return "no single report file written"
    if got["stdout"].decode() != text:
        return "stdout differs from the report file"
    if normalize(report) != ref["report"]:
        return "report differs from the reference"
    errors = tolerance_errors(report)
    for key in SCALAR_KEYS:
        if key in ref and not close(report[key], ref[key]):
            errors.append(f"{key} {report[key]!r} differs from {ref[key]!r}")
    ratio = report.get("residual_ratio")
    if ratio is not None and not ratio >= RATIO_MIN:
        errors.append(f"residual ratio {ratio!r} below {RATIO_MIN}")
    if "array" in ref:
        errors.append(checksum_error(read_array(array), ref["array"], array.name))
    errors = [e for e in errors if e]
    return "; ".join(errors) if errors else None


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


class Spawner:
    """A small process that starts each request; see spawner.py."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, cmd, out_dir):
        """Run one request; returns (exit, wall, cpu, maxrss_kb, stdout, stderr)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        stdout_path = out_dir.parent / f"{out_dir.name}.out"
        stderr_path = out_dir.parent / f"{out_dir.name}.err"
        request = {"cmd": cmd, "stdout": str(stdout_path), "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the request spawner exited")
        got = json.loads(line)
        stdout, stderr = stdout_path.read_bytes(), stderr_path.read_bytes()
        stdout_path.unlink()
        stderr_path.unlink()
        return got["exit"], got["wall"], got["cpu"], got["rss_kb"], stdout, stderr

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------


class Plan:
    name = NAME
    in_process = False

    def __init__(self, seed: int, refs=None):
        self.seed = seed
        self.refs = load_refs(NAME) if refs is None else refs
        self.workdir = OUT_DIR / f"{NAME}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        # relative to the checkout, where every request runs, so that the
        # reports name the same state file wherever the checkout lives
        self.state_dir = STATE_DIR
        (ROOT / STATE_DIR).mkdir(parents=True, exist_ok=True)
        for v in range(VARIANTS):
            psi = file_state(v)
            for fmt in ("json", "csv"):
                write_state(ROOT / STATE_DIR / f"state{v}.{fmt}", psi)
        self.passes = Passes(seed, NAME, CORE, VARIANTS)
        self.spawner = Spawner(_env())
        self.count = 0

    def requests(self, p: int) -> list:
        rng = run_rng(self.seed, NAME, "seeds", p)
        seeds = [int(rng.integers(2**31)) for _ in CORE]
        return [(CORE[i], variant, seeds[i]) for i, variant in self.passes.make(p)]

    trace_requests = requests

    def warm_up(self):
        return [("star-demo", 0, 0)]

    @staticmethod
    def label(req) -> str:
        return req[0]

    def prepare(self, req):
        cls, variant, seed = req
        return argv_of(cls, variant, seed, self.state_dir)

    def measure(self, req, argv, tracer=None, rid=None):
        self.count += 1
        out_dir = self.workdir / f"r{self.count}"
        tail = [*argv, "--out", str(out_dir)]
        if tracer is None:
            cmd = [sys.executable, "-m", "weylkit", *tail]
        else:
            spans_path = self.workdir / f"r{self.count}.spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans_path), *tail]
        code, wall, cpu, rss_kb, stdout, stderr = self.spawner.run(cmd, out_dir)
        out = {"exit": code, "stdout": stdout, "stderr": stderr, "dir": out_dir}
        if tracer is not None:
            out["rows_used"] = self._merge_spans(tracer, spans_path, rid, argv)
        return Sample(out, None, wall, cpu, rss_kb)

    def _merge_spans(self, tracer, spans_path, rid, argv):
        """Append a child's spans to the tracer; returns the basis rows it used."""
        if not spans_path.exists():
            return 0
        record = json.loads(spans_path.read_text())
        spans_path.unlink()
        tracer.counts.update(record["counts"])
        spans = record["spans"]
        base = len(tracer.spans)
        built = 0
        for name, start, end, parent, _, sizes in spans:
            tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, rid, sizes])
            if name == "grids.hermite_basis" and sizes:
                built += sizes["rows"]
        if argv[0] == "wigner" and not argv[1].startswith("file:"):
            used = {int(k) for k in re.findall(r"hermite:(\d+)", argv[1])}
            return len([k for k in used if k < built])
        return built

    def verify(self, req, argv, sample):
        cls, variant, _ = req
        out_dir = sample.out["dir"]
        try:
            error = check(cls, sample, self.refs.get(ref_key(cls, variant)), out_dir)
            extra = self._sizes(cls, out_dir)
            if cls.startswith("wigner-file."):
                extra["wigner.io.bytes_read"] = (ROOT / argv[1][len("file:"):]).stat().st_size
            extra["grids.hermite_basis.rows_used"] = sample.out.get("rows_used", 0)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return error, extra

    @staticmethod
    def _sizes(cls, out_dir):
        report = array = wigner_io = 0
        for path in out_dir.iterdir():
            size = path.stat().st_size
            if path.name.endswith("-report.json") or path.name.startswith("check-"):
                report += size
            else:
                array += size
                if path.name.startswith(("wigner.", "star-demo-product.")):
                    wigner_io += size
        return {"cli.report_bytes": report, "cli.array_bytes": array,
                "wigner.io.bytes_written": wigner_io,
                "factorize_commands": int(cls.startswith("factorize."))}

    def probe_known_defects(self) -> list:
        results = []
        for i, argv in enumerate(KNOWN_DEFECTS):
            out_dir = self.workdir / f"defect{i}"
            code, *_, stderr = self.spawner.run(
                [sys.executable, "-m", "weylkit", *argv, "--out", str(out_dir)], out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            traceback = b"Traceback" in stderr
            results.append({"argv": " ".join(argv), "expected": 2, "exit": code,
                            "traceback": traceback, "failing": code != 2 or traceback})
        return results

    def close(self):
        self.spawner.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_refs() -> dict:
    """References from weylkit.cli.main run in this process, one per input."""
    import weylkit.cli

    os.chdir(ROOT)
    plan = Plan(0, refs={})
    refs = {}
    work = plan.workdir / "refs"
    for cls in CORE:
        if cls == "usage":
            continue
        kind = cls.split(".")[0]
        variants = range(len(TAUS)) if kind == "factorize" else (
            range(VARIANTS) if kind.startswith("wigner") else [0])
        for v in variants:
            key = ref_key(cls, v)
            if key in refs:
                continue
            shutil.rmtree(work, ignore_errors=True)
            with redirect_stdout(StringIO()):
                code = weylkit.cli.main([*argv_of(cls, v, 0, plan.state_dir), "--out", str(work)])
            if code != expected_exit(cls):
                raise RuntimeError(f"{key}: exit {code}, expected {expected_exit(cls)}")
            refs[key] = reference_of(cls, work)
    plan.close()
    return refs
