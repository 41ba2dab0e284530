"""Spans around the calls into weylkit's modules, installed from outside.

The package itself carries no instrumentation, so this module wraps the
public functions of each layer and rebinds every ``weylkit.*`` module
attribute that holds the original: ``from .wigner import weyl_wigner``
copies the reference into ``star``, ``cli``, ``checks`` and ``groups``,
and a wrapper installed only in ``weylkit.wigner`` would miss those
calls.  Methods are wrapped on their class.

A span is ``[name, start, end, parent, request, sizes]``; spans are kept
in memory and written once when the run ends.  Wrappers record nothing
while ``Tracer.request`` is None, so input generation and output checks
between requests stay out of the trace.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

GRID_SIZES = (64, 256, 1024)
SUITES = ("wigner", "star", "symweyl", "liftgen", "reps")
COMMANDS = ("check", "wigner", "factorize", "reps", "star-demo")
COMMAND_SPANS = {f"cli.{command}" for command in COMMANDS}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = Counter()

    def open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()


# ----------------------------------------------------------------------
# size descriptors, read from arguments and results
# ----------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _grid_n(pos):
    def sizes(args, kwargs, out):
        grid = _arg(args, kwargs, pos, "grid")
        return {"n": grid.n} if grid is not None else None
    return sizes


def _oracle_sizes(args, kwargs, out):
    grid = _arg(args, kwargs, 2, "grid")
    points = _arg(args, kwargs, 3, "points")
    count = 2 * grid.n * grid.n if points is None else len(out)
    return {"n": grid.n, "points": count}


def _den_bits(coeff):
    try:
        return max(coeff.re.denominator.bit_length(), coeff.im.denominator.bit_length())
    except AttributeError:
        return 0


def _exact_sizes(args, kwargs, out):
    terms = getattr(out, "terms", None)
    if terms is None:
        return None
    coeffs = terms.values() if isinstance(terms, dict) else (c for c, _ in terms)
    return {"terms": len(terms), "den_bits": max((_den_bits(c) for c in coeffs), default=0)}


def _recover_sizes(args, kwargs, out):
    return {"points": len(out)}


def _rows_sizes(args, kwargs, out):
    return {"n": args[0].n, "rows": int(_arg(args, kwargs, 1, "count"))}


# (module, attribute, sizes); a dotted attribute names a method on a class
TARGETS = [
    ("wigner", "weyl_wigner", _grid_n(1)),
    ("wigner", "weyl_wigner_inv", _grid_n(1)),
    ("wigner", "wigner_of_state", _grid_n(1)),
    ("wigner", "write_phase_csv", _grid_n(2)),
    ("wigner", "read_phase_csv", None),
    ("wigner", "phase_to_json", _grid_n(1)),
    ("wigner", "phase_from_json", None),
    ("star", "star", _grid_n(2)),
    ("star", "star_adjoint", _grid_n(1)),
    ("star", "star_twisted_oracle", _oracle_sizes),
    ("star", "purity_residual", _grid_n(1)),
    ("star", "star_unitary_residual", _grid_n(1)),
    ("grids", "hermite_basis", _rows_sizes),
    ("symbols", "weyl_quantize", _exact_sizes),
    ("symbols", "weyl_symbol", _exact_sizes),
    ("symbols", "star_symbolic", _exact_sizes),
    ("symbols", "moyal_symbolic", _exact_sizes),
    ("symbols", "nc_normalize", _exact_sizes),
    ("symbols", "parse_symbol", _exact_sizes),
    ("symbols", "format_symbol", None),
    ("diffops", "DiffOp.compose", _exact_sizes),
    ("diffops", "DiffOp.commutator", _exact_sizes),
    ("diffops", "DiffOp.adjoint", _exact_sizes),
    ("lift", "xi_lift", _exact_sizes),
    ("lift", "xi_monomial", _exact_sizes),
    ("lift", "z_conjugate", _exact_sizes),
    ("lift", "split_test", None),
    ("lift", "read_off_generator", _exact_sizes),
    ("lift", "table1_check", None),
    ("lift", "potential_generator", _exact_sizes),
    ("groups", "hw_factorize", None),
    ("groups", "tower_factorization", None),
    ("groups", "galilei_factorize", None),
    ("groups", "sp2_generators", None),
    ("groups", "time_reversal_check", None),
    ("factorize", "autv_residual", None),
    ("factorize", "recover_A", _recover_sizes),
    ("factorize", "alpha_kernel_from_A", None),
    ("checks", "run_suite", None),
    ("cli", "canonical_json", None),
    ("cli", "_load_state_file", None),
]


def _integral_points(args, kwargs, out):
    # points at which one call evaluates the sine integral; x and y are
    # scalars today and would be arrays in a call vectorised over probes
    return max(np.size(args[1]), np.size(args[2]))


def _mesh_points(args, kwargs, out):
    u, v, _ = out
    return u.size * v.size


# (module, attribute, size key, amount): calls too fine to span, whose
# amounts are added to the sizes of the innermost open span
TALLIES = [
    ("factorize", "_sine_integral", "integrals", _integral_points),
    ("factorize", "_uv_mesh", "mesh_points", _mesh_points),
]


def _wrap(tracer, name, fn, sizes):
    suite_span = name == "checks.run_suite"

    def wrapper(*args, **kwargs):
        if tracer.request is None:
            return fn(*args, **kwargs)
        label = f"{name}.{_arg(args, kwargs, 0, 'name')}" if suite_span else name
        rec = tracer.open(label)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if sizes is not None:
            rec[5] = {**(rec[5] or {}), **(sizes(args, kwargs, out) or {})}
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _tally(tracer, fn, key, amount):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if tracer.request is not None and tracer.stack:
            rec = tracer.spans[tracer.stack[-1]]
            rec[5] = rec[5] or {}
            rec[5][key] = rec[5].get(key, 0) + amount(args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def _count_init(tracer, fn):
    def __init__(self, *args, **kwargs):
        if tracer.request is not None:
            tracer.counts["rational.crat_new"] += 1
        fn(self, *args, **kwargs)

    __init__.__wrapped__ = fn
    return __init__


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "weylkit" or name.startswith("weylkit."))]


class Installation:
    """The wrappers of one tracer and every binding they replaced."""

    def __init__(self, tracer):
        for mod_name, _, _ in TARGETS:
            importlib.import_module(f"weylkit.{mod_name}")
        self.bindings = []  # (owner, attribute, original, wrapper)
        modules = _package_modules()
        for mod_name, attr, sizes in TARGETS:
            module = sys.modules[f"weylkit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                wrapper = _wrap(tracer, f"{mod_name}.{attr}", original, sizes)
                self._bind(owner, meth, original, wrapper)
                continue
            original = getattr(module, attr)
            self._bind_all(modules, original, _wrap(tracer, f"{mod_name}.{attr}", original, sizes))
        for mod_name, attr, key, amount in TALLIES:
            original = getattr(sys.modules[f"weylkit.{mod_name}"], attr)
            self._bind_all(modules, original, _tally(tracer, original, key, amount))
        crat = sys.modules["weylkit.rational"].CRat
        init = crat.__dict__["__init__"]
        self._bind(crat, "__init__", init, _count_init(tracer, init))

    def _bind_all(self, modules, original, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bind(mod, key, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.bindings.append((owner, attr, original, wrapper))

    def restore(self):
        for owner, attr, original, _ in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings = []


# ----------------------------------------------------------------------
# per-layer metrics from a list of spans
# ----------------------------------------------------------------------


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [(rec[2] - rec[1]) - child[i] for i, rec in enumerate(spans)]


def _is_transform(name):
    return name in ("wigner.weyl_wigner", "wigner.weyl_wigner_inv")


def layer_metrics(spans, counts, extra):
    """Per-layer metric dict; ``extra`` carries counts the harness measured."""
    selfs = self_times(spans)
    calls = Counter()
    self_s = defaultdict(float)
    per_n = defaultdict(list)
    size_sum = defaultdict(float)
    den_bits = 0
    terms_out = 0
    nested = 0
    for i, (name, start, end, parent, _, sizes) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        sizes = sizes or {}
        if "n" in sizes:
            per_n[(name, sizes["n"])].append(end - start)
        for key in ("points", "integrals", "mesh_points", "rows"):
            if key in sizes:
                size_sum[(name, key)] += sizes[key]
        if name.startswith("symbols.") and "terms" in sizes:
            terms_out += sizes["terms"]
        den_bits = max(den_bits, sizes.get("den_bits", 0))
        if _is_transform(name):
            p = parent
            while p >= 0 and spans[p][0] != "star.star":
                p = spans[p][3]
            nested += p >= 0

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def call_stats(span, stats=("calls", "self_s")):
        for stat in stats:
            if stat == "calls":
                put(f"{span}.calls", calls[span], "count")
            else:
                put(f"{span}.self_s", self_s[span], "s")

    def ms_per_call(span):
        for n in GRID_SIZES:
            durs = per_n.get((span, n), [])
            put(f"{span}.ms_per_call.n{n}", 1e3 * sum(durs) / len(durs) if durs else 0.0, "ms")

    for span in ("wigner.weyl_wigner", "wigner.weyl_wigner_inv"):
        call_stats(span)
        ms_per_call(span)
    put("wigner.wigner_of_state.self_s", self_s["wigner.wigner_of_state"], "s")
    put("wigner.io.write_s", self_s["wigner.write_phase_csv"] + self_s["wigner.phase_to_json"], "s")
    put("wigner.io.read_s", self_s["wigner.read_phase_csv"] + self_s["wigner.phase_from_json"]
        + self_s["cli._load_state_file"], "s")
    put("wigner.io.bytes_written", extra.get("wigner.io.bytes_written", 0), "B")
    put("wigner.io.bytes_read", extra.get("wigner.io.bytes_read", 0), "B")

    call_stats("star.star")
    ms_per_call("star.star")
    put("star.transforms_per_star", nested / calls["star.star"] if calls["star.star"] else 0.0, "ratio")
    call_stats("star.star_adjoint")
    call_stats("star.star_twisted_oracle")
    put("star.star_twisted_oracle.points", size_sum[("star.star_twisted_oracle", "points")], "count")
    put("star.purity_residual.self_s", self_s["star.purity_residual"], "s")
    put("star.star_unitary_residual.self_s", self_s["star.star_unitary_residual"], "s")

    call_stats("grids.hermite_basis")
    rows_built = size_sum[("grids.hermite_basis", "rows")]
    put("grids.hermite_basis.rows_built", rows_built, "count")
    rows_used = extra.get("grids.hermite_basis.rows_used", rows_built)
    put("grids.hermite_basis.rows_used_ratio", rows_used / rows_built if rows_built else 0.0, "ratio")

    for fn in ("weyl_quantize", "weyl_symbol", "star_symbolic", "moyal_symbolic",
               "nc_normalize", "parse_symbol", "format_symbol"):
        call_stats(f"symbols.{fn}")
    put("symbols.terms_out", terms_out, "count")

    put("rational.crat_new", counts.get("rational.crat_new", 0), "count")
    put("rational.max_den_bits", den_bits, "bits")

    for meth in ("compose", "commutator", "adjoint"):
        call_stats(f"diffops.DiffOp.{meth}")

    for fn in ("xi_lift", "xi_monomial", "z_conjugate", "split_test",
               "read_off_generator", "table1_check", "potential_generator"):
        call_stats(f"lift.{fn}")

    for fn in ("hw_factorize", "tower_factorization", "galilei_factorize",
               "sp2_generators", "time_reversal_check"):
        call_stats(f"groups.{fn}", ("self_s",))

    call_stats("factorize.autv_residual")
    # the consistency identity compares three sine integrals at each probe
    put("factorize.autv_residual.probes",
        size_sum[("factorize.autv_residual", "integrals")] / 3, "count")
    put("factorize.autv_residual.mesh_points", size_sum[("factorize.autv_residual", "mesh_points")], "count")
    call_stats("factorize.recover_A")
    put("factorize.recover_A.points", size_sum[("factorize.recover_A", "points")], "count")
    put("factorize.alpha_kernel_from_A.self_s", self_s["factorize.alpha_kernel_from_A"], "s")
    commands = extra.get("factorize_commands", 0)
    put("factorize.autv_calls_per_factorize",
        calls["factorize.autv_residual"] / commands if commands else 0.0, "ratio")

    for suite in SUITES:
        put(f"checks.run_suite.{suite}.self_s", self_s[f"checks.run_suite.{suite}"], "s")

    durs = per_name_durations(spans)
    put("cli.import_ms", _mean_ms(durs.get("cli.import", [])), "ms")
    for command in COMMANDS:
        put(f"cli.{command}.ms", _mean_ms(durs.get(f"cli.{command}", [])), "ms")
    put("cli.canonical_json.self_s", self_s["cli.canonical_json"], "s")
    put("cli.report_bytes", extra.get("cli.report_bytes", 0), "B")
    put("cli.array_bytes", extra.get("cli.array_bytes", 0), "B")
    return m


def per_name_durations(spans):
    out = defaultdict(list)
    for name, start, end, *_ in spans:
        out[name].append(end - start)
    return out


def _mean_ms(durs):
    return 1e3 * sum(durs) / len(durs) if durs else 0.0


def attributed(spans, request_walls):
    """Share of request time covered by named layer spans.

    In process, the top-level spans over the request wall times.  A traced
    cli request runs whole inside one ``cli.<command>`` span, so there it
    is the time of that span's children over the span's own time.
    """
    commands = {i for i, rec in enumerate(spans) if rec[3] < 0 and rec[0] in COMMAND_SPANS}
    if commands:
        total = sum(spans[i][2] - spans[i][1] for i in commands)
        covered = sum(end - start for _, start, end, parent, *_ in spans if parent in commands)
    else:
        total = sum(request_walls)
        covered = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    return covered / total if total else 0.0


def per_layer_names():
    """Every per-layer metric name and unit, in report order."""
    names = layer_metrics([], {}, {})
    out = [(k, unit) for k, (_, unit) in names.items()]
    return out + [("trace_overhead", "ratio"), ("trace_attributed", "ratio")]
