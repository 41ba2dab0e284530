"""weylkit benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: a request is sent only
after the previous one completed.  A pass is the workload's seeded request
list; whole passes repeat until ``--seconds`` have elapsed, at least
MIN_PASSES passes ran and, in process, at least MIN_SAMPLES requests were
timed.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it times one pass untraced and one
traced, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with metadata, sample counts and per-class latencies, is written to
``.perfbench_out/``; see README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid", "exact", "cli")
MIN_PASSES = 2  # so that every request slot is sampled twice
MIN_SAMPLES = 100  # so that ten samples lie above the 90th percentile (in process)
SETUP_SAMPLES = 5  # this process plus four fresh ones
CHILD_TIMEOUT = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


class Tally:
    """Latency, CPU and outcome of every timed request, by pass and class."""

    def __init__(self):
        self.latency = []
        self.labels = []
        self.by_class = defaultdict(list)
        self.pass_wall = defaultdict(float)
        self.pass_cpu = defaultdict(float)
        self.rss_kb = 0
        self.attempted = 0
        self.failures = []
        self.extra = defaultdict(float)

    def add(self, p, label, sample, error, extra):
        self.attempted += 1
        self.latency.append(sample.latency)
        self.labels.append(label)
        self.by_class[label].append(sample.latency)
        self.pass_wall[p] += sample.latency
        self.pass_cpu[p] += sample.cpu
        self.rss_kb = max(self.rss_kb, sample.rss_kb or 0)
        for key, value in extra.items():
            self.extra[key] += value
        if error:
            self.failures.append(f"{label}: {error}")


def run_pass(plan, reqs, p, tally, tracer=None, rid0=0):
    walls = []
    for i, req in enumerate(reqs):
        inputs = plan.prepare(req)
        sample = plan.measure(req, inputs, tracer, rid0 + i)
        error, extra = (sample.error, {}) if sample.error else plan.verify(req, inputs, sample)
        tally.add(p, plan.label(req), sample, error, extra)
        walls.append(sample.latency)
    return walls


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    A beta-weighted mean of every order statistic, not the one or two
    samples nearest the rank: the median of a cli pass falls between
    clusters of request kinds, and the nearest sample jumps between them
    from run to run.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    steps = 256  # midpoint quadrature of the beta density over each (i-1)/n..i/n
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_density = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weight = np.exp(log_density - log_density.max()).reshape(n, steps).sum(axis=1)
    return float(weight @ x / weight.sum())


# ----------------------------------------------------------------------
# set-up time, measured in this process and in fresh ones
# ----------------------------------------------------------------------


def child_setups(args, count):
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------
# metadata
# ----------------------------------------------------------------------


def _blas():
    info = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the layout of show_config differs across numpy versions
        info["blas"] = None
    info["blas_threads"] = None
    try:
        import ctypes

        # numpy wheels bundle OpenBLAS beside the package; it is loaded already
        for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    break
    except OSError:
        pass
    info["blas_thread_env"] = {k: os.environ[k] for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return info


def metadata(args):
    files = sorted((ROOT / "src" / "weylkit").glob("*.py"))
    texts = [f.read_text() for f in files]
    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
        "src_lines": sum(t.count("\n") for t in texts),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **_blas(),
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weylkit" / "__init__.py").is_file():
        print("error: src/weylkit not found beside perfbench/; run from a weylkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = importlib.import_module(f"work_{args.workload}")
    plan = work.Plan(args.seed)
    for req in plan.warm_up():
        plan.measure(req, plan.prepare(req))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        plan.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from common import OUT_DIR, digest

    tally = Tally()
    record = {"meta": metadata(args), "request_digest": digest(plan.requests(0))}
    try:
        if args.trace:
            metrics = traced_run(args, plan, tally, record, OUT_DIR)
        else:
            metrics = timed_run(args, plan, tally, record, setup_s)
        if hasattr(plan, "probe_known_defects"):
            record["known_defects"] = plan.probe_known_defects()
    finally:
        plan.close()

    failed = len(tally.failures)
    slowest = sorted(zip(tally.latency, tally.labels), reverse=True)[:15]
    record.update(attempted=tally.attempted, failed=failed, failures=tally.failures[:50],
                  slowest_ms=[[label, 1e3 * t] for t, label in slowest],
                  class_latency_median_ms={k: 1e3 * statistics.median(v)
                                           for k, v in sorted(tally.by_class.items())})
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"weylkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{tally.attempted} requests, {failed} failed; record in {out.relative_to(ROOT)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} n={samples}")
    for item in record.get("known_defects", []):
        print(f"  known defect: {item['argv']}: expected exit {item['expected']}, "
              f"got {item['exit']}{' (still failing)' if item['failing'] else ' (fixed)'}")
    for line in tally.failures[:10]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def timed_run(args, plan, tally, record, setup_s):
    # a cli pass takes tens of seconds, so a run holds only a few passes and
    # the 90th percentile has fewer than ten samples above it there
    min_samples = MIN_SAMPLES if plan.in_process else 1
    start = time.perf_counter()
    p = 0
    while True:
        run_pass(plan, plan.requests(p), p, tally)
        p += 1
        if (p >= MIN_PASSES and tally.attempted >= min_samples
                and time.perf_counter() - start >= args.seconds):
            break
    setups = [setup_s] + child_setups(args, SETUP_SAMPLES - 1)
    walls, cpus = list(tally.pass_wall.values()), list(tally.pass_cpu.values())
    lat_ms = [1e3 * x for x in tally.latency]
    p90 = percentile(lat_ms, 90)
    above = sum(x > p90 for x in lat_ms)
    if tally.rss_kb:
        rss_mb = tally.rss_kb / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = len(tally.failures)
    record.update(passes=p, setup_samples=setups, pass_wall_s=walls, pass_cpu_s=cpus,
                  samples_above_p90=above)
    n = len(lat_ms)
    return {
        "wall_s": (statistics.median(walls), "s", p),
        "cpu_s": (statistics.median(cpus), "s", p),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms", n),
        "latency_p90_ms": (p90, "ms", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_rate": (1.0 - failed / tally.attempted, "ratio", tally.attempted),
    }


def traced_run(args, plan, tally, record, out_dir):
    from tracing import Installation, Tracer, attributed, layer_metrics

    untraced = run_pass(plan, plan.trace_requests(0), 0, tally)
    tracer = Tracer()
    installation = Installation(tracer) if plan.in_process else None
    before = dict(tally.extra)
    try:
        traced = run_pass(plan, plan.trace_requests(1), 1, tally, tracer, rid0=len(untraced))
    finally:
        if installation is not None:
            installation.restore()
    extra = {k: v - before.get(k, 0) for k, v in tally.extra.items()}
    metrics = {k: (v, u, 1) for k, (v, u) in layer_metrics(tracer.spans, tracer.counts, extra).items()}
    metrics["trace_overhead"] = (sum(traced) / sum(untraced), "ratio", 1)
    metrics["trace_attributed"] = (attributed(tracer.spans, traced), "ratio", len(traced))
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans, "w") as fh:
        for rec in tracer.spans:
            name, start, end, parent, request, sizes = rec
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "request": request, "sizes": sizes}) + "\n")
    record.update(untraced_wall_s=sum(untraced), traced_wall_s=sum(traced),
                  spans_file=str(spans.relative_to(ROOT)), span_count=len(tracer.spans))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
