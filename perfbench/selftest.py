"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the tracing wrappers replace every binding of every target and
restore all of them, that the self times of a request's spans sum to no
more than its wall time, and that the request list is a function of the
seed: the same seed gives the same digest and another seed another one.
Exits 1 on the first failure.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import weylkit.cli  # noqa: E402,F401

from common import digest  # noqa: E402
from tracing import (  # noqa: E402
    TALLIES,
    TARGETS,
    Installation,
    Tracer,
    _package_modules,
    per_layer_names,
    self_times,
)


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def _originals():
    """Each target's original, with every (owner, attribute) that holds it."""
    import importlib

    out = []
    modules = _package_modules()
    for mod_name, attr, *_ in TARGETS + TALLIES:
        module = importlib.import_module(f"weylkit.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            out.append((owner.__dict__[meth], [(owner, meth)]))
            continue
        original = getattr(module, attr)
        holders = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
        out.append((original, holders))
    crat = sys.modules["weylkit.rational"].CRat
    out.append((crat.__dict__["__init__"], [(crat, "__init__")]))
    return out


def _bindings():
    """Every attribute of weylkit's modules and wrapped classes, by owner."""
    owners = _package_modules()
    owners += [sys.modules["weylkit.diffops"].DiffOp, sys.modules["weylkit.rational"].CRat]
    return [(owner, key, value) for owner in owners for key, value in list(vars(owner).items())]


def test_wrappers_patch_and_restore():
    before = _originals()
    expect(any(len(holders) > 1 for _, holders in before),
           "no target is re-exported; the rebinding is untested")
    originals = {id(original) for original, _ in before}
    installation = Installation(Tracer())
    wrappers = {id(wrapper) for *_, wrapper in installation.bindings}
    for original, holders in before:
        for owner, attr in holders:
            current = vars(owner)[attr]
            expect(getattr(current, "__wrapped__", None) is original,
                   f"{owner.__name__}.{attr} was not wrapped")
    for owner, key, value in _bindings():
        expect(id(value) not in originals, f"{owner.__name__}.{key} still holds an original")
    installation.restore()
    for original, holders in before:
        for owner, attr in holders:
            expect(vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored")
    for owner, key, value in _bindings():
        expect(id(value) not in wrappers, f"{owner.__name__}.{key} still holds a wrapper")
    print(f"ok: {len(wrappers)} wrappers patch every binding and restore all of them")


def test_self_time_within_wall():
    import work_exact
    import work_grid

    for work, count in ((work_exact, 60), (work_grid, 12)):
        plan = work.Plan(0)
        tracer = Tracer()
        installation = Installation(tracer)
        walls = []
        try:
            reqs = [r for r in plan.requests(0) if work is work_exact or r[1] <= 256][:count]
            for rid, req in enumerate(reqs):
                sample = plan.measure(req, plan.prepare(req), tracer, rid)
                expect(sample.error is None, f"{req} failed: {sample.error}")
                walls.append(sample.latency)
        finally:
            installation.restore()
            plan.close()
        selfs = self_times(tracer.spans)
        per_request = [0.0] * len(walls)
        for rec, s in zip(tracer.spans, selfs):
            expect(s >= -1e-9, f"negative self time in {rec[0]}")
            per_request[rec[4]] += s
        for rid, (total, wall) in enumerate(zip(per_request, walls)):
            expect(total <= wall, f"{work.NAME} request {rid}: self {total} > wall {wall}")
        print(f"ok: {work.NAME}: self times of {len(walls)} requests sum to at most their wall time")


def test_request_digests():
    import work_cli
    import work_exact
    import work_grid

    for work in (work_grid, work_exact, work_cli):
        plans = [work.Plan(seed) for seed in (7, 7, 8)]
        digests = [digest(plan.requests(0)) for plan in plans]
        for plan in plans:
            plan.close()
        expect(digests[0] == digests[1], f"{work.NAME}: the same seed gave two request lists")
        expect(digests[0] != digests[2], f"{work.NAME}: two seeds gave one request list")
        print(f"ok: {work.NAME}: request-list digest follows the seed")


def test_benchmark_json_lists_every_metric():
    import json

    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    expect(listed == per_layer_names(), "BENCHMARK.json per_layer differs from tracing.py")
    names = [m["name"] for m in bench["end_to_end"]]
    expect(names == ["wall_s", "cpu_s", "latency_p50_ms", "latency_p90_ms", "setup_s",
                     "peak_rss_mb", "ok_rate"], "unexpected end_to_end metrics")
    expect({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload run.py does not have")
    print(f"ok: BENCHMARK.json lists the {len(listed)} per-layer metrics tracing.py reports")


if __name__ == "__main__":
    test_benchmark_json_lists_every_metric()
    test_wrappers_patch_and_restore()
    test_self_time_within_wall()
    test_request_digests()
