"""Shared pieces of the workloads: seeded pools, checksums, reference files.

Every workload input comes from a pool: an input is a pure function of
(workload, class, size or slot, variant), drawn from ``pool_rng``.  The
run seed only chooses which variants a pass uses and in which order, so
every input a run can see has a reference recorded in ``refs/`` by
``make_refs.py``.  Variants of one slot share its shape (array size,
monomial degrees, word lengths), so a pass costs the same whichever
variants the seed picks.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"
OUT_DIR = ROOT / ".perfbench_out"

POOL_SEED = 20021103
REL = 1e-12  # relative agreement required of numeric arrays


def _key(k):
    return zlib.crc32(k.encode()) if isinstance(k, str) else int(k)


def pool_rng(*keys) -> np.random.Generator:
    """Generator for one pool entry; the keys name the entry."""
    return np.random.default_rng([POOL_SEED] + [_key(k) for k in keys])


def run_rng(seed: int, *keys) -> np.random.Generator:
    """Generator for the run's choices (variants, order) under ``--seed``."""
    return np.random.default_rng([int(seed)] + [_key(k) for k in keys])


class Passes:
    """The seeded passes over a workload's fixed slots.

    Pass p gives slot i the variant (offset_i + p) mod ``variants``, with
    seeded offsets, so consecutive passes of one run see distinct inputs in
    every slot until the pool of variants is exhausted; the order of the
    requests in a pass is seeded too.
    """

    def __init__(self, seed: int, workload: str, slots, variants: int):
        self.seed, self.workload, self.slots, self.variants = seed, workload, list(slots), variants
        rng = run_rng(seed, workload, "offsets")
        self.offsets = [int(rng.integers(variants)) for _ in self.slots]

    def make(self, p: int, count: int | None = None) -> list:
        """(slot index, variant) of pass p over the first ``count`` slots, in order."""
        count = len(self.slots) if count is None else count
        order = run_rng(self.seed, self.workload, "order", p).permutation(count)
        return [(int(i), (self.offsets[i] + p) % self.variants) for i in order]


def digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# numeric references
# ----------------------------------------------------------------------

_WEIGHTS: dict = {}


def _weights(shape):
    if shape not in _WEIGHTS:
        phases = pool_rng("checksum", *shape).random(shape)
        _WEIGHTS[shape] = np.exp(2j * np.pi * phases)
    return _WEIGHTS[shape]


def checksum(a) -> list:
    """[Re, Im] of a fixed random-phase weighted sum, then the l1 and l2² norms.

    Two arrays that agree to a relative 1e-12 (of their l1 norm) have
    checksums that agree to the same share; any larger change shows up.
    """
    a = np.asarray(a, dtype=complex)
    s = complex(np.sum(a * _weights(a.shape)))
    mag = np.abs(a)
    return [s.real, s.imag, float(np.sum(mag)), float(np.sum(mag * mag))]


def checksum_error(a, ref, label: str):
    c = checksum(a)
    scale = max(ref[2], 1e-300)
    if abs(complex(c[0], c[1]) - complex(ref[0], ref[1])) > REL * scale:
        return f"{label}: weighted sum differs from the reference"
    if abs(c[2] - ref[2]) > REL * scale or abs(c[3] - ref[3]) > REL * max(ref[3], 1e-300):
        return f"{label}: norms differ from the reference"
    return None


def close(value, ref, rel=REL) -> bool:
    """Agreement to ``rel``, relative to max(|ref|, 1)."""
    return abs(value - ref) <= rel * max(abs(ref), 1.0)


def load_refs(workload: str) -> dict:
    return json.loads((REFS_DIR / f"{workload}.json").read_text())


def save_refs(workload: str, refs: dict) -> None:
    REFS_DIR.mkdir(exist_ok=True)
    text = json.dumps(refs, sort_keys=True, separators=(",", ":"))
    (REFS_DIR / f"{workload}.json").write_text(text + "\n")


# ----------------------------------------------------------------------
# one timed request
# ----------------------------------------------------------------------


@dataclass
class Sample:
    out: object
    error: str | None
    latency: float
    cpu: float
    rss_kb: int | None = None


def timed(fn, tracer=None, rid=None) -> Sample:
    """Run ``fn`` with the tracer recording under request ``rid``."""
    if tracer is not None:
        tracer.request = rid
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out, error = fn(), None
    except Exception as exc:  # a failed request is counted, not fatal
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.request = None
    return Sample(out, error, t1 - t0, c1 - c0)
