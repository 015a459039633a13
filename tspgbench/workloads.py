"""Workload catalogue and reference answers of the tspG benchmark.

Each workload is a fixed pool of distinct queries drawn once by
``repro.workload.generate_queries`` from a dataset built by
``repro.graph.datasets.make_dataset``.  The pool and each query's answer
digest live in ``refs/<workload>-d<dataset seed>-q<query seed>.json`` (written by ``make_refs.py``); a run
rebuilds the dataset, checks it against the stored digest, and issues pool
queries in an order drawn from ``--seed``.

Why the pools are fixed: per-query cost on dense data is heavy-tailed (two
of the 125 D10 queries below take 96 s and 243 s), so a fresh random sample
per run would move throughput by far more than any bound.  A fixed pool in a
seeded order keeps the work of a run the same on every seed while the issue
order, and on ``kernel-sparse-d2`` the sampled subset, still vary.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Per-query deadline of the kernel workloads.  The slowest query of the
# D10 pool that finishes took 6.7 s; the deadline must stay at least twice
# that so that machine noise cannot move a query across it.
DEADLINE_S = 15.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which entry point, on which queries."""

    name: str
    kind: str  # "kernel" (vug_local), "runner" (run_workload_spark), "dataflow"
    dataset: str  # D1..D10
    scale: str  # "test" | "bench"
    pool: int  # queries drawn from generate_queries (warm-up first)
    warmup: int  # leading pool queries issued once, untimed (Spark set-up)
    min_queries: int  # timed queries issued even after --seconds have passed
    passes: int = 1  # untraced kernel runs time each query this often, keeping its fastest call

    def ref_path(self, dataset_seed: int, query_seed: int) -> Path:
        return REFS_DIR / f"{self.name}-d{dataset_seed}-q{query_seed}.json"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        # min_queries 200 keeps >= 10 samples beyond p95.  The fastest of five
        # calls per query: single-call runs spread by up to 31 % between seeds.
        Workload("kernel-sparse-d2", "kernel", "D2", "bench", 2500, 0, 200, passes=5),
        # The whole pool every run: the shortest seed-17 prefix that holds
        # both EEV-tail queries (pool positions 83 and 124).
        Workload("kernel-dense-d10", "kernel", "D10", "bench", 125, 0, 125),
        # One batch of the whole timed pool per run.
        Workload("runner-d8", "runner", "D8", "bench", 201, 1, 200),
        # The first query is the one of benchmarks/bench_dataflow_pipeline.py.
        Workload("dataflow-d8", "dataflow", "D8", "test", 2, 1, 1),
    ]
}

DATASET_SEED = 0
QUERY_SEED = 17


def edges_digest(edges) -> str:
    """Digest of an edge set, independent of its order and int types."""
    canon = sorted((int(u), int(v), int(ts)) for u, v, ts in edges)
    return hashlib.sha1(repr(canon).encode()).hexdigest()[:16]


def dataset_digest(pdf) -> str:
    """Digest of an edge table as ``make_dataset`` returns it."""
    arr = pdf[["src", "dst", "ts"]].to_numpy("int64").copy(order="C")
    return hashlib.sha1(arr.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class Reference:
    """Stored pool and this commit's answers: (|Gq|, |Gt|, |tspG|, digest)."""

    dataset_digest: str
    queries: List[Tuple[int, int, int, int]]
    answers: List[Tuple[int, int, int, str]]

    @classmethod
    def load(cls, w: Workload, dataset_seed: int, query_seed: int) -> "Reference":
        path = w.ref_path(dataset_seed, query_seed)
        if not path.exists():
            raise SystemExit(f"no reference {path}; write it with make_refs.py")
        data = json.loads(path.read_text())
        return cls(
            data["dataset_digest"],
            [tuple(q) for q in data["queries"]],
            [tuple(a) for a in data["answers"]],
        )


def issue_order(w: Workload, seed: int) -> List[int]:
    """Pool indices in issue order: warm-up queries first, then the timed
    queries shuffled by ``seed``."""
    timed = list(range(w.warmup, w.pool))
    random.Random(seed).shuffle(timed)
    return list(range(w.warmup)) + timed


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    xs = sorted(values)
    k = max(0, math.ceil(p / 100 * len(xs)) - 1)
    return xs[k]
