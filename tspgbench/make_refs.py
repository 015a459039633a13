"""Write the reference answers of the benchmark workloads.

For each workload: build the dataset, draw the query pool with
``generate_queries``, answer every query with ``vug_local`` and store the
pool with each answer's |Gq|, |Gt|, |tspG| and edge digest.  The sparse D2
answers are also checked against ``tspg_by_enumeration`` on the query
window, which is cheap there.  Run from the repository root::

    python3 tspgbench/make_refs.py [--workload NAME ...]

The stored answers are this commit's; later changes are checked against them.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.baselines.enumeration import tspg_by_enumeration  # noqa: E402
from repro.core.vug import vug_local  # noqa: E402
from repro.graph.adjacency import TemporalAdjacency  # noqa: E402
from repro.graph.datasets import DATASETS, make_dataset  # noqa: E402
from repro.graph.schema import pdf_to_edge_list, project_window  # noqa: E402
from repro.workload import generate_queries  # noqa: E402

from workloads import (  # noqa: E402
    DATASET_SEED,
    QUERY_SEED,
    WORKLOADS,
    dataset_digest,
    edges_digest,
)

ENUMERATION_CHECKED = {"kernel-sparse-d2"}


def write_reference(name: str, dataset_seed: int, query_seed: int) -> None:
    w = WORKLOADS[name]
    pdf = make_dataset(w.dataset, scale=w.scale, seed=dataset_seed)
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    theta = DATASETS[w.dataset].theta
    queries = generate_queries(
        adj, theta=theta, n_queries=w.pool, seed=query_seed, max_tries=20 * w.pool
    )
    if len(set(queries)) != len(queries):
        raise SystemExit(f"{name}: the query pool repeats a query")
    answers = []
    enum_checked = 0
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        res = vug_local(adj, q)
        if name in ENUMERATION_CHECKED:
            window = TemporalAdjacency(project_window(adj.edges, q.tb, q.te))
            expected, _ = tspg_by_enumeration(window, q.s, q.t, q.tb, q.te)
            if expected != res.edges:
                raise SystemExit(f"{name} query {i} {q}: vug_local != enumeration")
            enum_checked += 1
        answers.append(
            [res.sizes["gq"], res.sizes["gt"], res.sizes["tspg"], edges_digest(res.edges)]
        )
    data = {
        "workload": name,
        "dataset": w.dataset,
        "scale": w.scale,
        "theta": theta,
        "dataset_seed": dataset_seed,
        "query_seed": query_seed,
        "m": adj.m,
        "dataset_digest": dataset_digest(pdf),
        "enumeration_checked": enum_checked,
        "queries": [[q.s, q.t, q.tb, q.te] for q in queries],
        "answers": answers,
    }
    path = w.ref_path(dataset_seed, query_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        json.dump(data, f, separators=(",", ":"))
        f.write("\n")
    print(f"{path.name}: {len(queries)} queries, {enum_checked} enumeration-checked,"
          f" {time.perf_counter() - t0:.1f} s")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=list(WORKLOADS))
    p.add_argument("--dataset-seed", type=int, default=DATASET_SEED)
    p.add_argument("--query-seed", type=int, default=QUERY_SEED)
    args = p.parse_args()
    for name in args.workload:
        write_reference(name, args.dataset_seed, args.query_seed)


if __name__ == "__main__":
    main()
