"""Harnesses for the figure experiments' quoted numbers (Exp-1..Exp-8) and
the Spark pipeline check.

Figures themselves are out of scope; each function reproduces the rows /
headline numbers the paper's text reports, in table form, one row per cell
of a *plan*: a ``(dataset key, θ)`` pair, run over ``n_queries`` random
queries of span θ.  Totals follow the paper's convention: the summed
per-query time of an algorithm over the workload, with INF when any query
exhausts the enumeration budget (the 12-hour cutoff, DESIGN.md §3).
"""
from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.runner import run_workload_local, run_workload_spark
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import make_dataset
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query, generate_queries

Plan = Sequence[Tuple[str, int]]

EXP1_COLUMNS = ["key", "theta", "n_queries", "EPdtTSG_s", "EPesTSG_s",
                "EPtgTSG_s", "VUG_s", "paper_note"]
EXP2_COLUMNS = ["key", "theta", "EPdtTSG_s", "EPesTSG_s", "EPtgTSG_s", "VUG_s"]
EXP3_COLUMNS = ["key", "algo", "min_peak_kb", "max_peak_kb", "spread",
                "inf_queries"]
EXP4_COLUMNS = ["key", "quick_s", "tight_s", "eev_s", "total_s", "eev_pct"]
EXP5_COLUMNS = ["key", "theta", "tgTSG_s", "QuickUBG_s", "speedup",
                "quick_ratio", "tight_ratio"]
EXP6_COLUMNS = ["key", "theta", "enum_on_gt_s", "eev_s", "speedup", "enum_inf"]
EXP7_COLUMNS = ["key", "theta", "tspg_edges", "tspg_paths", "paths_capped"]
EXP8_COLUMNS = ["seed", "s", "t", "window", "stops", "trips"]
DATAFLOW_COLUMNS = ["key", "s", "t", "tb", "te", "tspg_edges", "matches_kernel"]

_EP_ALGOS = ["EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"]


def _workloads(
    plan: Plan, *, scale, n_queries: int, seed: int
) -> Iterator[Tuple[str, int, pd.DataFrame, TemporalAdjacency, List[Query]]]:
    """Per cell of ``plan``: ``(key, θ, edge table, adjacency, queries)``,
    the dataset built with ``seed`` and the queries drawn with ``seed + 17``."""
    for key, theta in plan:
        pdf = make_dataset(key, scale=scale, seed=seed)
        adj = TemporalAdjacency(pdf_to_edge_list(pdf))
        queries = generate_queries(
            adj, theta=theta, n_queries=n_queries, seed=seed + 17
        )
        yield key, theta, pdf, adj, queries


def _total(metrics: pd.DataFrame, algo: str):
    """Summed time for one algorithm, or ``"INF(k/n)"`` when k of the n
    queries exhausted the enumeration budget (the paper's 12-hour cutoff)."""
    sub = metrics[metrics["algo"] == algo]
    if sub.empty:
        return None
    n_inf = int(sub["inf"].sum())
    if n_inf > 0:
        return f"INF({n_inf}/{len(sub)})"
    return float(sub["total_s"].sum())


def grid_rows(algos: Sequence[str], row: Callable[..., dict]):
    """A rows function: on every cell of the plan it runs the (query ×
    algorithm) grid of ``algos``, distributed across queries when ``spark``
    is given, and makes one row of it with ``row(key, θ, metrics)``."""

    def rows(
        *, plan: Plan, scale, n_queries: int, seed: int = 0,
        spark: Optional[SparkSession] = None,
    ) -> List[dict]:
        out = []
        for key, theta, pdf, adj, queries in _workloads(
            plan, scale=scale, n_queries=n_queries, seed=seed
        ):
            if spark is not None:
                m = run_workload_spark(spark, pdf, queries, algos)
            else:
                m = run_workload_local(adj, queries, algos)
            out.append(row(key, theta, m))
        return out

    return rows


def _ep_totals(m: pd.DataFrame) -> dict:
    return {f"{a}_s": _total(m, a) for a in _EP_ALGOS}


def _exp1(key, theta, m):
    """Exp-1 (Fig 5): total response time of the 4 algorithms per dataset."""
    return {
        "key": key,
        "theta": theta,
        "n_queries": int(m["qid"].nunique()),
        **_ep_totals(m),
        "paper_note": (
            "paper: baselines INF, VUG 78s" if key == "D8"
            else "paper: baselines INF, VUG 208s" if key == "D9"
            else ""
        ),
    }


def _exp2(key, theta, m):
    """Exp-2 (Fig 6/14): total response time varying θ."""
    return {"key": key, "theta": theta, **_ep_totals(m)}


exp1_rows = grid_rows(_EP_ALGOS, _exp1)
exp2_rows = grid_rows(_EP_ALGOS, _exp2)


def exp3_rows(
    *,
    plan: Plan,
    scale,
    n_queries: int,
    seed: int = 0,
    max_expansions: int = 200_000,
) -> List[dict]:
    """Exp-3 (Fig 7): per-query peak memory, max and min over the workload.

    Measured with :mod:`tracemalloc` in-process (hence no Spark variant —
    allocation tracking must wrap the exact kernel run).  The paper's shape:
    VUG's peak is stable across queries (linear in n+m), while enumeration
    baselines swing exponentially between their min and max query.
    """
    import tracemalloc

    from repro.baselines.ep import ep_run
    from repro.core.vug import vug_local

    rows = []
    for key, _, _, adj, queries in _workloads(
        plan, scale=scale, n_queries=n_queries, seed=seed
    ):
        for algo in ("VUG", "EPdtTSG"):
            peaks, n_inf = [], 0
            for q in queries:
                tracemalloc.start()
                try:
                    if algo == "VUG":
                        vug_local(adj, q)
                    else:
                        res = ep_run(algo, adj, q, max_expansions=max_expansions)
                        n_inf += int(res.inf)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            rows.append(
                {
                    "key": key,
                    "algo": algo,
                    "min_peak_kb": min(peaks) / 1024.0,
                    "max_peak_kb": max(peaks) / 1024.0,
                    "spread": max(peaks) / max(1, min(peaks)),
                    "inf_queries": n_inf,
                }
            )
    return rows


def _exp4(key, theta, m):
    """Exp-4 (Fig 8): per-phase VUG time (QuickUBG / TightUBG / EEV)."""
    quick, tight, ev = (float(m[c].sum()) for c in ("quick_s", "tight_s", "eev_s"))
    total = quick + tight + ev
    return {
        "key": key,
        "quick_s": quick,
        "tight_s": tight,
        "eev_s": ev,
        "total_s": total,
        "eev_pct": 100.0 * ev / total if total else float("nan"),
    }


def _exp5(key, theta, m):
    """Exp-5 (Fig 9/10): tgTSG vs QuickUBG time and upper-bound ratios.

    One cell per dataset gives Fig 9, a θ sweep on a dataset Fig 10/15.
    """
    tg_s = float(m["tg_s"].sum())
    quick_s = float(m["quick_s"].sum())
    ok = m["n_gq"] > 0
    okt = m["n_gt"] > 0
    return {
        "key": key,
        "theta": theta,
        "tgTSG_s": tg_s,
        "QuickUBG_s": quick_s,
        "speedup": tg_s / quick_s if quick_s else float("nan"),
        "quick_ratio": float((m.loc[ok, "n_tspg"] / m.loc[ok, "n_gq"] * 100).mean()),
        "tight_ratio": float((m.loc[okt, "n_tspg"] / m.loc[okt, "n_gt"] * 100).mean()),
    }


def _exp6(key, theta, m):
    """Exp-6 (Fig 11/16): EEV vs path enumeration, both on Gt."""
    enum_s = float(m["enum_s"].sum())
    eev_s = float(m["eev_s"].sum())
    return {
        "key": key,
        "theta": theta,
        "enum_on_gt_s": enum_s,
        "eev_s": eev_s,
        "speedup": enum_s / eev_s if eev_s else float("nan"),
        "enum_inf": int(m["inf"].sum()),
    }


def _exp7(key, theta, m):
    """Exp-7 (Fig 12/17): #edges vs #temporal simple paths in the tspG."""
    return {
        "key": key,
        "theta": theta,
        "tspg_edges": int(m["n_tspg"].sum()),
        "tspg_paths": int(m["n_paths"].sum()),
        "paths_capped": int(m["paths_capped"].sum()),
    }


exp4_rows = grid_rows(["VUG"], _exp4)
exp5_rows = grid_rows(["RATIOS"], _exp5)
exp6_rows = grid_rows(["EXP6"], _exp6)
exp7_rows = grid_rows(["COUNT"], _exp7)


def exp8_rows(*, seed: int = 0) -> List[dict]:
    """Exp-8 (Fig 13): case study on a synthetic transit schedule.

    The paper queries SFMTA GTFS data ("Silver Ave" -> "30th St",
    [9:20, 9:30]) and reports a tspG of 8 stops / 17 trips.  We run the same
    mechanics on the synthetic schedule: one ~10-minute morning query for
    each of five seeds, reporting stops/trips of the resulting tspG.
    """
    from repro.core.vug import vug_local
    from repro.graph.generators import transit_schedule_pdf

    adj = TemporalAdjacency(pdf_to_edge_list(transit_schedule_pdf(seed=7)))
    rows = []
    for s in range(seed, seed + 5):
        q = generate_queries(adj, theta=11, n_queries=1, seed=s)[0]
        res = vug_local(adj, q)
        rows.append(
            {
                "seed": s,
                "s": q.s,
                "t": q.t,
                "window": f"[{q.tb // 60}:{q.tb % 60:02d},"
                f" {q.te // 60}:{q.te % 60:02d}]",
                "stops": len(res.vertices),
                "trips": len(res.edges),
            }
        )
    return rows


def dataflow_rows(
    *, spark: SparkSession, plan: Plan, scale, seed: int = 0
) -> List[dict]:
    """One query per cell through the Spark VUG pipeline.

    ``vug_dataflow`` takes the edge DataFrame, projects the θ-window in
    Spark, collects it and runs the VUG kernel on it; each answer is
    cross-checked against the kernel on the whole graph.
    """
    from repro.core.vug import vug_dataflow, vug_local
    from repro.graph.schema import edges_to_spark, spark_edges_to_list

    rows = []
    for key, _, pdf, adj, (q,) in _workloads(
        plan, scale=scale, n_queries=1, seed=seed
    ):
        got = spark_edges_to_list(
            vug_dataflow(spark, edges_to_spark(spark, pdf), q)
        )
        rows.append(
            {
                "key": key,
                "s": q.s,
                "t": q.t,
                "tb": q.tb,
                "te": q.te,
                "tspg_edges": len(got),
                "matches_kernel": got == vug_local(adj, q).edges,
            }
        )
    return rows
