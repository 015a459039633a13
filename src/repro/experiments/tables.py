"""TABLE I and TABLE II harnesses.

Each function returns a list of row dicts pairing the paper's reported
value with our measured value, one row per ``(dataset key, θ)`` cell of
its plan; ``jobs/run.py`` prints them and EXPERIMENTS.md records a full run.
"""
from __future__ import annotations

from typing import List

import pandas as pd

from repro.experiments.paper_numbers import PAPER_TABLE2
from repro.experiments.perf import Plan, grid_rows
from repro.graph.datasets import DATASETS, make_dataset, measured_stats

TABLE1_COLUMNS = [
    "key", "name", "paper_n", "paper_m", "paper_T", "paper_d", "theta",
    "our_n", "our_m", "our_T", "our_d",
]

TABLE2_COLUMNS = [
    "key", "n_queries",
    "dt_ours", "dt_paper", "es_ours", "es_paper", "tg_ours", "tg_paper",
    "quick_ours", "quick_paper", "tight_ours", "tight_paper",
]


def table1_rows(*, plan: Plan, scale, seed: int = 0) -> List[dict]:
    """TABLE I: paper dataset statistics vs our scaled synthetic stand-ins."""
    rows = []
    for key, theta in plan:
        spec = DATASETS[key]
        stats = measured_stats(make_dataset(key, scale=scale, seed=seed))
        rows.append(
            {
                "key": key,
                "name": spec.name,
                "paper_n": spec.n,
                "paper_m": spec.m,
                "paper_T": spec.n_ts,
                "paper_d": spec.d,
                "theta": theta,
                "our_n": stats["n"],
                "our_m": stats["m"],
                "our_T": stats["n_ts"],
                "our_d": stats["d"],
            }
        )
    return rows


def _ratio(metrics: pd.DataFrame, ub_col: str) -> float:
    """Average upper-bound ratio % over queries (paper TABLE II metric)."""
    ub = metrics[ub_col].astype(float)
    tspg = metrics["n_tspg"].astype(float)
    ok = (ub > 0) & (tspg >= 0)
    if not ok.any():
        return float("nan")
    return float((tspg[ok] / ub[ok] * 100.0).mean())


def _table2(key, theta, metrics):
    """TABLE II: average upper-bound ratio of the five reduction methods.

    From the RATIOS workload: all five upper-bound graphs and the exact
    tspG per query.
    """
    p = {m: PAPER_TABLE2[m].get(key) for m in PAPER_TABLE2}
    return {
        "key": key,
        "n_queries": int(metrics["qid"].nunique()),
        "dt_ours": _ratio(metrics, "n_dt"),
        "dt_paper": p["dtTSG"],
        "es_ours": _ratio(metrics, "n_es"),
        "es_paper": p["esTSG"],
        "tg_ours": _ratio(metrics, "n_tg"),
        "tg_paper": p["tgTSG"],
        "quick_ours": _ratio(metrics, "n_gq"),
        "quick_paper": p["QuickUBG"],
        "tight_ours": _ratio(metrics, "n_gt"),
        "tight_paper": p["TightUBG"],
    }


table2_rows = grid_rows(["RATIOS"], _table2)
