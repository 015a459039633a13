"""The paper's evaluation, one entry per table or experiment.

``EXPERIMENTS`` maps each name ``jobs/run.py`` accepts to its printed
title, its rows function with its default ``(dataset key, θ)`` plan, the
columns of its rows, the paper's reference points, the ``results/`` file
name and the paper-shape check run on the rows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import perf, tables
from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.graph.datasets import DATASET_KEYS, DATASETS


@dataclass(frozen=True)
class Experiment:
    title: str
    rows: Callable[..., List[dict]]
    columns: Sequence[str]
    results: str
    plan: Optional[perf.Plan] = None  # None: the experiment reads no D1..D10
    notes: Sequence[str] = ()
    # True when the rows show the paper's shape, which the docstring states.
    check: Optional[Callable[[List[dict]], bool]] = None


EVERY_DATASET = tuple((key, DATASETS[key].theta) for key in DATASET_KEYS)
_EPS = 1e-9


def _table1_shape(rows):
    """every stand-in keeps at least 200 edges and 60 vertices"""
    return all(r["our_m"] >= 200 and r["our_n"] >= 60 for r in rows)


def _table2_shape(rows):
    """ratio ordering dt <= es <= tg = quick <= tight on every dataset"""
    return all(
        r["dt_ours"] <= r["es_ours"] + _EPS
        and r["es_ours"] <= r["quick_ours"] + _EPS
        and abs(r["tg_ours"] - r["quick_ours"]) <= _EPS
        and r["quick_ours"] <= r["tight_ours"] + _EPS
        for r in rows
    )


def _exp1_shape(rows):
    """VUG never goes INF and takes at most 5x any baseline that finishes"""
    return all(
        isinstance(r["VUG_s"], float) and all(
            r["VUG_s"] <= r[a] * 5
            for a in ("EPdtTSG_s", "EPesTSG_s", "EPtgTSG_s")
            if isinstance(r[a], float)
        )
        for r in rows
    )


def _exp4_shape(rows):
    """every dataset has positive VUG time and an EEV share in [0, 100] %"""
    return all(r["total_s"] > 0 and 0 <= r["eev_pct"] <= 100 for r in rows)


def _exp5_shape(rows):
    """QuickUBG at least as fast as tgTSG on >= 70 % of cells (7 of the 10
    datasets), and quick_ratio <= tight_ratio on every cell"""
    faster = sum(r["QuickUBG_s"] <= r["tgTSG_s"] for r in rows)
    return faster >= 0.7 * len(rows) and all(
        r["quick_ratio"] <= r["tight_ratio"] + _EPS for r in rows
    )


def _exp6_shape(rows):
    """where the plan has a dense setting (D8, θ >= 10), one shows EEV >= 3x
    faster than enumeration on Gt, or enumeration over budget"""
    dense = [r for r in rows if r["key"] == "D8" and r["theta"] >= 10]
    return not dense or any(r["enum_inf"] > 0 or r["speedup"] >= 3 for r in dense)


def _exp7_shape(rows):
    """at some dataset's largest θ, the paths outnumber 5x the tspG edges
    (or the count hits its cap)"""
    return any(
        r["paths_capped"] > 0 or r["tspg_paths"] > 5 * r["tspg_edges"]
        for r in rows
        if r["theta"] == max(x["theta"] for x in rows if x["key"] == r["key"])
    )


def _dataflow_shape(rows):
    """the Spark pipeline's tspG equals the kernel's"""
    return all(r["matches_kernel"] for r in rows)


_EXP5 = Experiment(
    "Exp-5 — tgTSG vs QuickUBG (s) and upper-bound ratios (%)",
    perf.exp5_rows, perf.EXP5_COLUMNS, "exp5_tgtsg_vs_quickubg",
    EVERY_DATASET, PAPER_QUOTES["exp5"], _exp5_shape,
)

EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "TABLE I — dataset statistics",
        tables.table1_rows, tables.TABLE1_COLUMNS, "table1_datasets",
        EVERY_DATASET, check=_table1_shape,
    ),
    "table2": Experiment(
        "TABLE II — average upper-bound ratio (%)",
        tables.table2_rows, tables.TABLE2_COLUMNS, "table2_upper_bound_ratio",
        EVERY_DATASET,
        ["paper: dtTSG and esTSG < 0.1% everywhere; tgTSG = QuickUBG;"
         " TightUBG > 90% on 8 of 10 datasets"],
        _table2_shape,
    ),
    "exp1": Experiment(
        "Exp-1 — total response time (s)",
        perf.exp1_rows, perf.EXP1_COLUMNS, "exp1_response_time",
        EVERY_DATASET, PAPER_QUOTES["exp1"], _exp1_shape,
    ),
    "exp2": Experiment(
        "Exp-2 — response time (s) varying θ (D1, D9)",
        perf.exp2_rows, perf.EXP2_COLUMNS, "exp2_vary_theta",
        (("D1", 6), ("D1", 8), ("D1", 10), ("D1", 12),
         ("D9", 16), ("D9", 18), ("D9", 20), ("D9", 22), ("D9", 24)),
        PAPER_QUOTES["exp2"],
    ),
    "exp3": Experiment(
        "Exp-3 — per-query peak memory (tracemalloc, KiB)",
        perf.exp3_rows, perf.EXP3_COLUMNS, "exp3_space",
        EVERY_DATASET, PAPER_QUOTES["exp3"],
    ),
    "exp4": Experiment(
        "Exp-4 — per-phase time of VUG (s)",
        perf.exp4_rows, perf.EXP4_COLUMNS, "exp4_phase_breakdown",
        EVERY_DATASET, PAPER_QUOTES["exp4"], _exp4_shape,
    ),
    "exp5": _EXP5,
    "exp5-sweep": replace(
        _EXP5, results="exp5_tgtsg_vs_quickubg_sweep",
        plan=(("D9", 16), ("D9", 20), ("D9", 24),
              ("D10", 23), ("D10", 25), ("D10", 27)),
    ),
    "exp6": Experiment(
        "Exp-6 — EEV vs enumeration on Gt (s)",
        perf.exp6_rows, perf.EXP6_COLUMNS, "exp6_eev_vs_enum",
        (("D1", 10), ("D8", 8), ("D8", 10), ("D8", 12)),
        PAPER_QUOTES["exp6"], _exp6_shape,
    ),
    "exp7": Experiment(
        "Exp-7 — #edges vs #paths in tspG",
        perf.exp7_rows, perf.EXP7_COLUMNS, "exp7_paths_edges",
        (("D1", 6), ("D1", 8), ("D1", 10), ("D8", 8), ("D8", 10), ("D8", 12)),
        PAPER_QUOTES["exp7"], _exp7_shape,
    ),
    "exp8": Experiment(
        "Exp-8 — transit case study (synthetic schedule)",
        perf.exp8_rows, perf.EXP8_COLUMNS, "exp8_case_study",
        notes=["paper (SFMTA GTFS): query ('Silver Ave','30th St',"
               "[9:20,9:30]) -> tspG with 8 stops and 17 trips"],
    ),
    "dataflow": Experiment(
        "Spark VUG pipeline — single query per dataset",
        perf.dataflow_rows, perf.DATAFLOW_COLUMNS, "vug_dataflow_single_query",
        EVERY_DATASET, check=_dataflow_shape,
    ),
}
