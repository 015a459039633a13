"""Metric runner and experiment harnesses at test scale."""
import math
import time

import pandas as pd
import pytest

from repro.experiments.io import fmt_markdown_table
from repro.experiments.paper_numbers import PAPER_QUOTES, PAPER_TABLE2
from repro.experiments.perf import (
    exp1_rows,
    exp2_rows,
    exp4_rows,
    exp5_rows,
    exp6_rows,
    exp7_rows,
)
from repro.experiments.runner import (
    METRIC_COLUMNS,
    query_metrics,
    run_workload_local,
    run_workload_spark,
)
from repro.experiments.tables import table1_rows, table2_rows
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query, generate_queries


# Column order and dtypes of the runners' result frame.
METRIC_DTYPES = [
    ("qid", "int64"), ("algo", "object"), ("inf", "int64"),
    ("total_s", "float64"), ("quick_s", "float64"), ("tight_s", "float64"),
    ("eev_s", "float64"), ("ub_s", "float64"), ("enum_s", "float64"),
    ("tg_s", "float64"), ("n_ub", "int64"), ("n_gq", "int64"),
    ("n_gt", "int64"), ("n_tspg", "int64"), ("n_paths", "int64"),
    ("paths_capped", "int64"), ("n_dt", "int64"), ("n_es", "int64"),
    ("n_tg", "int64"),
]
ALL_ALGOS = ["VUG", "EPdtTSG", "EPesTSG", "EPtgTSG", "RATIOS", "EXP6", "COUNT"]
# One cell: D1 at its default θ.
D1 = [("D1", DATASETS["D1"].theta)]


@pytest.fixture(scope="module")
def d1():
    pdf = make_dataset("D1", scale="test", seed=0)
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    queries = generate_queries(adj, theta=10, n_queries=4, seed=7)
    return pdf, adj, queries


class TestQueryMetrics:
    def test_vug_metrics(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "VUG")
        assert row["n_gq"] >= row["n_gt"] >= row["n_tspg"] >= 1
        assert row["total_s"] > 0

    def test_ep_agrees_with_vug_size(self, d1):
        _, adj, queries = d1
        for q in queries:
            v = query_metrics(adj, q, "VUG")
            for algo in ("EPdtTSG", "EPesTSG", "EPtgTSG"):
                e = query_metrics(adj, q, algo)
                assert e["inf"] == 0
                assert e["n_tspg"] == v["n_tspg"], algo

    def test_ratios_ordering(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "RATIOS")
        assert (
            row["n_dt"] >= row["n_es"] >= row["n_tg"] == row["n_gq"]
            >= row["n_gt"] >= row["n_tspg"]
        )

    def test_exp6_consistency(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "EXP6")
        assert row["eev_s"] > 0 and row["enum_s"] > 0
        assert row["n_tspg"] <= row["n_gt"]

    def test_count_paths_at_least_edges_nonzero(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "COUNT")
        assert row["n_paths"] >= 1
        assert row["n_tspg"] >= 1

    def test_unknown_algo_raises(self, d1):
        _, adj, queries = d1
        with pytest.raises(ValueError):
            query_metrics(adj, queries[0], "nope")

    def test_inf_flag_with_tiny_budget(self, d1):
        _, adj, queries = d1
        rows = [
            query_metrics(adj, q, "EPdtTSG", max_expansions=1) for q in queries
        ]
        assert any(r["inf"] == 1 for r in rows)


class TestWorkloadRunners:
    def test_local_grid_shape(self, d1):
        _, adj, queries = d1
        m = run_workload_local(adj, queries, ["VUG", "EPdtTSG"])
        assert len(m) == len(queries) * 2
        assert set(m["algo"]) == {"VUG", "EPdtTSG"}

    def test_spark_matches_local_sizes(self, spark, d1):
        pdf, adj, queries = d1
        loc = run_workload_local(adj, queries, ["VUG"])
        dist = run_workload_spark(spark, pdf, queries, ["VUG"])
        lo = loc.sort_values("qid")[["qid", "n_gq", "n_gt", "n_tspg"]]
        di = dist.sort_values("qid")[["qid", "n_gq", "n_gt", "n_tspg"]]
        pd.testing.assert_frame_equal(
            lo.reset_index(drop=True), di.reset_index(drop=True),
            check_dtype=False,
        )

    def test_spark_grid_complete(self, spark, d1):
        pdf, _, queries = d1
        dist = run_workload_spark(spark, pdf, queries, ["VUG", "RATIOS"])
        assert len(dist) == 2 * len(queries)
        assert sorted(dist["qid"].unique()) == list(range(len(queries)))

    def test_empty_batch_has_metric_columns(self, spark, d1):
        pdf, adj, _ = d1
        for got in (
            run_workload_local(adj, [], ["VUG"]),
            run_workload_spark(spark, pdf, [], ["VUG"]),
            run_workload_spark(spark, pdf, [Query(0, 1, 1, 5)], []),
        ):
            assert got.empty
            assert tuple(got.columns) == METRIC_COLUMNS

    def test_spark_batch_is_one_job_with_a_task_per_slot(self, spark, d1):
        pdf, adj, _ = d1
        queries = generate_queries(adj, theta=10, n_queries=8, seed=11)
        sc = spark.sparkContext
        group = "test-runner-parallelism"
        sc.setJobGroup(group, "one VUG batch")
        try:
            dist = run_workload_spark(spark, pdf, queries, ["VUG"])
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        tracker = sc.statusTracker()
        deadline = time.monotonic() + 30
        while True:  # the status store trails the listener bus
            jobs = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
            if jobs and all(j and j.status == "SUCCEEDED" for j in jobs):
                break
            assert time.monotonic() < deadline, jobs
            time.sleep(0.05)
        assert len(jobs) == 1
        stage = tracker.getStageInfo(max(jobs[0].stageIds))
        assert stage.numTasks == min(sc.defaultParallelism, len(queries))
        assert list(dist.dtypes.astype(str).items()) == METRIC_DTYPES


class TestTables:
    def test_table1_rows(self):
        rows = table1_rows(plan=[("D1", 10), ("D2", 20)], scale="test")
        assert [r["key"] for r in rows] == ["D1", "D2"]
        r = rows[0]
        assert r["paper_n"] == 1005 and r["our_m"] > 200
        assert r["theta"] == 10

    def test_table2_rows_local(self):
        rows = table2_rows(plan=D1, scale="test", n_queries=3)
        r = rows[0]
        # measured ratio ordering mirrors the paper's
        assert r["dt_ours"] <= r["es_ours"] + 1e-9
        assert r["es_ours"] <= r["tg_ours"] + 1e-9
        assert r["tg_ours"] == pytest.approx(r["quick_ours"])
        assert r["quick_ours"] <= r["tight_ours"] + 1e-9
        assert r["tight_ours"] <= 100.0 + 1e-9
        assert r["tight_paper"] == PAPER_TABLE2["TightUBG"]["D1"]

    def test_table2_rows_spark(self, spark):
        rows = table2_rows(
            spark=spark, plan=[("D8", 10)], scale="test", n_queries=2
        )
        assert rows[0]["key"] == "D8"
        assert rows[0]["n_queries"] == 2


class TestPerfHarnesses:
    def test_exp1(self):
        rows = exp1_rows(plan=D1, scale="test", n_queries=2)
        r = rows[0]
        assert r["VUG_s"] and r["VUG_s"] > 0
        assert r["theta"] == DATASETS["D1"].theta

    def test_exp2(self):
        rows = exp2_rows(plan=[("D1", 4), ("D1", 6)], scale="test", n_queries=2)
        assert [r["theta"] for r in rows] == [4, 6]

    def test_exp3(self):
        from repro.experiments.perf import exp3_rows

        rows = exp3_rows(plan=D1, scale="test", n_queries=3,
                         max_expansions=50_000)
        assert {r["algo"] for r in rows} == {"VUG", "EPdtTSG"}
        for r in rows:
            assert r["max_peak_kb"] >= r["min_peak_kb"] > 0
            assert r["spread"] >= 1

    def test_exp4(self):
        rows = exp4_rows(plan=D1, scale="test", n_queries=2)
        r = rows[0]
        assert r["total_s"] == pytest.approx(
            r["quick_s"] + r["tight_s"] + r["eev_s"]
        )
        assert 0 <= r["eev_pct"] <= 100

    def test_exp5_default(self):
        rows = exp5_rows(plan=D1, scale="test", n_queries=2)
        r = rows[0]
        assert r["tgTSG_s"] > 0 and r["QuickUBG_s"] > 0
        assert 0 < r["quick_ratio"] <= r["tight_ratio"] + 1e-9 <= 100 + 1e-9

    def test_exp5_sweep(self):
        rows = exp5_rows(plan=[("D1", 6), ("D1", 8)], scale="test", n_queries=2)
        assert [r["theta"] for r in rows] == [6, 8]

    def test_exp6(self):
        rows = exp6_rows(plan=[("D1", 8)], scale="test", n_queries=2)
        assert rows[0]["eev_s"] > 0 and rows[0]["enum_on_gt_s"] > 0

    def test_exp7(self):
        rows = exp7_rows(plan=[("D1", 8)], scale="test", n_queries=2)
        r = rows[0]
        assert r["tspg_paths"] >= r["tspg_edges"] * 0  # defined, non-negative
        assert r["tspg_edges"] >= 0


class TestIO:
    def test_markdown_table(self):
        md = fmt_markdown_table(
            [{"a": 1, "b": None}, {"a": 2.5, "b": "x"}], ["a", "b"]
        )
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert "| 1 | - |" in md and "| 2.5 | x |" in md

    def test_paper_quotes_present(self):
        assert set(PAPER_QUOTES) == {f"exp{i}" for i in (1, 2, 3, 4, 5, 6, 7)}
