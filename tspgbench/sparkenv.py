"""Local Spark session for the runner and dataflow workloads.

The session carries the settings of ``jobs/_common.get_spark`` with the
master pinned to ``local[k]``.  Spark's Python workers import ``repro``, so
``PYTHONPATH`` must name the source tree before the JVM starts; scratch
files stay inside the checkout.
"""
from __future__ import annotations

import os
import shlex
from pathlib import Path
from typing import Dict


def start_session(root: Path, out: Path, k: int):
    """Start the JVM and a SparkSession; return it."""
    local = out / "spark-local"
    tmp = out / "tmp"
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{k}]",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            # No hsperfdata files in the machine's /tmp.
            "--driver-java-options "
            + shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("tspgbench")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(out / "spark-warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark, shut the JVM gateway down and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def group_stats(sc, group: str) -> Dict[str, int]:
    """Jobs run under a job group, and the task count of the last stage of
    the group's last job (the stage that ran the group's work)."""
    tracker = sc.statusTracker()
    job_ids = sorted(tracker.getJobIdsForGroup(group))
    last_stage_tasks = 0
    for jid in job_ids:
        info = tracker.getJobInfo(jid)
        if info is None or not info.stageIds:
            continue
        stage = tracker.getStageInfo(max(info.stageIds))
        if stage is not None:
            last_stage_tasks = stage.numTasks
    return {"jobs": len(job_ids), "last_stage_tasks": last_stage_tasks}
