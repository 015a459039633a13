"""Spark session, result formatting and persistence for the experiment
driver (``jobs/run.py``) and the tests."""
from __future__ import annotations

import json
import os
from typing import List, Mapping, Sequence

from pyspark.sql import SparkSession

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "../../../results")


def spark_session() -> SparkSession:
    """The local SparkSession, or the one already running.  Master and
    driver memory come from ``PYSPARK_SUBMIT_ARGS`` (default ``local[*]``,
    UI off), read when the JVM starts."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def fmt_markdown_table(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    """Render dict rows as a GitHub markdown table (fixed column order)."""

    def cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for r in rows:
        lines.append("| " + " | ".join(cell(r.get(c)) for c in columns) + " |")
    return "\n".join(lines)


def save_results(name: str, rows: List[Mapping], columns: Sequence[str]) -> str:
    """Persist rows as JSON + markdown under ``$REPRO_RESULTS_DIR`` (default
    results/); returns the md path."""
    out = os.environ.get("REPRO_RESULTS_DIR", RESULTS_DIR)
    os.makedirs(out, exist_ok=True)
    jpath = os.path.join(out, f"{name}.json")
    with open(jpath, "w") as f:
        json.dump(rows, f, indent=1, default=str)
    mpath = os.path.join(out, f"{name}.md")
    with open(mpath, "w") as f:
        f.write(fmt_markdown_table(rows, columns) + "\n")
    return mpath
