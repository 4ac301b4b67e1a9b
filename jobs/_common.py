"""Shared plumbing for the spark-submit job entrypoints.

Each ``jobs/t*.py`` reproduces one evaluation table (see DESIGN.md §5),
prints its rows as markdown, and exits. All jobs accept ``--fast`` to run a
reduced grid (used by the smoke tests) and ``--timeout SECONDS`` for the
per-run deadline (the paper used a 10-minute timeout).
"""
from __future__ import annotations

import argparse
import sys

from pyspark.sql import SparkSession

from repro.datasets import compas, german_credit, student
from repro.datasets.base import RankedDataset


def get_spark(app: str) -> SparkSession:
    """A SparkSession mirroring the test fixture's configuration."""
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def parse_args(description: str) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--fast", action="store_true", help="reduced grid")
    ap.add_argument("--timeout", type=float, default=120.0)
    return ap.parse_args()


def load_datasets(
    spark: SparkSession, fast: bool
) -> dict[str, RankedDataset]:
    """The three evaluation datasets at paper size (reduced under --fast)."""
    if fast:
        return {
            "student": student(spark, n=200, seed=42),
            "compas": compas(spark, n=500, seed=7),
            "german": german_credit(spark, n=300, seed=11),
        }
    return {
        "student": student(spark, seed=42),
        "compas": compas(spark, seed=7),
        "german": german_credit(spark, seed=11),
    }


def emit(title: str, body: str) -> None:
    print(f"\n## {title}\n", flush=True)
    print(body, flush=True)
    sys.stdout.flush()
