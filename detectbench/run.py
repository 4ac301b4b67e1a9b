"""Detection benchmark: one workload, end to end on the Spark store.

Usage (from the repository root):

    python3 detectbench/run.py --workload german-global-k350 --seed 11 \
        --seconds 20 --trace 0

Each detection goes through the production path: the ranked Spark
DataFrame of a generated dataset → ``RankedDataset.spark_store()`` (a fresh
store each time, released afterwards) → ``run_algorithm``. Both the
optimized algorithm (PROPBOUNDS or GLOBALBOUNDS) and the ITERTD baseline
run, alternating which goes first, and every result is checked against a
``brute_force`` reference computed once on the pandas store, outside every
timer (and, at the workload's default seed, against a checked-in digest).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced detection pairs and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Dataset generations per run; ``setup_s`` counts their median.
SETUP_REPEATS = 3
#: Untimed warm-up before measuring. The first detections in a JVM run two
#: to three times as slow as later ones, and the JIT keeps speeding up the
#: driver for tens of seconds after that. Warm-up runs at least
#: ``WARMUP_MIN_PAIRS`` pairs, then stops once the last two pairs' times
#: agree within ``WARMUP_TOLERANCE``, or once it has run ``WARMUP_MAX_S``.
WARMUP_MIN_PAIRS = 4
WARMUP_TOLERANCE = 0.10
WARMUP_MAX_S = 20.0
#: Measured pairs per run even when ``--seconds`` has already elapsed.
MIN_PAIRS = 2
#: A detection running longer than this counts as failed.
DETECTION_TIMEOUT_S = 30.0
#: No detection starts this long after the process started, so a run ends
#: well within three minutes.
RUN_DEADLINE_S = 120.0

MAX_CORES = 4
DRIVER_MEMORY = "2g"
#: The session confs of ``jobs/_common.get_spark``, pinned here so a change
#: to the jobs does not silently change what the benchmark measures.
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}

ALGOS = {"opt": "optimized", "itertd": "baseline"}
#: Layer records ITERTD never produces: it reads no rows by rank and never
#: normalises a frontier or resumes a search.
OPT_ONLY = {"rows_s", "frontier_s", "frontier_calls", "resume_calls"}
#: Per-layer metric name → (key of a traced detection record, unit).
LAYER_KEYS = {
    "store.build_s": ("build_s", "s"),
    "store.agg_s": ("agg_s", "s"),
    "store.jobs": ("jobs", "count"),
    "store.lookups": ("lookups", "count"),
    "store.lookups_per_job": ("lookups_per_job", "ratio"),
    "store.rows_s": ("rows_s", "s"),
    "spark.jobs": ("spark_jobs", "count"),
    "search.self_s": ("self_s", "s"),
    "search.examined": ("examined", "count"),
    "search.examined_per_s": ("examined_per_s", "1/s"),
    "search.frontier_s": ("frontier_s", "s"),
    "search.frontier_calls": ("frontier_calls", "count"),
    "search.topdown_calls": ("topdown_calls", "count"),
    "search.resume_calls": ("resume_calls", "count"),
}


def median(values):
    return statistics.median(values) if values else None


def result_digest(res: dict) -> str:
    """sha256 over the per-k result sets in a canonical order."""
    h = hashlib.sha256()
    for k in sorted(res):
        for p in sorted(res[k]):
            h.update(repr((k, p)).encode())
    return h.hexdigest()


def release(store) -> None:
    unpersist = getattr(store, "unpersist", None)
    if unpersist is not None:
        unpersist()


class Bench:
    """One benchmark run: a Spark session, one workload at one seed."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.cores = min(MAX_CORES, os.cpu_count() or 1)
        self.attempted = 0
        self.failed = 0
        self.expected: dict | None = None
        self.spark = None
        self.ds = None

    # -- set-up -----------------------------------------------------------
    def start_spark(self) -> float:
        os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
            [
                f"--master local[{self.cores}]",
                f"--driver-memory {DRIVER_MEMORY}",
                "--conf spark.driver.host=127.0.0.1",
                "pyspark-shell",
            ]
        )
        start = time.perf_counter()
        from pyspark.sql import SparkSession

        builder = SparkSession.builder.appName(f"detectbench-{self.wl.name}")
        for key, value in SPARK_CONF.items():
            builder = builder.config(key, value)
        self.spark = builder.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")
        return time.perf_counter() - start

    def stop_spark(self) -> None:
        """Stop the session and the JVM it launched, and wait for it."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is None:
            return
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def generate(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.ds = self.wl.generate(self.spark, self.seed)
            times.append(time.perf_counter() - start)
        return times

    def time_add_rank(self) -> list[float]:
        """``add_rank`` plus materialisation on the dataset's scored frame,
        as the dataset constructors do it."""
        from repro.ranking.rankers import add_rank

        scored = self.ds.df.drop(self.ds.rank_col)
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            add_rank(scored, self.wl.score_col, tiebreak_cols=["id"]).toPandas()
            times.append(time.perf_counter() - start)
        return times

    def compute_reference(self) -> None:
        """The brute-force reference and, at the default seed, its digest
        check. Runs outside every timer; if the digest differs, every
        detection fails.

        The reference reads the pandas store over the same generated rows,
        so it does not share the Spark store that every timed detection
        uses: a wrong Spark statistic fails the check at any seed."""
        from repro.core.brute_force import brute_force

        wl = self.wl
        store = self.ds.pandas_store()
        ref = brute_force(store, wl.spec(), wl.tau, wl.k_min, wl.k_max).res
        groups = sum(len(v) for v in ref.values())
        digest = result_digest(ref)
        if self.seed == wl.default_seed and (
            digest != wl.digest or groups != wl.groups
        ):
            print(f"reference does not match the checked-in digest: "
                  f"{digest} / {groups} groups", file=sys.stderr)
            return
        self.expected = ref

    # -- detections -------------------------------------------------------
    def pair(
        self, index: int, traced: bool, heap: bool = False
    ) -> dict[str, dict | None]:
        """Both algorithms once, alternating which runs first."""
        order = ["opt", "itertd"] if index % 2 == 0 else ["itertd", "opt"]
        out = {}
        for algo in order:
            self.attempted += 1
            out[algo] = self._detect(
                algo, traced, f"detectbench-{self.attempted}", heap
            )
            self.failed += out[algo] is None
        return out

    def _detect(
        self, algo: str, traced: bool, group: str, heap: bool = False
    ) -> dict | None:
        """One detection from ranked DataFrame to per-k result with a fresh
        store, checked against the reference. Returns its record, or None
        if it raised, timed out or returned a wrong result. With ``heap``,
        the record holds the detection's peak Python heap instead of a
        usable time (tracing allocations slows it down)."""
        from repro.experiments.runner import run_algorithm

        from layers import (
            HeapPeak, SearchTrace, store_counters, time_first_row_lookup,
        )

        wl = self.wl
        args = (wl.problem, ALGOS[algo], wl.spec(), wl.tau, wl.k_min, wl.k_max)
        rec: dict = {}
        sc = self.spark.sparkContext
        store = None
        try:
            if traced:
                sc.setJobGroup(group, "detectbench traced detection")
            start = time.perf_counter()
            with HeapPeak(heap) as peak:
                store = self.ds.spark_store()
                built = time.perf_counter()
                if traced:
                    before = store_counters(store)
                    time_first_row_lookup(store, rec)
                    with SearchTrace() as search:
                        out = run_algorithm(
                            store, *args, timeout_s=DETECTION_TIMEOUT_S
                        )
                else:
                    out = run_algorithm(
                        store, *args, timeout_s=DETECTION_TIMEOUT_S
                    )
            end = time.perf_counter()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if traced:
                sc.setLocalProperty("spark.jobGroup.id", None)
            if store is not None:
                release(store)
        if out.timed_out:
            print(f"{algo}: timed out", file=sys.stderr)
            return None
        if self.expected is None or out.res != self.expected:
            print(f"{algo}: result differs from the reference", file=sys.stderr)
            return None
        mode = " traced" if traced else " heap" if heap else ""
        print(f"{algo}{mode}: {end - start:.3f} s", file=sys.stderr)
        if heap:
            rec["heap_peak_mb"] = peak.mb
        rec.update(
            detect_s=end - start,
            examined=out.examined,
            groups=sum(len(v) for v in out.res.values()),
        )
        if traced:
            layer_record(rec, store, before, search, built - start)
            rec["spark_jobs"] = self.spark_jobs(group)
        return rec

    def spark_jobs(self, group: str) -> int:
        """Spark jobs started under job group ``group``, once the listener
        bus has delivered every event posted so far."""
        sc = self.spark.sparkContext
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        return len(sc.statusTracker().getJobIdsForGroup(group))

    def past_deadline(self) -> bool:
        return time.perf_counter() - self.started > RUN_DEADLINE_S


def layer_record(rec: dict, store, before: dict, search, build_s: float):
    """Add the store and search layers' share of one traced detection."""
    from layers import store_counters

    after = store_counters(store)
    delta = {k: after[k] - before[k] for k in after}
    rec["build_s"] = build_s
    rec.update(delta)
    if delta.get("jobs"):
        rec["lookups_per_job"] = delta.get("lookups", 0) / delta["jobs"]
    if "agg_s" in delta:
        self_s = rec["detect_s"] - build_s - delta["agg_s"]
        self_s -= rec.get("rows_s", 0.0)
        rec["self_s"] = self_s
        if self_s > 0:
            rec["examined_per_s"] = rec["examined"] / self_s
    for key in search.calls:
        if key not in search.missing:
            rec[f"{key}_calls"] = search.calls[key]
            rec[f"{key}_s"] = search.seconds[key]


def warm_up(bench: Bench) -> tuple[int, float]:
    """Untimed detection pairs until the JVM settles (see
    ``WARMUP_MIN_PAIRS``); returns the number of pairs and their time."""
    start = time.perf_counter()
    pair_s = []
    while not bench.past_deadline():
        t0 = time.perf_counter()
        bench.pair(len(pair_s), traced=False)
        pair_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start > WARMUP_MAX_S:
            break
        if len(pair_s) >= WARMUP_MIN_PAIRS and (
            abs(pair_s[-1] - pair_s[-2]) <= WARMUP_TOLERANCE * pair_s[-2]
        ):
            break
    return len(pair_s), time.perf_counter() - start


def measure(bench: Bench) -> dict:
    """Set up, warm up and measure; returns metric name → (value, unit)."""
    spark_s = bench.start_spark()
    gen_times = bench.generate()
    add_rank_times = bench.time_add_rank() if bench.trace else []
    start = time.perf_counter()
    bench.compute_reference()
    reference_s = time.perf_counter() - start
    warmup_pairs, warmup_s = warm_up(bench)
    setup_s = spark_s + median(gen_times) + warmup_s
    print(f"set-up: spark {spark_s:.2f} s, generate "
          f"{', '.join(f'{t:.2f}' for t in gen_times)} s, "
          f"warm-up {warmup_pairs} pairs in {warmup_s:.2f} s; "
          f"reference (untimed) {reference_s:.2f} s", file=sys.stderr)

    plain: dict[str, list[dict]] = {"opt": [], "itertd": []}
    traced: dict[str, list[dict]] = {"opt": [], "itertd": []}
    min_pairs = MIN_PAIRS * (2 if bench.trace else 1)
    end = time.perf_counter() + bench.seconds
    i = 0
    while (i < min_pairs or time.perf_counter() < end) and not (
        bench.past_deadline()
    ):
        with_trace = bench.trace and i % 2 == 1
        for algo, rec in bench.pair(i, with_trace).items():
            if rec is not None:
                (traced if with_trace else plain)[algo].append(rec)
        i += 1

    if bench.trace:
        # One more pair with allocation tracing on, for the heap peaks only.
        heap = {"opt": [], "itertd": []}
        if not bench.past_deadline():
            for algo, rec in bench.pair(i, False, heap=True).items():
                if rec is not None:
                    heap[algo].append(rec)
        return layer_metrics(plain, traced, heap, gen_times, add_rank_times)
    return {
        "detect_s": (median([r["detect_s"] for r in plain["opt"]]), "s"),
        "itertd_s": (median([r["detect_s"] for r in plain["itertd"]]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metrics(plain, traced, heap, gen_times, add_rank_times) -> dict:
    """Per-layer metrics: medians over the traced detections, and the heap
    peaks of the allocation-traced pair."""
    m = {
        "ranking.add_rank_s": (median(add_rank_times), "s"),
        "datasets.generate_s": (median(gen_times), "s"),
    }
    for algo in ("opt", "itertd"):
        for name, (key, unit) in LAYER_KEYS.items():
            if algo == "itertd" and key in OPT_ONLY:
                continue
            values = [r[key] for r in traced[algo] if key in r]
            agg = statistics.median_low if unit == "count" else median
            m[f"{name}.{algo}"] = (agg(values) if values else None, unit)
        m[f"driver.heap_peak_mb.{algo}"] = (
            median([r["heap_peak_mb"] for r in heap[algo]]), "MB"
        )
    ex = median([r["examined"] for r in traced["opt"]])
    base = median([r["examined"] for r in traced["itertd"]])
    gain = 1 - ex / base if ex and base else None
    m["search.examined_gain"] = (gain, "ratio")
    groups = [r["groups"] for r in traced["opt"] + traced["itertd"]]
    m["result.groups"] = (
        statistics.median_low(groups) if groups else None, "count"
    )
    t_on = median([r["detect_s"] for r in traced["opt"]])
    t_off = median([r["detect_s"] for r in plain["opt"]])
    m["trace.overhead_s"] = (
        t_on - t_off if t_on is not None and t_off is not None else None, "s"
    )
    return m


def peak_rss_mb() -> float:
    """High-water RSS of this Python process over the whole run (the JVM is
    a child process and is not counted). Imports, dataset generation and
    the reference set most of it, so it guards the driver's footprint; a
    detection's own Python heap is ``driver.heap_peak_mb`` in the traced
    run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(bench: Bench) -> dict:
    import pyspark

    def git_sha():
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() or None

    src_lines = 0
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        src_lines += data.count(b"\n")
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return {
        "workload": bench.wl.name,
        "seed": bench.seed,
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "spark_master": f"local[{bench.cores}]",
        "spark_conf": SPARK_CONF,
        "driver_memory": DRIVER_MEMORY,
        "python": platform.python_version(),
        "spark": bench.spark.version,
        "pyspark": pyspark.__version__,
        "jdk": bench.spark.sparkContext._jvm.System.getProperty(
            "java.version"
        ),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="dataset generator seed (default: the generator's)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed

    # Spark, the JVMs (spark-submit's launcher too) and Python keep their
    # temporary files inside the checkout.
    scratch = ROOT / ".bench_build" / "detectbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["TMPDIR"] = str(workdir)
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(str(workdir))}"
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(workdir / "spark")
    tempfile.tempdir = None

    bench = Bench(wl, seed, args.seconds, bool(args.trace))
    try:
        metrics = measure(bench)
        prov = provenance(bench)
    finally:
        bench.stop_spark()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"wall: {time.perf_counter() - bench.started:.1f} s", file=sys.stderr)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else str(value)
        print(f"{name:32s} {shown:>24s} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
