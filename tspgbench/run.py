"""tspG benchmark: per-query kernel, query-parallel runner and Spark dataflow.

Run from the repository root::

    python3 tspgbench/run.py --workload kernel-sparse-d2 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` runs each timed query or batch untraced and then
traced, and reports the per-layer metrics and the tracing overhead.  Every
answer is checked against the stored reference of its query.  The last line
of output is one JSON object; the exit code is non-zero when an answer is
wrong or a query raised.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

from repro.core.vug import vug_dataflow, vug_local  # noqa: E402
from repro.experiments.runner import run_workload_spark  # noqa: E402
from repro.graph.adjacency import TemporalAdjacency  # noqa: E402
from repro.graph.datasets import make_dataset  # noqa: E402
from repro.graph.schema import edges_to_spark, pdf_to_edge_list, spark_edges_to_list  # noqa: E402
from repro.workload import Query  # noqa: E402

from tracing import LayerAbsent, Tracer, kernel_layer_metrics, resolve_layers, traced_vug  # noqa: E402
from workloads import (  # noqa: E402
    DATASET_SEED,
    DEADLINE_S,
    QUERY_SEED,
    WORKLOADS,
    Reference,
    dataset_digest,
    edges_digest,
    issue_order,
    percentile,
)

# Kernel set-up is repeated and its median reported; Spark set-up (JVM start
# and a warm-up query) is too costly to repeat within one run.
KERNEL_SETUP_REPEATS = 5
# A traced kernel run stops after --seconds but traces at least this many.
TRACE_MIN_QUERIES = 20
# A traced runner run keeps inside the 180 s run limit by timing, tracing
# and kernel-tracing only the first queries of the seeded batch.
RUNNER_TRACED_QUERIES = 50
SPARK_SLOTS = min(4, os.cpu_count() or 1)


class DeadlineExceeded(BaseException):
    """A kernel query ran past the per-query deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@contextmanager
def deadline(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed_kernel_call(fn):
    """(result, or None when cut at the deadline; seconds)."""
    t0 = time.perf_counter()
    try:
        with deadline(DEADLINE_S):
            out = fn()
    except DeadlineExceeded:
        out = None
    return out, time.perf_counter() - t0


class Run:
    """Outcome counters, metrics and spans of one benchmark run."""

    def __init__(self, w, args):
        self.w, self.args = w, args
        self.metrics = {}
        self.tracer = Tracer()
        self.attempted = self.wrong = self.errors = self.timeouts = 0

    def metric(self, name, value):
        self.metrics[name] = value

    def info(self, text):
        print(f"# {text}", flush=True)

    def check(self, ref, idx, digest=None, sizes=None):
        """Compare one answer with its reference; count a mismatch.

        ``sizes`` is (|Gq|, |Gt|, |tspG|) with ``None`` for a size not known.
        """
        gq, gt, tspg, ref_digest = ref.answers[idx]
        ok = digest is None or digest == ref_digest
        if sizes is not None:
            ok = ok and all(got in (None, want) for got, want in zip(sizes, (gq, gt, tspg)))
        if not ok:
            self.wrong += 1
            self.info(f"WRONG answer to pool query {idx}: got {digest} {sizes}, "
                      f"want {ref.answers[idx]}")

    def error(self, idx):
        self.errors += 1
        self.info(f"pool query {idx} raised:\n{traceback.format_exc()}")

    @property
    def failed(self):
        return self.wrong + self.errors


def keep_going(n_done, started, seconds, min_queries):
    return n_done < min_queries or time.perf_counter() - started < seconds


def verify_dataset(w, ref, pdf):
    if dataset_digest(pdf) != ref.dataset_digest:
        raise SystemExit(f"make_dataset no longer builds the {w.dataset} graph "
                         "the references were made on")
    return pdf


def load_dataset(w, ref, dataset_seed):
    return verify_dataset(w, ref, make_dataset(w.dataset, scale=w.scale, seed=dataset_seed))


def report_latency(run, samples):
    """Latency and throughput of a closed loop with one caller, from
    (seconds, completed) per query."""
    lat = [dt for dt, _ in samples]
    completed = sum(ok for _, ok in samples)
    run.metric("query_p50_ms", 1000 * percentile(lat, 50))
    if len(lat) >= 200:  # at least 10 samples beyond p95
        run.info(f"query_p95_ms = {1000 * percentile(lat, 95)} ms")
    run.metric("throughput_qps", completed / sum(lat))
    run.info(f"{len(lat)} latency samples, {completed} completed, latency sum {sum(lat)} s, "
             f"slowest {max(lat, default=0.0)} s")


def report_overhead(run, plain_qps, traced_qps):
    run.info(f"throughput untraced {plain_qps} 1/s, traced {traced_qps} 1/s")
    run.metric("trace.overhead_pct", 100 * (1 - traced_qps / plain_qps))


# --------------------------------------------------------------------------
# Kernel layers
# --------------------------------------------------------------------------


class KernelTrace:
    """Traced ``vug_local`` calls on one graph, with per-query counters."""

    def __init__(self, run, adj):
        self.run, self.adj = run, adj
        self.fns = resolve_layers()
        self.counts = defaultdict(float)
        self.ts_sorted = sorted(e[2] for e in adj.edges)
        self.absent = set()
        self.n = 0

    def query(self, q, idx):
        """The traced answer, or ``vug_local``'s when a layer is absent."""
        self.n += 1
        self.counts["window_edges"] += (bisect.bisect_right(self.ts_sorted, q.te)
                                        - bisect.bisect_left(self.ts_sorted, q.tb))
        tracer = self.run.tracer
        try:
            with tracer.span("query", idx):
                return traced_vug(self.fns, self.adj, q, tracer, idx, self.counts)
        except LayerAbsent as e:
            self.absent.add(e.args[0])
            return vug_local(self.adj, q).edges

    def report(self):
        if self.absent:
            self.run.info(f"absent layer functions: {sorted(self.absent)}")
        for name, value in kernel_layer_metrics(self.run.tracer, self.counts, self.n).items():
            self.run.metric(name, value)


def adjacency_builds(run, edges):
    """Median seconds of full-graph ``TemporalAdjacency`` builds."""
    times = []
    for _ in range(KERNEL_SETUP_REPEATS):
        with run.tracer.span("graph.adjacency.build"):
            t0 = time.perf_counter()
            TemporalAdjacency(edges)
            times.append(time.perf_counter() - t0)
    run.metric("adjacency.graph_build_s", statistics.median(times))


def trace_kernel_layers(run, pdf, ref, indices):
    """Kernel layer metrics of the given pool queries, traced in this process."""
    kt = KernelTrace(run, TemporalAdjacency(pdf_to_edge_list(pdf)))
    for idx in indices:
        run.check(ref, idx, digest=edges_digest(kt.query(Query(*ref.queries[idx]), idx)))
    kt.report()
    adjacency_builds(run, kt.adj.edges)


# --------------------------------------------------------------------------
# Kernel workloads: vug_local, closed loop with one caller.
# --------------------------------------------------------------------------


# Pass k of a multi-pass kernel run shifts every timestamp of the graph and of
# the queries by k * PASS_SHIFT.  The kernel only compares timestamps with one
# another, so a shifted query on the shifted graph does the same work as the
# unshifted one and its tspG is the shifted tspG; yet no two calls share a
# graph or a query that a cache could key on.  Shifted values stay below 2**30.
PASS_SHIFT = 1_000_000


def run_kernel(run, ref, traced):
    """``vug_local`` in a closed loop with one caller.

    The first pass issues pool queries in seeded order for ``--seconds /
    passes``; each later pass issues the same queries again, time-shifted and
    in another order.  A query's latency is its fastest call, which filters
    the bursts of load on a shared machine.  Traced runs make one pass.
    """
    w, args = run.w, run.args
    setup = []
    for _ in range(KERNEL_SETUP_REPEATS):
        t0 = time.perf_counter()
        pdf = make_dataset(w.dataset, scale=w.scale, seed=args.dataset_seed)
        adj = TemporalAdjacency(pdf_to_edge_list(pdf))
        setup.append(time.perf_counter() - t0)
    verify_dataset(w, ref, pdf)
    passes = 1 if traced else w.passes
    best = {}  # pool index -> (seconds, completed) of its fastest call
    traced_lat = []
    done_traced = 0
    kt = KernelTrace(run, adj) if traced else None
    least = min(w.min_queries, TRACE_MIN_QUERIES) if traced else w.min_queries
    order = issue_order(w, args.seed)
    rng = random.Random(args.seed)
    for n_pass in range(passes):
        shift = n_pass * PASS_SHIFT
        if n_pass:
            order = list(best)
            rng.shuffle(order)
            adj = None
            adj = TemporalAdjacency([(u, v, ts + shift) for u, v, ts in pdf_to_edge_list(pdf)])
        started = time.perf_counter()
        for n, idx in enumerate(order):
            if n_pass == 0 and not keep_going(n, started, args.seconds / passes, least):
                break
            run.attempted += 1
            s, t, tb, te = ref.queries[idx]
            q = Query(s, t, tb + shift, te + shift)
            try:
                res, dt = timed_kernel_call(lambda: vug_local(adj, q))
                if traced:
                    traced_edges, traced_dt = timed_kernel_call(lambda: kt.query(q, idx))
                    traced_lat.append(traced_dt)
                    done_traced += traced_edges is not None
            except Exception:
                run.error(idx)
                continue
            if idx not in best or dt < best[idx][0]:
                best[idx] = (dt, res is not None)
            if res is None:
                run.timeouts += 1
                continue
            run.check(ref, idx, digest=edges_digest((u, v, ts - shift) for u, v, ts in res.edges))
            if traced and traced_edges is not None and traced_edges != res.edges:
                run.wrong += 1
                run.info(f"WRONG: the traced driver differs from vug_local on pool query {idx}")
    samples = list(best.values())
    if not traced:
        run.info(f"{passes} passes over {len(best)} queries; latency is each query's fastest call")
        run.metric("setup_s", statistics.median(setup))
        report_latency(run, samples)
        return
    kt.report()
    adjacency_builds(run, adj.edges)
    report_overhead(run, sum(ok for _, ok in samples) / sum(dt for dt, _ in samples),
                    done_traced / sum(traced_lat))


# --------------------------------------------------------------------------
# Spark workloads: query-parallel runner and distributed dataflow.
# --------------------------------------------------------------------------


def start_spark(run):
    from sparkenv import start_session

    spark = start_session(ROOT, OUT, SPARK_SLOTS)
    for key, value in sorted(spark.sparkContext.getConf().getAll()):
        run.info(f"spark conf {key}={value}")
    return spark


def dataflow_answer(spark, edf, q):
    return spark_edges_to_list(vug_dataflow(spark, edf, q))


def prepare_dataflow(run, spark, w, ref):
    """Cached edge DataFrame of ``w``'s graph, after ``w``'s warm-up queries."""
    edf = edges_to_spark(spark, load_dataset(w, ref, run.args.dataset_seed)).cache()
    edf.count()
    for idx in range(w.warmup):
        edges = dataflow_answer(spark, edf, Query(*ref.queries[idx]))
        run.check(ref, idx, digest=edges_digest(edges))
    return edf


def trace_dataflow(run, spark, edf, ref, indices):
    """``vug_dataflow`` phase by phase on the given pool queries.

    Each phase runs under its own job group and is materialised at its
    boundary; reports per-query means of phase seconds and Spark jobs.
    Returns the seconds spent, or ``None`` when a phase function is gone.
    """
    import repro.core.eev
    import repro.core.vug

    from sparkenv import group_stats

    quick_ubg_dataflow = getattr(repro.core.vug, "quick_ubg_dataflow", None)
    tight_ubg_dataflow = getattr(repro.core.vug, "tight_ubg_dataflow", None)
    eev_df = getattr(repro.core.eev, "eev_df", None)
    if None in (quick_ubg_dataflow, tight_ubg_dataflow, eev_df):
        run.info("absent dataflow phase functions: dataflow.* not measured")
        return None
    sc = spark.sparkContext
    totals = defaultdict(float)
    t_all = time.perf_counter()
    for idx in indices:
        q = Query(*ref.queries[idx])

        def phase(name, fn):
            group = f"tspgbench-{run.args.seed}-{idx}-{name}"
            sc.setJobGroup(group, f"dataflow phase {name}")
            with run.tracer.span(f"dataflow.{name}", idx):
                t0 = time.perf_counter()
                out = fn()
                totals[f"dataflow.{name}_s"] += time.perf_counter() - t0
            totals[f"dataflow.{name}_jobs"] += group_stats(sc, group)["jobs"]
            return out

        gq = phase("quick", lambda: quick_ubg_dataflow(spark, edf, q).localCheckpoint(eager=True))
        gt = phase("tight", lambda: tight_ubg_dataflow(spark, gq, q).localCheckpoint(eager=True))
        edges = phase("eev", lambda: spark_edges_to_list(
            eev_df(spark, gt, q.s, q.t, q.tb, q.te)))
        run.check(ref, idx, digest=edges_digest(edges))
    for name, value in totals.items():
        run.metric(name, value / len(indices))
    return time.perf_counter() - t_all


def check_runner_rows(run, rows, ref, indices):
    """Runner rows carry sizes, not edges: check |Gq|, |Gt| and |tspG|."""
    indices = list(indices)
    if len(rows) != len(indices):
        run.wrong += len(indices)
        run.info(f"WRONG: the runner returned {len(rows)} rows for {len(indices)} queries")
        return
    for rec in rows.to_dict("records"):
        run.check(ref, indices[int(rec["qid"])], sizes=tuple(
            int(rec[c]) if c in rec else None for c in ("n_gq", "n_gt", "n_tspg")))


def run_runner(run, ref, traced):
    """One ``run_workload_spark`` batch of the whole timed pool."""
    from sparkenv import group_stats, stop_session

    w, args = run.w, run.args
    t0 = time.perf_counter()
    spark = start_spark(run)
    try:
        pdf = load_dataset(w, ref, args.dataset_seed)
        warm = [Query(*q) for q in ref.queries[:w.warmup]]
        check_runner_rows(run, run_workload_spark(spark, pdf, warm, ["VUG"]), ref, range(w.warmup))
        setup_s = time.perf_counter() - t0
        order = issue_order(w, args.seed)[w.warmup:]
        if traced:
            order = order[:RUNNER_TRACED_QUERIES]
        batch = [Query(*ref.queries[i]) for i in order]
        run.attempted += len(batch)
        t0 = time.perf_counter()
        rows = run_workload_spark(spark, pdf, batch, ["VUG"])
        wall = time.perf_counter() - t0
        check_runner_rows(run, rows, ref, order)
        run.info(f"batch of {len(batch)} queries on local[{SPARK_SLOTS}]: wall {wall} s")
        if not traced:
            run.metric("setup_s", setup_s)
            # Every answer of a batch reaches the caller when the call returns.
            run.metric("query_p50_ms", 1000 * wall)
            run.metric("throughput_qps", len(batch) / wall)
            return
        sc = spark.sparkContext
        group = f"tspgbench-runner-{args.seed}"
        sc.setJobGroup(group, "traced runner batch")
        with run.tracer.span("runner.batch"):
            t0 = time.perf_counter()
            traced_rows = run_workload_spark(spark, pdf, batch, ["VUG"])
            traced_wall = time.perf_counter() - t0
        stats = group_stats(sc, group)
        check_runner_rows(run, traced_rows, ref, order)
        if "total_s" in traced_rows:
            busy = traced_rows["total_s"].sum()
            run.metric("runner.task_busy_s", busy)
            run.metric("runner.parallel_efficiency", busy / (traced_wall * SPARK_SLOTS))
        run.metric("runner.stage_tasks", stats["last_stage_tasks"])
        run.metric("runner.spark_jobs", stats["jobs"])
        for col in ("quick_s", "tight_s", "eev_s"):
            if col in traced_rows:
                run.metric(f"runner.{col}", traced_rows[col].sum())
        report_overhead(run, len(batch) / wall, len(batch) / traced_wall)
        # The dataflow is too slow for a workload of its own in the run
        # budget, so its phases are traced here, in the same session.
        df_w = WORKLOADS["dataflow-d8"]
        df_ref = Reference.load(df_w, args.dataset_seed, args.query_seed)
        edf = prepare_dataflow(run, spark, df_w, df_ref)
        trace_dataflow(run, spark, edf, df_ref, issue_order(df_w, args.seed)[df_w.warmup:])
    finally:
        stop_session(spark)
    trace_kernel_layers(run, pdf, ref, order)


def run_dataflow(run, ref, traced):
    """``vug_dataflow`` + ``spark_edges_to_list``, closed loop, one caller."""
    from sparkenv import stop_session

    w, args = run.w, run.args
    t0 = time.perf_counter()
    spark = start_spark(run)
    lat, done = [], []
    try:
        edf = prepare_dataflow(run, spark, w, ref)
        setup_s = time.perf_counter() - t0
        started = time.perf_counter()
        for n, idx in enumerate(issue_order(w, args.seed)[w.warmup:]):
            if not keep_going(n, started, args.seconds, w.min_queries):
                break
            run.attempted += 1
            try:
                t0 = time.perf_counter()
                edges = dataflow_answer(spark, edf, Query(*ref.queries[idx]))
                lat.append(time.perf_counter() - t0)
            except Exception:
                run.error(idx)
                continue
            done.append(idx)
            run.check(ref, idx, digest=edges_digest(edges))
        if traced:
            traced_s = trace_dataflow(run, spark, edf, ref, done)
    finally:
        stop_session(spark)
    if not traced:
        run.metric("setup_s", setup_s)
        report_latency(run, [(dt, True) for dt in lat])
        return
    if traced_s is not None:
        report_overhead(run, len(lat) / sum(lat), len(done) / traced_s)
    trace_kernel_layers(run, load_dataset(w, ref, args.dataset_seed), ref, done)


RUNNERS = {"kernel": run_kernel, "runner": run_runner, "dataflow": run_dataflow}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="issue-order seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="least measuring time; each workload also has a least query count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dataset-seed", type=int, default=DATASET_SEED)
    p.add_argument("--query-seed", type=int, default=QUERY_SEED)
    args = p.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    ref = Reference.load(w, args.dataset_seed, args.query_seed)
    run = Run(w, args)
    traced = bool(args.trace)
    run.info(f"workload {w.name}: {w.kind} on {w.dataset} ({w.scale}), seed {args.seed}, "
             f"dataset seed {args.dataset_seed}, query seed {args.query_seed}, "
             f"trace {args.trace}, kernel deadline {DEADLINE_S} s")
    RUNNERS[w.kind](run, ref, traced)
    if traced:
        run.tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
    else:
        run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    attempted = max(run.attempted, 1)
    run.info(f"error_rate = {run.failed / attempted} (wrong {run.wrong}, raised {run.errors})")
    run.info(f"timeout_rate = {run.timeouts / attempted} ({run.timeouts} cut at {DEADLINE_S} s)")
    metrics = {}
    for m in declared["per_layer" if traced else "end_to_end"]:
        if m["name"] not in run.metrics:
            run.info(f"{m['name']} not measured on {w.name}: reported as 0")
        value = float(run.metrics.get(m["name"], 0.0))
        print(f"{m['name']} = {value} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
