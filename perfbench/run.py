"""LLM-CER benchmark: compute seconds and the simulated API bill.

Runs one workload through repro's public API and prints, as the last
line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
taken from spans recorded around each layer's functions (see
``tracing.py``). Usage, from the repository root::

    python3 perfbench/run.py --workload alaska --seed 0 --seconds 10 --trace 0

Two clocks are kept apart: compute seconds measured on this machine
(``e2e_mean_s``, ``setup_s``, every ``*_s`` layer metric) and the simulated
API bill read from the LLM ledger (``api_*``). A run generates its input
from ``--seed`` (generation is not timed), sets up (again in fresh
processes, for a median set-up time), then repeats the workload, one
job at a time in this process, until ``--seconds`` have passed and at
least ``MIN_PASSES`` passes are done. Every pass is checked outside
the timed region (``checks.py``); a pass that raises or fails a check
counts in ``failed``. ``--scale`` overrides the workload's dataset scale
(``--scale 1.0 --seed 0`` reproduces the paper-size readings).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    dataset: str
    scale: float
    spark: bool


# Why each workload is here (BENCHMARK.json has the same reasons; the
# figures are traced passes at seed 0 on a 4-core x86 machine):
# alaska - 357 LSH blocks of at most 60 records, so none is split; NRS's
#          elbow k-means is the top layer (1.0 s of a 3.7 s pass), then
#          embedding (0.9 s) and the simulated LLM (0.4 s).
# alaska-spark - the alaska input through core.spark_pipeline, the only
#          workload on the Spark path (block resolution 7.4 s and
#          lsh_assign_blocks 4.0 s of a 15.5 s traced pass); its traced run
#          also reads how far the Spark path disagrees with the driver path.
# Not in BENCHMARK.json, runnable by hand:
# music  - ~1.9 records per entity: 1,851 blocks of at most 14 records,
#          which bypass NRS k-means (4 elbow_k calls), so core.metrics
#          takes 2.9 s of a 4.1 s pass. Over ten 5-second runs its median
#          pass time spread 28% and 37% of the median, the most of any
#          workload, and the runs it would add leave too little of the time
#          budget for longer ones; the layers it stresses are also measured
#          on alaska.
# wa     - deep merge hierarchies make CMR's round packing the hot spot,
#          but across seeds its time and bill spread too widely to gate on
#          (e2e IQR 43% of the median at scale 0.5) and a full-size pass
#          takes ~25 s. Run it by hand for CMR work.
WORKLOADS = {
    "alaska": Workload("alaska", 0.25, spark=False),
    "music": Workload("music", 0.15, spark=False),
    "alaska-spark": Workload("alaska", 0.25, spark=True),
    "wa": Workload("wa", 1.0, spark=False),
}
#: set-up is measured this many times per run (fresh processes) and the
#: median reported
SETUP_SAMPLES = {False: 5, True: 2}
#: passes per run at the least, however short --seconds is, so that a
#: repeat at one seed can be checked to read the same
MIN_PASSES = 2
#: tiny input that warms the Spark JVM and Python workers during set-up
WARMUP_SCALE = 0.01
SPARK_DRIVER_MEMORY = "1g"


def spark_master() -> str:
    return f"local[{min(4, os.cpu_count() or 1)}]"


def prepare_env(wl: Workload) -> None:
    """Make ``repro`` importable here and in Spark's Python workers, and
    keep every temporary file inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["TMPDIR"] = str(tmp)
    if wl.spark:
        os.environ["PYSPARK_PYTHON"] = sys.executable
        args = [
            "--master", spark_master(),
            "--driver-memory", SPARK_DRIVER_MEMORY,
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", f"spark.local.dir={tmp}",
            "--conf", f"spark.sql.warehouse.dir={tmp}/warehouse",
            "--driver-java-options", f"-Djava.io.tmpdir={tmp}",
            "pyspark-shell",
        ]
        os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args)
        # JVMs otherwise keep a performance-data file under /tmp
        os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
            [os.environ.get("JAVA_TOOL_OPTIONS", ""), "-XX:-UsePerfData"]
        ).strip()


# ------------------------------------------------------------------ set-up


def setup(wl: Workload):
    """Get ready to run: imports, plus the SparkSession and a warm-up
    pass on the Spark path. Returns (spark or None, seconds)."""
    t0 = time.perf_counter()
    import repro.core.metrics  # noqa: F401
    import repro.core.records  # noqa: F401
    import repro.datasets.generator  # noqa: F401
    import repro.experiments.harness  # noqa: F401

    spark = None
    if wl.spark:
        import repro.core.spark_metrics  # noqa: F401
        import repro.core.spark_pipeline  # noqa: F401
        from pyspark.sql import SparkSession

        # the SQL settings of jobs/_common.spark_session
        spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.ui.showConsoleProgress", "false")
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        from tracing import Tracer

        spec, pdf = make_input(wl.dataset, WARMUP_SCALE, seed=0)
        spark_pass(spark, spec, pdf, 0, Tracer(enabled=False))
    return spark, time.perf_counter() - t0


def setup_in_child(name: str) -> float:
    """One set-up sample, taken in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ------------------------------------------------------------------ inputs


def make_input(dataset: str, scale: float, seed: int):
    """The dataset frame for ``seed``: seed 0 is the registry's own."""
    from dataclasses import replace

    from repro.datasets.generator import generate
    from repro.datasets.registry import SPECS

    spec = SPECS[dataset]
    if scale != 1.0:
        spec = spec.scaled(scale)
    spec = replace(spec, seed=spec.seed + seed)
    return spec, generate(spec)


# ------------------------------------------------------------------ passes


@dataclass
class Reading:
    """What one pass produced, and how long it took."""

    e2e_s: float
    bill: dict
    quality: dict
    record_ids: list | None = field(repr=False)
    assignment: dict | None = field(repr=False)
    truth: dict | None = field(repr=False)
    fp_spark: float | None = None

    def slim(self) -> None:
        """Drop what only this pass's own checks needed."""
        self.record_ids = self.assignment = self.truth = None


@contextmanager
def keep_blocks(sink: list):
    """Driver path: keep a reference to the blocks the harness's blocker
    returns, so the coverage check sees a record that two blocks share
    (``run_er``'s merged assignment dict would hide it). The harness holds
    that list for the whole pass anyway, so keeping it costs no memory."""
    from repro import blocking

    orig = blocking.BLOCKERS["lsh"]

    def kept(*args, **kwargs):
        blocks = orig(*args, **kwargs)
        sink.append(blocks)
        return blocks

    blocking.BLOCKERS["lsh"] = kept
    try:
        yield
    finally:
        blocking.BLOCKERS["lsh"] = orig


def driver_pass(spec, pdf, seed: int, tr) -> Reading:
    """Generated frame → records → ``harness.run_er`` (LSH, LLM-CER)."""
    from repro.core import records
    from repro.experiments import harness

    blocks: list = []
    with keep_blocks(blocks):
        t0 = time.perf_counter()
        with tr.span("root"):
            recs, truth = records.build_records(pdf, spec)
            res = harness.run_er(spec, prepared=(recs, truth), seed=seed)
        e2e = time.perf_counter() - t0
    (blocks,) = blocks
    return Reading(
        e2e_s=e2e,
        bill={
            "api_calls": res.n_calls,
            "api_tokens": round(res.tokens_m * 1e6),
            "api_cost_usd": res.cost_usd,
            "api_sim_s": res.time_min * 60.0,
        },
        quality={"acc": res.acc, "fp": res.fp, "nmi": res.nmi, "ari": res.ari},
        record_ids=[r.rid for block in blocks for r in block],
        assignment=res.assignment,
        truth=truth,
    )


def _force(df) -> None:
    """Traced runs only: evaluate a stage so its time lands on it.

    A no-op write runs every column without caching anything, so the
    later stages run the same plan as an untraced pass. Caching here
    would change the row order inside each block group, and
    ``resolve_block`` depends on that order (seen as a different bill).
    """
    df.write.format("noop").mode("overwrite").save()


def spark_pass(spark, spec, pdf, seed: int, tr) -> Reading:
    """The flow of jobs/run_pipeline.py, on an existing session."""
    from repro.core import metrics, spark_metrics
    from repro.core import spark_pipeline as sp
    from repro.llm.profiles import GPT_4O_MINI

    force = tr.enabled
    result = None
    try:
        t0 = time.perf_counter()
        with tr.span("root"):
            with tr.span("spark.records_df"):
                df = sp.records_df(spark, pdf, spec)
                if force:
                    _force(df)
            with tr.span("spark.lsh_assign_blocks"):
                blocked = sp.lsh_assign_blocks(df, seed=seed)
                if force:
                    _force(blocked)
            with tr.span("spark.resolve"):
                result = sp.resolve_blocks_distributed(blocked, seed=seed).cache()
                if force:
                    result.count()
            truth = dict(zip(pdf.record_id.astype(int), pdf.entity_id.astype(int)))
            with tr.span("spark.collect"):
                assign = sp.assignment_from_result(result)
            quality = metrics.all_metrics(assign, truth)
            with tr.span("spark.collect"):
                led = sp.ledger_totals(result)
            with tr.span("spark.fp_measure"):
                rows = [(int(r), int(p), int(truth[r])) for r, p in assign.items()]
                adf = spark.createDataFrame(rows, ["record_id", "pred", "truth"])
                fp_spark = spark_metrics.fp_measure_spark(adf)
        e2e = time.perf_counter() - t0
        spark.sparkContext.setJobGroup("perfbench-checks", "checks")
        record_ids = [int(r["record_id"]) for r in result.select("record_id").collect()]
    finally:
        if result is not None:
            result.unpersist()
    p = GPT_4O_MINI
    return Reading(
        e2e_s=e2e,
        bill={
            "api_calls": led["n_calls"],
            "api_tokens": led["in_tokens"] + led["out_tokens"],
            "api_cost_usd": (
                led["in_tokens"] * p.input_price_per_m
                + led["out_tokens"] * p.output_price_per_m
            ) / 1e6,
            "api_sim_s": led["sim_time_s"],
        },
        quality=quality,
        record_ids=record_ids,
        assignment=assign,
        truth=truth,
        fp_spark=fp_spark,
    )


def check_pass(r: Reading, first: Reading | None, input_ids: list[int]) -> None:
    """Checks of one pass. The DuckDB re-derivation of the quality scores
    runs once, on the first pass, after every timed pass (see ``measure``):
    a later pass must group the records exactly as the first did and read
    the same scores, so that one re-derivation covers every pass."""
    from checks import CheckFailed, close, covers_once, same_partition, same_reading

    covers_once(r.record_ids, input_ids)
    if r.fp_spark is not None:
        close("fp_measure_spark vs core.metrics fp", r.fp_spark, r.quality["fp"])
    if first is not None:
        same_partition(first.assignment, r.assignment)
        same_reading(first.bill, r.bill, "API bill")
        same_reading(first.quality, r.quality, "quality")
    if r.bill["api_calls"] < 1:
        raise CheckFailed("no LLM call was made")


def calls_traced(layer: dict, bill: dict) -> None:
    """Driver path: the traced LLM calls add up to the ledger's."""
    from checks import CheckFailed

    seen = layer["llm.cluster_calls"] + layer["llm.batch_calls"]
    if seen != bill["api_calls"]:
        raise CheckFailed(f"trace saw {seen} LLM calls, the ledger {bill['api_calls']}")


def spark_task_counts(spark, group: str) -> tuple[int, int]:
    """(completed, failed) tasks of every job run under ``group``."""
    st = spark.sparkContext.statusTracker()
    done = failed = 0
    for jid in st.getJobIdsForGroup(group):
        job = st.getJobInfo(jid)
        for sid in job.stageIds if job else []:
            stage = st.getStageInfo(sid)
            if stage is not None:
                done += stage.numCompletedTasks
                failed += stage.numFailedTasks
    return done, failed


# ------------------------------------------------------------------ memory


def _tree_rss_bytes(root: int) -> int:
    """Σ RSS of ``root`` and all its descendants, from /proc."""
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                s = f.read()
        except OSError:
            continue
        fields = s[s.rindex(")") + 2 :].split()
        pid = int(d)
        children.setdefault(int(fields[1]), []).append(pid)
        rss[pid] = int(fields[21])
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        total += rss.get(pid, 0)
        todo.extend(children.get(pid, []))
    return total * os.sysconf("SC_PAGE_SIZE")


def _vm_hwm_bytes() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class PassPeak:
    """Peak resident memory over one pass.

    This process's high-water mark is reset as the pass starts (by
    writing 5 to ``/proc/self/clear_refs``) and read as it ends, so what
    the benchmark did before (input generation, earlier checks) does not
    count. With ``children`` the RSS of this process plus its descendants
    (the Spark JVM and its Python workers) is also sampled every
    ``interval`` seconds, and the larger of the two is kept.
    """

    def __init__(self, children: bool, interval: float = 0.1):
        self.children = children
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, _tree_rss_bytes(os.getpid()))
            self._stop.wait(self.interval)

    def __enter__(self):
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        if self.children:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self.children:
            self._stop.set()
            self._thread.join()
        self.peak = max(self.peak, _vm_hwm_bytes())


# ------------------------------------------------------------------ report


def provenance(name: str, wl: Workload, scale: float, seed: int, spec) -> dict:
    import numpy
    import pandas

    try:
        import pyspark

        pyspark_version = pyspark.__version__
    except ImportError:
        pyspark_version = None
    mem_kb = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode())
        digest.update(p.read_bytes())
    return {
        "workload": name,
        "dataset": wl.dataset,
        "scale": scale,
        "records": spec.n_records,
        "entities": spec.n_entities,
        "seed": seed,
        "dataset_seed": spec.seed,
        "run_seed": seed,
        "path": "spark" if wl.spark else "driver",
        "spark_master": spark_master() if wl.spark else None,
        "nproc": os.cpu_count(),
        "mem_total_kb": mem_kb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line; each unit is the one BENCHMARK.json gives
    (a metric it does not list is an error)."""
    bench = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                },
            }
        ),
        flush=True,
    )


# ------------------------------------------------------------------ main


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="override the workload's dataset scale")
    p.add_argument("--setup-only", action="store_true",
                   help="take one set-up sample and print it (internal)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    prepare_env(wl)

    if args.setup_only:
        spark, secs = setup(wl)
        if spark is not None:
            stop_spark(spark)
        print(json.dumps({"setup_s": secs}))
        return 0

    setup_samples = [
        setup_in_child(args.workload) for _ in range(SETUP_SAMPLES[wl.spark] - 1)
    ]
    spark = None
    try:
        spark, secs = setup(wl)
        setup_samples.append(secs)
        readings, failed, layer, info = measure(args, wl, spark)
    finally:
        if spark is not None:
            stop_spark(spark)

    attempted = len(readings) + failed
    info["setup_samples_s"] = setup_samples
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(info, indent=1))
    print(json.dumps({"info": info}))

    if not readings:
        emit(False, attempted, failed, {})
        return 1
    if args.trace:
        metrics = layer
    else:
        # The mean pass time, not the median: on a shared host a run's
        # passes fall into fast and slow spells, and the median of a few
        # such passes jumps between the two. A run also holds too few
        # passes for a tail percentile with ten samples beyond it. Every
        # pass's time is in the info line above.
        metrics = {
            "e2e_mean_s": statistics.fmean(r.e2e_s for r in readings),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": info["peak_rss_mb"],
            **readings[0].bill,
            **readings[0].quality,
            "ok_frac": (attempted - failed) / attempted,
        }
    emit(failed == 0, attempted, failed, metrics)
    return 0


def measure(args, wl: Workload, spark):
    """Run passes until time is up; returns (readings, failed, layer, info)."""
    from tracing import Tracer, install_layers, layer_metrics

    scale = wl.scale if args.scale is None else args.scale
    spec, pdf = make_input(wl.dataset, scale, args.seed)
    input_ids = [int(x) for x in pdf.record_id]
    info = {"provenance": provenance(args.workload, wl, scale, args.seed, spec)}

    # every pass is kept for its times, bill and quality; only the first
    # keeps its assignment and truth, for the checks of later passes
    readings: list[Reading] = []
    failed = 0
    peak = 0
    traced_e2e: list[float] = []
    untraced_e2e: list[float] = []
    per_layer: list[dict] = []
    tr = Tracer()
    t_start = time.perf_counter()
    i = 0
    # with --trace 1, untraced and traced passes alternate: the traced ones
    # give the per-layer readings, the difference of the two the overhead
    while i < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        traced = bool(args.trace) and i % 2 == 1
        tr.reset()
        tr.enabled = traced
        group = f"perfbench-pass-{i}"
        i += 1
        try:
            if traced:
                install_layers(tr)
            try:
                with PassPeak(children=spark is not None) as mem:
                    if spark is not None:
                        spark.sparkContext.setJobGroup(group, "perfbench pass")
                        r = spark_pass(spark, spec, pdf, args.seed, tr)
                    else:
                        r = driver_pass(spec, pdf, args.seed, tr)
                if not traced:
                    peak = max(peak, mem.peak)
            finally:
                tr.restore()
            check_pass(r, readings[0] if readings else None, input_ids)
            if traced:
                if spark is not None:
                    done, bad = spark_task_counts(spark, group)
                    tr.count("spark.tasks", done)
                    tr.count("spark.failed_tasks", bad)
                layer = layer_metrics(tr, r.e2e_s)
                if spark is None:
                    calls_traced(layer, r.bill)
        except Exception:  # a failed pass is counted, and the run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        if readings:
            r.slim()
        readings.append(r)
        if traced:
            traced_e2e.append(r.e2e_s)
            per_layer.append(layer)
            spans = tr.spans
        else:
            untraced_e2e.append(r.e2e_s)

    info["peak_rss_mb"] = peak / 2**20
    if readings:
        # after every timed pass, so DuckDB never weighs on peak_rss_mb
        from checks import metrics_agree

        first = readings[0]
        try:
            metrics_agree(first.quality, first.assignment, first.truth)
        except Exception:  # every pass grouped the records as the first did
            traceback.print_exc(file=sys.stderr)
            failed += len(readings)
            readings = []
    info["passes"] = [
        {"e2e_s": r.e2e_s, **r.bill, **r.quality} for r in readings
    ]
    layer: dict = {}
    if args.trace and per_layer and untraced_e2e:
        layer = {k: statistics.median(d[k] for d in per_layer) for k in per_layer[0]}
        overhead = statistics.median(traced_e2e) - statistics.median(untraced_e2e)
        layer["trace.overhead_s"] = overhead
        info["trace_overhead_s"] = overhead
        layer["spark.calls_vs_driver"] = 0
        layer["spark.acc_vs_driver"] = 0.0
        if spark is not None and readings:
            # the known driver/Spark disagreement: a reading, not a check
            d = driver_pass(spec, pdf, args.seed, Tracer(enabled=False))
            layer["spark.calls_vs_driver"] = readings[0].bill["api_calls"] - d.bill["api_calls"]
            layer["spark.acc_vs_driver"] = readings[0].quality["acc"] - d.quality["acc"]
            info["driver_vs_spark"] = {
                "driver": {**d.bill, **d.quality},
                "spark": {**readings[0].bill, **readings[0].quality},
            }
        tag = f"{args.workload}-seed{args.seed}"
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans))
    return readings, failed, layer, info


if __name__ == "__main__":
    sys.exit(main())
