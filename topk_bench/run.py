"""Time-to-top-k benchmark of the Spade reproduction.

One closed-loop client in one process asks a warm, loaded graph for its
k most interesting aggregates, alternating exact (MVDCube) and
early-stop requests, through the public API only: ``TripleStore``,
``spade.offline_phase`` and ``spade.run_online``. Run it from the root
of a repository checkout:

    python3 topk_bench/run.py --workload synth-scale --seed 1 --seconds 8 --trace 0

Set-up (session start, the first graph load, warm-up requests) is
timed as ``setup_s`` and never as a request. ``--trace 1`` patches spans
around each module's public calls (see ``tracing.py``) and reports the
per-layer metrics instead of the end-to-end ones. The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
MARK = "SPADE_TOPK_BENCH"  # inherited by the JVM and its Python workers
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
# The graphs are a few thousand triples: more shuffle partitions only
# add tasks (each cached attribute table keeps this many partitions).
SHUFFLE_PARTITIONS = 2


# -- process state -----------------------------------------------------------
def marked_pids() -> list[int]:
    """Live processes started by a run of this benchmark (not this one)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = Path("/proc", entry, "environ").read_bytes()
        except OSError:
            continue
        if f"{MARK}=".encode() in environ:
            out.append(int(entry))
    return out


def peak_rss_mb() -> float:
    """VmHWM of this driver plus the JVM plus the Python workers."""
    total_kb = 0
    for pid in [os.getpid(), *marked_pids()]:
        try:
            for line in Path("/proc", str(pid), "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def wait_gone(timeout: float) -> list[int]:
    deadline = time.monotonic() + timeout
    while (left := marked_pids()) and time.monotonic() < deadline:
        time.sleep(0.2)
    return left


def start_session(tmp: Path):
    """The pinned local session; the JVM and its workers get ``MARK``."""
    os.environ[MARK] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    # No JVM perf-data file under /tmp: the run writes only in the checkout.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        # A pinned, pre-touched heap keeps the JVM's share of peak_rss_mb
        # from following GC timing.
        "--driver-java-options", shlex.quote(
            f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch -XX:-UsePerfData "
            f"-Djava.io.tmpdir={tmp}"),
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("topk-bench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.showConsoleProgress", "false")
        # The tracer reads every stage of a request back after it ends.
        .config("spark.ui.retainedJobs", "20000")
        .config("spark.ui.retainedStages", "20000")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM and its Python workers exit."""
    gateway = spark.sparkContext._gateway
    try:
        spark.stop()
    finally:
        gateway.shutdown()
        proc = gateway.proc
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=60)
        for pid in wait_gone(60):
            os.kill(pid, signal.SIGKILL)
        if left := wait_gone(30):
            raise RuntimeError(f"processes did not exit: {left}")


def settings(spark) -> dict[str, str]:
    sc = spark.sparkContext
    return {
        "nproc": str(os.cpu_count()),
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory", "?"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def report(run, trace: bool) -> dict:
    metrics = run.per_layer() if trace else run.end_to_end()
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"failed_frac = {len(run.failures)}/{run.attempted}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "spade.py").is_file():
        print(f"topk_bench: no Spade sources under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    if leftovers := marked_pids():
        print(f"topk_bench: processes of an earlier run are alive: {leftovers}",
              file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import bench
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"topk_bench: unknown workload {args.workload!r}; "
              f"choose one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # SIGTERM runs the teardown below instead of orphaning the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        spark = start_session(tmp)
        try:
            print(f"workload {workload.name}: {workload.why}")
            print("settings " + " ".join(f"{k}={v}" for k, v in settings(spark).items()))
            tracer = tracing.Tracer(spark) if args.trace else None
            run = bench.Run(spark, workload, args.seed, peak_rss_mb, tracer)
            run.run(args.seconds, t_start)
            if args.trace:
                frac, traced, plain = run.trace_overhead()
                print(f"trace overhead {100 * frac:+.1f} %: traced mean "
                      f"{statistics.fmean(traced):.3f} s (n={len(traced)}), "
                      f"untraced mean {statistics.fmean(plain):.3f} s (n={len(plain)})")
            result = report(run, bool(args.trace))
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            dump = out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
            dump.write_text(json.dumps(
                {"loads": run.loads, "requests": run.requests, "result": result},
                indent=1))
        finally:
            stop_session(spark)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
