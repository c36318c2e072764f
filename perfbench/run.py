"""Seeded end-to-end benchmark of the fever_ray sketch engine.

    python3 perfbench/run.py --workload crawl_profile --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 0

Run from the repository root.  Prints one ``<metric> <value> <unit>`` line
per metric, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn, each in its own process, and ends with one JSON
object whose metrics are named ``<workload>.<metric>``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` measures an
untraced phase, restarts Ray with the layer tracer installed in the Ray driver
and every worker, measures a traced phase and reports the per-layer
metrics plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".perfbench_cache")
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets about
# 63 bytes below its temp dir, so the temp dir gets the shortest name
RAY_TMP = os.path.join(ROOT, ".pbray")
MAX_RAY_TMP = 44
OP_TIMEOUT_S = 60.0
# one Ray CPU, as `nproc` reports on the reference box: its vCPUs are shared
# with other tenants, and one worker keeps both noise and memory low
RAY_CPUS = 1
PINNED_CPUS = 2
KEEP_CORPORA = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "norm_cpu_ms_per_kpage": "ms",
    "peak_rss_mb": "MB",
}
# CPU times are scaled to a host on which the workloads.ReferenceProbe loop
# takes this long (about its median on the reference box)
REF_NOMINAL_S = 0.0015


def _ray_tmp() -> str | None:
    return RAY_TMP if len(RAY_TMP) <= MAX_RAY_TMP else None


def start_ray(trace_dir: str | None) -> None:
    import ray

    runtime_env = {"env_vars": {"PYTHONPATH": ROOT}}
    if trace_dir:
        from perfbench import tracer

        runtime_env["env_vars"].update(
            {tracer.TRACE_DIR_ENV: trace_dir, tracer.RUN_ID_ENV: str(os.getpid())}
        )
        runtime_env["worker_process_setup_hook"] = "perfbench.tracer.install_worker"
    ray.init(
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024**2,
        runtime_env=runtime_env,
        _temp_dir=_ray_tmp(),
    )
    import ray.data

    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray(rss) -> list[int]:
    """Shut Ray down and wait for every process it started to end."""
    import ray

    from perfbench import procs

    rss.sample()
    tree = set(procs.descendants(os.getpid())) | rss.seen
    ray.shutdown()
    return procs.wait_gone(sorted(tree), timeout=15.0)


def _evict_old_corpora() -> None:
    dirs = [
        os.path.join(CACHE, d)
        for d in os.listdir(CACHE)
        if os.path.isdir(os.path.join(CACHE, d)) and "-s" in d
    ]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_CORPORA:]:
        shutil.rmtree(d, ignore_errors=True)


def _p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def midmean(values: list[float]) -> float:
    """Mean of the middle half: steadier than the median when CPU times
    come in whole clock ticks, and deaf to the odd slow outlier."""
    xs = sorted(values)
    q = len(xs) // 4
    return statistics.fmean(xs[q : len(xs) - q])


def norm_cpu_s(rec) -> float:
    """CPU time of an operation (the middle half's mean), scaled to the
    nominal host speed."""
    return midmean(rec.cpu) * REF_NOMINAL_S / midmean(rec.ref)


def run_all(args, names) -> int:
    """Every workload in turn, each in a fresh process (its own Ray)."""
    import subprocess

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.pages:
            cmd += ["--pages", str(args.pages)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"# {name} exited with {proc.returncode}")
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="fever_ray sketch-engine benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pages", type=int, default=None, help="override the workload's page count")
    ap.add_argument("--keep-trace", default=None, help="copy the traced pass's span files here")
    args = ap.parse_args()

    sys.path.insert(0, ROOT)
    # the driver, Ray's daemons and its workers all inherit this: every
    # process of the run shares the same PINNED_CPUS vCPUs with the
    # reference probe, so the probe sees the speed the operations got
    # (see README.md)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-PINNED_CPUS:])
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    import fever_ray  # noqa: F401  (fails outside a checkout of the engine)

    from perfbench import procs, summarize, tracer
    from perfbench.workloads import WORKLOADS, Recorder, ReferenceProbe

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    os.makedirs(CACHE, exist_ok=True)
    wl = WORKLOADS[args.workload](args.pages)
    rss = procs.PeakRss()
    rss.start()

    t_setup = time.perf_counter()
    wl.prepare(CACHE, args.seed)
    t_prepared = time.perf_counter()
    start_ray(None)
    t_ray = time.perf_counter()
    n_warm = wl.warm(OP_TIMEOUT_S)
    setup_s = time.perf_counter() - t_setup
    print(
        f"# setup: prepare {t_prepared - t_setup:.3f} s, ray {t_ray - t_prepared:.3f} s, "
        f"warm {t_setup + setup_s - t_ray:.3f} s ({n_warm} operations)"
    )

    probe = ReferenceProbe()
    rec = Recorder(rss, probe)
    workers0 = procs.ray_workers()
    wl.measure(rec, args.seconds, OP_TIMEOUT_S)
    probe.stop()
    print(f"# ray workers: {len(workers0)} before the timed phase, "
          f"{len(procs.ray_workers())} after, {len(procs.ray_workers() - workers0)} new")
    peak_rss_mb = statistics.median(rec.rss_kb) / 1024.0 if rec.rss_kb else 0.0
    print("# peak rss by process, last operation (MB): "
          + ", ".join(f"{name} {kb / 1024:.0f}" for name, kb in rss.by_process()))
    attempted, failed, errors = rec.attempted, rec.failed, list(rec.errors)
    untraced_p50 = statistics.median(rec.latencies) if rec.latencies else float("nan")
    untraced_resume = list(getattr(wl, "resume_s", []))
    left = stop_ray(rss)

    layer = None
    if args.trace and not rec.timed_out:
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=CACHE)
        start_ray(trace_dir)
        tracer.install(trace_dir, str(os.getpid()))
        wl.warm(OP_TIMEOUT_S)
        if hasattr(wl, "true_hits"):
            wl.true_hits = 0
        if hasattr(wl, "resume_s"):
            wl.resume_s = []
        tprobe = ReferenceProbe()
        trec = Recorder(probe=tprobe)
        t_start = time.perf_counter()
        wl.measure(trec, args.seconds, OP_TIMEOUT_S)
        t_end = time.perf_counter()
        tprobe.stop()
        tracer.flush()
        left += stop_ray(rss)
        attempted += trec.attempted
        failed += trec.failed
        errors += trec.errors
        with open(os.path.join(trace_dir, "meta.json"), "w") as fh:
            json.dump(
                {"driver_pid": os.getpid(), "ops": max(len(trec.latencies), 1),
                 "t_start": t_start, "t_end": t_end},
                fh,
            )
        layer = summarize.layer_metrics(trace_dir)
        if rec.cpu and trec.cpu:
            layer["trace.overhead_frac"] = norm_cpu_s(trec) / norm_cpu_s(rec) - 1.0
        layer["sketches.distinct_err_ratio"] = max(rec.distinct_err_ratio, trec.distinct_err_ratio)
        bloom_hits = layer.get("ops.ioc.bloom_hits", 0.0) * max(len(trec.latencies), 1)
        layer["ops.ioc.true_hit_ratio"] = (
            getattr(wl, "true_hits", 0) / bloom_hits if bloom_hits else 0.0
        )
        resume = getattr(wl, "resume_s", [])
        layer["pipelines.follow.resume_s"] = statistics.median(resume) if resume else 0.0
        n = max(len(trec.latencies), 1)
        for key, value in getattr(wl, "ckpt", {}).items():
            layer[key] = value / n
        if args.keep_trace:
            shutil.copytree(trace_dir, args.keep_trace, dirs_exist_ok=True)
        shutil.rmtree(trace_dir, ignore_errors=True)
    rss.stop()
    if _ray_tmp():
        shutil.rmtree(_ray_tmp(), ignore_errors=True)
    _evict_old_corpora()

    if left:
        errors.append(f"processes still alive after shutdown: {left}")
    lat = rec.latencies
    e2e = {
        "setup_s": setup_s,
        "norm_cpu_ms_per_kpage": norm_cpu_s(rec) * 1e6 / wl.pages_per_op if lat else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_cpu_ms = midmean(rec.cpu) * 1e6 / wl.pages_per_op if lat else 0.0
    p75 = _p75(lat) if lat else float("nan")
    print(f"# workload {wl.name} seed {args.seed} pages/op {wl.pages_per_op} samples {len(lat)}")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"cpu_ms_per_kpage {raw_cpu_ms:.6g} ms")
    print(f"reference_cpu_ms {midmean(rec.ref) * 1e3 if rec.ref else 0.0:.6g} ms")
    print(f"pages_per_s {wl.pages_per_op / untraced_p50:.6g} 1/s")
    print(f"op_s_p50 {untraced_p50:.6g} s")
    print(f"op_s_p75 {p75:.6g} s")
    print("# op latencies (s): " + " ".join(f"{x:.3f}" for x in lat))
    print("# op cpu (s): " + " ".join(f"{x:.2f}" for x in rec.cpu))
    print("# op peak rss (MB): " + " ".join(f"{x / 1024:.0f}" for x in rec.rss_kb))
    print(f"# reference: {len(rec.ref)} samples, min {min(rec.ref, default=0) * 1e3:.3f} ms, "
          f"max {max(rec.ref, default=0) * 1e3:.3f} ms")
    if untraced_resume:
        # follow_ingest: its operations are refreshes (rename -> yield)
        print(f"refresh_s_p50 {untraced_p50:.6g} s")
        print(f"refresh_s_p75 {p75:.6g} s")
        print(f"resume_s {statistics.median(untraced_resume):.6g} s")
    print(f"distinct_err_ratio {rec.distinct_err_ratio:.6g} ratio")
    print(f"fail_frac {failed / max(attempted, 1):.6g} ratio")
    for err in errors[:10]:
        print(f"# error: {err}")

    if args.trace:
        layer = layer or {}
        metrics = {
            k: {"value": float(layer.get(k, 0.0)), "unit": u}
            for k, u in summarize.PER_LAYER_UNITS.items()
        }
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    result = {
        "correct": failed == 0 and bool(lat),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
