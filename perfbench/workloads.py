"""The four benchmark workloads.

Each workload generates its inputs from the seed (``prepare``, outside any
timing), then repeats one operation through the engine's public entry
points; every result is checked against the exact oracle after its timing
ends.  Layer modules are reached through their module objects at call time,
so the traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import glob
import os
import queue
import shutil
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import oracle, procs, tracer

MAX_WARM_OPS = 4
REF_ITERS = 20_000  # about 1.5 ms of CPU on the reference box
REF_PERIOD_S = 0.05


class ReferenceProbe:
    """Times a fixed interpreter loop (``REF_ITERS`` iterations) every
    ``REF_PERIOD_S`` seconds on a daemon thread of the driver, with
    ``time.thread_time``.  The host's speed drifts with the load of its
    other tenants, and an operation's CPU time with it; scaling by this
    reference cancels most of that drift.  Sampling all through the timed
    phase, rather than once per operation, keeps the reference's own noise
    low.  ``own_cpu_s`` is the thread's own CPU time, which the
    operations' CPU time leaves out.  (A memory-bound numpy pass was tried as reference work as well:
    it swung further than the operations did.)"""

    def __init__(self):
        self.samples: list[float] = []
        self._own_cpu_s = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True, name="bench-ref")
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(REF_PERIOD_S):
            t0 = time.thread_time()
            s = 0
            for i in range(REF_ITERS):
                s += i * i % 7
            t1 = time.thread_time()
            with self._lock:
                self.samples.append(t1 - t0)
                self._own_cpu_s = t1

    def own_cpu_s(self) -> float:
        """The probe thread's CPU time so far."""
        with self._lock:
            return self._own_cpu_s

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class _OpThread:
    """A long-lived daemon thread that runs the operations one at a time.
    Every operation then runs on the same thread, as a client's calls
    would; a fresh thread per operation let the driver's memory wander
    between runs with the malloc arenas of the dead threads."""

    def __init__(self):
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, daemon=True, name="bench-op").start()

    def _serve(self) -> None:
        while True:
            fn, done = self._jobs.get()
            fn()
            done.set()

    def run(self, fn, timeout: float) -> bool:
        """Run ``fn`` on the thread; False if it did not end in time."""
        done = threading.Event()
        self._jobs.put((fn, done))
        return done.wait(timeout)


class Recorder:
    """Attempts, failures, latencies, per-operation CPU time and peak
    memory of one measured phase.  Peak memory is taken when a
    ``procs.PeakRss`` is given; with a ``ReferenceProbe`` its thread's CPU
    time is left out of the operations'."""

    def __init__(self, rss: procs.PeakRss | None = None, probe: ReferenceProbe | None = None):
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.rss_kb: list[int] = []
        self._rss = rss
        self._probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed_out = False
        self.distinct_err_ratio = 0.0

    _thread: _OpThread | None = None  # shared by every Recorder

    @property
    def ref(self) -> list[float]:
        """The reference loop's CPU times over the phase."""
        return list(self._probe.samples) if self._probe else []

    def _cpu_s(self) -> float:
        own = self._probe.own_cpu_s() if self._probe else 0.0
        return procs.engine_cpu_s() - own

    def prepare_op(self) -> None:
        """Restart the peak-memory window."""
        if self._rss:
            self._rss.reset()

    def op(self, run, check, timeout: float, t_start: float | None = None):
        """Run ``run()`` under ``timeout`` on the operation thread, time it (from
        ``t_start`` when given) and take the CPU time the Ray driver and Ray
        workers spent meanwhile, then ``check`` its result.  Returns the
        result, or None when it failed; a timeout also sets ``timed_out``.
        Without ``t_start`` it first calls ``prepare_op``; a caller giving
        ``t_start`` calls it before it starts the clock."""
        box: dict = {}
        if t_start is None:
            self.prepare_op()
        cpu0 = self._cpu_s()

        def target():
            with tracer.span("bench.op"):
                try:
                    box["result"] = run()
                except Exception as e:  # any engine error is a failed op
                    box["error"] = f"{type(e).__name__}: {e}"
            box["t1"] = time.perf_counter()

        self.attempted += 1
        t0 = time.perf_counter() if t_start is None else t_start
        if Recorder._thread is None:
            Recorder._thread = _OpThread()
        if not Recorder._thread.run(target, timeout):
            Recorder._thread = None  # left stuck; the next operation gets a new one
            self.failed += 1
            self.timed_out = True
            self.errors.append(f"timeout after {timeout:.0f}s")
            return None
        if "error" in box:
            self.failed += 1
            self.errors.append(box["error"])
            return None
        self.latencies.append(box["t1"] - t0)
        self.cpu.append(self._cpu_s() - cpu0)
        if self._rss:
            self._rss.sample()
            self.rss_kb.append(self._rss.peak_kb)
        fails, ratio = check(box["result"])
        self.distinct_err_ratio = max(self.distinct_err_ratio, ratio)
        if fails:
            self.failed += 1
            self.errors.extend(fails[:3])
            return None
        return box["result"]


def _modules():
    import fever_ray.core.grouped as grouped
    import fever_ray.core.udaf as udaf
    import fever_ray.ops.ioc as ioc
    import fever_ray.pipelines.flagship as flagship
    import fever_ray.pipelines.follow as follow

    return flagship, follow, udaf, grouped, ioc


def _pages(cache: str, tag: str, seed: int, rows: int, files: int, **kw) -> tuple[str, str]:
    """(corpus parquet dir, directory for its oracle files), keyed by
    (seed, rows) and reused through ensure_pages' stamp."""
    from fever_ray.gen.pages import ensure_pages

    home = os.path.join(cache, f"{tag}-s{seed}-r{rows}")
    return ensure_pages(os.path.join(home, "pages"), rows, n_files=files, seed=seed, **kw), home


class Workload:
    name = ""
    default_pages = 0
    min_ops = 3

    def __init__(self, pages: int | None = None):
        self.pages = pages or self.default_pages

    def prepare(self, cache: str, seed: int) -> None:
        raise NotImplementedError

    def run_once(self):
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError

    def warm_once(self, timeout: float) -> None:
        Recorder().op(self.run_once, lambda r: ([], 0.0), timeout)

    def warm(self, timeout: float) -> int:
        """Untimed operations until one starts no new Ray worker, so that
        worker start-up and imports stay out of the measured operations.
        Returns how many ran."""
        for n in range(1, MAX_WARM_OPS + 1):
            before = procs.ray_workers()
            self.warm_once(timeout)
            if procs.ray_workers() <= before:
                break
        return n

    def measure(self, rec: Recorder, seconds: float, timeout: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or rec.attempted < self.min_ops:
            rec.op(self.run_once, self.check, timeout)
            if rec.timed_out:
                return

    @property
    def pages_per_op(self) -> int:
        return self.pages


class CrawlProfile(Workload):
    """run_flagship(extract=True): all 11 STANDARD_SPECS in one pass."""

    name = "crawl_profile"
    default_pages = 20_000

    def prepare(self, cache, seed):
        self.corpus, home = _pages(cache, "pages", seed, self.pages, 4)
        self.exact = oracle.cached(
            os.path.join(home, "oracle-suite.json"),
            lambda: oracle.suite_exact(
                oracle.read_facts(sorted(glob.glob(os.path.join(self.corpus, "*.parquet"))))
            ),
        )

    def run_once(self):
        flagship = _modules()[0]
        return flagship.run_flagship(self.corpus, extract=True)["summary"]

    def check(self, summary):
        import json

        flagship = _modules()[0]
        details = {
            n: json.loads(d)
            for n, d in zip(summary.column("sketch").to_pylist(), summary.column("detail").to_pylist())
        }
        return oracle.check_suite(details, self.exact, flagship.STANDARD_SPECS)


N_SYNTHETIC_INDICATORS = 1_000_000
IOC_P = 1e-5
N_PLANTED = 8  # half planted hostnames, half planted paths


def _background_filter(cache: str) -> bytes:
    """Bloom filter of 1M synthetic indicators that no generated page can
    match (``.invalid`` hosts), sized for them plus the planted ones; the
    same for every seed, so it is built once per cache."""
    from fever_ray.sketches.bloom import BloomFilter

    path = os.path.join(cache, f"ioc-background-{N_SYNTHETIC_INDICATORS}.bloom")
    if not os.path.exists(path):
        synthetic = [f"ind-{i:07d}.invalid" for i in range(N_SYNTHETIC_INDICATORS)]
        bf = BloomFilter.initialize(N_SYNTHETIC_INDICATORS + N_PLANTED, IOC_P)
        bf.add(pa.array(synthetic, type=pa.string()))
        with open(path + ".tmp", "wb") as fh:
            fh.write(bf.to_bytes())
        os.replace(path + ".tmp", path)
    with open(path, "rb") as fh:
        return fh.read()


class IocSweep(Workload):
    """Stateless page matcher over the url column with a ~1M-indicator
    bloom filter (several MB, larger than the CPU caches)."""

    name = "ioc_sweep"
    default_pages = 50_000
    true_hits = 0  # indicator hits among match rows, summed over checks

    def prepare(self, cache, seed):
        from fever_ray.sketches.bloom import BloomFilter

        hosts = tuple(f"c2-{seed}-{j}.bad" for j in range(N_PLANTED // 2))
        paths = tuple(f"/dl/payload-{seed}-{j}.bin" for j in range(N_PLANTED // 2))
        self.indicators = set(hosts) | set(paths)
        self.corpus, home = _pages(
            cache, "ioc", seed, self.pages, 4, ioc_hosts=hosts, ioc_paths=paths, ioc_frac=0.01
        )
        bf = BloomFilter.from_bytes(_background_filter(cache))
        bf.add(pa.array(sorted(self.indicators), type=pa.string()))
        self.bloom_bytes = bf.to_bytes()
        self.exact = oracle.cached(
            os.path.join(home, "oracle-ioc.json"),
            lambda: oracle.ioc_exact(
                oracle.read_facts(sorted(glob.glob(os.path.join(self.corpus, "*.parquet")))),
                self.indicators,
            ),
        )

    def run_once(self):
        flagship, _, _, _, ioc = _modules()
        fn = ioc.make_page_ioc_fn(self.bloom_bytes)
        return (
            flagship.pages_dataset(self.corpus, columns=["url"])
            .map_batches(fn, batch_format="pyarrow", batch_size=16384, zero_copy_batch=True)
            .take_all()
        )

    def check(self, rows):
        fails, true_hits = oracle.check_ioc(rows, self.exact, self.indicators, IOC_P)
        self.true_hits += true_hits
        return fails, 0.0


CELL_HLL_P = 14
HOST_KLL_K = 200
HOST_QS = (0.01, 0.5, 0.99)


def with_cell(batch: pa.Table) -> pa.Table:
    """derive_page_columns plus the (lang, day) cell key."""
    from fever_ray.pipelines import flagship

    out = flagship.derive_page_columns(batch, extract=False)
    day = pc.cast(pc.divide(out.column("warc_ts_us"), 86_400_000_000), pa.string())
    return out.append_column("cell", pc.binary_join_element_wise(out.column("lang"), day, "|"))


class KeyedRollup(Workload):
    """Two grouped builds: HLL of urls per (lang, day) cell and KLL of html
    length per hostname — the keyed-shuffle workload."""

    name = "keyed_rollup"
    default_pages = 3_000

    def prepare(self, cache, seed):
        from fever_ray.core.udaf import SketchSpec

        self.corpus, home = _pages(cache, "pages", seed, self.pages, 4)
        self.exact = oracle.cached(
            os.path.join(home, "oracle-keyed.json"),
            lambda: oracle.keyed_exact(
                oracle.read_facts(sorted(glob.glob(os.path.join(self.corpus, "*.parquet"))))
            ),
        )
        self.cell_spec = SketchSpec("hll_urls_cell", "hll", "url", {"p": CELL_HLL_P})
        self.host_spec = SketchSpec(
            "kll_html_len_host", "kll", "html_len", {"k": HOST_KLL_K}, value_kind="float"
        )

    def run_once(self):
        flagship, _, _, grouped, _ = _modules()
        ds = flagship.pages_dataset(
            self.corpus, columns=["url", "lang", "warc_ts", "html"]
        ).map_batches(with_cell, batch_format="pyarrow", batch_size=16384, zero_copy_batch=True)
        out = []
        for key, spec in (("cell", self.cell_spec), ("hostname", self.host_spec)):
            with tracer.span("core.grouped.build"):
                out.append(grouped.grouped_build(ds, key, spec).take_all())
        return out

    def check(self, result):
        from fever_ray.sketches import sketch_from_bytes

        cells, hosts = result
        cell_est = {r["key"]: sketch_from_bytes("hll", r["payload"]).estimate() for r in cells}
        host_q = {}
        for r in hosts:
            sk = sketch_from_bytes("kll", r["payload"])
            host_q[r["key"]] = {q: float(sk.quantile(q)) for q in HOST_QS}
        return oracle.check_keyed(cell_est, host_q, self.exact, CELL_HLL_P, HOST_KLL_K)


FOLLOW_SHARDS = 40
FOLLOW_WARM_SHARDS = 2


class FollowIngest(Workload):
    """Closed loop, one client: land one shard, pull the next ``follow``
    status; after every shard, cold-restart ``follow`` on the same
    checkpoint directory.  Latency samples are refreshes (rename -> yield)."""

    name = "follow_ingest"
    default_pages = FOLLOW_SHARDS * 500

    def prepare(self, cache, seed):
        self.corpus, _ = _pages(cache, "follow", seed, self.pages, FOLLOW_SHARDS)
        self.shards = sorted(glob.glob(os.path.join(self.corpus, "*.parquet")))
        self.facts = oracle.read_facts(self.shards)
        import pyarrow.parquet as pq

        self.bounds = np.cumsum([pq.read_metadata(f).num_rows for f in self.shards])
        self.work = os.path.join(cache, "follow-work")
        self.resume_s: list[float] = []
        self.ckpt: dict[str, float] = {}

    @property
    def pages_per_op(self) -> int:
        return self.pages // FOLLOW_SHARDS

    def _follow(self, land, ck):
        flagship, follow, _, _, _ = _modules()
        return follow.follow(
            os.path.join(land, "*.parquet"),
            flagship.STANDARD_SPECS,
            ck,
            poll_s=0,
            prepare=flagship.make_derive_fn(False),
        )

    def _checker(self, n_shards: int):
        flagship, _, udaf, _, _ = _modules()
        exact = oracle.suite_exact(self.facts, slice(0, int(self.bounds[n_shards - 1])))

        def check(status):
            if status["total_files"] != n_shards:
                return [f"follow: {status['total_files']} files, want {n_shards}"], 0.0
            details = {
                s.name: udaf.finalize(status["sketches"][s.name], s)
                for s in flagship.STANDARD_SPECS
                if s.name in status["sketches"]
            }
            return oracle.check_suite(details, exact, flagship.STANDARD_SPECS)

        return check

    def loop(self, rec: Recorder, timeout: float, timed: bool = True) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        stage, land, ck = (os.path.join(self.work, d) for d in ("stage", "land", "ck"))
        for d in (stage, land):
            os.makedirs(d)
        gen = self._follow(land, ck)
        try:
            for i, src in enumerate(self.shards):
                name = os.path.basename(src)
                os.link(src, os.path.join(stage, name))
                check = self._checker(i + 1) if timed else (lambda s: ([], 0.0))
                rec.prepare_op()
                t0 = time.perf_counter()
                os.rename(os.path.join(stage, name), os.path.join(land, name))
                if rec.op(lambda: next(gen), check, timeout, t_start=t0) is None and rec.timed_out:
                    return
        finally:
            if not rec.timed_out:
                gen.close()
        # cold restart on the same checkpoint directory
        restart = self._follow(land, ck)
        lat_before = len(rec.latencies)
        check = self._checker(len(self.shards)) if timed else (lambda s: ([], 0.0))
        rec.op(lambda: next(restart), check, timeout)
        if len(rec.latencies) > lat_before:
            resume_s = rec.latencies.pop()
            if timed:
                self.resume_s.append(resume_s)
            rec.cpu.pop()
            if rec.rss_kb:
                rec.rss_kb.pop()
        if not rec.timed_out:
            restart.close()
            self._checkpoint_stats(ck)

    def _checkpoint_stats(self, ck: str) -> None:
        from fever_ray.io_.checkpoint import done_partitions

        recs = done_partitions(ck).values()
        self.ckpt = {
            "io_.checkpoint.write_s": sum(r["metrics"]["write_wall_s"] for r in recs),
            "io_.checkpoint.payload_bytes": sum(r["metrics"]["payload_bytes"] for r in recs),
            "io_.checkpoint.partitions": len(recs),
        }

    def warm_once(self, timeout):
        # a short loop over the first shards
        shards, self.shards = self.shards, self.shards[:FOLLOW_WARM_SHARDS]
        try:
            self.loop(Recorder(), timeout, timed=False)
        finally:
            self.shards = shards

    def measure(self, rec, seconds, timeout):
        deadline = time.perf_counter() + seconds
        while True:
            self.loop(rec, timeout)
            if rec.timed_out or time.perf_counter() >= deadline:
                return


WORKLOADS = {w.name: w for w in (CrawlProfile, IocSweep, KeyedRollup, FollowIngest)}
