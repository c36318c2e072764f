"""Turn a traced pass's span files into per-layer metrics.

A span's self time is its duration minus the time its direct children (same
process and thread) cover.  Times and counts are reported per timed
operation, so they do not depend on how many operations fit in a run.

Run by hand on a kept trace directory (``run.py --trace 1 --keep-trace DIR``):

    python3 perfbench/summarize.py DIR
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from collections import defaultdict

# per-layer metric -> span whose self time it reports
SELF_TIME = {
    "pipelines.flagship.derive_s": "pipelines.flagship.derive",
    "ops.extract.extract_text_s": "ops.extract.extract_text",
    "ops.extract.hostname_of_s": "ops.extract.hostname_of",
    "ops.extract.split_url_s": "ops.extract.split_url",
    "ops.ioc.match_s": "ops.ioc.match",
    "ops.ioc.bloom_check_s": "ops.ioc.bloom_check",
    "sketches.hashing.fnv_pair_s": "sketches.hashing.fnv_pair",
    "sketches.hashing.hash64_s": "sketches.hashing.hash64",
    "sketches.hll.update_s": "sketches.hll.update",
    "sketches.cms.update_s": "sketches.cms.update",
    "sketches.kll.update_s": "sketches.kll.update",
    "sketches.tdigest.update_s": "sketches.tdigest.update",
    "sketches.req.update_s": "sketches.req.update",
    "sketches.dd.update_s": "sketches.dd.update",
    "sketches.theta.update_s": "sketches.theta.update",
    "sketches.bloom.add_s": "sketches.bloom.add",
    "sketches.to_bytes_s": "sketches.to_bytes",
    "sketches.from_bytes_s": "sketches.from_bytes",
    "sketches.merge_s": "sketches.merge",
    "core.udaf.partials_s": "core.udaf.partials",
    "core.udaf.merge_s": "core.udaf.merge",
    "core.udaf.build_s": "core.udaf.build",
    "core.grouped.partials_s": "core.grouped.partials",
    "core.grouped.merge_s": "core.grouped.merge",
    "core.grouped.build_s": "core.grouped.build",
    "io_.checkpoint.build_s": "io_.checkpoint.build",
    "pipelines.follow.iteration_s": "pipelines.follow.iteration",
    "ray.data.take_all_s": "ray.data.take_all",
}
COUNTS = [
    "ops.extract.bytes_in",
    "ops.ioc.probes",
    "ops.ioc.bloom_hits",
    "core.udaf.partials_calls",
    "core.udaf.partial_bytes",
    "core.udaf.merge_payloads",
    "core.grouped.partial_rows",
    "core.grouped.merge_calls",
]

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME},
    "core.grouped.shuffle_s": "s",
    "io_.checkpoint.finalize_s": "s",
    "io_.checkpoint.write_s": "s",
    "pipelines.follow.resume_s": "s",
    **{key: "count" for key in COUNTS},
    "ops.extract.bytes_in": "B",
    "core.udaf.partial_bytes": "B",
    "io_.checkpoint.payload_bytes": "B",
    "io_.checkpoint.partitions": "count",
    "ops.ioc.true_hit_ratio": "ratio",
    "sketches.distinct_err_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def load(trace_dir: str, t_start: float = float("-inf"), t_end: float = float("inf")):
    """Returns (spans, counts): the spans that start inside the window, as
    dicts, and the counts recorded inside it, summed over processes."""
    spans = []
    counts: dict[str, float] = defaultdict(float)
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec[0] == "span":
                    _, _, pid, tid, sid, parent, name, t0, t1 = rec
                    if t_start <= t0 <= t_end:
                        spans.append(
                            {"pid": pid, "tid": tid, "id": sid, "parent": parent,
                             "name": name, "t0": t0, "t1": t1}
                        )
                else:
                    _, _, pid, t, key, value = rec
                    if t_start <= t <= t_end:
                        counts[key] += value
    return spans, dict(counts)


def self_times(spans) -> dict[str, float]:
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[(s["pid"], s["parent"])] += s["t1"] - s["t0"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["t1"] - s["t0"]) - child[(s["pid"], s["id"])]
    return dict(out)


def finalize_time(spans) -> float:
    """Checkpoint finalize: the part of each ``io_.checkpoint.build`` span
    after its Ray Data job (``ray.data.take_all`` child) returned — the
    driver-side re-merge of every partition's checkpoint."""
    job_end = {}
    for s in spans:
        if s["name"] == "ray.data.take_all" and s["parent"] is not None:
            key = (s["pid"], s["parent"])
            job_end[key] = max(job_end.get(key, 0.0), s["t1"])
    total = 0.0
    for s in spans:
        if s["name"] == "io_.checkpoint.build":
            total += s["t1"] - max(job_end.get((s["pid"], s["id"]), s["t0"]), s["t0"])
    return total


def layer_metrics(trace_dir: str) -> dict[str, float]:
    """Per-operation layer metrics over the timed window that ``meta.json``
    names, plus ``trace.coverage``: worker-side self time over the wall
    time of the ``bench.op`` spans the Ray driver records around each timed
    operation."""
    with open(os.path.join(trace_dir, "meta.json")) as fh:
        meta = json.load(fh)
    spans, counts = load(trace_dir, meta["t_start"], meta["t_end"])
    n_ops, driver_pid = meta["ops"], meta["driver_pid"]
    st = self_times(spans)
    n = max(n_ops, 1)
    out = {metric: st.get(name, 0.0) / n for metric, name in SELF_TIME.items()}
    for key in COUNTS:
        out[key] = counts.get(key, 0.0) / n
    build = sum(s["t1"] - s["t0"] for s in spans if s["name"] == "core.grouped.build")
    out["core.grouped.shuffle_s"] = max(
        build - st.get("core.grouped.partials", 0.0) - st.get("core.grouped.merge", 0.0),
        0.0,
    ) / n
    out["io_.checkpoint.finalize_s"] = finalize_time(spans) / n
    op_wall = sum(s["t1"] - s["t0"] for s in spans if s["name"] == "bench.op")
    worker_self = sum(
        (s["t1"] - s["t0"]) for s in spans if s["pid"] != driver_pid and s["parent"] is None
    )
    out["trace.coverage"] = worker_self / op_wall if op_wall else 0.0
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace_dir", help="directory a traced run kept (--keep-trace)")
    args = ap.parse_args()
    for name, value in sorted(layer_metrics(args.trace_dir).items()):
        print(f"{name} {value:.6g}")


if __name__ == "__main__":
    main()
