"""Exact answers for the benchmark's inputs, and the checks that hold each
engine result to them.

The oracle reads the generated parquet with plain pyarrow/Python (no Ray,
no engine code) and is cached as JSON next to the corpus, so it is built
once per seed and never inside a timed region.

Bounds (the same published bounds the engine documents):

* HLL:   |est - d| <= 3 * 1.04 / sqrt(2^p) * d + 2      (3 sigma of the RSE)
* theta: |est - d| <= 3 / sqrt(k - 2) * d + 2
  (the + 2 allows two register collisions: a cell of 17 urls whose hashes
  share one register reads 16, 6% low, outside any RSE-based bound)
* CMS:   every tracked estimate >= the exact count; total == rows
* KLL:   normalized rank error <= 2.296 / k             (kll.epsilon)
* REQ:   rank error <= max(4 / k, 0.01) * (1 - q)       (req.tail_epsilon)
* t-digest: rank error <= 0.05   (no worst-case bound; see TDIGEST_EPS)
* DD:    |est - x_q| <= alpha * x_q, x_q the order statistic at floor(q (n-1))
* Bloom: N == rows added
* IoC:   no false negative; false positives <= p * probes + 4 sqrt(p * probes) + 1
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter

import numpy as np

_HOST_RE = re.compile(r"^[^:/?#]+://([^/?#]*)")
_PORT_RE = re.compile(r":[0-9]+$")
_DAY_US = 86_400_000_000

# rank tolerances: KLL_EPS / k is kll.epsilon.  t-digest has no worst-case
# bound; the engine documents a 2% envelope for single-pass builds, but
# digests merged from a few small checkpoint partitions measured up to 3.3%
# (q=0.25, 1.5k rows from 15 partitions), so the check allows 5%
KLL_EPS = 2.296
TDIGEST_EPS = 0.05
COLLISION_SLACK = 2.0


def hostname(url: str) -> str:
    m = _HOST_RE.match(url)
    return _PORT_RE.sub("", m.group(1)) if m else ""


def url_tail(url: str) -> str:
    """Path (with query) after the authority; '/' when empty."""
    m = _HOST_RE.match(url)
    tail = url[m.end():] if m else url
    return tail or "/"


def read_facts(files: list[str]) -> dict:
    """Per-row facts of a page corpus, in file order."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    urls, langs, text_len, html_len, ts = [], [], [], [], []
    for f in files:
        t = pq.read_table(f, columns=["url", "lang", "text", "html", "warc_ts"])
        urls += t.column("url").to_pylist()
        langs += t.column("lang").to_pylist()
        text_len.append(pc.utf8_length(t.column("text")).to_numpy())
        html_len.append(pc.binary_length(t.column("html")).to_numpy())
        ts.append(t.column("warc_ts").cast("int64").to_numpy())
    return {
        "url": urls,
        "host": [hostname(u) for u in urls],
        "lang": langs,
        "text_len": np.concatenate(text_len).astype(np.int64),
        "html_len": np.concatenate(html_len).astype(np.int64),
        "warc_ts_us": np.concatenate(ts).astype(np.int64),
    }


def suite_exact(facts: dict, rows: slice | None = None) -> dict:
    """Exact answers for the STANDARD_SPECS suite over ``facts[rows]``."""
    sl = rows or slice(None)
    urls, hosts, langs = facts["url"][sl], facts["host"][sl], facts["lang"][sl]
    return {
        "rows": len(urls),
        "distinct": {"url": len(set(urls)), "hostname": len(set(hosts))},
        "counts": {"hostname": Counter(hosts), "lang": Counter(langs)},
        "sorted": {
            c: np.sort(facts[c][sl]) for c in ("text_len", "html_len", "warc_ts_us")
        },
    }


def cell_of(lang: str, ts_us: int) -> str:
    return f"{lang}|{ts_us // _DAY_US}"


def keyed_exact(facts: dict) -> dict:
    cells: dict[str, set] = {}
    for url, lang, ts in zip(facts["url"], facts["lang"], facts["warc_ts_us"].tolist()):
        cells.setdefault(cell_of(lang, ts), set()).add(url)
    by_host: dict[str, list] = {}
    for host, n in zip(facts["host"], facts["html_len"].tolist()):
        by_host.setdefault(host, []).append(n)
    return {
        "cell_distinct": {k: len(v) for k, v in cells.items()},
        "host_html_len": {k: sorted(v) for k, v in by_host.items()},
    }


def ioc_exact(facts: dict, indicators: set) -> dict:
    """Pages the page matcher must flag: the host, the synthesized
    ``http://host + tail``, ``host + path`` or the path is an indicator."""
    hit = []
    for url, host in zip(facts["url"], facts["host"]):
        tail = url_tail(url)
        path = tail.split("?", 1)[0].split("#", 1)[0]
        probes = (host, "http://" + host + tail, host + path, path)
        if any(p and p in indicators for p in probes):
            hit.append(url)
    return {"urls": sorted(set(hit)), "pages": len(facts["url"])}


def cached(path: str, build):
    """JSON cache of an oracle (numpy arrays are stored as lists)."""
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    value = build()
    with open(path + ".tmp", "w") as fh:
        json.dump(value, fh, default=_jsonable)
    os.replace(path + ".tmp", path)
    with open(path) as fh:
        return json.load(fh)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer,)):
        return int(x)
    raise TypeError(type(x))


# ------------------------------------------------------------------- checks
def _rank_interval(sorted_vals: np.ndarray, x: float) -> tuple[float, float]:
    n = len(sorted_vals)
    lo = np.searchsorted(sorted_vals, x, side="left") / n
    hi = np.searchsorted(sorted_vals, x, side="right") / n
    return lo, hi


def rank_ok(sorted_vals: np.ndarray, q: float, est: float, eps: float) -> bool:
    lo, hi = _rank_interval(sorted_vals, est)
    return lo - eps <= q <= hi + eps


def distinct_ratio(est: float, exact: int, rse: float) -> float:
    """|est - exact| over the bound (<= 1 passes)."""
    return abs(est - exact) / (3.0 * rse * exact + COLLISION_SLACK)


def hll_rse(p: int) -> float:
    return 1.04 / math.sqrt(2**p)


def theta_rse(k: int) -> float:
    return 1.0 / math.sqrt(k - 2)


def check_suite(details: dict, exact: dict, specs) -> tuple[list[str], float]:
    """Check one finalized sketch suite (``{name: finalize-dict}``) against
    ``suite_exact``.  Returns (failures, worst distinct_err ratio)."""
    fails: list[str] = []
    worst = 0.0
    for spec in specs:
        d = details.get(spec.name)
        if d is None:
            fails.append(f"{spec.name}: missing")
            continue
        kind, col, prm = spec.kind, spec.column, spec.params
        if kind in ("hll", "theta"):
            rse = hll_rse(prm["p"]) if kind == "hll" else theta_rse(prm["k"])
            r = distinct_ratio(float(d["estimate"]), exact["distinct"][col], rse)
            worst = max(worst, r)
            if r > 1.0:
                fails.append(f"{spec.name}: estimate {d['estimate']} vs {exact['distinct'][col]}")
        elif kind == "cms":
            if int(d["total"]) != exact["rows"]:
                fails.append(f"{spec.name}: total {d['total']} != {exact['rows']}")
            counts = exact["counts"][col]
            for key, est in d["top_k"]:
                if est < counts.get(key, 0):
                    fails.append(f"{spec.name}: {key} undercounted {est} < {counts[key]}")
        elif kind == "bloom":
            if int(d["N"]) != exact["rows"]:
                fails.append(f"{spec.name}: N {d['N']} != {exact['rows']}")
        else:
            vals = np.asarray(exact["sorted"][col])
            for qs, est in d["quantiles"].items():
                q, est = float(qs), float(est)
                if kind == "dd":
                    x = float(vals[int(q * (len(vals) - 1))])
                    ok = abs(est - x) <= prm["alpha"] * abs(x) + 1e-9
                elif kind == "kll":
                    ok = rank_ok(vals, q, est, KLL_EPS / prm["k"])
                elif kind == "req":
                    ok = rank_ok(vals, q, est, max(4.0 / prm["k"], 0.01) * (1 - q))
                else:
                    ok = rank_ok(vals, q, est, TDIGEST_EPS)
                if not ok:
                    lo, hi = _rank_interval(vals, est)
                    fails.append(
                        f"{spec.name}: q={qs} est {est:.6g} has rank "
                        f"[{lo:.4f}, {hi:.4f}] of n={len(vals)}"
                    )
    return fails, worst


def check_keyed(cell_est: dict, host_q: dict, exact: dict, p: int, k: int):
    """cell_est {cell: hll estimate}; host_q {host: {q: kll quantile}}."""
    fails: list[str] = []
    worst = 0.0
    want = exact["cell_distinct"]
    if set(cell_est) != set(want):
        fails.append(f"cells: {len(cell_est)} keys vs {len(want)} exact")
    for cell, est in cell_est.items():
        if cell in want:
            r = distinct_ratio(est, want[cell], hll_rse(p))
            worst = max(worst, r)
            if r > 1.0:
                fails.append(f"cell {cell}: estimate {est} vs {want[cell]}")
    hosts = exact["host_html_len"]
    if set(host_q) != set(hosts):
        fails.append(f"hosts: {len(host_q)} keys vs {len(hosts)} exact")
    for host, qs in host_q.items():
        if host not in hosts:
            continue
        vals = np.asarray(hosts[host])
        for q, est in qs.items():
            if not rank_ok(vals, q, est, KLL_EPS / k):
                fails.append(f"host {host}: q={q} est {est} out of bound")
    return fails, worst


def check_ioc(match_rows: list[dict], exact: dict, indicators: set, p: float):
    """Returns (failures, true indicator hits among the match rows)."""
    matched = {r["url"] for r in match_rows}
    fails = []
    missing = [u for u in exact["urls"] if u not in matched]
    if missing:
        fails.append(f"ioc: {len(missing)} false negatives, e.g. {missing[0]}")
    true_hits = sum(1 for r in match_rows if r["ioc"] in indicators)
    false_pos = len({r["url"] for r in match_rows if r["ioc"] not in indicators})
    lam = p * 4 * exact["pages"]  # four probes per page
    if false_pos > lam + 4 * math.sqrt(lam) + 1:
        fails.append(f"ioc: {false_pos} false positives, expected ~{lam:.2f}")
    return fails, true_hits
