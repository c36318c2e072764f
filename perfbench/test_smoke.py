"""Smoke test: every workload at a few thousand pages, plus one traced run.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that each run prints every metric BENCHMARK.json names, with its
unit, that ``fail_frac`` is 0, and that the last line is the result JSON.
Takes a few minutes (each run starts its own Ray).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# pages per run: follow_ingest splits its pages into 40 shards
SMALL_PAGES = {"follow_ingest": 4000}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace),
        "--pages", str(SMALL_PAGES.get(workload, 3000)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_printed(lines: list[str], result: dict, metrics: list[dict]) -> None:
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    for m in metrics:
        assert printed.get(m["name"]) == m["unit"], (m["name"], printed.get(m["name"]))
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    assert float(printed_value(lines, "fail_frac")) == 0.0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1


def printed_value(lines: list[str], name: str) -> str:
    return next(line.split()[1] for line in lines if line.split()[0] == name)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_end_to_end(workload):
    lines, result = _run(workload, trace=0)
    _assert_printed(lines, result, BENCH["end_to_end"])


def test_traced_run_reports_every_layer():
    lines, result = _run("crawl_profile", trace=1)
    _assert_printed(lines, result, BENCH["per_layer"])
    assert float(printed_value(lines, "ops.extract.extract_text_s")) > 0
