#!/usr/bin/env python3
"""Appends one row to the tracked benchmark record, BENCH_perfbench.json.

Usage (no arguments):
    python3 tools/bench_record.py

Runs every workload declared in BENCHMARK.json through its ``command`` for
``run_seconds``, at ``--seed 1``, once untraced (``--trace 0``, the
end-to-end metrics) and once traced (``--trace 1``, the per-layer ladder),
and keeps each run's final JSON line. Exits non-zero and writes nothing if
any run exits non-zero, attempts no operation or fails one. Otherwise the
row appended holds the short commit (``-dirty`` when tracked files differ
from it), the UTC date, the core count, the CPU model and the six result
lines keyed by workload and mode. A speed claim is a ratio of adjacent rows.
"""

import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perfbench.json"
MODES = {"untraced": "0", "traced": "1"}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for mode, trace in MODES.items():
            argv = [*spec["command"], "--workload", workload, "--seed", "1",
                    "--seconds", str(spec["run_seconds"]), "--trace", trace]
            print(f"== {workload} ({mode})", flush=True)
            run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(run.stdout)
            sys.stderr.write(run.stderr)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            if result is None or result["attempted"] == 0 or result["failed"] > 0:
                sys.exit(f"bench_record: {workload} ({mode}) did not pass "
                         f"(exit {run.returncode}); nothing recorded")
            results.setdefault(workload, {})[mode] = result
    dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    row = {
        "commit": git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else ""),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cores": os.cpu_count(),
        "cpu": cpu_model(),
        "results": results,
    }
    rows = json.loads(RECORD.read_text()) if RECORD.exists() else []
    RECORD.write_text(json.dumps(rows + [row], indent=1) + "\n")
    print(f"bench_record: appended row {len(rows) + 1} ({row['commit']}) to {RECORD.name}")


if __name__ == "__main__":
    main()
