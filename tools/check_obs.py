#!/usr/bin/env python3
"""Validates the observability outputs of the experiments CLI.

Usage:
    python3 tools/check_obs.py METRICS_JSON EVENTS_JSONL [TRAJECTORY_CSV]

Checks, in order:

* the metrics report parses, declares the ``pp-sim-metrics/v1`` schema,
  embeds an engine block declaring ``pp-engine-metrics/v2``, and the
  engine's per-tier interaction usage sums exactly to its step count;
* the event log is non-empty, every line parses as a JSON object with an
  ``event`` kind and a ``step``, steps never decrease, and only known
  event kinds appear;
* when a trajectory CSV is given, its final row agrees with the metrics
  report's trajectory summary (same step count, same leader count), the
  leader column starts at ``n`` and the cumulative demotion total ends at
  ``n - 1`` on a converged run — the conservation law of leader election.

Exits non-zero with a message on the first violation (used by the CI
observability smoke job).
"""

import csv
import json
import sys

KNOWN_EVENTS = {
    "tier_transition",
    "jump_engage",
    "jump_disengage",
    "batch_engage",
    "batch_exit",
    "batch_episode",
    "compaction",
    "snapshot",
    "resumed",
}


def fail(msg):
    sys.exit(f"check_obs: {msg}")


def check_metrics(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "pp-sim-metrics/v1":
        fail(f"{path}: unexpected report schema {report.get('schema')!r}")
    engine = report.get("engine")
    if not isinstance(engine, dict):
        fail(f"{path}: missing engine metrics block")
    if engine.get("schema") != "pp-engine-metrics/v2":
        fail(f"{path}: unexpected engine schema {engine.get('schema')!r}")
    for key in ("population", "steps", "tier_usage", "jump", "batch"):
        if key not in engine:
            fail(f"{path}: engine metrics missing {key!r}")
    usage = engine["tier_usage"]
    total = sum(usage[t] for t in ("reference", "compiled", "jump", "batch"))
    if total != engine["steps"]:
        fail(
            f"{path}: tier usage sums to {total}, "
            f"but the engine reports {engine['steps']} steps"
        )
    print(
        f"metrics ok: n={engine['population']}, {engine['steps']} steps, "
        f"tier usage {usage}"
    )
    return report


def check_events(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        fail(f"{path}: event log is empty")
    last_step = 0
    kinds = {}
    for i, line in enumerate(lines, 1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: not valid JSON ({e})")
        if not isinstance(event, dict):
            fail(f"{path}:{i}: not a JSON object")
        kind = event.get("event")
        if kind not in KNOWN_EVENTS:
            fail(f"{path}:{i}: unknown event kind {kind!r}")
        step = event.get("step")
        if not isinstance(step, int) or step < 0:
            fail(f"{path}:{i}: bad step {step!r}")
        if step < last_step:
            fail(f"{path}:{i}: step {step} after step {last_step}")
        last_step = step
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"events ok: {len(lines)} events, kinds {kinds}")


def check_trajectory(path, report):
    summary = report.get("trajectory")
    if not isinstance(summary, dict):
        fail(f"{path}: metrics report has no trajectory summary to compare")
    with open(path) as f:
        rows = list(csv.DictReader(f))
    if not rows:
        fail(f"{path}: trajectory CSV has no data rows")
    for col in ("step", "leaders", "demotions_total"):
        if col not in rows[0]:
            fail(f"{path}: missing column {col!r}")
    if len(rows) != summary["rows"]:
        fail(
            f"{path}: {len(rows)} rows, but the metrics report "
            f"counts {summary['rows']}"
        )
    n = summary["n"]
    first, final = rows[0], rows[-1]
    if int(first["step"]) != 0 or int(float(first["leaders"])) != n:
        fail(f"{path}: first row must sample step 0 with {n} leaders")
    if int(final["step"]) != summary["steps"]:
        fail(
            f"{path}: final row at step {final['step']}, but the run "
            f"reports stabilization at step {summary['steps']}"
        )
    leaders = int(float(final["leaders"]))
    if leaders != summary["final_leaders"]:
        fail(
            f"{path}: final row has {leaders} leaders, but the run "
            f"reports {summary['final_leaders']}"
        )
    demoted = int(float(final["demotions_total"]))
    if summary["converged"]:
        if leaders != 1:
            fail(f"{path}: converged run must end with 1 leader, got {leaders}")
        if demoted != n - 1:
            fail(
                f"{path}: conservation violated — {demoted} demotions "
                f"attributed, expected n - 1 = {n - 1}"
            )
    print(
        f"trajectory ok: {len(rows)} rows, final step {final['step']}, "
        f"{leaders} leader(s), {demoted} demotions attributed"
    )


def main(argv):
    if len(argv) not in (3, 4):
        fail(f"usage: {argv[0]} METRICS_JSON EVENTS_JSONL [TRAJECTORY_CSV]")
    report = check_metrics(argv[1])
    check_events(argv[2])
    if len(argv) == 4:
        check_trajectory(argv[3], report)
    print("all observability checks passed")


if __name__ == "__main__":
    main(sys.argv)
