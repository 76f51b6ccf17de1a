#!/usr/bin/env python3
"""Validates the metrics and event files the binaries write.

Usage:
    python3 tools/check_obs.py METRICS_JSON EVENTS_JSONL [TRAJECTORY_CSV]
    python3 tools/check_obs.py SWEEP_METRICS_JSON [SHARD_MANIFEST_JSON ...]

The first file's ``schema`` picks the form.

``pp-sim-metrics/v1`` (``experiments --metrics-out``), checked in order:

* the report has exactly its ``engine``, ``trajectory`` and ``sweeps``
  fields; the engine block has the complete ``pp-engine-metrics/v2``
  field set with the right types (every tier-keyed object names all four
  tiers, and ``timeline`` is null or holds one ``interactions`` /
  ``seconds`` / ``dispatches`` span per tier), and its per-tier usage sums
  exactly to its step count;
* the event log is non-empty, every line is a JSON object with exactly
  the fields of its ``event`` kind, steps never decrease;
* when a trajectory CSV is given, its final row agrees with the metrics
  report's trajectory summary (same step count, same leader count), the
  leader column starts at ``n`` and the cumulative demotion total ends at
  ``n - 1`` on a converged run — the conservation law of leader election.

``pp-sweep-metrics/v1`` (``ppsweep``'s ``metrics.json``): the aggregate
and every rollup have exactly their fields; a sequential run (no
manifests given) reports zero shards, numbers for the aggregate's
``wall_seconds`` and ``jobs_per_second`` and unsharded rollups; a merged
run, which does not time the sweep, reports null for both, one shard
per manifest given, every manifest is a complete
``pp-sweep-shard/v1`` manifest with exactly its fields, the manifests'
jobs sum to the aggregate's, and every rollup names one of their shards.

Exits non-zero with a message on the first violation (used by the CI
observability smoke job).
"""

import csv
import json
import re
import sys

TIERS = ("reference", "compiled", "jump", "batch")

# Field-type markers.
INT = "int"
NUM = "number"
BOOL = "bool"
STR = "string"
TIER = "tier"
NULLABLE_INT = "int or null"
ANY = "any"  # checked by the caller

EVENT_FIELDS = {
    "tier_transition": {"from": TIER, "to": TIER},
    "jump_engage": {"w_active": INT, "w_total": INT},
    "jump_disengage": {
        "w_active": INT,
        "w_total": INT,
        "episodes": INT,
        "skipped": INT,
    },
    "batch_engage": {"support": INT, "expected_run": INT},
    "batch_exit": {"support": INT, "expected_run": INT},
    "batch_episode": {"bulk": INT, "collision": BOOL, "walked": BOOL},
    "compaction": {"live_before": INT, "live_after": INT},
    "snapshot": {"bytes": INT},
    "resumed": {},
}

ENGINE_FIELDS = {
    "schema": STR,
    "population": INT,
    "steps": INT,
    "parallel_time": NUM,
    "support": INT,
    "distinct_states_seen": INT,
    "active_tier": TIER,
    "tier_usage": {tier: INT for tier in TIERS},
    "jump": {"episodes": INT, "skipped": INT},
    "batch": {
        "episodes": INT,
        "bulk_interactions": INT,
        "collision_interactions": INT,
        "exact_walks": INT,
        "contingency_draws": INT,
        "shuffle_skips": INT,
    },
    "cache": {"active": BOOL, "compiled_pairs": INT},
    "events": {"recorded": INT, "dropped": INT},
    # "timeline" is null or TIMELINE_FIELDS; check_engine checks it.
}

TIMELINE_FIELDS = {
    tier: {"interactions": INT, "seconds": NUM, "dispatches": INT} for tier in TIERS
}

TRAJECTORY_FIELDS = {
    "n": INT,
    "every": INT,
    "steps": INT,
    "converged": BOOL,
    "final_leaders": INT,
    "rows": INT,
}

ROLLUP_FIELDS = {
    "jobs": INT,
    "workers": INT,
    "wall_seconds": NUM,
    "jobs_per_second": NUM,
    "pid": INT,
    "shard": NULLABLE_INT,
}

SWEEP_AGGREGATE_FIELDS = {
    "jobs": INT,
    "shards": INT,
    # Numbers for a sequential run, null for a merge; check_sweep checks.
    "wall_seconds": ANY,
    "jobs_per_second": ANY,
}

MANIFEST_FIELDS = {
    "schema": STR,
    "shard": INT,
    "pid": INT,
    "fingerprint": STR,
    "jobs": INT,
    "threads": INT,
    "wall_seconds": NUM,
    "complete": BOOL,
}


def fail(msg):
    sys.exit(f"check_obs: {msg}")


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def type_ok(value, kind):
    if kind == INT:
        return is_int(value) and value >= 0
    if kind == NUM:
        return (is_int(value) or isinstance(value, float)) and value >= 0
    if kind == BOOL:
        return isinstance(value, bool)
    if kind == STR:
        return isinstance(value, str)
    if kind == TIER:
        return value in TIERS
    if kind == NULLABLE_INT:
        return value is None or type_ok(value, INT)
    if kind == ANY:
        return True
    raise AssertionError(f"unknown field kind {kind!r}")


def check_fields(where, obj, fields):
    """Asserts ``obj`` has exactly the keys of ``fields``, each of the given
    kind (a nested dict of fields describes a nested object)."""
    if not isinstance(obj, dict):
        fail(f"{where}: expected an object, got {obj!r}")
    missing = sorted(set(fields) - set(obj))
    extra = sorted(set(obj) - set(fields))
    if missing or extra:
        fail(f"{where}: missing fields {missing}, unexpected fields {extra}")
    for key, kind in fields.items():
        if isinstance(kind, dict):
            check_fields(f"{where}.{key}", obj[key], kind)
        elif not type_ok(obj[key], kind):
            fail(f"{where}.{key}: {obj[key]!r} is not a valid {kind}")


def load_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON ({e})")


def check_engine(where, engine):
    check_fields(where, engine, {**ENGINE_FIELDS, "timeline": ANY})
    if engine["schema"] != "pp-engine-metrics/v2":
        fail(f"{where}: unexpected engine schema {engine['schema']!r}")
    usage = engine["tier_usage"]
    total = sum(usage[t] for t in TIERS)
    if total != engine["steps"]:
        fail(
            f"{where}: tier usage sums to {total}, "
            f"but the engine reports {engine['steps']} steps"
        )
    timeline = engine["timeline"]
    if timeline is not None:
        check_fields(f"{where}.timeline", timeline, TIMELINE_FIELDS)
        for tier in TIERS:
            span = timeline[tier]
            if span["interactions"] > usage[tier]:
                fail(
                    f"{where}.timeline.{tier}: {span['interactions']} interactions "
                    f"timed, but only {usage[tier]} executed on the tier"
                )
            if span["interactions"] > 0 and span["dispatches"] == 0:
                fail(f"{where}.timeline.{tier}: interactions without a dispatch")


def check_metrics(path):
    report = load_json(path)
    check_fields(path, report, {"schema": STR, "engine": ANY, "trajectory": ANY, "sweeps": ANY})
    if report["schema"] != "pp-sim-metrics/v1":
        fail(f"{path}: unexpected report schema {report['schema']!r}")
    check_engine(f"{path}:engine", report["engine"])
    if report["trajectory"] is not None:
        check_fields(f"{path}:trajectory", report["trajectory"], TRAJECTORY_FIELDS)
    if not isinstance(report["sweeps"], list):
        fail(f"{path}:sweeps: expected a list")
    for i, rollup in enumerate(report["sweeps"]):
        check_fields(f"{path}:sweeps[{i}]", rollup, ROLLUP_FIELDS)
    engine = report["engine"]
    print(
        f"metrics ok: n={engine['population']}, {engine['steps']} steps, "
        f"tier usage {engine['tier_usage']}, "
        f"timeline {'present' if engine['timeline'] else 'absent'}"
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
        if kind not in EVENT_FIELDS:
            fail(f"{path}:{i}: unknown event kind {kind!r}")
        fields = {"event": STR, "step": INT, **EVENT_FIELDS[kind]}
        check_fields(f"{path}:{i} ({kind})", event, fields)
        step = event["step"]
        if step < last_step:
            fail(f"{path}:{i}: step {step} after step {last_step}")
        if kind == "tier_transition" and event["from"] == event["to"]:
            fail(f"{path}:{i}: tier transition from {event['from']} to itself")
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


def check_manifest(path):
    manifest = load_json(path)
    check_fields(path, manifest, MANIFEST_FIELDS)
    if manifest["schema"] != "pp-sweep-shard/v1":
        fail(f"{path}: unexpected manifest schema {manifest['schema']!r}")
    if not re.fullmatch(r"[0-9a-f]{16}", manifest["fingerprint"]):
        fail(f"{path}: fingerprint {manifest['fingerprint']!r} is not 16 hex digits")
    if not manifest["complete"]:
        fail(f"{path}: shard {manifest['shard']} did not complete")
    return manifest


def check_sweep(path, manifest_paths):
    report = load_json(path)
    check_fields(path, report, {"schema": STR, "aggregate": SWEEP_AGGREGATE_FIELDS, "rollups": ANY})
    aggregate, rollups = report["aggregate"], report["rollups"]
    if not isinstance(rollups, list) or not rollups:
        fail(f"{path}: expected a non-empty rollups list")
    for i, rollup in enumerate(rollups):
        check_fields(f"{path}:rollups[{i}]", rollup, ROLLUP_FIELDS)
    manifests = [check_manifest(m) for m in manifest_paths]
    shards = {m["shard"] for m in manifests}
    if aggregate["shards"] != len(manifests) or len(shards) != len(manifests):
        fail(
            f"{path}: aggregate reports {aggregate['shards']} shards, "
            f"but {len(manifests)} distinct manifests were given"
        )
    merged = aggregate["shards"] != 0
    for key in ("wall_seconds", "jobs_per_second"):
        if merged and aggregate[key] is not None:
            fail(f"{path}: aggregate {key} {aggregate[key]!r} must be null for a merge")
        if not merged and not type_ok(aggregate[key], NUM):
            fail(f"{path}: aggregate {key} {aggregate[key]!r} must be a number")
    for i, rollup in enumerate(rollups):
        if manifests and rollup["shard"] not in shards:
            fail(f"{path}:rollups[{i}]: shard {rollup['shard']!r} has no manifest")
        if not manifests and rollup["shard"] is not None:
            fail(f"{path}:rollups[{i}]: sequential run has shard {rollup['shard']!r}")
    if manifests:
        jobs = sum(m["jobs"] for m in manifests)
        if jobs != aggregate["jobs"]:
            fail(f"{path}: manifests journal {jobs} jobs, aggregate reports {aggregate['jobs']}")
        fingerprints = {m["fingerprint"] for m in manifests}
        if len(fingerprints) != 1:
            fail(f"{path}: manifests disagree on the grid fingerprint {sorted(fingerprints)}")
    print(
        f"sweep ok: {aggregate['jobs']} jobs, {aggregate['shards']} shard(s), "
        f"{len(rollups)} rollup(s)"
    )


def main(argv):
    if len(argv) < 2:
        fail(
            f"usage: {argv[0]} METRICS_JSON EVENTS_JSONL [TRAJECTORY_CSV] | "
            "SWEEP_METRICS_JSON [SHARD_MANIFEST_JSON ...]"
        )
    schema = load_json(argv[1]).get("schema")
    if schema == "pp-sweep-metrics/v1":
        check_sweep(argv[1], argv[2:])
    else:
        if len(argv) not in (3, 4):
            fail(f"usage: {argv[0]} METRICS_JSON EVENTS_JSONL [TRAJECTORY_CSV]")
        report = check_metrics(argv[1])
        check_events(argv[2])
        if len(argv) == 4:
            check_trajectory(argv[3], report)
    print("all observability checks passed")


if __name__ == "__main__":
    main(sys.argv)
