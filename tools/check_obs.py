#!/usr/bin/env python3
"""Validates the metrics documents and event files the binaries write.

Usage:
    python3 tools/check_obs.py DOCUMENT.json [SHARD.json ...] [EVENTS.jsonl] [TRAJECTORY.csv]

Every metrics file is one ``pp-metrics/v1`` document; ``check_document``
checks each ``.json`` argument against the field tables below and the
rules that tie its sections together. Against the first document, further
``.json`` arguments are a merge's shard documents, an ``.jsonl`` event log
must hold the engine's recorded events in step order, and a ``.csv``
trajectory must agree with the trajectory summary and, on a converged run,
attribute ``n - 1`` demotions (conservation). Exits non-zero with a
message on the first violation (used by the CI observability smoke job).
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
    "timeline": ANY,  # null or TIMELINE_FIELDS; check_engine checks it
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

SWEEP_FIELDS = {
    "jobs": INT,
    "shards": INT,
    # Numbers for a sequential run, null for a merge; check_sweep checks.
    "wall_seconds": ANY,
    "jobs_per_second": ANY,
}

SHARD_FIELDS = {
    "shard": INT,
    "pid": INT,
    "fingerprint": STR,
    "jobs": INT,
    "wall_seconds": NUM,
    "complete": BOOL,
}

ROLLUP_FIELDS = {
    "jobs": INT,
    "workers": INT,
    "wall_seconds": NUM,
    "jobs_per_second": NUM,
    "pid": INT,
    "shard": ANY,  # null or the shard that ran it; check_rollup_shards checks it
}

# A document's sections: each is null or an object with these fields.
SECTIONS = {
    "engine": ENGINE_FIELDS,
    "trajectory": TRAJECTORY_FIELDS,
    "sweep": SWEEP_FIELDS,
    "shard": SHARD_FIELDS,
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


def check_rollup_shards(path, doc, valid, expected):
    """Asserts every rollup's ``shard`` passes ``valid``; returns their jobs."""
    for i, rollup in enumerate(doc["rollups"]):
        if not valid(rollup["shard"]):
            fail(f"{path}:rollups[{i}]: shard {rollup['shard']!r}, expected {expected}")
    return sum(rollup["jobs"] for rollup in doc["rollups"])


def check_engine(path, engine, doc):
    usage, timeline = engine["tier_usage"], engine["timeline"]
    total = sum(usage[t] for t in TIERS)
    if total != engine["steps"]:
        fail(f"{path}: tier usage sums to {total}, but the engine ran {engine['steps']} steps")
    if timeline is not None:
        check_fields(f"{path}:engine.timeline", timeline, TIMELINE_FIELDS)
        for tier in TIERS:
            span = timeline[tier]
            if span["interactions"] > usage[tier]:
                fail(
                    f"{path}:engine.timeline.{tier}: {span['interactions']} interactions "
                    f"timed, but only {usage[tier]} executed on the tier"
                )
            if span["interactions"] > 0 and span["dispatches"] == 0:
                fail(f"{path}:engine.timeline.{tier}: interactions without a dispatch")
    check_rollup_shards(path, doc, lambda s: s is None, "null")


def check_sweep(path, sweep, doc):
    shards = sweep["shards"]
    for key in ("wall_seconds", "jobs_per_second"):
        if shards and sweep[key] is not None:
            fail(f"{path}: sweep {key} {sweep[key]!r} must be null for a merge")
        if not shards and not type_ok(sweep[key], NUM):
            fail(f"{path}: sweep {key} {sweep[key]!r} must be a number")
    if shards:
        check_rollup_shards(path, doc, lambda s: is_int(s) and s < shards, f"below {shards}")
        return
    jobs = check_rollup_shards(path, doc, lambda s: s is None, "null")
    if jobs != sweep["jobs"]:
        fail(f"{path}: rollups ran {jobs} jobs, but the sweep has {sweep['jobs']}")


def check_shard(path, shard, doc):
    if not re.fullmatch(r"[0-9a-f]{16}", shard["fingerprint"]):
        fail(f"{path}: fingerprint {shard['fingerprint']!r} is not 16 hex digits")
    own = shard["shard"]
    jobs = check_rollup_shards(path, doc, lambda s: is_int(s) and s == own, own)
    if jobs > shard["jobs"]:
        fail(f"{path}: rollups ran {jobs} jobs, but the shard journaled {shard['jobs']}")


def check_document(path):
    """Checks one metrics document: the fixed keys, then each non-null
    section against its field table, then what ties its sections together."""
    doc = load_json(path)
    check_fields(path, doc, {"schema": STR, **dict.fromkeys(SECTIONS, ANY), "rollups": ANY})
    if doc["schema"] != "pp-metrics/v1":
        fail(f"{path}: unexpected schema {doc['schema']!r}")
    for key, fields in SECTIONS.items():
        if doc[key] is not None:
            check_fields(f"{path}:{key}", doc[key], fields)
    kinds = [key for key in ("engine", "sweep", "shard") if doc[key] is not None]
    if len(kinds) != 1:
        fail(f"{path}: expected exactly one of engine, sweep and shard, got {kinds}")
    if doc["trajectory"] is not None and doc["engine"] is None:
        fail(f"{path}: a trajectory summary without an engine section")
    if not isinstance(doc["rollups"], list):
        fail(f"{path}:rollups: expected a list")
    for i, rollup in enumerate(doc["rollups"]):
        check_fields(f"{path}:rollups[{i}]", rollup, ROLLUP_FIELDS)
    kind = kinds[0]
    {"engine": check_engine, "sweep": check_sweep, "shard": check_shard}[kind](
        path, doc[kind], doc
    )
    print(f"{path}: {kind} document ok, {len(doc['rollups'])} rollup(s)")
    return doc


def check_shards(path, doc, shard_docs):
    sweep = doc["sweep"]
    if sweep is None or sweep["shards"] == 0:
        fail(f"{path}: shard documents need a merged sweep document first")
    shard_docs = sorted(shard_docs, key=lambda d: d["shard"]["shard"])
    records = [d["shard"] for d in shard_docs]
    ids = [r["shard"] for r in records]
    if ids != list(range(sweep["shards"])):
        fail(f"{path}: sweep merged {sweep['shards']} shards, the shard documents are {ids}")
    for record in records:
        if not record["complete"]:
            fail(f"{path}: shard {record['shard']} did not complete")
    jobs = sum(r["jobs"] for r in records)
    if jobs != sweep["jobs"]:
        fail(f"{path}: shards journal {jobs} jobs, the sweep has {sweep['jobs']}")
    fingerprints = {r["fingerprint"] for r in records}
    if len(fingerprints) != 1:
        fail(f"{path}: shards disagree on the grid fingerprint {sorted(fingerprints)}")
    if [r for d in shard_docs for r in d["rollups"]] != doc["rollups"]:
        fail(f"{path}: rollups are not the shard documents' rollups in shard order")
    print(f"shards ok: {len(records)} shard document(s) make up the merge")


def check_events(path, doc):
    if doc["engine"] is None:
        fail(f"{path}: an event log needs an engine document first")
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        fail(f"{path}: event log is empty")
    recorded = doc["engine"]["events"]["recorded"]
    if len(lines) != recorded:
        fail(f"{path}: {len(lines)} events, but the engine recorded {recorded}")
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


def check_trajectory(path, doc):
    summary = doc["trajectory"]
    if summary is None:
        fail(f"{path}: the document has no trajectory summary to compare")
    with open(path) as f:
        rows = list(csv.DictReader(f))
    if not rows:
        fail(f"{path}: trajectory CSV has no data rows")
    for col in ("step", "leaders", "demotions_total"):
        if col not in rows[0]:
            fail(f"{path}: missing column {col!r}")
    if len(rows) != summary["rows"]:
        fail(f"{path}: {len(rows)} rows, but the trajectory summary counts {summary['rows']}")
    n = summary["n"]
    first, final = rows[0], rows[-1]
    if int(first["step"]) != 0 or int(float(first["leaders"])) != n:
        fail(f"{path}: first row must sample step 0 with {n} leaders")
    if int(final["step"]) != summary["steps"]:
        fail(f"{path}: final row at step {final['step']}, but the run took {summary['steps']}")
    leaders = int(float(final["leaders"]))
    if leaders != summary["final_leaders"]:
        fail(f"{path}: final row has {leaders} leaders, the run {summary['final_leaders']}")
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
    paths = argv[1:]
    if not paths or not paths[0].endswith(".json"):
        fail(f"usage: {argv[0]} DOCUMENT.json [SHARD.json ...] [EVENTS.jsonl] [TRAJECTORY.csv]")
    docs = [check_document(p) for p in paths if p.endswith(".json")]
    if len(docs) > 1:
        check_shards(paths[0], docs[0], docs[1:])
    for path in paths:
        if path.endswith(".jsonl"):
            check_events(path, docs[0])
        elif path.endswith(".csv"):
            check_trajectory(path, docs[0])
        elif not path.endswith(".json"):
            fail(f"{path}: expected a .json, .jsonl or .csv file")
    print("all observability checks passed")


if __name__ == "__main__":
    main(sys.argv)
