//! Regenerates `BENCH_engine.json` (the repo-root engine-throughput
//! snapshot) reproducibly instead of by hand.
//!
//! Runs the engine benchmark through cargo with `BENCH_JSON_DIR` pointed at
//! a scratch directory, then assembles the per-group JSON the criterion
//! stand-in emits into the tracked snapshot: machine/harness metadata, the
//! per-group benchmark records, and the headline numbers (the `P_LL`
//! step-rate workload on the batch tier, the whole-election jump workload,
//! the observability layer's attached-vs-detached spread, and the sweep
//! fabric's worker scaling) with their speedups against the frozen
//! seed-code baseline. Each headline row also embeds an `engine_metrics`
//! summary — the same workload re-run once at a fixed seed with detached
//! observation, so the snapshot records *what the engine did* (per-tier
//! interaction usage, episode counts, live support) next to how fast it did
//! it; the summaries are deterministic, carrying no wall-clock.
//!
//! ```text
//! cargo run --release -p pp-sim --bin bench_snapshot           # full samples
//! cargo run --release -p pp-sim --bin bench_snapshot -- --quick
//! ```
//!
//! `--quick` forwards reduced sample counts to the bench harness (the CI
//! smoke-bench settings) for a fast sanity pass and writes to
//! `target/BENCH_engine.quick.json`, leaving the tracked snapshot — which
//! the CI regression gate reads its baseline from — untouched; regenerate
//! the tracked file with full samples on a quiet machine.

use pp_core::Pll;
use pp_engine::{CountSimulation, EngineMetrics, EngineObserver};
use pp_protocols::Fratricide;
use pp_rand::Xoshiro256PlusPlus;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The frozen pre-PR-2 baseline: seed-code `CountSimulation` (HashMap
/// interning + per-step `Protocol::transition` + Fenwick add-roundtrip
/// sampling) on `engine/count_steps/pll/1048576`, median of 4 runs.
const PRE_PR_BASELINE_INT_PER_SEC: f64 = 4_784_688.995_215_311;
const PRE_PR_BASELINE_SECS_PER_ITER: f64 = 0.000_209;

/// Fratricide@2^20 simulated interactions per election (E[steps] ≈ n²·(1−1/n);
/// the value recorded from the instrumented PR-3 measurement runs).
const ELECTION_SIM_INTERACTIONS: f64 = 6.121e11;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let root = workspace_root();
    let json_dir = root.join("target/bench-snapshot-json");
    let _ = std::fs::remove_dir_all(&json_dir);
    std::fs::create_dir_all(&json_dir).expect("create scratch dir");

    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.current_dir(&root)
        .env("BENCH_JSON_DIR", &json_dir)
        .args(["bench", "-p", "pp-bench", "--bench", "engine"]);
    if quick {
        cmd.args([
            "--",
            "--sample-size",
            "5",
            "--warm-up-time",
            "0.2",
            "--measurement-time",
            "0.6",
        ]);
    }
    eprintln!(
        "running engine bench ({})...",
        if quick { "quick" } else { "full samples" }
    );
    let status = cmd.status().expect("spawn cargo bench");
    assert!(status.success(), "cargo bench failed");

    let mut groups: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for entry in std::fs::read_dir(&json_dir).expect("scratch dir readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().map_or(true, |e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("group json readable");
        let (group, records) = parse_group(&text);
        if group.starts_with("engine/") {
            groups.insert(group, records);
        }
    }
    assert!(
        groups.contains_key("engine/count_steps_batch"),
        "batch tier group missing from bench output"
    );
    assert!(
        groups.contains_key("engine/count_steps_obs"),
        "observability group missing from bench output"
    );

    eprintln!("capturing headline engine-metrics summaries...");
    let metrics = headline_metrics(quick);
    eprintln!("measuring sweep-fabric scaling (workers x wall-clock, adjacent rows)...");
    let scaling = sweep_scaling(&root, quick);
    let snapshot = render_snapshot(&groups, &metrics, &scaling, quick);
    // Quick mode is a pipeline sanity pass: its reduced-sample medians must
    // never overwrite the tracked snapshot (the CI regression gate reads
    // baselines from it), so they land under target/ instead.
    let out = if quick {
        root.join("target/BENCH_engine.quick.json")
    } else {
        root.join("BENCH_engine.json")
    };
    std::fs::write(&out, snapshot).expect("write snapshot");
    eprintln!("wrote {}", out.display());
}

fn workspace_root() -> PathBuf {
    // crates/sim/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bin lives two levels below the workspace root")
        .to_path_buf()
}

#[derive(Debug, Clone)]
struct Record {
    name: String,
    median_secs: f64,
    elements_per_iter: Option<u64>,
    elements_per_second: Option<f64>,
}

/// Minimal scanner for the criterion stand-in's flat group JSON (one
/// benchmark object per line; see `crates/criterion`'s `write_json_reports`).
fn parse_group(text: &str) -> (String, Vec<Record>) {
    let group = scan_str(text, "\"group\"").expect("group field");
    let mut records = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        records.push(Record {
            name: scan_str(line, "\"name\"").expect("name field"),
            median_secs: scan_num(line, "\"median_seconds_per_iter\"").expect("median field"),
            elements_per_iter: scan_num(line, "\"elements_per_iter\"").map(|v| v as u64),
            elements_per_second: scan_num(line, "\"elements_per_second\""),
        });
    }
    (group, records)
}

/// Value of `"key": "string"` after `key` in `text`.
fn scan_str(text: &str, key: &str) -> Option<String> {
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Value of `"key": <number>` after `key` in `text`.
fn scan_num(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn find<'a>(groups: &'a BTreeMap<String, Vec<Record>>, group: &str, name: &str) -> &'a Record {
    groups
        .get(group)
        .unwrap_or_else(|| panic!("group {group} missing"))
        .iter()
        .find(|r| r.name.ends_with(name))
        .unwrap_or_else(|| panic!("benchmark {name} missing from {group}"))
}

fn machine_description() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    format!("{cpus} vCPU {model} (virtualized dev container)")
}

fn today() -> String {
    Command::new("date")
        .arg("+%F")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Sweep-fabric scaling grid (full samples): sizes heavy enough (~3 s of
/// single-core work) that process spawn and the orchestrator's 200 ms
/// progress-poll quantum are noise against the measured wall clock.
const SWEEP_GRID_FULL: &str = "1048576,2097152,4194304";

/// `--quick` scaling grid: a fast pipeline sanity pass, not a measurement.
const SWEEP_GRID_QUICK: &str = "65536,131072";

/// One workers-vs-wall-clock measurement of the `ppsweep` fabric.
struct SweepScaling {
    grid: String,
    seeds: u64,
    /// `(worker processes, wall seconds)`, measured back-to-back with the
    /// 1-worker baseline first.
    rows: Vec<(u64, f64)>,
}

/// Times the same fratricide grid through `ppsweep --shards N --spawn`
/// (one thread per worker) at 1 and 2 workers, adjacent rows. The merged
/// output is byte-identical across rows by the fabric's contract, so the
/// only thing that varies is the wall clock.
fn sweep_scaling(root: &Path, quick: bool) -> SweepScaling {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "-p", "pp-sim", "--bin", "ppsweep"])
        .status()
        .expect("spawn cargo build");
    assert!(status.success(), "building ppsweep failed");
    let bin = root.join("target/release/ppsweep");
    let grid = if quick {
        SWEEP_GRID_QUICK
    } else {
        SWEEP_GRID_FULL
    };
    let seeds: u64 = if quick { 4 } else { 8 };
    let mut rows = Vec::new();
    for workers in [1u64, 2] {
        let dir = root.join(format!("target/bench-sweep-scaling/w{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        let started = std::time::Instant::now();
        let status = Command::new(&bin)
            .args(["--protocol", "fratricide", "--ns", grid])
            .args(["--seeds", &seeds.to_string()])
            .args(["--master", "42", "--max-steps", "0"])
            .arg("--dir")
            .arg(&dir)
            .args(["--shards", &workers.to_string(), "--spawn"])
            .args(["--threads-per-worker", "1"])
            .env("PP_SIM_PROGRESS", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn ppsweep");
        assert!(
            status.success(),
            "ppsweep scaling run failed at {workers} workers"
        );
        rows.push((workers, started.elapsed().as_secs_f64()));
    }
    SweepScaling {
        grid: grid.to_string(),
        seeds,
        rows,
    }
}

/// Re-runs each headline workload once at a fixed seed and returns its
/// [`EngineMetrics`] summary, keyed by headline section name. Observation
/// stays detached everywhere except the observability row itself, so every
/// summary is deterministic (the observability one additionally carries the
/// attached run's event count and per-tier wall-time split). `--quick`
/// shrinks the population the same way it shrinks bench samples.
fn headline_metrics(quick: bool) -> BTreeMap<&'static str, EngineMetrics> {
    let n: usize = if quick { 1 << 14 } else { 1 << 20 };
    // The windowed groups measure mid-election; 16 parallel time units sits
    // inside their WINDOW_FROM..WINDOW_TO band.
    let window = 16 * n as u64;
    let mut out = BTreeMap::new();

    let batch_pinned_pll = || {
        let rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut sim =
            CountSimulation::new(Pll::for_population(n).expect("n >= 2"), n, rng).expect("n >= 2");
        sim.force_batch_mode();
        sim
    };

    let mut sim = batch_pinned_pll();
    sim.run(window);
    out.insert("step_workload", sim.metrics());

    let rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let mut sim = CountSimulation::new(Fratricide, n, rng).expect("n >= 2");
    let outcome = sim.run_until_single_leader(u64::MAX);
    assert!(outcome.converged, "headline election must converge");
    out.insert("election_workload", sim.metrics());

    let mut sim = batch_pinned_pll();
    sim.set_observer(EngineObserver::new());
    sim.run(window);
    out.insert("observability_overhead", sim.metrics());

    out
}

fn render_snapshot(
    groups: &BTreeMap<String, Vec<Record>>,
    metrics: &BTreeMap<&'static str, EngineMetrics>,
    scaling: &SweepScaling,
    quick: bool,
) -> String {
    let engine_metrics_line = |section: &str| {
        let m = metrics
            .get(section)
            .unwrap_or_else(|| panic!("metrics summary for {section} missing"));
        format!("      \"engine_metrics\": {},\n", m.to_json())
    };
    let batch_pll = find(groups, "engine/count_steps_batch", "pll/1048576");
    let compiled_pll = find(groups, "engine/count_steps_compiled", "pll/1048576");
    let election = find(groups, "engine/election_jump", "fratricide/1048576");
    let batch_rate = batch_pll.elements_per_second.expect("throughput group");
    let compiled_rate = compiled_pll.elements_per_second.expect("throughput group");
    let election_secs = election.median_secs;
    let effective = ELECTION_SIM_INTERACTIONS / election_secs;
    let obs_rate = |row: &str| {
        find(
            groups,
            "engine/count_steps_obs",
            &format!("pll/1048576/{row}"),
        )
        .elements_per_second
        .expect("throughput group")
    };
    let obs_detached_rate = obs_rate("detached");
    let obs_attached_rate = obs_rate("attached");

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pp-bench/benches/engine.rs\",\n");
    out.push_str(&format!("  \"captured\": \"{}\",\n", today()));
    out.push_str(&format!("  \"machine\": \"{}\",\n", machine_description()));
    out.push_str(&format!(
        "  \"harness\": \"workspace criterion stand-in, fast_criterion(){}, median per-iteration time; regenerated by `cargo run --release -p pp-sim --bin bench_snapshot`\",\n",
        if quick { " with --quick reduced samples" } else { " (10 samples, 2 s measurement)" }
    ));
    out.push_str("  \"steps_per_iteration\": 1000,\n");
    out.push_str("  \"pre_pr_baseline\": {\n");
    out.push_str("    \"description\": \"seed-code CountSimulation (HashMap interning + per-step Protocol::transition + Fenwick add-roundtrip sampling), engine/count_steps/pll/1048576, median of 4 runs\",\n");
    out.push_str(&format!(
        "    \"median_seconds_per_iter\": {PRE_PR_BASELINE_SECS_PER_ITER},\n"
    ));
    out.push_str(&format!(
        "    \"interactions_per_second\": {PRE_PR_BASELINE_INT_PER_SEC}\n"
    ));
    out.push_str("  },\n");
    out.push_str("  \"headline\": {\n");
    out.push_str("    \"step_workload\": {\n");
    out.push_str("      \"case\": \"CountSimulation / Pll / n = 2^20, mid-election steps (engine/count_steps_batch, batch tier)\",\n");
    out.push_str(&engine_metrics_line("step_workload"));
    out.push_str(&format!(
        "      \"interactions_per_second\": {batch_rate},\n"
    ));
    out.push_str(&format!(
        "      \"speedup_vs_pre_pr_baseline\": {:.2},\n",
        batch_rate / PRE_PR_BASELINE_INT_PER_SEC
    ));
    out.push_str(&format!(
        "      \"compiled_tier_interactions_per_second\": {compiled_rate},\n"
    ));
    out.push_str("      \"note\": \"The batch tier processes collision-free Theta(sqrt(n))-length rounds through multivariate hypergeometric draws, so P_LL's ~0.56 null fraction (which keeps the jump scheduler disengaged) no longer matters: per-interaction cost is O((support + sqrt(n))/sqrt(n)) amortized. This clears the PR-2 acceptance target (>= 5x the pre-compiled baseline, i.e. >= 24M int/s) that the compiled and jump tiers had missed twice. State-id compaction also shrinks the sampler tree and pair table to the live support, which is what lifts the state-unbounded lottery onto the fast tiers.\"\n");
    out.push_str("    },\n");
    out.push_str("    \"election_workload\": {\n");
    out.push_str("      \"case\": \"CountSimulation / Fratricide / n = 2^20, whole election (engine/election_jump)\",\n");
    out.push_str(&engine_metrics_line("election_workload"));
    out.push_str(&format!(
        "      \"wall_seconds_per_election\": {election_secs},\n"
    ));
    out.push_str(&format!(
        "      \"simulated_interactions_per_election\": {ELECTION_SIM_INTERACTIONS},\n"
    ));
    out.push_str(&format!(
        "      \"effective_interactions_per_second\": {effective},\n"
    ));
    out.push_str(&format!(
        "      \"speedup_vs_pre_pr_baseline\": {:.0},\n",
        effective / PRE_PR_BASELINE_INT_PER_SEC
    ));
    out.push_str("      \"note\": \"The jump scheduler telescopes the Theta(n^2)-step null tail into O(n) executed episodes; the batch tier covers the dense early phase. Simulated-interaction count is the instrumented per-election mean recorded in PR 3.\"\n");
    out.push_str("    },\n");
    out.push_str("    \"observability_overhead\": {\n");
    out.push_str("      \"case\": \"CountSimulation / Pll / n = 2^20, mid-election steps with an attached-but-idle EngineObserver vs detached (engine/count_steps_obs, batch pinned, adjacent rows)\",\n");
    out.push_str(&engine_metrics_line("observability_overhead"));
    out.push_str(&format!(
        "      \"detached_interactions_per_second\": {obs_detached_rate},\n"
    ));
    out.push_str(&format!(
        "      \"attached_interactions_per_second\": {obs_attached_rate},\n"
    ));
    out.push_str(&format!(
        "      \"attached_over_detached\": {:.4},\n",
        obs_attached_rate / obs_detached_rate
    ));
    out.push_str("      \"note\": \"Observation touches the hot loop only at episode and review boundaries (one branch plus an Instant read when it fires), never per interaction, and consumes no RNG — the attached run's trajectory and snapshot bytes are bit-identical to the detached run's (tests/obs_identity.rs). The CI smoke gate holds the attached row to within 2% of the adjacent detached row. The engine_metrics summary here is the attached run's, so it also carries the event count and the per-tier wall-time timeline the other summaries omit.\"\n");
    out.push_str("    },\n");
    out.push_str("    \"sweep_scaling\": {\n");
    out.push_str(&format!(
        "      \"case\": \"ppsweep fabric / Fratricide / ns = {} x {} seeds, --shards N --spawn, 1 thread per worker, adjacent rows (1-worker baseline first)\",\n",
        scaling.grid, scaling.seeds
    ));
    out.push_str("      \"workers_wall_seconds\": {\n");
    for (i, (workers, wall)) in scaling.rows.iter().enumerate() {
        out.push_str(&format!(
            "        \"{workers}\": {wall}{}\n",
            if i + 1 < scaling.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("      },\n");
    let wall_1 = scaling.rows.first().expect("1-worker row").1;
    let wall_2 = scaling.rows.last().expect("2-worker row").1;
    out.push_str(&format!(
        "      \"speedup_2_workers_vs_1\": {:.2},\n",
        wall_1 / wall_2
    ));
    out.push_str("      \"note\": \"Whole-grid wall clock of the multi-process sweep fabric: the same fratricide grid run sequentially-equivalent through ppsweep --shards N --spawn, workers claiming seed blocks largest-n-first from a shared claim directory and the orchestrator merging shard journals byte-identically to the sequential sweep (enforced by tests/sharded_equivalence.rs and the sharded-equivalence CI job). Rows are adjacent: the 1-worker baseline runs immediately before the 2-worker row on the same machine. On a single-vCPU machine two worker processes time-slice one core and land at wall-clock parity; with two or more cores the adjacent pair shows the speedup, and the sharded-equivalence CI job gates it at >= 1.7x on multi-core runners. What the fabric buys at any core count: crash recovery (stale-claim release + deterministic rerun), live cross-process progress, and shard/process-tagged throughput rollups, at no measured throughput cost versus the sequential sweep.\"\n");
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"groups\": {\n");
    let total = groups.len();
    for (gi, (group, records)) in groups.iter().enumerate() {
        out.push_str(&format!("    \"{group}\": [\n"));
        for (i, r) in records.iter().enumerate() {
            out.push_str("      {\n");
            out.push_str(&format!("        \"name\": \"{}\",\n", r.name));
            if let (Some(n), Some(rate)) = (r.elements_per_iter, r.elements_per_second) {
                out.push_str(&format!(
                    "        \"median_seconds_per_iter\": {},\n",
                    r.median_secs
                ));
                out.push_str(&format!("        \"elements_per_iter\": {n},\n"));
                out.push_str(&format!("        \"elements_per_second\": {rate}\n"));
            } else {
                out.push_str(&format!(
                    "        \"median_seconds_per_iter\": {}\n",
                    r.median_secs
                ));
            }
            out.push_str(if i + 1 < records.len() {
                "      },\n"
            } else {
                "      }\n"
            });
        }
        out.push_str(if gi + 1 < total {
            "    ],\n"
        } else {
            "    ]\n"
        });
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}
