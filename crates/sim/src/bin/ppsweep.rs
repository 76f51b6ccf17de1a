//! `ppsweep` — the sweep fabric CLI: one stabilization-time grid, run
//! sequentially or as worker shards merged afterwards, always producing
//! byte-identical artifacts.
//!
//! ```text
//! # one process, whole grid
//! ppsweep --protocol fratricide --ns 64,128 --seeds 32 --dir out/
//!
//! # worker shards, one live process per shard id, on this box or on any
//! # box sharing the directory; after a kill or a --job-limit suspension,
//! # rerun the same command: the worker takes back its unfinished blocks
//! ppsweep ... --dir out/ --worker 0 &
//! ppsweep ... --dir out/ --worker 1 &
//! wait
//!
//! # merge the shards
//! ppsweep ... --dir out/ --shards 2 --merge
//! ```
//!
//! Every complete mode writes `journal.txt` (the canonical merged journal),
//! `table.csv`, and `metrics.json` under `--dir` and prints the results
//! table to stdout — and those bytes are identical whichever mode produced
//! them (the fabric's merge contract; see [`pp_sim::fabric`]). Mode
//! chatter and progress go to stderr only.
//!
//! Exit codes: 0 success; 1 error; 2 worker suspended at `--job-limit`
//! (rerun to resume); 3 merge incomplete (rerun the shard workers, then
//! merge again).

use pp_core::Pll;
use pp_engine::LeaderElection;
use pp_protocols::{BoundedLottery, Fratricide, UnboundedLottery};
use pp_sim::fabric::{
    merge_shards, points_table, run_sequential, run_worker_shard, shard_dir, FabricSpec, MAX_SHARDS,
};
use pp_sim::{enable_sweep_rollup, take_sweep_rollups, SweepPoint};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let code = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => match dispatch(&cli) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("ppsweep: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("ppsweep: {e}\n\n{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
usage: ppsweep --ns N,N,... --dir DIR [options]
  --protocol NAME     fratricide | blottery | ulottery | pll  (default fratricide)
  --ns N,N,...        population sizes (required)
  --seeds N           runs per size (default 32)
  --master SEED       master seed (default 42)
  --max-steps M       per-run step budget, 0 = unbounded (default 0)
  --dir DIR           fabric run directory (required)
  --worker K          run as worker shard K; rerun it to resume after a kill
  --job-limit J       suspend this worker invocation after ~J >= 1 fresh jobs
  --shards N          shard count for --merge
  --merge             merge shards 0..N-1 without running anything
  --metrics-out FILE  also write the metrics JSON to FILE";

/// Parsed command line.
struct Cli {
    spec: FabricSpec,
    dir: PathBuf,
    mode: Mode,
    metrics_out: Option<PathBuf>,
}

enum Mode {
    Sequential,
    Worker {
        shard: u64,
        job_limit: Option<usize>,
    },
    Merge {
        shards: u64,
    },
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut protocol = "fratricide".to_string();
        let mut ns: Option<Vec<usize>> = None;
        let mut seeds = 32u64;
        let mut master = 42u64;
        let mut max_steps = 0u64;
        let mut dir: Option<PathBuf> = None;
        let mut shards: Option<u64> = None;
        let mut merge = false;
        let mut worker: Option<u64> = None;
        let mut job_limit: Option<usize> = None;
        let mut metrics_out: Option<PathBuf> = None;

        let mut args = args;
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--protocol" => protocol = value("--protocol")?,
                "--ns" => {
                    let list = value("--ns")?;
                    let parsed: Result<Vec<usize>, _> =
                        list.split(',').map(|v| v.trim().parse()).collect();
                    ns = Some(parsed.map_err(|_| format!("bad --ns list `{list}`"))?);
                }
                "--seeds" => seeds = parse_num(&value("--seeds")?, "--seeds")?,
                "--master" => master = parse_num(&value("--master")?, "--master")?,
                "--max-steps" => max_steps = parse_num(&value("--max-steps")?, "--max-steps")?,
                "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
                "--shards" => shards = Some(parse_num(&value("--shards")?, "--shards")?),
                "--merge" => merge = true,
                "--worker" => worker = Some(parse_num(&value("--worker")?, "--worker")?),
                "--job-limit" => {
                    job_limit = Some(parse_num(&value("--job-limit")?, "--job-limit")?);
                }
                "--metrics-out" => metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }

        let ns = ns.ok_or("--ns is required")?;
        if ns.is_empty() {
            return Err("--ns must list at least one size".into());
        }
        let dir = dir.ok_or("--dir is required")?;
        if seeds >= 1 << 32 {
            return Err("--seeds must be below 2^32".into());
        }
        if worker.is_some_and(|k| k >= MAX_SHARDS) {
            return Err(format!("--worker must be below {MAX_SHARDS}"));
        }
        if shards.is_some_and(|k| k == 0 || k > MAX_SHARDS) {
            return Err(format!("--shards must be in 1..={MAX_SHARDS}"));
        }
        // A worker that may run nothing would report suspended forever.
        if job_limit == Some(0) {
            return Err("--job-limit must be at least 1".into());
        }
        let spec = FabricSpec {
            protocol,
            ns,
            seeds,
            master_seed: master,
            max_steps: if max_steps == 0 { u64::MAX } else { max_steps },
            lanes: pp_sim::sweep_lane_width(),
        };
        let mode = match (worker, shards, merge) {
            (Some(shard), None, false) => Mode::Worker { shard, job_limit },
            (None, Some(shards), true) => Mode::Merge { shards },
            (None, None, false) => Mode::Sequential,
            _ => {
                return Err(
                    "pick one mode: default sequential, --worker K, or --shards N --merge".into(),
                );
            }
        };
        Ok(Self {
            spec,
            dir,
            mode,
            metrics_out,
        })
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("bad value `{raw}` for {flag}"))
}

/// Resolves the protocol name and runs the chosen mode with a concrete
/// `make` closure (monomorphized per protocol, like the experiments).
fn dispatch(cli: &Cli) -> std::io::Result<i32> {
    match cli.spec.protocol.as_str() {
        "fratricide" => run(cli, |_| Fratricide),
        "blottery" => run(cli, |n| {
            BoundedLottery::for_population(n).expect("n >= 2 by CLI validation")
        }),
        "ulottery" => run(cli, |_| UnboundedLottery),
        "pll" => run(cli, |n| {
            Pll::for_population(n).expect("n >= 2 by CLI validation")
        }),
        other => {
            eprintln!(
                "ppsweep: unknown protocol `{other}` (fratricide | blottery | ulottery | pll)"
            );
            Ok(1)
        }
    }
}

fn run<P, F>(cli: &Cli, make: F) -> std::io::Result<i32>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    if cli.spec.ns.iter().any(|&n| n < 2) {
        eprintln!("ppsweep: every population size must be >= 2");
        return Ok(1);
    }
    match cli.mode {
        Mode::Sequential => {
            enable_sweep_rollup();
            let started = Instant::now();
            let points = run_sequential(&make, &cli.spec, &cli.dir)?;
            let wall_seconds = Some(started.elapsed().as_secs_f64());
            let metrics = metrics_json(&cli.spec, 0, wall_seconds, &rollup_lines());
            finish(cli, &points, &metrics)?;
            Ok(0)
        }
        Mode::Worker { shard, job_limit } => {
            enable_sweep_rollup();
            let outcome = run_worker_shard(&make, &cli.spec, &cli.dir, shard, job_limit)?;
            // Per-shard metrics land in the shard dir; --merge folds them
            // into the run-level metrics.json.
            let metrics = format!("{{\"rollups\":[{}]}}\n", rollup_lines().join(","));
            std::fs::write(shard_dir(&cli.dir, shard).join("metrics.json"), metrics)?;
            eprintln!(
                "ppsweep: shard {shard} journaled {} fresh jobs{}",
                outcome.fresh_jobs,
                if outcome.suspended {
                    " (suspended at job limit)"
                } else {
                    ""
                }
            );
            Ok(if outcome.suspended { 2 } else { 0 })
        }
        Mode::Merge { shards } => merge(cli, shards),
    }
}

/// Merges the shards, writes the merged artifacts and prints the results
/// table; exit code 3 when jobs are still missing.
fn merge(cli: &Cli, shards: u64) -> std::io::Result<i32> {
    let report = merge_shards(&cli.spec, &cli.dir, shards)?;
    let Some(points) = report.points else {
        eprintln!(
            "ppsweep: merge incomplete, {} jobs missing across {shards} shards; \
             rerun the shard workers (--worker K), then merge again",
            report.missing
        );
        return Ok(3);
    };
    // Fold the shard-level rollups (each tagged with pid + shard) into the
    // run-level metrics: per-process fan-outs plus the cross-process
    // aggregate a single process could never report.
    let mut rollups = Vec::new();
    for shard in 0..shards {
        if let Ok(text) = std::fs::read_to_string(shard_dir(&cli.dir, shard).join("metrics.json")) {
            if let Some(inner) = text
                .find('[')
                .and_then(|a| text.rfind(']').map(|b| &text[a + 1..b]))
            {
                if !inner.trim().is_empty() {
                    rollups.push(inner.trim().to_string());
                }
            }
        }
    }
    // A merge does not time the sweep: each shard's manifest holds its own
    // wall time.
    let metrics = metrics_json(&cli.spec, shards, None, &rollups);
    finish(cli, &points, &metrics)?;
    for manifest in &report.manifests {
        eprintln!(
            "ppsweep: shard {} (pid {}) ran {} jobs on {} threads in {:.2}s",
            manifest.shard, manifest.pid, manifest.jobs, manifest.threads, manifest.wall_seconds
        );
    }
    Ok(0)
}

/// Run-level metrics JSON: the cross-process aggregate plus every
/// collected rollup line. `wall_seconds` is the sweep's when this process
/// ran it, and `None` (`null` time and rate) for a merge.
fn metrics_json(
    spec: &FabricSpec,
    shards: u64,
    wall_seconds: Option<f64>,
    rollups: &[String],
) -> String {
    let jobs = spec.total_jobs();
    let (wall_seconds, rate) = match wall_seconds {
        Some(secs) if secs > 0.0 => (secs.to_string(), (jobs as f64 / secs).to_string()),
        Some(secs) => (secs.to_string(), "0".to_string()),
        None => ("null".to_string(), "null".to_string()),
    };
    format!(
        "{{\"schema\":\"pp-sweep-metrics/v1\",\"aggregate\":{{\"jobs\":{jobs},\
         \"shards\":{shards},\"wall_seconds\":{wall_seconds},\
         \"jobs_per_second\":{rate}}},\"rollups\":[{}]}}\n",
        rollups.join(",")
    )
}

fn rollup_lines() -> Vec<String> {
    take_sweep_rollups().iter().map(|r| r.to_json()).collect()
}

/// The shared tail of every complete mode: write `table.csv` and
/// `metrics.json`, print the aligned table to stdout. Table and stdout
/// bytes are pure functions of the (bit-identical) points, so sequential
/// and sharded runs conclude with identical output.
fn finish(cli: &Cli, points: &[SweepPoint], metrics: &str) -> std::io::Result<()> {
    let table = points_table(points);
    std::fs::write(cli.dir.join("table.csv"), table.to_csv())?;
    std::fs::write(cli.dir.join("metrics.json"), metrics)?;
    if let Some(out) = &cli.metrics_out {
        std::fs::write(out, metrics)?;
    }
    print!("{}", table.to_aligned());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Cli, String> {
        Cli::parse(args.split_whitespace().map(String::from))
    }

    #[test]
    fn out_of_range_seeds_and_shards_are_usage_errors() {
        // Seeds and shards used to reach an assert and abort the process; a
        // zero job limit used to exit "suspended" on every rerun.
        let err = parse("--ns 64 --dir d --seeds 4294967296").err();
        assert_eq!(err.as_deref(), Some("--seeds must be below 2^32"));
        assert!(parse("--ns 64 --dir d --seeds 4294967295").is_ok());
        let err = parse("--ns 64 --dir d --worker 5000").err();
        assert_eq!(err, Some(format!("--worker must be below {MAX_SHARDS}")));
        let last = format!("--ns 64 --dir d --worker {}", MAX_SHARDS - 1);
        assert!(matches!(
            parse(&last).map(|c| c.mode),
            Ok(Mode::Worker { .. })
        ));
        let err = parse("--ns 64 --dir d --shards 5000 --merge").err();
        assert_eq!(err, Some(format!("--shards must be in 1..={MAX_SHARDS}")));
        // The local orchestrator is gone: rerunning a worker is the one
        // recovery path, and its flags are unknown.
        for flag in ["--spawn", "--threads-per-worker 1", "--retry-rounds 3"] {
            let err = parse(&format!("--ns 64 --dir d --shards 2 {flag}")).err();
            let name = flag.split(' ').next().unwrap();
            assert_eq!(err, Some(format!("unknown flag `{name}`")));
        }
        let err = parse("--ns 64 --dir d --shards 2").err();
        assert_eq!(
            err.as_deref(),
            Some("pick one mode: default sequential, --worker K, or --shards N --merge")
        );
        let err = parse("--ns 64 --dir d --worker 0 --job-limit 0").err();
        assert_eq!(err.as_deref(), Some("--job-limit must be at least 1"));
        assert!(parse("--ns 64 --dir d --worker 0 --job-limit 1").is_ok());
    }
}
