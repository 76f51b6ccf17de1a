//! `ppsweep` — the sweep fabric CLI: one stabilization-time grid, run
//! sequentially, as one worker shard of many, or as a local multi-process
//! orchestration, always producing byte-identical artifacts.
//!
//! ```text
//! # one process, whole grid
//! ppsweep --protocol fratricide --ns 64,128 --seeds 32 --dir out/
//!
//! # same grid across 4 local worker processes, merged on completion
//! ppsweep --protocol fratricide --ns 64,128 --seeds 32 --dir out/ --shards 4 --spawn
//!
//! # one worker shard (what --spawn launches; runnable by hand on any box
//! # sharing the directory)
//! ppsweep ... --dir out/ --worker 2
//!
//! # merge shards that ran elsewhere (manifest-driven multi-box mode)
//! ppsweep ... --dir out/ --shards 4 --merge
//! ```
//!
//! Every complete mode writes `journal.txt` (the canonical merged journal),
//! `table.csv`, and `metrics.json` under `--dir` and prints the results
//! table to stdout — and those bytes are identical whichever mode produced
//! them (the fabric's merge contract; see [`pp_sim::fabric`]). Mode
//! chatter, progress, and retry diagnostics go to stderr only.
//!
//! Exit codes: 0 success; 1 error; 2 worker suspended at `--job-limit`
//! (rerun to resume); 3 merge incomplete (jobs still missing).

use pp_core::Pll;
use pp_engine::LeaderElection;
use pp_protocols::{BoundedLottery, Fratricide, UnboundedLottery};
use pp_sim::fabric::{
    aggregate_progress, clean_stale_claims, merge_shards, points_table, run_sequential,
    run_worker_shard, shard_dir, FabricSpec, MergeReport, MAX_SHARDS,
};
use pp_sim::{enable_sweep_rollup, take_sweep_rollups, SweepPoint};
use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
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
  --shards N          shard count for --spawn / --merge
  --spawn             orchestrate: launch N local workers, monitor, merge
  --threads-per-worker T  PP_SIM_THREADS for spawned workers (default 1)
  --retry-rounds R    crash-recovery relaunch rounds (default 3)
  --worker K          run as worker shard K
  --job-limit J       suspend this worker invocation after ~J fresh jobs
  --merge             merge existing shard dirs without running anything
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
    Orchestrate {
        shards: u64,
        threads_per_worker: usize,
        retry_rounds: usize,
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
        let mut spawn = false;
        let mut merge = false;
        let mut worker: Option<u64> = None;
        let mut job_limit: Option<usize> = None;
        let mut threads_per_worker = 1usize;
        let mut retry_rounds = 3usize;
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
                "--spawn" => spawn = true,
                "--merge" => merge = true,
                "--worker" => worker = Some(parse_num(&value("--worker")?, "--worker")?),
                "--job-limit" => {
                    job_limit = Some(parse_num(&value("--job-limit")?, "--job-limit")?);
                }
                "--threads-per-worker" => {
                    threads_per_worker =
                        parse_num(&value("--threads-per-worker")?, "--threads-per-worker")?;
                }
                "--retry-rounds" => {
                    retry_rounds = parse_num(&value("--retry-rounds")?, "--retry-rounds")?;
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
        let spec = FabricSpec {
            protocol,
            ns,
            seeds,
            master_seed: master,
            max_steps: if max_steps == 0 { u64::MAX } else { max_steps },
            lanes: pp_sim::sweep_lane_width(),
        };
        let mode = match (worker, shards, spawn, merge) {
            (Some(shard), None, false, false) => Mode::Worker { shard, job_limit },
            (None, Some(shards), true, false) => Mode::Orchestrate {
                shards,
                threads_per_worker: threads_per_worker.max(1),
                retry_rounds,
            },
            (None, Some(shards), false, true) => Mode::Merge { shards },
            (None, None, false, false) => Mode::Sequential,
            _ => {
                return Err(
                    "pick one mode: default sequential, --worker K, --shards N --spawn, \
                     or --shards N --merge"
                        .into(),
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
            let metrics = metrics_json(
                &cli.spec,
                0,
                started.elapsed().as_secs_f64(),
                &rollup_lines(),
            );
            finish(cli, &points, &metrics)?;
            Ok(0)
        }
        Mode::Worker { shard, job_limit } => {
            enable_sweep_rollup();
            let outcome = run_worker_shard(&make, &cli.spec, &cli.dir, shard, job_limit)?;
            // Per-shard metrics land in the shard dir; the orchestrator (or
            // a later --merge) folds them into the run-level metrics.json.
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
        Mode::Orchestrate {
            shards,
            threads_per_worker,
            retry_rounds,
        } => orchestrate(cli, shards, threads_per_worker, retry_rounds),
        Mode::Merge { shards } => {
            let started = Instant::now();
            let report = merge_shards(&cli.spec, &cli.dir, shards)?;
            conclude_merge(cli, shards, started, report)
        }
    }
}

/// Launches `shards` local worker processes over the run directory,
/// streams one aggregate progress line, survives worker crashes by
/// releasing their stale claims and relaunching, and merges on completion.
fn orchestrate(
    cli: &Cli,
    shards: u64,
    threads_per_worker: usize,
    retry_rounds: usize,
) -> std::io::Result<i32> {
    let started = Instant::now();
    std::fs::create_dir_all(&cli.dir)?;
    let exe = std::env::current_exe()?;
    for round in 0..=retry_rounds {
        if round > 0 {
            let released = clean_stale_claims(&cli.spec, &cli.dir, shards)?;
            eprintln!(
                "ppsweep: retry round {round}/{retry_rounds}: released {released} stale claims"
            );
        }
        let mut children = Vec::new();
        for shard in 0..shards {
            children.push(spawn_worker(&exe, cli, shard, threads_per_worker)?);
        }
        wait_with_progress(&cli.dir, shards, &mut children);
        let report = merge_shards(&cli.spec, &cli.dir, shards)?;
        if report.points.is_some() {
            return conclude_merge(cli, shards, started, report);
        }
        eprintln!(
            "ppsweep: {} jobs missing after round {round} (a worker died); retrying",
            report.missing
        );
    }
    eprintln!("ppsweep: jobs still missing after {retry_rounds} retry rounds");
    Ok(3)
}

fn spawn_worker(
    exe: &Path,
    cli: &Cli,
    shard: u64,
    threads_per_worker: usize,
) -> std::io::Result<std::process::Child> {
    let spec = &cli.spec;
    let ns = spec
        .ns
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let max_steps = if spec.max_steps == u64::MAX {
        0
    } else {
        spec.max_steps
    };
    Command::new(exe)
        .arg("--worker")
        .arg(shard.to_string())
        .arg("--protocol")
        .arg(&spec.protocol)
        .arg("--ns")
        .arg(ns)
        .arg("--seeds")
        .arg(spec.seeds.to_string())
        .arg("--master")
        .arg(spec.master_seed.to_string())
        .arg("--max-steps")
        .arg(max_steps.to_string())
        .arg("--dir")
        .arg(&cli.dir)
        // Workers must not repaint their own progress lines over ours, and
        // threads-per-worker × shards is the run's total thread budget.
        .env("PP_SIM_PROGRESS", "0")
        .env("PP_SIM_THREADS", threads_per_worker.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

/// Waits for every child, repainting one aggregate progress line on the
/// terminal (suppressed exactly like `parallel_map`'s own line: piped
/// stderr or `PP_SIM_PROGRESS=0`).
fn wait_with_progress(dir: &Path, shards: u64, children: &mut [std::process::Child]) {
    let show = std::io::stderr().is_terminal()
        && std::env::var("PP_SIM_PROGRESS").map_or(true, |v| v != "0");
    loop {
        let all_exited = children
            .iter_mut()
            .all(|child| matches!(child.try_wait(), Ok(Some(_))));
        if show {
            let (done, total) = aggregate_progress(dir, shards);
            eprint!("\r  fabric: {done}/{total} jobs done across {shards} shards");
            use std::io::Write as _;
            let _ = std::io::stderr().flush();
        }
        if all_exited {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    if show {
        eprint!("\r{:64}\r", "");
    }
}

/// Writes the merged artifacts and prints the results table; exit code 3
/// when jobs are still missing (multi-box merges of unfinished runs).
fn conclude_merge(
    cli: &Cli,
    shards: u64,
    started: Instant,
    report: MergeReport,
) -> std::io::Result<i32> {
    let Some(points) = report.points else {
        eprintln!(
            "ppsweep: merge incomplete, {} jobs missing across {shards} shards",
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
    let metrics = metrics_json(&cli.spec, shards, started.elapsed().as_secs_f64(), &rollups);
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
/// collected rollup line.
fn metrics_json(spec: &FabricSpec, shards: u64, wall_seconds: f64, rollups: &[String]) -> String {
    let jobs = spec.total_jobs();
    let rate = if wall_seconds > 0.0 {
        jobs as f64 / wall_seconds
    } else {
        0.0
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
        // Both used to reach an assert and abort the process.
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
        for mode in ["--spawn", "--merge"] {
            let err = parse(&format!("--ns 64 --dir d --shards 5000 {mode}")).err();
            assert_eq!(err, Some(format!("--shards must be in 1..={MAX_SHARDS}")));
        }
    }
}
