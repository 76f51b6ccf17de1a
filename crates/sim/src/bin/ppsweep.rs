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
//! # rerun the same command: the worker runs the missing seeds of the
//! # blocks it claimed
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
//! table to stdout. The journal, table and stdout bytes are identical
//! whichever mode produced them (the fabric's merge contract; see
//! [`pp_sim::fabric`]). Mode chatter and progress go to stderr only. Every
//! mode hands its threads one seed at a time; a worker journals each seed as
//! it finishes, and the 8-seed block is only the unit it claims.
//!
//! Every `metrics.json` is one [`pp_sim::metrics_document`]: a run's holds
//! the sweep totals and rollups, a worker's `shard_<k>/metrics.json` its
//! shard record and the rollup of the jobs it ran.
//!
//! Exit codes: 0 success; 1 error; 2 worker suspended at `--job-limit`
//! (rerun to resume); 3 merge incomplete (rerun the shard workers, then
//! merge again).

use pp_core::Pll;
use pp_engine::LeaderElection;
use pp_protocols::{BoundedLottery, Fratricide, UnboundedLottery};
use pp_sim::fabric::{
    merge_shards, points_table, run_sequential, run_worker_shard, FabricSpec, ShardManifest,
    MAX_SHARDS,
};
use pp_sim::{SweepPoint, SweepRollup};
use std::path::PathBuf;

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
Writes journal.txt, table.csv and metrics.json under DIR (a worker writes
DIR/shard_K/); every metrics.json is one pp-metrics/v1 document.";

/// Parsed command line.
struct Cli {
    spec: FabricSpec,
    dir: PathBuf,
    mode: Mode,
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
                other => return Err(format!("unknown flag `{other}`")),
            }
        }

        let ns = ns.ok_or("--ns is required")?;
        if ns.is_empty() {
            return Err("--ns must list at least one size".into());
        }
        let dir = dir.ok_or("--dir is required")?;
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
        Ok(Self { spec, dir, mode })
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
            BoundedLottery::for_population(n).expect("n >= 2 by FabricSpec validation")
        }),
        "ulottery" => run(cli, |_| UnboundedLottery),
        "pll" => run(cli, |n| {
            Pll::for_population(n).expect("n >= 2 by FabricSpec validation")
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
    match cli.mode {
        Mode::Sequential => {
            let points = run_sequential(&make, &cli.spec, &cli.dir)?;
            finish(cli, &points)?;
            Ok(0)
        }
        Mode::Worker { shard, job_limit } => {
            let outcome = run_worker_shard(&make, &cli.spec, &cli.dir, shard, job_limit)?;
            let suspended = if outcome.suspended {
                " (suspended at job limit)"
            } else {
                ""
            };
            let fresh = outcome.fresh_jobs;
            eprintln!("ppsweep: shard {shard} journaled {fresh} fresh jobs{suspended}");
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
    finish(cli, &points)?;
    for (manifest, rollups) in &report.manifests {
        eprintln!("{}", shard_line(manifest, rollups));
    }
    Ok(0)
}

/// The merge's stderr line for one shard. The journaled count spans every
/// invocation of the shard's worker; the run count, threads and seconds
/// are its last invocation's alone (`rollups` holds that invocation's
/// fan-outs, none when it found nothing to run).
fn shard_line(manifest: &ShardManifest, rollups: &[SweepRollup]) -> String {
    let ran: u64 = rollups.iter().map(|r| r.jobs).sum();
    let workers = rollups.iter().map(|r| r.workers).max().unwrap_or(0);
    format!(
        "ppsweep: shard {} (pid {}) journaled {} jobs in total; \
         its last invocation ran {ran} on {workers} threads in {:.2}s",
        manifest.shard, manifest.pid, manifest.jobs, manifest.wall_seconds
    )
}

/// The shared tail of every complete mode (the fabric has written the
/// journal and `metrics.json`): write `table.csv` and print the aligned
/// table to stdout. Table and stdout bytes are pure functions of the
/// (bit-identical) points, so sequential and sharded runs conclude with
/// identical output.
fn finish(cli: &Cli, points: &[SweepPoint]) -> std::io::Result<()> {
    let table = points_table(points);
    std::fs::write(cli.dir.join("table.csv"), table.to_csv())?;
    print!("{}", table.to_aligned());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Cli, String> {
        Cli::parse(args.split_whitespace().map(String::from))
    }

    /// Parses and dispatches `args` with `--dir` pointing at a fresh path,
    /// asserts the run is refused as `InvalidInput` without touching that
    /// path, and returns the refusal's message.
    fn refused(args: &str) -> String {
        let dir = std::env::temp_dir().join(format!("ppsweep-refused-{}", std::process::id()));
        let args = format!("{args} --dir {}", dir.display());
        let cli = parse(&args).expect("parses");
        let err = dispatch(&cli).expect_err("out-of-range input must be refused");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{args}: {err}"
        );
        assert!(!dir.exists(), "{args} touched the directory");
        err.to_string()
    }

    #[test]
    fn out_of_range_seeds_and_shards_are_usage_errors() {
        // Seeds and shards used to reach an assert and abort the process; a
        // zero job limit used to exit "suspended" on every rerun. The seed
        // rules are the fabric's own: every mode refuses a bad count with
        // one message before it claims work or writes a file.
        for mode in ["", "--worker 0", "--shards 1 --merge"] {
            assert_eq!(
                refused(&format!("--ns 64 --seeds 4294967296 {mode}")),
                "sweeps support at most 2^32 - 1 seeds per size (got 4294967296)"
            );
            // Zero seeds used to exit 0 with a zero-run row in every mode.
            assert_eq!(
                refused(&format!("--ns 64 --seeds 0 {mode}")),
                "a sweep needs at least one seed per size"
            );
        }
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
        // recovery path, and its flags are unknown. So is --metrics-out:
        // the metrics document is always DIR/metrics.json.
        for flag in [
            "--spawn",
            "--threads-per-worker 1",
            "--retry-rounds 3",
            "--metrics-out m.json",
        ] {
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
        // A population past the engine's bound used to panic the worker
        // after it had claimed a block, so every rerun panicked again. Now
        // every mode refuses it (exit 1) before touching the directory.
        for protocol in ["pll", "fratricide"] {
            for n in ["1", "9223372036854775808", "18446744073709551615"] {
                for mode in ["", "--worker 0", "--shards 1 --merge"] {
                    let msg = refused(&format!(
                        "--protocol {protocol} --ns 64,{n} --seeds 1 {mode}"
                    ));
                    assert!(msg.starts_with("population sizes must be in 2..="), "{msg}");
                }
            }
        }
    }

    #[test]
    fn merge_line_scopes_the_journaled_total_and_the_last_invocation() {
        // A SIGKILLed shard journaled 6 seeds; its rerun ran the other 26.
        let manifest = ShardManifest {
            shard: 0,
            pid: 77,
            fingerprint: 1,
            jobs: 32,
            wall_seconds: 8.734,
            complete: true,
        };
        let rollup = SweepRollup {
            jobs: 26,
            workers: 2,
            wall_seconds: 8.7,
            jobs_per_second: 3.0,
            pid: 77,
            shard: Some(0),
        };
        assert_eq!(
            shard_line(&manifest, &[rollup]),
            "ppsweep: shard 0 (pid 77) journaled 32 jobs in total; \
             its last invocation ran 26 on 2 threads in 8.73s"
        );
        // A last invocation that found nothing to run used no threads.
        assert_eq!(
            shard_line(&manifest, &[]),
            "ppsweep: shard 0 (pid 77) journaled 32 jobs in total; \
             its last invocation ran 0 on 0 threads in 8.73s"
        );
    }
}
