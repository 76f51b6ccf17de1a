//! CLI driving the paper's experiment suite.
//!
//! ```text
//! experiments list                 # show available experiment ids
//! experiments table1               # run one experiment (publication scale)
//! experiments all --quick          # smoke-run everything
//! experiments theorem1 --csv DIR   # also write CSV files into DIR
//!
//! # observability: trajectory CSV, unified metrics JSON, event log
//! experiments --quick --trajectory 256 --csv DIR \
//!             --metrics-out metrics.json --events-out events.jsonl
//! ```
//!
//! A sweep that must survive being killed runs through `ppsweep`, whose
//! worker shards journal every finished block; rerunning a killed worker
//! resumes it.

use pp_sim::{
    enable_sweep_rollup, observed_pll_election, pll_attribution_trajectory, run_experiment,
    take_sweep_rollups, ExperimentOutput, EXPERIMENT_IDS,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    quick: bool,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    trajectory: Option<u64>,
}

impl Args {
    /// Whether any observability output was requested; these work with or
    /// without experiment ids.
    fn wants_observability(&self) -> bool {
        self.metrics_out.is_some() || self.events_out.is_some() || self.trajectory.is_some()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut quick = false;
    let mut csv_dir = None;
    let mut metrics_out = None;
    let mut events_out = None;
    let mut trajectory = None;
    let mut argv = std::env::args().skip(1);
    let path_arg = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} requires a path argument"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv_dir = Some(path_arg(&mut argv, "--csv")?),
            "--metrics-out" => metrics_out = Some(path_arg(&mut argv, "--metrics-out")?),
            "--events-out" => events_out = Some(path_arg(&mut argv, "--events-out")?),
            "--trajectory" => {
                let k = argv
                    .next()
                    .ok_or_else(|| "--trajectory requires a sampling stride".to_string())?;
                let k: u64 = k
                    .parse()
                    .map_err(|_| format!("invalid sampling stride `{k}`"))?;
                if k == 0 {
                    return Err("--trajectory stride must be positive".to_string());
                }
                trajectory = Some(k);
            }
            "--help" | "-h" => {
                ids.push("help".to_string());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            id => ids.push(id.to_string()),
        }
    }
    // A pure observability invocation (`--trajectory`/`--metrics-out`/
    // `--events-out` with no ids) runs the capture alone instead of
    // printing help.
    if ids.is_empty() && metrics_out.is_none() && events_out.is_none() && trajectory.is_none() {
        ids.push("help".to_string());
    }
    Ok(Args {
        ids,
        quick,
        csv_dir,
        metrics_out,
        events_out,
        trajectory,
    })
}

fn print_help() {
    println!("Usage: experiments <id>... [--quick] [--csv DIR]");
    println!("                   [--trajectory K] [--metrics-out FILE] [--events-out FILE]");
    println!();
    println!("Reproduces the tables and key lemmas of Sudo et al. (PODC 2019).");
    println!();
    println!("ids:");
    println!("  all        run every experiment");
    println!("  list       list experiment ids");
    for id in EXPERIMENT_IDS {
        println!("  {id}");
    }
    println!();
    println!("flags:");
    println!("  --quick                 smoke-test scale (seconds instead of minutes)");
    println!("  --csv DIR               also write each table as CSV into DIR");
    println!("  --trajectory K          capture a P_LL election trajectory sampled every K");
    println!("                          interactions (leader count + per-mechanism demotion");
    println!("                          attribution) as CSV into --csv DIR, else to stdout");
    println!("  --metrics-out FILE      write a unified metrics JSON: the observed election's");
    println!("                          EngineMetrics, the trajectory summary, and per-sweep");
    println!("                          throughput rollups of any experiments run");
    println!("  --events-out FILE       write the observed election's structured event log");
    println!("                          as JSONL (schema documented in pp_engine::obs)");
    println!();
    println!("Sweeps that must survive a kill run through `ppsweep --worker K`, which journals");
    println!("each finished block; rerun the same command to resume after a kill.");
}

fn write_csvs(output: &ExperimentOutput, dir: &PathBuf) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (i, (name, table)) in output.tables.iter().enumerate() {
        let slug: String = name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{}_{i}_{slug}.csv", output.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(table.to_csv().as_bytes())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Runs the observability capture: a deterministic `P_LL` election
/// trajectory with per-mechanism demotion attribution (`--trajectory`),
/// the count engine's unified metrics (`--metrics-out`), and its
/// structured event log (`--events-out`).
fn run_observability(args: &Args) -> std::io::Result<()> {
    // Large enough for the batch tier (n >= 4096) so the event log actually
    // exercises tier transitions; both captures finish in milliseconds.
    let n = if args.quick { 4096 } else { 16384 };
    let every = args.trajectory.unwrap_or(n as u64);
    const SEED: u64 = 0xB10C;

    let observed = observed_pll_election(n, SEED, every, u64::MAX);
    eprintln!(
        "[obs] P_LL n={n}: count engine stabilized in {} steps ({} events)",
        observed.outcome.steps, observed.metrics.events_recorded
    );

    let trajectory = args.trajectory.map(|k| {
        let report = pll_attribution_trajectory(n, SEED, k, u64::MAX);
        eprintln!(
            "[obs] P_LL n={n}: agent engine stabilized in {} steps, {} demotions attributed",
            report.outcome.steps,
            report.tally.total()
        );
        report
    });

    if let Some(report) = &trajectory {
        let csv = report.to_table().to_csv();
        if let Some(dir) = &args.csv_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join("trajectory_pll_attribution.csv");
            std::fs::write(&path, &csv)?;
            eprintln!("wrote {}", path.display());
        } else {
            print!("{csv}");
        }
    }

    if let Some(path) = &args.events_out {
        std::fs::write(path, &observed.events_jsonl)?;
        eprintln!("wrote {}", path.display());
    }

    if let Some(path) = &args.metrics_out {
        let trajectory_json = trajectory.as_ref().map_or("null".to_string(), |report| {
            format!(
                "{{\"n\":{},\"every\":{},\"steps\":{},\"converged\":{},\
                 \"final_leaders\":{},\"rows\":{}}}",
                report.n,
                report.every,
                report.outcome.steps,
                report.outcome.converged,
                report.final_leaders,
                report.trace.len()
            )
        });
        let sweeps: Vec<String> = take_sweep_rollups().iter().map(|r| r.to_json()).collect();
        let json = format!(
            "{{\"schema\":\"pp-sim-metrics/v1\",\"engine\":{},\
             \"trajectory\":{trajectory_json},\"sweeps\":[{}]}}\n",
            observed.metrics.to_json(),
            sweeps.join(",")
        );
        std::fs::write(path, json)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ids: Vec<String> = Vec::new();
    for id in &args.ids {
        match id.as_str() {
            "help" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            "list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(EXPERIMENT_IDS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }

    // Collect per-sweep throughput rollups for the metrics report while the
    // experiments below fan out.
    if args.metrics_out.is_some() {
        enable_sweep_rollup();
    }

    for id in &ids {
        let started = std::time::Instant::now();
        match run_experiment(id, args.quick) {
            Ok(output) => {
                println!("{}", output.to_markdown());
                eprintln!(
                    "[{}] finished in {:.1}s{}",
                    id,
                    started.elapsed().as_secs_f64(),
                    if args.quick { " (quick mode)" } else { "" }
                );
                if let Some(dir) = &args.csv_dir {
                    if let Err(e) = write_csvs(&output, dir) {
                        eprintln!("error writing CSVs: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("run `experiments list` for available ids");
                return ExitCode::FAILURE;
            }
        }
    }

    if args.wants_observability() {
        if let Err(e) = run_observability(&args) {
            eprintln!("error writing observability outputs: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
