//! End-to-end and per-layer benchmark of the population-protocol simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the metric names and units are checked
//! against `BENCHMARK.json` there, whose command also wraps this in
//! `setarch -R` so that address-space randomization does not move the
//! timings from one process to the next. Each run measures one workload —
//! a fixed amount of work for the two P_LL workloads, grid passes for about
//! `--seconds` seconds for the sweep — prints a human-readable report, and
//! ends with one
//! JSON line: `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! measures the end-to-end metrics with no observation attached;
//! `--trace 1` measures the per-layer metrics instead (see `spec::LAYER_MAP`
//! for the end-to-end metric each one should move).
//!
//! Every operation's output is checked: elections converge to exactly one
//! leader, budgeted runs keep all `n` agents and stop exactly at the
//! budget, sweep points have no unconverged runs, and the P_LL election
//! median stays in the fast mode. A traced run also checks that the traced
//! twin of each operation reproduced the untraced one exactly, and prints
//! the accounting residuals (tier timeline against wall time, the four
//! sweeps against the whole grid) with their tolerances.

mod probe;
mod report;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Sweep worker threads: the machine's cores, at most two, so the grid's
/// wall time means the same on larger machines.
const MAX_SWEEP_THREADS: usize = 2;

fn parse(args: &[String]) -> Result<(String, workloads::Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        workloads::Args {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            traced: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match spec::Spec::load(std::path::Path::new(".")) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    if spec.workloads.iter().all(|w| *w != name) {
        eprintln!("perfbench: workload `{name}` is not declared in BENCHMARK.json");
        return ExitCode::from(2);
    }
    // Pin the sweep knobs the library reads from the environment, before
    // any thread starts.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = cores.min(MAX_SWEEP_THREADS);
    std::env::set_var("PP_SIM_THREADS", threads.to_string());
    std::env::set_var("PP_SIM_PROGRESS", "0");
    std::env::remove_var("PP_SIM_LANES");
    std::env::remove_var("PP_SIM_LAW");
    println!(
        "perfbench {name}: seed {}, {} s, trace {}, {cores} cores, {threads} sweep threads",
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );

    let report = match workloads::run(&name, args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = report.conforms(&spec, args.traced) {
        eprintln!("perfbench: metrics do not match BENCHMARK.json: {e}");
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        let targets = spec::LAYER_MAP
            .iter()
            .find(|(layer, _)| *layer == m.name)
            .map_or(String::new(), |(_, targets)| {
                let moves: Vec<String> = targets.iter().map(|(e, w)| format!("{e}@{w}")).collect();
                format!(
                    "  → {}",
                    if moves.is_empty() {
                        "none".into()
                    } else {
                        moves.join(", ")
                    }
                )
            });
        println!("  {:<30} {:>18.6} {:<6}{targets}", m.name, m.value, m.unit);
    }
    println!(
        "{} of {} checked operations failed",
        report.failed, report.attempted
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
