//! **Table 1** — leader-election protocols: states per agent vs. expected
//! stabilization time.
//!
//! The paper's Table 1 is an asymptotic comparison across eight papers. We
//! reproduce its *shape* with the three implemented corners of the
//! trade-off space (see `DESIGN.md` for the substitution rationale):
//!
//! | protocol | states | time (paper) |
//! |---|---|---|
//! | Fratricide \[Ang+06\] | `O(1)` | `O(n)` |
//! | UnboundedLottery [MST18-like] | `O(n)` | `O(log n)` |
//! | `P_LL` (this work) | `O(log n)` | `O(log n)` |
//!
//! Measured: mean parallel stabilization time (± 95% CI) and distinct states
//! visited per execution, across a dyadic sweep of `n`; plus fitted
//! power-law exponents that separate `Θ(n)` from `O(log n)` scaling.

use super::{f1, f3, mean_ci};
use crate::{
    parallel_map, stabilization_sweep, stabilization_sweep_checkpointed, ExperimentCheckpoint,
    ExperimentOutput, SweepPoint, SweepStatus,
};
use pp_core::Pll;
use pp_engine::{CountSimulation, LeaderElection, SnapshotState};
use pp_protocols::{BoundedLottery, Fratricide, UnboundedLottery};
use pp_rand::Xoshiro256PlusPlus;
use pp_stats::{fit_power_law, Summary, Table};

fn distinct_states<P, F>(make: F, ns: &[usize], seeds: u64, master: u64) -> Vec<Summary>
where
    P: pp_engine::LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let jobs = crate::runner::sweep_jobs(ns, seeds, master);
    let outcomes = parallel_map(&jobs, |&(n, seed)| {
        let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut sim = CountSimulation::new(make(n), n, rng).expect("n >= 2");
        sim.run_until_single_leader(u64::MAX);
        sim.distinct_states_seen() as f64
    });
    // Aggregate by contiguous job range (mirrors `aggregate_points`): repeated
    // entries in `ns` stay independent instead of double-counting.
    ns.iter()
        .enumerate()
        .map(|(ni, _)| {
            outcomes[ni * seeds as usize..(ni + 1) * seeds as usize]
                .iter()
                .copied()
                .collect()
        })
        .collect()
}

/// Runs one of Table 1's four stabilization sweeps, either plainly or
/// through the experiment's checkpoint context (labeled subdirectory,
/// shared fresh-job budget). `Ok(None)` means the budget ran out.
fn sweep_step<P, F>(
    ckpt: &mut Option<&mut ExperimentCheckpoint>,
    label: &str,
    make: F,
    ns: &[usize],
    seeds: u64,
    master: u64,
) -> std::io::Result<Option<Vec<SweepPoint>>>
where
    P: LeaderElection,
    P::State: SnapshotState,
    F: Fn(usize) -> P + Sync,
{
    match ckpt {
        None => Ok(Some(stabilization_sweep(make, ns, seeds, master, u64::MAX))),
        Some(cx) => {
            let config = cx.sweep_config(label);
            match stabilization_sweep_checkpointed(make, ns, seeds, master, u64::MAX, &config)? {
                SweepStatus::Complete { points, fresh_jobs } => {
                    cx.consume(fresh_jobs);
                    Ok(Some(points))
                }
                SweepStatus::Suspended { .. } => Ok(None),
            }
        }
    }
}

/// Runs the Table 1 reproduction.
pub fn run(quick: bool) -> ExperimentOutput {
    run_impl(quick, None)
        .expect("uncheckpointed table1 does no checkpoint I/O")
        .expect("uncheckpointed table1 never suspends")
}

/// [`run`] with crash-recoverable sweeps: each of the four stabilization
/// sweeps journals per-job results under its own subdirectory of the
/// checkpoint context. `Ok(None)` means the context's fresh-job budget was
/// exhausted with sweep jobs still pending — rerun with the same directory
/// to continue. A resumed run's output is byte-identical to an
/// uninterrupted one (the distinct-states measurements are cheap and
/// deterministic, so they rerun uncheckpointed every invocation).
///
/// # Errors
///
/// Journal / snapshot I/O failures, including a checkpoint directory whose
/// journals were written by a different sweep configuration.
pub fn run_checkpointed(
    quick: bool,
    ckpt: &mut ExperimentCheckpoint,
) -> std::io::Result<Option<ExperimentOutput>> {
    run_impl(quick, Some(ckpt))
}

fn run_impl(
    quick: bool,
    mut ckpt: Option<&mut ExperimentCheckpoint>,
) -> std::io::Result<Option<ExperimentOutput>> {
    let ns: Vec<usize> = if quick {
        vec![64, 128, 256]
    } else {
        vec![256, 512, 1024, 2048, 4096, 8192]
    };
    let seeds = if quick { 5 } else { 30 };
    let state_seeds = if quick { 2 } else { 5 };

    let Some(frat) = sweep_step(&mut ckpt, "frat", |_| Fratricide, &ns, seeds, 1)? else {
        return Ok(None);
    };
    let Some(blottery) = sweep_step(
        &mut ckpt,
        "blottery",
        |n| BoundedLottery::for_population(n).expect("n >= 2"),
        &ns,
        seeds,
        4,
    )?
    else {
        return Ok(None);
    };
    let Some(lottery) = sweep_step(&mut ckpt, "lottery", |_| UnboundedLottery, &ns, seeds, 2)?
    else {
        return Ok(None);
    };
    let Some(pll) = sweep_step(
        &mut ckpt,
        "pll",
        |n| Pll::for_population(n).expect("n >= 2"),
        &ns,
        seeds,
        3,
    )?
    else {
        return Ok(None);
    };

    let frat_states = distinct_states(|_| Fratricide, &ns, state_seeds, 10);
    let blottery_states = distinct_states(
        |n| BoundedLottery::for_population(n).expect("n >= 2"),
        &ns,
        state_seeds,
        13,
    );
    let lottery_states = distinct_states(|_| UnboundedLottery, &ns, state_seeds, 11);
    let pll_states = distinct_states(
        |n| Pll::for_population(n).expect("n >= 2"),
        &ns,
        state_seeds,
        12,
    );

    let mut main = Table::new([
        "n",
        "Fratricide time",
        "BLottery time",
        "ULottery time",
        "P_LL time",
        "Frat states",
        "BLottery states",
        "ULottery states",
        "P_LL states",
    ]);
    for (i, &n) in ns.iter().enumerate() {
        main.push_row([
            n.to_string(),
            mean_ci(&frat[i].times),
            mean_ci(&blottery[i].times),
            mean_ci(&lottery[i].times),
            mean_ci(&pll[i].times),
            f1(frat_states[i].mean()),
            f1(blottery_states[i].mean()),
            f1(lottery_states[i].mean()),
            f1(pll_states[i].mean()),
        ]);
    }

    // Scaling fits: exponent of T(n) ~ n^e.
    let exponent = |points: &[crate::SweepPoint]| -> f64 {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.n as f64, p.times.mean()))
            .collect();
        fit_power_law(&pts).slope
    };
    let sexponent = |summaries: &[Summary]| -> f64 {
        let pts: Vec<(f64, f64)> = ns
            .iter()
            .zip(summaries)
            .map(|(&n, s)| (n as f64, s.mean().max(1.0)))
            .collect();
        fit_power_law(&pts).slope
    };

    let mut fits = Table::new([
        "protocol",
        "paper states",
        "paper time",
        "time exponent",
        "states exponent",
    ]);
    fits.push_row([
        "Fratricide [Ang+06]".to_string(),
        "O(1)".to_string(),
        "O(n)".to_string(),
        f3(exponent(&frat)),
        f3(sexponent(&frat_states)),
    ]);
    fits.push_row([
        "BoundedLottery [Ali+17-like]".to_string(),
        "O(log n)".to_string(),
        "lottery O(log n) + Θ(n) tie tail".to_string(),
        f3(exponent(&blottery)),
        f3(sexponent(&blottery_states)),
    ]);
    fits.push_row([
        "UnboundedLottery [MST18-like]".to_string(),
        "O(n)".to_string(),
        "O(log n)".to_string(),
        f3(exponent(&lottery)),
        f3(sexponent(&lottery_states)),
    ]);
    fits.push_row([
        "P_LL (this work)".to_string(),
        "O(log n)".to_string(),
        "O(log n)".to_string(),
        f3(exponent(&pll)),
        f3(sexponent(&pll_states)),
    ]);

    // Jump-scale sweep: population sizes two orders of magnitude beyond the
    // main table, reachable only because the count engine's jump scheduler
    // telescopes the Θ(n²)-step null tail of fratricide into O(n) episodes
    // (≈10^16 simulated interactions per 2^30 run, seconds of wall clock).
    let mut tables = vec![
        ("measured sweep".to_string(), main),
        ("scaling fits vs paper claims".to_string(), fits),
    ];
    if !quick {
        let big_ns: Vec<usize> = vec![1 << 26, 1 << 28, 1 << 30];
        let big_seeds = 3;
        let big = stabilization_sweep(|_| Fratricide, &big_ns, big_seeds, 5, u64::MAX);
        let mut jump_table = Table::new(["n", "Fratricide time", "unconverged", "steps ~ n·time"]);
        for p in &big {
            jump_table.push_row([
                p.n.to_string(),
                mean_ci(&p.times),
                p.unconverged.to_string(),
                format!("{:.2e}", p.times.mean() * p.n as f64),
            ]);
        }
        tables.push((
            "jump-scale sweep (count engine + jump scheduler)".to_string(),
            jump_table,
        ));
    }

    let notes = vec![
        "Time exponents near 1 indicate Θ(n) scaling (paper: [Ang+06]); near 0 indicates \
         poly-logarithmic scaling (paper: [MST18] and this work)."
            .to_string(),
        "States exponents: Fratricide stays at 2 states (exponent ≈ 0); the lottery's state \
         usage grows with n; P_LL's distinct states grow ≈ linearly in m = ⌈lg n⌉."
            .to_string(),
        format!(
            "Crossover shape: at n = {}, P_LL is ~{:.0}× faster than Fratricide, and the gap \
             widens with n — matching Table 1's O(log n) vs O(n).",
            ns[ns.len() - 1],
            frat.last().unwrap().times.mean() / pll.last().unwrap().times.mean()
        ),
    ];

    Ok(Some(ExperimentOutput {
        id: "table1",
        title: "Table 1 — states vs. expected stabilization time",
        notes,
        tables,
    }))
}
