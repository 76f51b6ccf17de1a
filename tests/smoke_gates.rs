//! Two throughput smoke gates on `P_LL` at `n = 2^20`, seed 1, each run
//! with its tier pinned. They time the engine, so they are ignored by
//! default and mean something only in a release build with the tests run
//! one at a time (two timing tests sharing the cores would time each
//! other):
//!
//! ```text
//! cargo test --release --test smoke_gates -- --ignored --nocapture --test-threads 1
//! ```
//!
//! CI runs them in a non-blocking job and writes both reads to the job
//! summary. Both gates compare runs made back to back in the same process,
//! never a stored figure, and judge a median over paired runs: on a shared
//! host a single window's throughput drifts by more than the spread under
//! test.

use population_protocols::core::Pll;
use population_protocols::engine::{CountSimulation, EngineObserver, EngineTier};
use population_protocols::rand::Xoshiro256PlusPlus;
use population_protocols::stats::Summary;
use std::time::Instant;

const N: usize = 1 << 20;

/// A `P_LL` simulation at `N` agents and seed 1, pinned to `tier`.
fn pll_sim(tier: EngineTier) -> CountSimulation<Pll, Xoshiro256PlusPlus> {
    let pll = Pll::for_population(N).expect("n >= 2");
    let rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let mut sim = CountSimulation::new(pll, N, rng).expect("n >= 2");
    sim.pin_tier(tier)
        .expect("2^20 is within the fast tiers' cap");
    sim
}

/// Runs `units · N` interactions and returns their rate per second.
fn timed_run(sim: &mut CountSimulation<Pll, Xoshiro256PlusPlus>, units: u64) -> f64 {
    let steps = units * N as u64;
    let start = Instant::now();
    sim.run(steps);
    steps as f64 / start.elapsed().as_secs_f64()
}

fn millions(rates: &Summary) -> String {
    let reads: Vec<String> = rates
        .values()
        .iter()
        .map(|x| format!("{:.1}", x / 1e6))
        .collect();
    reads.join(" ")
}

/// The batch tier exists to beat per-step execution at large populations,
/// so pinned to batch, `P_LL` at 2^20 must run no slower than pinned to
/// compiled. Each round builds fresh twins and times 20 units of parallel
/// time early in the election: the compiled pin over `[4, 24)` from the
/// initial configuration (the untimed units also fill its agent array),
/// the batch pin over `[8, 28)`. Rounds alternate which tier runs first.
#[test]
#[ignore = "timing gate: run with --release -- --ignored --test-threads 1"]
fn batch_pin_is_not_slower_than_compiled_pin_on_pll_at_2_20() {
    const ROUNDS: usize = 5;
    let time = |tier: EngineTier, from: u64| {
        let mut sim = pll_sim(tier);
        sim.run(from * N as u64);
        timed_run(&mut sim, 20)
    };
    let (mut batch, mut compiled) = (Summary::new(), Summary::new());
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            batch.push(time(EngineTier::Batch, 8));
            compiled.push(time(EngineTier::Compiled, 4));
        } else {
            compiled.push(time(EngineTier::Compiled, 4));
            batch.push(time(EngineTier::Batch, 8));
        }
    }
    println!("batch rounds:    {} M int/s", millions(&batch));
    println!("compiled rounds: {} M int/s", millions(&compiled));
    let (batch, compiled) = (batch.median(), compiled.median());
    println!(
        "batch vs compiled (P_LL, n = 2^20, medians of {ROUNDS}): \
         batch {:.1}M int/s, compiled {:.1}M int/s",
        batch / 1e6,
        compiled / 1e6
    );
    assert!(
        batch >= compiled,
        "the batch pin ran slower than the compiled pin on P_LL at 2^20: \
         {:.1}M < {:.1}M int/s",
        batch / 1e6,
        compiled / 1e6
    );
}

/// An attached observer touches the hot loops only at episode and review
/// boundaries, so when idle it must cost at most 2 % of throughput. A
/// detached and an attached twin, both batch-pinned and warmed to parallel
/// time 8, run 32 paired windows of 4 units each (to parallel time 136,
/// the regime heuristic dispatch runs the batch tier in), alternating which
/// twin goes first; the gate reads the median of the per-window ratios.
/// Observation draws no randomness, so the twins do identical work.
#[test]
#[ignore = "timing gate: run with --release -- --ignored --test-threads 1"]
fn idle_observer_costs_at_most_2_percent_on_pll_at_2_20() {
    const WINDOWS: usize = 32;
    let warmed = |observed: bool| {
        let mut sim = pll_sim(EngineTier::Batch);
        if observed {
            sim.set_observer(EngineObserver::new());
        }
        sim.run(8 * N as u64);
        sim
    };
    let (mut detached, mut attached) = (warmed(false), warmed(true));
    let mut ratios = Summary::new();
    for window in 0..WINDOWS {
        let (d, a) = if window % 2 == 0 {
            let d = timed_run(&mut detached, 4);
            (d, timed_run(&mut attached, 4))
        } else {
            let a = timed_run(&mut attached, 4);
            (timed_run(&mut detached, 4), a)
        };
        ratios.push(a / d);
    }
    assert_eq!(attached.steps(), detached.steps());
    assert_eq!(attached.state_counts(), detached.state_counts());
    let ratio = ratios.median();
    println!(
        "idle observer (P_LL, n = 2^20, batch pin): attached/detached median \
         {ratio:.4} over {WINDOWS} windows (range {:.2}..{:.2})",
        ratios.min(),
        ratios.max()
    );
    assert!(
        ratio >= 0.98,
        "an idle attached observer cost more than 2% on P_LL at 2^20: \
         median ratio {ratio:.4} < 0.98"
    );
}
