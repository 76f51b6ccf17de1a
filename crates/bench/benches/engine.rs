//! Engine micro-benchmarks: interactions per second for the per-agent and
//! count-based engines, on the paper's protocol and on the Table-1 baseline
//! protocols, over 1000-step windows.
//!
//! These are the rows the end-to-end benchmark (`perfbench/`, recorded in
//! `BENCH_perfbench.json` by `tools/bench_record.py`) does not produce:
//! default dispatch and whole elections are timed there, not here.
//! `engine/agent_steps` is the per-agent engine. The count engine appears
//! with one tier pinned per group: `engine/count_steps_batch` pins the
//! batch tier, so every row measures hypergeometric rounds, never a
//! silently disengaged fallback, inside a fixed mid-election parallel-time
//! window (see `WINDOW_FROM`/`WINDOW_TO`), the regime heuristic dispatch
//! uses the tier in, including rows where forcing it is a loss;
//! `engine/count_steps_compiled` pins the compiled per-step cache; and
//! `engine/count_steps_reference` the uncached per-step fallback (hashing,
//! cloning, and `Protocol::transition` calls every step).
//! `engine/count_steps_obs` prices the observability layer: the
//! pinned-batch workload with and without an attached `EngineObserver`.
//! CI's smoke gates hold that pair to a 2 % spread and the batch row to at
//! least the compiled row on `P_LL@2^20`. All groups declare element
//! throughput, so the JSON emitted by the criterion stand-in (see
//! `BENCH_JSON_DIR`) reports interactions/sec directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pp_bench::fast_criterion;
use pp_core::Pll;
use pp_engine::{
    CountSimulation, EngineObserver, EngineTier, LeaderElection, Simulation, UniformScheduler,
};
use pp_protocols::{Fratricide, UnboundedLottery};
use pp_rand::Xoshiro256PlusPlus;
use std::hint::black_box;

/// Interactions per benchmark iteration.
const STEPS: u64 = 1000;

/// Count-engine population sizes: the count engine is `O(#states)` memory,
/// so it scales to populations the per-agent engine cannot touch.
const COUNT_NS: [usize; 4] = [1 << 10, 1 << 14, 1 << 20, 1 << 24];

fn bench_agent_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/agent_steps");
    group.throughput(Throughput::Elements(STEPS));
    for &n in &[1024usize, 16384] {
        group.bench_with_input(BenchmarkId::new("pll", n), &n, |b, &n| {
            let pll = Pll::for_population(n).expect("n >= 2");
            let mut sim =
                Simulation::new(pll, n, UniformScheduler::seed_from_u64(1)).expect("n >= 2");
            b.iter(|| {
                sim.run(STEPS);
                black_box(sim.steps())
            });
        });
        group.bench_with_input(BenchmarkId::new("fratricide", n), &n, |b, &n| {
            let mut sim =
                Simulation::new(Fratricide, n, UniformScheduler::seed_from_u64(1)).expect("n >= 2");
            b.iter(|| {
                sim.run(STEPS);
                black_box(sim.steps())
            });
        });
    }
    group.finish();
}

/// A count simulation at seed 1, pinned to `tier`.
fn count_sim<P: LeaderElection>(
    protocol: P,
    n: usize,
    tier: EngineTier,
) -> CountSimulation<P, Xoshiro256PlusPlus> {
    let rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    sim.pin_tier(tier).expect("n within the fast tiers' cap");
    sim
}

/// Parallel-time window the pinned batch group measures inside. Elections at
/// these sizes stabilize around parallel time ~24 (`P_LL`) and the live
/// support peaks below ~130 states through parallel time ~136 — the regime
/// heuristic dispatch actually engages the batch tier in. A sim left running
/// for the whole multi-second measurement instead drifts into a
/// post-stabilization steady state (timer spread inflates the support past
/// the engage threshold) that no real sweep visits, so the batch rows warm
/// to `WINDOW_FROM·n` interactions and reset past `WINDOW_TO·n`; the
/// amortized reset cost stays inside the measured time (conservative).
const WINDOW_FROM: u64 = 8;
const WINDOW_TO: u64 = 136;

fn bench_count_engine_at(group_name: &str, tier: EngineTier, c: &mut Criterion) {
    let windowed = tier == EngineTier::Batch;
    let mut group = c.benchmark_group(group_name);
    group.throughput(Throughput::Elements(STEPS));
    for &n in &COUNT_NS {
        macro_rules! bench_protocol {
            ($label:literal, $make:expr) => {
                group.bench_with_input(BenchmarkId::new($label, n), &n, |b, &n| {
                    let make = $make;
                    let mut sim = count_sim(make(n), n, tier);
                    if windowed {
                        sim.run(WINDOW_FROM * n as u64);
                    }
                    b.iter(|| {
                        if windowed && sim.steps() > WINDOW_TO * n as u64 {
                            sim = count_sim(make(n), n, tier);
                            sim.run(WINDOW_FROM * n as u64);
                        }
                        sim.run(STEPS);
                        black_box(sim.steps())
                    });
                });
            };
        }
        bench_protocol!("pll", |n| Pll::for_population(n).expect("n >= 2"));
        bench_protocol!("fratricide", |_| Fratricide);
        bench_protocol!("lottery", |_| UnboundedLottery);
    }
    group.finish();
}

fn bench_count_engine_batch(c: &mut Criterion) {
    bench_count_engine_at("engine/count_steps_batch", EngineTier::Batch, c);
}

fn bench_count_engine_compiled(c: &mut Criterion) {
    bench_count_engine_at("engine/count_steps_compiled", EngineTier::Compiled, c);
}

fn bench_count_engine_reference(c: &mut Criterion) {
    bench_count_engine_at("engine/count_steps_reference", EngineTier::Reference, c);
}

/// The observability layer's cost when attached but otherwise idle: the
/// pinned-batch windowed `P_LL@2^20` workload (the same one the batch
/// group measures) run twice back-to-back, `detached` with no observer and
/// `attached` with an [`EngineObserver`] recording events and per-tier
/// wall time. The contract is that observation touches the hot loop only
/// at episode and review boundaries — one branch plus an `Instant` read
/// when it fires — so the attached row must stay within a few percent of
/// the detached row; the CI smoke gate holds the pair to 2 %. Rows are
/// adjacent because on a shared machine throughput drifts across minutes
/// by more than the spread under test.
fn bench_count_engine_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/count_steps_obs");
    group.throughput(Throughput::Elements(STEPS));
    let n = 1usize << 20;
    macro_rules! obs_row {
        ($id:literal, $observed:expr) => {
            group.bench_with_input(BenchmarkId::new(format!("pll/{n}"), $id), &n, |b, &n| {
                let make = || {
                    let mut sim = count_sim(
                        Pll::for_population(n).expect("n >= 2"),
                        n,
                        EngineTier::Batch,
                    );
                    if $observed {
                        sim.set_observer(EngineObserver::new());
                    }
                    sim.run(WINDOW_FROM * n as u64);
                    sim
                };
                let mut sim = make();
                b.iter(|| {
                    if sim.steps() > WINDOW_TO * n as u64 {
                        sim = make();
                    }
                    sim.run(STEPS);
                    black_box(sim.steps())
                });
            });
        };
    }
    obs_row!("detached", false);
    obs_row!("attached", true);
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench_agent_engine, bench_count_engine_batch, bench_count_engine_obs,
        bench_count_engine_compiled, bench_count_engine_reference
}
criterion_main!(benches);
