//! Engine micro-benchmarks: interactions per second for the per-agent and
//! count-based engines, on the paper's protocol and on the Table-1 baseline
//! protocols.
//!
//! The count engine appears five times — its four execution tiers plus the
//! auto-dispatching default: `engine/count_steps` is the full default path
//! (tier dispatch picks compiled/jump/batch per review),
//! `engine/count_steps_batch` the batch tier *pinned* via
//! `force_batch_mode` and measured inside a fixed mid-election
//! parallel-time window (see `WINDOW_FROM`/`WINDOW_TO`) so every row
//! reports genuine hypergeometric-round throughput in the regime heuristic
//! dispatch uses the tier in — including rows where forcing it is a loss,
//! `engine/count_steps_compiled` the compiled per-step cache with jump and
//! batch disabled, and `engine/count_steps_reference` the uncached per-step
//! fallback (hashing, cloning, and `Protocol::transition` calls every
//! step). `engine/count_steps_obs` prices the observability layer: the
//! pinned-batch workload with and without an attached `EngineObserver`,
//! adjacent rows the CI smoke gate holds to a 2 % spread. The step groups
//! run mid-election workloads where null interactions never dominate — the
//! regime the batch tier was built for
//! (`P_LL`'s timer ticks pin its null fraction near 0.56, so jumping never
//! engages there). The jump scheduler's own regime is measured by
//! `engine/election_*`, which times *entire* fratricide elections — a
//! `Θ(n²)`-interaction workload whose null tail the scheduler telescopes
//! into `O(n)` episodes (no per-step tier can finish those sizes inside any
//! reasonable bench budget). All step groups declare element throughput, so
//! the JSON emitted by the criterion stand-in (see `BENCH_JSON_DIR`)
//! reports interactions/sec directly; `BENCH_engine.json` at the repo root
//! snapshots those numbers per PR (regenerate with
//! `cargo run --release -p pp-sim --bin bench_snapshot`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pp_bench::fast_criterion;
use pp_core::Pll;
use pp_engine::{CountSimulation, EngineObserver, LeaderElection, Simulation, UniformScheduler};
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

/// The count engine's execution tiers (see the module docs).
#[derive(Clone, Copy)]
enum Tier {
    /// Full tier dispatch (compiled + jump + batch): the engine default.
    Default,
    /// Batch tier, pinned via `force_batch_mode` so every row measures
    /// hypergeometric rounds — never a silently disengaged fallback the
    /// regression gate would mistake for batch throughput.
    Batch,
    /// Compiled cache only: jump and batch disabled.
    Compiled,
    /// Uncached per-step fallback.
    Reference,
}

fn count_sim<P: LeaderElection>(
    protocol: P,
    n: usize,
    tier: Tier,
) -> CountSimulation<P, Xoshiro256PlusPlus> {
    let rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    match tier {
        Tier::Default => {}
        Tier::Batch => sim.force_batch_mode(),
        Tier::Compiled => {
            sim.set_jump_scheduler(false);
            sim.set_batch_tier(false);
        }
        Tier::Reference => sim.set_compiled_cache(false),
    }
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

fn bench_count_engine_at(group_name: &str, tier: Tier, c: &mut Criterion) {
    let windowed = matches!(tier, Tier::Batch);
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

fn bench_count_engine(c: &mut Criterion) {
    bench_count_engine_at("engine/count_steps", Tier::Default, c);
}

fn bench_count_engine_batch(c: &mut Criterion) {
    bench_count_engine_at("engine/count_steps_batch", Tier::Batch, c);
}

fn bench_count_engine_compiled(c: &mut Criterion) {
    bench_count_engine_at("engine/count_steps_compiled", Tier::Compiled, c);
}

fn bench_count_engine_reference(c: &mut Criterion) {
    bench_count_engine_at("engine/count_steps_reference", Tier::Reference, c);
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
                    let mut sim =
                        count_sim(Pll::for_population(n).expect("n >= 2"), n, Tier::Batch);
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

/// Whole fratricide elections on the jump scheduler: `Θ(n²)` simulated
/// interactions per run (≈10¹² at `n = 2^20`) telescoped into `O(n)`
/// executed episodes. No per-step tier appears alongside because none could
/// finish one iteration inside the bench budget — that asymmetry *is* the
/// result; wall time per election is the figure of merit.
fn bench_election_jump(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/election_jump");
    let mut seed = 0u64;
    for &n in &[1usize << 16, 1 << 20] {
        group.bench_with_input(BenchmarkId::new("fratricide", n), &n, |b, &n| {
            b.iter(|| {
                seed += 1;
                let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                let mut sim = CountSimulation::new(Fratricide, n, rng).expect("n >= 2");
                let out = sim.run_until_single_leader(u64::MAX);
                assert!(out.converged);
                black_box(out.steps)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench_agent_engine, bench_count_engine, bench_count_engine_batch,
        bench_count_engine_obs, bench_count_engine_compiled,
        bench_count_engine_reference, bench_election_jump
}
criterion_main!(benches);
