//! Integration: the observability layer's **bit-identity contract** — an
//! attached [`EngineObserver`] (with or without a trajectory sampler)
//! consumes no randomness and leaves the execution bit-identical to a
//! detached run: same step counts, same final configurations, and same
//! `snapshot()` bytes, across all four tiers. Plus schema round-trips for
//! the JSONL event log and the metrics JSON.

use population_protocols::core::Pll;
use population_protocols::engine::{
    CountSimulation, EngineEvent, EngineMetrics, EngineObserver, LeaderElection, SnapshotState,
};
use population_protocols::rand::Xoshiro256PlusPlus;
use proptest::prelude::*;

/// How a test pins the engine's execution tier.
#[derive(Debug, Clone, Copy)]
enum TierMode {
    Auto,
    Reference,
    Jump,
    Batch,
}

const MODES: [TierMode; 4] = [
    TierMode::Auto,
    TierMode::Reference,
    TierMode::Jump,
    TierMode::Batch,
];

fn build<P>(
    protocol: P,
    n: usize,
    seed: u64,
    mode: TierMode,
) -> CountSimulation<P, Xoshiro256PlusPlus>
where
    P: LeaderElection,
{
    let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    match mode {
        TierMode::Auto => {}
        TierMode::Reference => sim.set_compiled_cache(false),
        TierMode::Jump => sim.force_jump_mode(),
        TierMode::Batch => sim.force_batch_mode(),
    }
    sim
}

/// Drives an observed twin and a detached twin through the same segments
/// and asserts every observable — including the snapshot bytes — matches.
fn assert_observation_invisible<P>(protocol: P, n: usize, seed: u64, mode: TierMode)
where
    P: LeaderElection + Clone,
    P::State: SnapshotState,
{
    let mut plain = build(protocol.clone(), n, seed, mode);
    let mut watched = build(protocol, n, seed, mode);
    watched.set_observer(EngineObserver::new().with_trajectory(997));
    for segment in [509u64, 4096, 12_000] {
        plain.run(segment);
        watched.run(segment);
        assert_eq!(plain.steps(), watched.steps(), "steps after +{segment}");
        assert_eq!(
            plain.state_counts(),
            watched.state_counts(),
            "counts after +{segment} ({mode:?})"
        );
    }
    let a = plain.run_until_single_leader(200_000);
    let b = watched.run_until_single_leader(200_000);
    assert_eq!(a, b, "election outcome diverged ({mode:?})");
    assert_eq!(plain.leader_count(), watched.leader_count());
    let observer = watched.take_observer().expect("observer attached");
    assert_eq!(
        plain.snapshot(),
        watched.snapshot(),
        "snapshot bytes diverged ({mode:?})"
    );
    // The trajectory's final row reflects the reported outcome.
    let trace = observer.trajectory().expect("sampler attached");
    assert!(!trace.is_empty(), "trajectory recorded nothing");
    assert_eq!(trace.last_step(), Some(b.steps));
    if b.converged {
        assert_eq!(trace.last_value("leaders"), Some(1.0));
    }
}

proptest! {
    #[test]
    fn observation_is_invisible_on_every_tier_and_law(
        seed in any::<u64>(),
        mode in 0usize..4,
    ) {
        let n = 1 << 11;
        let protocol = Pll::for_population(n).expect("n >= 2");
        assert_observation_invisible(protocol, n, seed, MODES[mode]);
    }
}

#[test]
fn observation_is_invisible_on_the_heuristic_batch_crossover() {
    // n = 2^13 fratricide crosses Compiled → Batch/Jump on its own.
    use population_protocols::protocols::Fratricide;
    assert_observation_invisible(Fratricide, 1 << 13, 7, TierMode::Auto);
}

#[test]
fn metrics_and_events_survive_their_serialized_forms() {
    let n = 1 << 12;
    let protocol = Pll::for_population(n).expect("n >= 2");
    let mut sim = build(protocol, n, 99, TierMode::Auto);
    sim.set_observer(EngineObserver::new().with_trajectory(512));
    let _ = sim.run_until_single_leader(200_000);
    let _ = sim.snapshot();

    let metrics = sim.metrics();
    let parsed = EngineMetrics::from_json(&metrics.to_json()).expect("metrics JSON round-trips");
    assert_eq!(metrics, parsed);

    let observer = sim.observer().expect("observer attached");
    assert!(
        !observer.events().is_empty(),
        "an auto-tier election must emit events"
    );
    for line in observer.events_to_jsonl().lines() {
        let event = EngineEvent::parse_json_line(line)
            .unwrap_or_else(|| panic!("event line failed to parse: {line}"));
        assert_eq!(event.to_json_line(), line);
    }
}

#[test]
fn metrics_survive_snapshot_resume() {
    let n = 1 << 12;
    let protocol = Pll::for_population(n).expect("n >= 2");
    let mut sim = build(protocol, n, 17, TierMode::Auto);
    sim.run(30_000);
    let before = sim.metrics();
    assert_eq!(before.tier_usage.total(), sim.steps());
    let bytes = sim.snapshot();
    let resumed =
        CountSimulation::<Pll, Xoshiro256PlusPlus>::resume(protocol, &bytes).expect("resumes");
    let after = resumed.metrics();
    assert_eq!(before.tier_usage, after.tier_usage);
    assert_eq!(before.jump, after.jump);
    assert_eq!(before.batch, after.batch);
    assert_eq!(before.steps, after.steps);
}
