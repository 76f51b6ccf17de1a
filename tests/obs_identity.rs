//! Integration: the observability layer's **bit-identity contract** — an
//! attached [`EngineObserver`] (with or without a trajectory sampler)
//! consumes no randomness and leaves the execution bit-identical to a
//! detached run: same step counts, same configurations, same tier and
//! batch counters, and the same next RNG word, across all four tiers.

use population_protocols::core::Pll;
use population_protocols::engine::{CountSimulation, EngineObserver, EngineTier, LeaderElection};
use population_protocols::rand::{Rng64, Xoshiro256PlusPlus};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The tier pins under test: heuristic dispatch (`None`) plus the
/// reference, jump, and batch pins.
const MODES: [Option<EngineTier>; 4] = [
    None,
    Some(EngineTier::Reference),
    Some(EngineTier::Jump),
    Some(EngineTier::Batch),
];

/// A generator shared with the engine, so the test can read the stream's
/// next word after a run.
#[derive(Clone)]
struct Tap(Rc<RefCell<Xoshiro256PlusPlus>>);

impl Tap {
    /// The stream's next word, drawn outside the engine.
    fn next_word(&self) -> u64 {
        self.0.borrow_mut().next_u64()
    }
}

impl Rng64 for Tap {
    fn next_u64(&mut self) -> u64 {
        self.next_word()
    }
}

/// An engine drawing from a [`Tap`], and the tap.
fn build<P>(
    protocol: P,
    n: usize,
    seed: u64,
    mode: Option<EngineTier>,
) -> (CountSimulation<P, Tap>, Tap)
where
    P: LeaderElection,
{
    let tap = Tap(Rc::new(RefCell::new(Xoshiro256PlusPlus::seed_from_u64(
        seed,
    ))));
    let mut sim = CountSimulation::new(protocol, n, tap.clone()).expect("n >= 2");
    if let Some(tier) = mode {
        sim.pin_tier(tier).expect("n within the fast tiers' cap");
    }
    (sim, tap)
}

/// Asserts the twins agree on everything observation must not touch: the
/// RNG stream's next word (drawn from both, so they stay in lockstep), the
/// configuration, the distinct-state count, and every trajectory-derived
/// metric (tier usage, jump and batch counters, cache state).
fn assert_twins_agree<P: LeaderElection>(
    plain: (&CountSimulation<P, Tap>, &Tap),
    watched: (&CountSimulation<P, Tap>, &Tap),
    at: &str,
) {
    let (a, b) = (plain.0, watched.0);
    assert_eq!(
        plain.1.next_word(),
        watched.1.next_word(),
        "next RNG word diverged {at}"
    );
    assert_eq!(a.steps(), b.steps(), "steps {at}");
    assert_eq!(a.state_counts(), b.state_counts(), "counts {at}");
    assert_eq!(
        a.distinct_states_seen(),
        b.distinct_states_seen(),
        "seen {at}"
    );
    let (ma, mb) = (a.metrics(), b.metrics());
    assert_eq!(ma.tier_usage, mb.tier_usage, "tier usage {at}");
    assert_eq!(ma.jump, mb.jump, "jump stats {at}");
    assert_eq!(ma.batch, mb.batch, "batch stats {at}");
    assert_eq!(ma.active_tier, mb.active_tier, "active tier {at}");
    assert_eq!(ma.support, mb.support, "support {at}");
    assert_eq!(ma.cache_active, mb.cache_active, "cache {at}");
    assert_eq!(ma.compiled_pairs, mb.compiled_pairs, "compiled pairs {at}");
}

/// Drives an observed twin and a detached twin through the same segments
/// and an election, asserts every observable matches, then runs both one
/// more segment (observer still attached) and asserts it again.
fn assert_observation_invisible<P>(protocol: P, n: usize, seed: u64, mode: Option<EngineTier>)
where
    P: LeaderElection + Clone,
{
    let (mut plain, plain_tap) = build(protocol.clone(), n, seed, mode);
    let (mut watched, watched_tap) = build(protocol, n, seed, mode);
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
    let at = format!("after the election ({mode:?})");
    assert_twins_agree((&plain, &plain_tap), (&watched, &watched_tap), &at);
    // The trajectory's final row reflects the reported outcome.
    let trace = watched
        .observer()
        .and_then(|o| o.trajectory())
        .expect("sampler attached");
    assert!(!trace.is_empty(), "trajectory recorded nothing");
    assert_eq!(trace.last_step(), Some(b.steps));
    if b.converged {
        assert_eq!(trace.last_value("leaders"), Some(1.0));
    }
    plain.run(4096);
    watched.run(4096);
    let at = format!("one segment later ({mode:?})");
    assert_twins_agree((&plain, &plain_tap), (&watched, &watched_tap), &at);
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
    assert_observation_invisible(Fratricide, 1 << 13, 7, None);
}
