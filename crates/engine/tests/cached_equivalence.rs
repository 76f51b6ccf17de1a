//! The compiled-pair fast path must be **bit-identical** to the uncached
//! count engine: the cache consumes no randomness and `Protocol::transition`
//! is contractually deterministic, so under a shared RNG seed every state
//! count must match at every single step.
//!
//! This suite pins that equivalence on a fixed protocol and — via proptest —
//! on randomly generated small protocols (arbitrary transition tables over
//! `k` states), which also exercises lazy interning, cache growth, and
//! protocols with no structure whatsoever.

use pp_engine::{CountSimulation, EngineTier, LeaderElection, Protocol, Role};
use pp_rand::Xoshiro256PlusPlus;
use proptest::prelude::*;

/// A protocol given by an explicit transition table over states `0..k`.
#[derive(Debug, Clone)]
struct TableProtocol {
    k: u8,
    /// `table[(a * k + b)] = (a', b')`.
    table: Vec<(u8, u8)>,
}

impl Protocol for TableProtocol {
    type State = u8;
    type Output = Role;

    fn initial_state(&self) -> u8 {
        0
    }

    fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
        self.table[(*a as usize) * self.k as usize + (*b as usize)]
    }

    fn output(&self, s: &u8) -> Role {
        // Declare state 0 "leader" so the leader-tracking path is exercised.
        if *s == 0 {
            Role::Leader
        } else {
            Role::Follower
        }
    }
}

impl LeaderElection for TableProtocol {}

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

#[derive(Debug, Clone, Copy)]
struct Frat;

impl Protocol for Frat {
    type State = bool;
    type Output = Role;
    fn initial_state(&self) -> bool {
        true
    }
    fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
        if *a && *b {
            (true, false)
        } else {
            (*a, *b)
        }
    }
    fn output(&self, s: &bool) -> Role {
        if *s {
            Role::Leader
        } else {
            Role::Follower
        }
    }
}

impl LeaderElection for Frat {
    fn monotone_leaders(&self) -> bool {
        true
    }
}

#[test]
fn fratricide_is_step_for_step_identical() {
    for seed in 0..8 {
        let mut cached = CountSimulation::new(Frat, 128, rng(seed)).unwrap();
        let mut reference = CountSimulation::new(Frat, 128, rng(seed)).unwrap();
        reference.pin_tier(EngineTier::Reference).unwrap();
        for step in 0..4000 {
            assert_eq!(cached.step(), reference.step(), "seed {seed} step {step}");
            assert_eq!(
                cached.state_counts(),
                reference.state_counts(),
                "seed {seed} step {step}"
            );
            assert_eq!(cached.leader_count(), reference.leader_count());
            assert_eq!(cached.support_size(), reference.support_size());
        }
    }
}

#[test]
fn convergence_outcomes_are_identical() {
    for seed in 0..4 {
        let mut cached = CountSimulation::new(Frat, 96, rng(seed)).unwrap();
        // This suite pins bit-exactness of the cache alone; the jump
        // scheduler consumes the RNG stream differently and has its own
        // equivalence-in-law suite (tests/jump_equivalence.rs).
        cached.pin_tier(EngineTier::Compiled).unwrap();
        let mut reference = CountSimulation::new(Frat, 96, rng(seed)).unwrap();
        reference.pin_tier(EngineTier::Reference).unwrap();
        let a = cached.run_until_single_leader(u64::MAX);
        let b = reference.run_until_single_leader(u64::MAX);
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(cached.state_counts(), reference.state_counts());
    }
}

proptest! {
    #[test]
    fn random_protocols_are_step_for_step_identical(
        k in 2u8..6,
        table_seed in 0u64..1_000_000,
        rng_seed in 0u64..1_000_000,
        n in 2usize..64,
    ) {
        // Build a random transition table from the seed (deterministic).
        let mut t = Xoshiro256PlusPlus::seed_from_u64(table_seed);
        use pp_rand::Rng64;
        let table: Vec<(u8, u8)> = (0..(k as usize * k as usize))
            .map(|_| ((t.below(k as u64)) as u8, (t.below(k as u64)) as u8))
            .collect();
        let protocol = TableProtocol { k, table };

        let mut cached = CountSimulation::new(protocol.clone(), n, rng(rng_seed)).unwrap();
        // Jump off: bit-exactness of the cache is the property under test.
        cached.pin_tier(EngineTier::Compiled).unwrap();
        let mut reference = CountSimulation::new(protocol, n, rng(rng_seed)).unwrap();
        reference.pin_tier(EngineTier::Reference).unwrap();
        for _step in 0..256 {
            prop_assert_eq!(cached.step(), reference.step());
            prop_assert_eq!(cached.support_size(), reference.support_size());
            let a = cached.state_counts();
            let b = reference.state_counts();
            prop_assert_eq!(a, b);
        }
        // And the leader-tracking loop agrees too (first hitting time of a
        // single "state 0" agent, or the shared step budget).
        let a = cached.run_until_single_leader(cached.steps() + 512);
        let b = reference.run_until_single_leader(reference.steps() + 512);
        prop_assert_eq!(a, b);
        prop_assert_eq!(cached.state_counts(), reference.state_counts());
    }
}
