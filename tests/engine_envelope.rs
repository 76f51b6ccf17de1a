//! The count engine's input envelope: each entry point that takes outside
//! input — the counts given to `new`/`from_counts`, a fast-tier pin at the
//! fast tiers' population cap, and the bytes given to `resume` — returns
//! `Ok` or a typed error on every input, and never panics.
//!
//! Snapshot mutations are re-sealed under a valid FNV-1a-64 footer, so they
//! reach the section decoders and the cross-checks behind them instead of
//! stopping at the checksum.

use population_protocols::core::Pll;
use population_protocols::engine::{
    CountSimulation, EngineError, EngineTier, LeaderElection, SnapshotError, SNAPSHOT_VERSION,
};
use population_protocols::protocols::Fratricide;
use population_protocols::rand::Xoshiro256PlusPlus;
use proptest::collection;
use proptest::prelude::*;
use std::sync::OnceLock;

type Sim<P> = CountSimulation<P, Xoshiro256PlusPlus>;

/// The largest population the engine holds.
const MAX_POPULATION: u64 = i64::MAX as u64;

/// Magic (8 bytes) plus version (4 bytes) precede the sections; the
/// FNV-1a-64 checksum (8 bytes) follows them.
const HEADER: usize = 12;
const FOOTER: usize = 8;

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

/// Agent counts across the envelope: tiny, arbitrary, straddling `2^63`,
/// and next to `u64::MAX`.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        any::<u64>(),
        (MAX_POPULATION - 8)..=(MAX_POPULATION + 8),
        (u64::MAX - 8)..=u64::MAX,
    ]
}

/// What a constructor must return for counts summing to `total`.
fn check_constructed<P: LeaderElection>(
    built: Result<Sim<P>, EngineError>,
    total: u128,
) -> Result<(), TestCaseError> {
    match built {
        Ok(mut sim) => {
            prop_assert!(total >= 2 && total <= u128::from(MAX_POPULATION));
            prop_assert_eq!(sim.population() as u128, total);
            sim.run(64);
            prop_assert_eq!(sim.steps(), 64);
            prop_assert_eq!(sim.state_counts().values().sum::<u64>() as u128, total);
        }
        Err(EngineError::PopulationTooSmall { n }) => {
            prop_assert!(total < 2);
            prop_assert_eq!(n as u128, total);
        }
        Err(EngineError::PopulationOverflow { total: reached }) => {
            prop_assert!(total > u128::from(MAX_POPULATION));
            prop_assert!(reached > u128::from(MAX_POPULATION) && reached <= total);
        }
        Err(other) => prop_assert!(false, "unexpected error {other}"),
    }
    Ok(())
}

proptest! {
    #[test]
    fn constructors_return_ok_or_a_typed_error(
        counts in collection::vec(count(), 0..5),
        n in count(),
    ) {
        let total: u128 = counts.iter().map(|&c| u128::from(c)).sum();
        let entries = counts.iter().enumerate().map(|(i, &c)| (i % 2 == 0, c));
        check_constructed(Sim::from_counts(Fratricide, entries, rng(1)), total)?;
        check_constructed(Sim::new(Fratricide, n as usize, rng(2)), u128::from(n))?;
    }
}

#[test]
fn fast_tier_pins_stop_at_their_population_cap() {
    let cap = u64::from(u32::MAX);
    for n in [cap, cap + 1, cap + 2] {
        for tier in [EngineTier::Jump, EngineTier::Batch] {
            let mut sim = Sim::new(Fratricide, n as usize, rng(3)).unwrap();
            match sim.pin_tier(tier) {
                Ok(()) => {
                    assert_eq!(n, cap, "{tier} pinned at n = {n}");
                    sim.run(1000);
                    assert_eq!(sim.steps(), 1000);
                    assert_eq!(sim.active_tier(), tier);
                    assert_eq!(sim.population() as u64, n);
                }
                Err(e) => assert_eq!(e, EngineError::PopulationTooLarge { tier, n, max: cap }),
            }
        }
    }
}

/// Real snapshots to mutate: `P_LL` engines pinned to the compiled tier
/// (with a filled pair cache and the agent array) and to the batch tier.
fn snapshots() -> &'static [(Pll, Vec<u8>)] {
    static SNAPSHOTS: OnceLock<Vec<(Pll, Vec<u8>)>> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        [
            (EngineTier::Compiled, 1 << 10),
            (EngineTier::Batch, 1 << 12),
        ]
        .into_iter()
        .map(|(tier, n)| {
            let protocol = Pll::for_population(n).expect("n >= 2");
            let mut sim = Sim::new(protocol, n, rng(4)).unwrap();
            sim.pin_tier(tier).unwrap();
            sim.run(40 * n as u64);
            let bytes = sim.snapshot();
            let version = u32::from_le_bytes(bytes[8..HEADER].try_into().unwrap());
            assert_eq!(version, SNAPSHOT_VERSION);
            (protocol, bytes)
        })
        .collect()
    })
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Replaces the footer with the checksum of everything before it.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - FOOTER;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// A payload edit: overwrite one byte, or one 8-byte little-endian word
/// with a value at a field's edge (lengths, counts, ids and flags are all
/// fixed-width little-endian fields).
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Byte(u64, u8),
    Word(u64, u64),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let edge = prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::from(u32::MAX)),
        Just(MAX_POPULATION),
        Just(1u64 << 63),
        Just(u64::MAX),
        any::<u64>(),
    ];
    prop_oneof![
        (any::<u64>(), any::<u8>()).prop_map(|(at, b)| Mutation::Byte(at, b)),
        (any::<u64>(), edge).prop_map(|(at, w)| Mutation::Word(at, w)),
    ]
}

proptest! {
    #[test]
    fn resealed_snapshot_mutations_resume_or_fail_typed(
        which in 0usize..2,
        edits in collection::vec(mutation(), 1..4),
    ) {
        let (protocol, ref original) = snapshots()[which];
        let mut bytes = original.clone();
        let payload = (bytes.len() - HEADER - FOOTER) as u64;
        for edit in edits {
            match edit {
                Mutation::Byte(at, b) => bytes[HEADER + (at % payload) as usize] = b,
                Mutation::Word(at, w) => {
                    let at = HEADER + (at % (payload - 7)) as usize;
                    bytes[at..at + 8].copy_from_slice(&w.to_le_bytes());
                }
            }
        }
        reseal(&mut bytes);
        match Sim::resume(protocol, &bytes) {
            Ok(mut sim) => {
                let n = sim.population() as u64;
                prop_assert!((2..=MAX_POPULATION).contains(&n));
                sim.run(256);
                prop_assert_eq!(sim.state_counts().values().sum::<u64>(), n);
            }
            Err(SnapshotError::ChecksumMismatch) => prop_assert!(false, "reseal failed"),
            Err(_) => {}
        }
    }
}

#[test]
fn resume_rejects_a_population_past_i64_max() {
    // Two states, each holding just under 2^62 agents; the edit adds 2^62
    // to both the population and the first count, a consistent snapshot of
    // 2^63 + 2^62 − 2 agents.
    let half = (1u64 << 62) - 1;
    let mut sim = Sim::from_counts(Fratricide, [(true, half), (false, half)], rng(5)).unwrap();
    let mut bytes = sim.snapshot();
    let read = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    // Population section: tag (2 bytes) and length (8), then n, steps,
    // review_at and the live-state count, then (state, count) per state.
    let n_at = HEADER + 2 + 8;
    let count_at = n_at + 4 * 8 + 1;
    assert_eq!(
        (read(&bytes, n_at), read(&bytes, count_at)),
        (2 * half, half)
    );
    bytes[n_at..n_at + 8].copy_from_slice(&(2 * half + (1 << 62)).to_le_bytes());
    bytes[count_at..count_at + 8].copy_from_slice(&(half + (1 << 62)).to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        Sim::resume(Fratricide, &bytes).err(),
        Some(SnapshotError::Corrupt("population beyond i64::MAX"))
    );
}
