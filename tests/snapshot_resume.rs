//! Integration: the engine's snapshot/resume contract over the real
//! protocols — a snapshot taken between driver calls, serialized, and
//! resumed must leave the remaining trajectory bit-identical to never
//! having paused — across all four execution tiers, heuristic tier
//! transitions, and mid-election cuts. Plus negative-path checks of the
//! public resume surface: corrupted bytes produce typed errors, never
//! panics.

use population_protocols::core::Pll;
use population_protocols::engine::{
    CountSimulation, EngineTier, LeaderElection, SnapshotError, SnapshotState, SNAPSHOT_VERSION,
};
use population_protocols::protocols::{Fratricide, UnboundedLottery};
use population_protocols::rand::Xoshiro256PlusPlus;
use proptest::prelude::*;

/// The tier pins under test: heuristic dispatch (`None`) plus the
/// reference, jump, and batch pins.
const MODES: [Option<EngineTier>; 4] = [
    None,
    Some(EngineTier::Reference),
    Some(EngineTier::Jump),
    Some(EngineTier::Batch),
];

fn build<P>(
    protocol: P,
    n: usize,
    seed: u64,
    mode: Option<EngineTier>,
) -> CountSimulation<P, Xoshiro256PlusPlus>
where
    P: LeaderElection,
{
    let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    if let Some(tier) = mode {
        sim.pin_tier(tier).expect("n within the fast tiers' cap");
    }
    sim
}

/// Cuts `sim` here: snapshots, resumes from the bytes, and checks the
/// resumed simulation tracks an in-memory clone bit-for-bit through further
/// segments.
fn assert_cut_transparent<P>(protocol: P, sim: &CountSimulation<P, Xoshiro256PlusPlus>)
where
    P: LeaderElection + Clone,
    P::State: SnapshotState,
{
    let mut twin = sim.clone();
    let bytes = twin.snapshot();
    let mut resumed = CountSimulation::<P, Xoshiro256PlusPlus>::resume(protocol, &bytes)
        .expect("a just-taken snapshot resumes");
    assert_eq!(resumed.steps(), twin.steps());
    assert_eq!(resumed.state_counts(), twin.state_counts());
    for segment in [1024u64, 8192] {
        twin.run(segment);
        resumed.run(segment);
        assert_eq!(resumed.steps(), twin.steps());
        assert_eq!(
            resumed.state_counts(),
            twin.state_counts(),
            "after +{segment}"
        );
        assert_eq!(
            resumed.active_tier(),
            twin.active_tier(),
            "after +{segment}"
        );
    }
    assert_eq!(resumed.distinct_states_seen(), twin.distinct_states_seen());
}

const N: usize = 1 << 12;

proptest! {
    #[test]
    fn pll_cut_is_transparent_on_every_tier(
        seed in any::<u64>(),
        cut in 0u64..16_384,
        mode in 0usize..4,
    ) {
        let protocol = Pll::for_population(N).expect("n >= 2");
        let mut sim = build(protocol, N, seed, MODES[mode]);
        sim.run(cut);
        assert_cut_transparent(protocol, &sim);
    }

    #[test]
    fn fratricide_cut_is_transparent_on_every_tier(
        seed in any::<u64>(),
        cut in 0u64..16_384,
        mode in 0usize..4,
    ) {
        let mut sim = build(Fratricide, N, seed, MODES[mode]);
        sim.run(cut);
        assert_cut_transparent(Fratricide, &sim);
    }

    #[test]
    fn unbounded_lottery_cut_is_transparent_on_every_tier(
        seed in any::<u64>(),
        cut in 0u64..16_384,
        mode in 0usize..4,
    ) {
        let mut sim = build(UnboundedLottery, N, seed, MODES[mode]);
        sim.run(cut);
        assert_cut_transparent(UnboundedLottery, &sim);
    }
}

#[test]
fn election_outcomes_survive_a_mid_election_cut_on_every_tier() {
    // Cut inside `run_until_single_leader` territory (role tracking primed),
    // then race the resumed simulation against the clone to stabilization.
    fn check<P>(
        name: &str,
        mode: Option<EngineTier>,
        twin: &mut CountSimulation<P, Xoshiro256PlusPlus>,
        bytes: &[u8],
        protocol: P,
    ) where
        P: LeaderElection,
        P::State: SnapshotState,
    {
        let mut resumed =
            CountSimulation::<P, Xoshiro256PlusPlus>::resume(protocol, bytes).expect("resumes");
        let a = twin.run_until_single_leader(u64::MAX);
        let b = resumed.run_until_single_leader(u64::MAX);
        assert_eq!(a, b, "{name} outcome diverged ({mode:?})");
        assert_eq!(twin.steps(), resumed.steps(), "{name} ({mode:?})");
        assert_eq!(
            twin.leader_count(),
            resumed.leader_count(),
            "{name} ({mode:?})"
        );
        assert_eq!(
            twin.state_counts(),
            resumed.state_counts(),
            "{name} ({mode:?})"
        );
    }

    for mode in MODES {
        let protocol = Pll::for_population(N).expect("n >= 2");
        let mut sim = build(protocol, N, 21, mode);
        let _ = sim.run_until_single_leader(10_000);
        check("pll", mode, &mut sim.clone(), &sim.snapshot(), protocol);

        let mut sim = build(Fratricide, N, 22, mode);
        let _ = sim.run_until_single_leader(10_000);
        check(
            "fratricide",
            mode,
            &mut sim.clone(),
            &sim.snapshot(),
            Fratricide,
        );

        let mut sim = build(UnboundedLottery, N, 23, mode);
        let _ = sim.run_until_single_leader(10_000);
        check(
            "lottery",
            mode,
            &mut sim.clone(),
            &sim.snapshot(),
            UnboundedLottery,
        );
    }
}

#[test]
fn heuristic_tier_transition_is_crossed_transparently() {
    // At n = 2^14 fratricide engages batch/jump on its own; cut right after
    // the transition and again deep inside the engaged tier.
    let mut sim = build(Fratricide, 1 << 14, 31, None);
    sim.run(1 << 12);
    assert!(
        matches!(sim.active_tier(), EngineTier::Batch | EngineTier::Jump),
        "expected a heuristic tier engagement"
    );
    assert_cut_transparent(Fratricide, &sim);
    sim.run(1 << 16);
    assert_cut_transparent(Fratricide, &sim);
}

#[test]
#[ignore = "2^20-agent snapshot roundtrip; run with --release -- --ignored"]
fn snapshot_roundtrip_at_two_to_the_twenty() {
    let n = 1 << 20;
    let protocol = Pll::for_population(n).expect("n >= 2");
    let mut sim = build(protocol, n, 41, None);
    sim.run(200_000);
    let bytes = sim.snapshot();
    let mut twin = sim.clone();
    let mut resumed =
        CountSimulation::<_, Xoshiro256PlusPlus>::resume(protocol, &bytes).expect("resumes");
    let a = twin.run_until_single_leader(u64::MAX);
    let b = resumed.run_until_single_leader(u64::MAX);
    assert_eq!(a, b);
    assert_eq!(twin.state_counts(), resumed.state_counts());
    assert_eq!(twin.leader_count(), 1);
}

fn pll_snapshot() -> (Pll, Vec<u8>) {
    let protocol = Pll::for_population(256).expect("n >= 2");
    let mut sim = build(protocol, 256, 51, None);
    sim.run(2_000);
    (protocol, sim.snapshot())
}

type PllSim = CountSimulation<Pll, Xoshiro256PlusPlus>;

#[test]
fn every_truncation_is_rejected_with_a_typed_error() {
    let (protocol, bytes) = pll_snapshot();
    for len in 0..bytes.len() {
        let err = PllSim::resume(protocol, &bytes[..len]).expect_err("truncated snapshot accepted");
        // Any variant is acceptable — the property is a typed error, not a
        // panic — but the error must render.
        let _ = err.to_string();
    }
}

#[test]
fn wrong_magic_and_future_version_are_identified() {
    let (protocol, bytes) = pll_snapshot();

    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        PllSim::resume(protocol, &bad),
        Err(SnapshotError::BadMagic)
    ));

    // The version field sits right after the 8-byte magic and is validated
    // before the checksum, so a from-the-future version is reported as such
    // rather than as generic corruption.
    let mut bad = bytes.clone();
    bad[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match PllSim::resume(protocol, &bad) {
        Err(SnapshotError::UnsupportedVersion { found }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn corrupted_bytes_error_instead_of_panicking() {
    let (protocol, bytes) = pll_snapshot();
    // Sampled single-byte corruption across the whole buffer (every offset
    // is covered by the engine's own unit tests on a smaller protocol).
    for at in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x20;
        assert!(
            PllSim::resume(protocol, &bad).is_err(),
            "corruption at byte {at} went unnoticed"
        );
    }
}

/// Decodes a hex fixture.
fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// Asserts `bytes` are refused as a snapshot of format version `found`.
fn assert_refused_as_version(bytes: &[u8], found: u32) {
    match CountSimulation::<Fratricide, Xoshiro256PlusPlus>::resume(Fratricide, bytes) {
        Err(SnapshotError::UnsupportedVersion { found: got }) => assert_eq!(got, found),
        other => panic!("expected UnsupportedVersion {{ found: {found} }}, got {other:?}"),
    }
}

/// A version-3 snapshot (the format that still carried the round-law tag
/// and the segment counter): fratricide, n = 256, seed 42, after 1000
/// interactions, as the version-3 writer serialized it.
const FRATRICIDE_V3: &str = "\
5050454e47534e500300000001002a000000000000000010000000000000080000000000000004000000\
0000000003000000000000000010000000000000010002003a000000000000000001000000000000e803\
0000000000001e04000000000000020000000000000001380000000000000000c8000000000000000000\
00000000000003002e000000000000000101040000000400000000000000000000000010000200000100\
0010000a010000000100000a010001000110000a04006e000000000000000101001b00000000000000cd\
010000000000000100000000000000000000000000000000000000000000000000000000000000000000\
00000000000000000000000000000000000000000000000000000000000000000002000000000000e801\
00000000000000000000000000000500280000000000000004000000000000003301cda77a3299370207\
af97885ae474ea9b19a78e9e0fa36148c5cda802e63f78c5f6a15f2e4a60";

#[test]
fn version_3_snapshots_are_refused_with_a_typed_error() {
    let bytes = unhex(FRATRICIDE_V3);
    assert_eq!(bytes.len(), 366);
    assert_refused_as_version(&bytes, 3);
}

/// A version-4 snapshot (the format that still carried the engine-config
/// section and the enabled/forced tier toggles) of the same execution as
/// [`FRATRICIDE_V3`], as the version-4 writer serialized it.
const FRATRICIDE_V4: &str = "\
5050454e47534e5004000000010029000000000000000010000000000000080000000000000004000000\
00000000030000000000000000100000000000000102003a000000000000000001000000000000e80300\
00000000001e04000000000000020000000000000001380000000000000000c800000000000000000000\
000000000003002e00000000000000010104000000040000000000000000000000001000020000010000\
10000a010000000100000a010001000110000a040066000000000000000101001b00000000000000cd01\
000000000000010000000000000000000000000000000000000000000000000000000000000000000000\
00000000000000000000000000000000000000000000000002000000000000e801000000000000000000\
00000000000500280000000000000004000000000000003301cda77a3299370207af97885ae474ea9b19\
a78e9e0fa36148c5cda802e63fd4799d8e0473f5f8";

#[test]
fn version_4_snapshots_are_refused_with_a_typed_error() {
    let bytes = unhex(FRATRICIDE_V4);
    assert_eq!(bytes.len(), 357);
    assert_refused_as_version(&bytes, 4);
}
