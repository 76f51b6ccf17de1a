//! Integration tests for the PRNG substrate: known-answer vectors against
//! the published reference implementations, and end-to-end determinism of
//! seed derivation down to the interaction schedules it drives.

use pp_rand::{Rng64, SeedSequence, SplitMix64, Xoshiro256PlusPlus};

/// First ten outputs of xoshiro256++ for state `{1, 2, 3, 4}`, from the
/// reference C implementation (https://prng.di.unimi.it/xoshiro256plusplus.c).
#[test]
fn xoshiro256pp_known_answer() {
    let mut rng = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
    let expected: [u64; 10] = [
        41_943_041,
        58_720_359,
        3_588_806_011_781_223,
        3_591_011_842_654_386,
        9_228_616_714_210_784_205,
        9_973_669_472_204_895_162,
        14_011_001_112_246_962_877,
        12_406_186_145_184_390_807,
        15_849_039_046_786_891_736,
        10_450_023_813_501_588_000,
    ];
    for e in expected {
        assert_eq!(rng.next_u64(), e);
    }
}

/// First five outputs of SplitMix64 for seed 1234567, from the reference C
/// implementation (https://prng.di.unimi.it/splitmix64.c).
#[test]
fn splitmix64_known_answer() {
    let mut sm = SplitMix64::new(1234567);
    let expected: [u64; 5] = [
        6_457_827_717_110_365_317,
        3_203_168_211_198_807_973,
        9_817_491_932_198_370_423,
        4_593_380_528_125_082_431,
        16_408_922_859_458_223_821,
    ];
    for e in expected {
        assert_eq!(sm.next_u64(), e);
    }
}

/// The same `SeedSequence` yields bit-identical interaction schedules: the
/// uniformly random scheduler draws the same ordered pairs of agents, run
/// after run, for every derived per-run seed.
#[test]
fn seed_sequence_reproduces_interaction_schedules() {
    let schedule = |run: u64| -> Vec<(usize, usize)> {
        let seq = SeedSequence::new(0xDEAD_BEEF).derive(17);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seq.seed_at(run));
        (0..10_000).map(|_| rng.distinct_pair(1_000)).collect()
    };
    for run in 0..4 {
        let a = schedule(run);
        let b = schedule(run);
        assert_eq!(a, b, "schedule for run {run} is not reproducible");
        assert!(a.iter().all(|&(u, v)| u != v && u < 1_000 && v < 1_000));
    }
    // Distinct runs get distinct schedules (the sweep is not degenerate).
    assert_ne!(schedule(0), schedule(1));
}

/// Cursor-based and positional seed access agree, so parallel workers that
/// index into the sequence see the same seeds as a serial driver.
#[test]
fn seed_sequence_positional_matches_cursor() {
    let mut cursor = SeedSequence::new(31337);
    let fixed = SeedSequence::new(31337);
    for i in 0..64 {
        assert_eq!(cursor.next_seed(), fixed.seed_at(i));
    }
}
