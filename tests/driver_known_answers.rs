//! Known-answer test for the count engine's batched drivers.
//!
//! `run(k·n)` and `run_until_single_leader(max)` share one dispatch loop,
//! in which jump/batch budgets and tier-review points are part of the
//! trajectory. This suite pins both drivers' exact outcome — step count,
//! final configuration, distinct states seen, and the next word the
//! generator would emit — for three protocols at two population sizes,
//! under the default heuristics and under each of the four tier pins. The
//! expected values were recorded before the two drivers were merged; the
//! 18 rows that run batch rounds (every batch pin, and default dispatch at
//! n = 2^14) were re-recorded when the round moved to one margin per
//! segment, and the other 42 stayed byte-identical. The 34 rows that run
//! per-step windows (every reference and compiled pin, and default
//! dispatch except fratricide at n = 2^14, which engages batch at its first
//! review) were re-recorded when the per-step tiers moved to the agent
//! array; the 24 jump and batch pins stayed byte-identical. The 4 default
//! dispatch rows of the unbounded lottery and `P_LL` at n = 2^14 were
//! re-recorded when the batch tier, below its population crossover, came
//! to engage only where its rounds pair as cells; the other 56 stayed
//! byte-identical. Any change to any tier's RNG consumption shows up here.

use population_protocols::core::Pll;
use population_protocols::engine::EngineTier::{self, Batch, Compiled, Jump, Reference};
use population_protocols::engine::{CountSimulation, LeaderElection};
use population_protocols::protocols::{Fratricide, UnboundedLottery};
use population_protocols::rand::{Rng64, Xoshiro256PlusPlus};
use std::cell::RefCell;
use std::rc::Rc;

/// A generator shared with the engine, so the test can read the stream's
/// next word after a run.
#[derive(Clone)]
struct Tap(Rc<RefCell<Xoshiro256PlusPlus>>);

impl Rng64 for Tap {
    fn next_u64(&mut self) -> u64 {
        self.0.borrow_mut().next_u64()
    }
}

/// `(steps, converged, counts hash, distinct states seen, next RNG word)`.
type Fingerprint = (u64, bool, u64, usize, u64);

/// Runs `run(8n)` (`elect == None`) or `run_until_single_leader(max)`.
fn fingerprint<P: LeaderElection>(
    protocol: P,
    n: usize,
    pin: Option<EngineTier>,
    elect: Option<u64>,
) -> Fingerprint {
    let rng = Xoshiro256PlusPlus::seed_from_u64(0x5eed ^ n as u64);
    let tap = Tap(Rc::new(RefCell::new(rng)));
    let mut sim = CountSimulation::new(protocol, n, tap.clone()).expect("n >= 2");
    if let Some(tier) = pin {
        sim.pin_tier(tier).expect("n within the fast tiers' cap");
    }
    let converged = match elect {
        None => {
            sim.run(8 * n as u64);
            false
        }
        Some(max) => sim.run_until_single_leader(max).converged,
    };
    // FNV-1a over the sorted `state=count` rows.
    let counts = sim.state_counts();
    let mut rows: Vec<String> = counts.iter().map(|(s, c)| format!("{s:?}={c}")).collect();
    rows.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in rows.concat().bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    let seen = sim.distinct_states_seen();
    let next_word = tap.0.borrow_mut().next_u64();
    (sim.steps(), converged, hash, seen, next_word)
}

/// Every fingerprint of the suite with its label, in [`EXPECTED`] order.
fn all_fingerprints() -> Vec<(String, Fingerprint)> {
    let mut out = Vec::new();
    for n in [1usize << 8, 1 << 14] {
        for pin in [
            None,
            Some(Reference),
            Some(Compiled),
            Some(Jump),
            Some(Batch),
        ] {
            let budget = if n <= 256 { u64::MAX } else { 48 * n as u64 };
            for elect in [None, Some(budget)] {
                let tag = |name: &str| format!("{name} n={n} pin={pin:?} elect={elect:?}");
                out.push((tag("fratricide"), fingerprint(Fratricide, n, pin, elect)));
                out.push((
                    tag("ulottery"),
                    fingerprint(UnboundedLottery, n, pin, elect),
                ));
                let pll = Pll::for_population(n).expect("n >= 2");
                out.push((tag("pll"), fingerprint(pll, n, pin, elect)));
            }
        }
    }
    out
}

/// Recorded [`Fingerprint`]s, labelled as in [`all_fingerprints`].
#[rustfmt::skip]
const EXPECTED: [Fingerprint; 60] = [
    (2048, false, 0x765e137dcfb5438f, 2, 0xc2141b2dffccb603), // fratricide n=256 pin=None run
    (2048, false, 0x13cffe45dca55879, 214, 0xc833fe1fb0ca55ce), // ulottery n=256 pin=None run
    (2048, false, 0x8b9d7728872203cc, 51, 0xc833fe1fb0ca55ce), // pll n=256 pin=None run
    (37908, true, 0x777b070b5d4822cf, 2, 0xb3c89ef950811e64), // fratricide n=256 pin=None elect
    (11332, true, 0x5d7499a3c621c3cd, 326, 0xe0c9e0c4f2e4ecd3), // ulottery n=256 pin=None elect
    (2283, true, 0x38ab31f858b5e8fb, 53, 0x2387f25d445ff6ca), // pll n=256 pin=None elect
    (2048, false, 0x6734c38186eb2e32, 2, 0xc833fe1fb0ca55ce), // fratricide n=256 pin=Some(Reference) run
    (2048, false, 0x13cffe45dca55879, 214, 0xc833fe1fb0ca55ce), // ulottery n=256 pin=Some(Reference) run
    (2048, false, 0x8b9d7728872203cc, 51, 0xc833fe1fb0ca55ce), // pll n=256 pin=Some(Reference) run
    (47276, true, 0x777b070b5d4822cf, 2, 0x6c571cf7b6431c5f), // fratricide n=256 pin=Some(Reference) elect
    (2502, true, 0xe11b23113a606ab1, 222, 0x75fb9cf74b31876c), // ulottery n=256 pin=Some(Reference) elect
    (2283, true, 0x38ab31f858b5e8fb, 53, 0x2387f25d445ff6ca), // pll n=256 pin=Some(Reference) elect
    (2048, false, 0x6734c38186eb2e32, 2, 0xc833fe1fb0ca55ce), // fratricide n=256 pin=Some(Compiled) run
    (2048, false, 0x13cffe45dca55879, 214, 0xc833fe1fb0ca55ce), // ulottery n=256 pin=Some(Compiled) run
    (2048, false, 0x8b9d7728872203cc, 51, 0xc833fe1fb0ca55ce), // pll n=256 pin=Some(Compiled) run
    (47276, true, 0x777b070b5d4822cf, 2, 0x6c571cf7b6431c5f), // fratricide n=256 pin=Some(Compiled) elect
    (2502, true, 0xe11b23113a606ab1, 222, 0x75fb9cf74b31876c), // ulottery n=256 pin=Some(Compiled) elect
    (2283, true, 0x38ab31f858b5e8fb, 53, 0x2387f25d445ff6ca), // pll n=256 pin=Some(Compiled) elect
    (2048, false, 0xfd0d6455c61fbdd2, 2, 0xef60be3d7ba0c5f1), // fratricide n=256 pin=Some(Jump) run
    (2048, false, 0x333e36889bab0253, 199, 0x59d9701f9e9dbd7b), // ulottery n=256 pin=Some(Jump) run
    (2048, false, 0xe6e3388283ce75b7, 46, 0x5a0c6ab70103b341), // pll n=256 pin=Some(Jump) run
    (88460, true, 0x777b070b5d4822cf, 2, 0x3ea6d7b2ffd60b09), // fratricide n=256 pin=Some(Jump) elect
    (1934, true, 0x855c4bbe23cb2a9f, 196, 0xd275a3ba4eb2940b), // ulottery n=256 pin=Some(Jump) elect
    (2124, true, 0xfc8c0d9697c592d6, 47, 0x2ffb55307b58886f), // pll n=256 pin=Some(Jump) elect
    (2048, false, 0xfd0d6455c61fbdd2, 2, 0x3c08536530222764), // fratricide n=256 pin=Some(Batch) run
    (2048, false, 0xe62f1db1d3aa72be, 215, 0x21769559aa7a1df7), // ulottery n=256 pin=Some(Batch) run
    (2048, false, 0x3a9277a1d3e97eab, 49, 0x2751d4dd7f07127c), // pll n=256 pin=Some(Batch) run
    (30823, true, 0x777b070b5d4822cf, 2, 0x9673805b183122c7), // fratricide n=256 pin=Some(Batch) elect
    (2160, true, 0xe4deac2702ff5537, 215, 0x45a3cc5d87b994bc), // ulottery n=256 pin=Some(Batch) elect
    (77222, true, 0xfc77022c54ca8a7d, 709, 0x5caa83bab22d4b61), // pll n=256 pin=Some(Batch) elect
    (131072, false, 0xf3617b7c31b92388, 2, 0x2562103cf87914ac), // fratricide n=16384 pin=None run
    (131072, false, 0xbbc884a012617441, 1715, 0xfac5b9a524eaaadc), // ulottery n=16384 pin=None run
    (131072, false, 0x9c7b616b3654b004, 69, 0x4d8e0056ebdba060), // pll n=16384 pin=None run
    (786432, false, 0x828013a76e3c0d98, 2, 0xeaa4a101ec012951), // fratricide n=16384 pin=None elect
    (206122, true, 0xe65cccdbc8ed2608, 1808, 0x84cbb4a33a2cbe89), // ulottery n=16384 pin=None elect
    (786432, false, 0x86c86f6cfb779e6a, 169, 0xa55e9048ef5912e7), // pll n=16384 pin=None elect
    (131072, false, 0x852421cb4d1d46e2, 2, 0x374dce6e01b3523c), // fratricide n=16384 pin=Some(Reference) run
    (131072, false, 0x62ec596f678bd442, 1675, 0x374dce6e01b3523c), // ulottery n=16384 pin=Some(Reference) run
    (131072, false, 0x91a99f6821e685fe, 71, 0x374dce6e01b3523c), // pll n=16384 pin=Some(Reference) run
    (786432, false, 0xf63eaf66dbe5b7ef, 2, 0x82a7c24277d7b360), // fratricide n=16384 pin=Some(Reference) elect
    (241579, true, 0x52e9aae283eaf18e, 1745, 0x9da4e9ca74317ea9), // ulottery n=16384 pin=Some(Reference) elect
    (280798, true, 0x5e51d120a340bdb9, 100, 0xd62fcdcf3c0ec82b), // pll n=16384 pin=Some(Reference) elect
    (131072, false, 0x852421cb4d1d46e2, 2, 0x374dce6e01b3523c), // fratricide n=16384 pin=Some(Compiled) run
    (131072, false, 0x62ec596f678bd442, 1675, 0x374dce6e01b3523c), // ulottery n=16384 pin=Some(Compiled) run
    (131072, false, 0x91a99f6821e685fe, 71, 0x374dce6e01b3523c), // pll n=16384 pin=Some(Compiled) run
    (786432, false, 0xf63eaf66dbe5b7ef, 2, 0x82a7c24277d7b360), // fratricide n=16384 pin=Some(Compiled) elect
    (241579, true, 0x52e9aae283eaf18e, 1745, 0x9da4e9ca74317ea9), // ulottery n=16384 pin=Some(Compiled) elect
    (280798, true, 0x5e51d120a340bdb9, 100, 0xd62fcdcf3c0ec82b), // pll n=16384 pin=Some(Compiled) elect
    (131072, false, 0x7bdb74d8655c2c2c, 2, 0xf2ae7c52206460f9), // fratricide n=16384 pin=Some(Jump) run
    (131072, false, 0xf3f87c152321c109, 1813, 0x52df981c31788da2), // ulottery n=16384 pin=Some(Jump) run
    (131072, false, 0xa14bf557f6b77498, 74, 0xa57f1c75ebd2b9d4), // pll n=16384 pin=Some(Jump) run
    (786432, false, 0xb8c5566c84650916, 2, 0x755e091439b7c801), // fratricide n=16384 pin=Some(Jump) elect
    (288127, true, 0x353707921a0f634e, 1935, 0x56ef0c4da8257de3), // ulottery n=16384 pin=Some(Jump) elect
    (257235, true, 0x1832ebcec270897f, 97, 0x190deab844baf79a), // pll n=16384 pin=Some(Jump) elect
    (131072, false, 0x24af155aa4d80471, 2, 0x85b5d1ae4061161d), // fratricide n=16384 pin=Some(Batch) run
    (131072, false, 0xb2fb8867717ad30, 1767, 0xa280f7574e9c87f5), // ulottery n=16384 pin=Some(Batch) run
    (131072, false, 0x4f2a25342f2368df, 74, 0x8fa98d23ce834119), // pll n=16384 pin=Some(Batch) run
    (786432, false, 0x828013a76e3c0d98, 2, 0x2343a49e5ad17f92), // fratricide n=16384 pin=Some(Batch) elect
    (218290, true, 0xea526fbe1129a762, 1821, 0x7fb45ff283af0034), // ulottery n=16384 pin=Some(Batch) elect
    (215834, true, 0xfb67ee3b70d0edf0, 93, 0x17a947ef5c9f6303), // pll n=16384 pin=Some(Batch) elect
];

#[test]
fn drivers_reproduce_recorded_trajectories() {
    let got = all_fingerprints();
    assert_eq!(got.len(), EXPECTED.len());
    let mismatches: Vec<String> = (got.iter().zip(&EXPECTED))
        .filter(|((_, fp), want)| fp != *want)
        .map(|((tag, fp), want)| format!("{tag}: got {fp:?}, want {want:?}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
