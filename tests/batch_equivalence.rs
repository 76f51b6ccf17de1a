//! The four execution tiers of the count engine must execute the **same
//! law**: identical stabilization-time distributions across the reference
//! (uncached), compiled, jump, and batch tiers, pinned by chi-square
//! homogeneity over pooled-quantile bins for the paper's own `P_LL`,
//! fratricide, and the state-unbounded lottery. The jump tier is covered
//! twice: engaging and exiting under heuristic dispatch, and pinned.
//!
//! The batch tier is additionally exercised far outside its heuristic
//! engagement envelope (tiny populations force rounds of a handful of
//! interactions with frequent collisions), so the suite covers the bulk
//! path, the collision path, and the exact shuffled convergence walk on
//! every protocol. A second group of tests is the ROADMAP's
//! support-compaction regression: `UnboundedLottery` at `n = 2^20` and
//! `2^22` interns tens of thousands of states, and the compiled cache must
//! *saturate and recover* — never deactivate — with the fast tiers
//! re-engaging once the live support collapses.

use population_protocols::core::Pll;
use population_protocols::engine::{CountSimulation, EngineTier, LeaderElection, Protocol, Role};
use population_protocols::protocols::{Fratricide, LotteryState, UnboundedLottery};
use population_protocols::rand::{SeedSequence, Xoshiro256PlusPlus};
use population_protocols::sim::stabilization_sweep;
use population_protocols::stats::{chi_square_samples, wilson95};
use std::cell::RefCell;
use std::collections::HashSet;

/// The columns under comparison: the reference and compiled pins,
/// heuristic dispatch (`None`), the batch pin, and the jump pin. Every
/// population here is too small for heuristic dispatch to engage batch
/// (below the crossover it needs `8·k² ≤ E[run]`, and even `k = 2` first
/// fits at 2704 agents), so heuristic dispatch is the jump tier engaging
/// and exiting on its own (with compaction on the unbounded lottery), while
/// the jump pin holds it engaged from step 0.
const TIERS: [Option<EngineTier>; 5] = [
    Some(EngineTier::Reference),
    Some(EngineTier::Compiled),
    None,
    Some(EngineTier::Batch),
    Some(EngineTier::Jump),
];

fn tier_sim<P: LeaderElection>(
    protocol: P,
    n: usize,
    rng: Xoshiro256PlusPlus,
    tier: Option<EngineTier>,
) -> CountSimulation<P, Xoshiro256PlusPlus> {
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    if let Some(tier) = tier {
        sim.pin_tier(tier).expect("n within the fast tiers' cap");
    }
    sim
}

/// Stabilization parallel times over `seeds` runs on one tier.
fn stabilization_sample<P: LeaderElection + Clone>(
    protocol: &P,
    n: usize,
    seeds: u64,
    salt: u64,
    tier: Option<EngineTier>,
) -> Vec<f64> {
    let seq = SeedSequence::new(salt);
    (0..seeds)
        .map(|seed| {
            let mut sim = tier_sim(protocol.clone(), n, seq.rng_at(seed), tier);
            let out = sim.run_until_single_leader(u64::MAX);
            assert!(out.converged, "{tier:?} seed {seed} did not converge");
            assert_eq!(sim.leader_count(), 1, "{tier:?} seed {seed}");
            assert_eq!(sim.steps(), out.steps, "{tier:?} seed {seed}");
            out.steps as f64 / n as f64
        })
        .collect()
}

/// Chi-square homogeneity of the [`TIERS`] columns' stabilization-time
/// samples, plus a Wilson-interval cross-check of the batch tier's
/// probability of stabilizing within the pooled median budget of the
/// reference, compiled and heuristic columns.
fn assert_four_tier_equivalence<P: LeaderElection + Clone>(
    protocol: P,
    n: usize,
    seeds: u64,
    salt: u64,
    bins: usize,
) {
    let samples: Vec<Vec<f64>> = TIERS
        .iter()
        .map(|&tier| stabilization_sample(&protocol, n, seeds, salt, tier))
        .collect();
    let refs: Vec<&[f64]> = samples.iter().map(|s| s.as_slice()).collect();
    let c = chi_square_samples(&refs, bins);
    assert!(
        c.accepts(0.001),
        "tier histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );

    // Binomial cross-check at a sensitive quantile: P(T <= pooled median)
    // must agree between the batch pin and the three established columns.
    let mut pooled: Vec<f64> = samples[..3].iter().flatten().copied().collect();
    pooled.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let budget = pooled[pooled.len() / 2];
    let hit = |sample: &[f64]| sample.iter().filter(|&&t| t <= budget).count() as u64;
    let established: u64 = samples[..3].iter().map(|s| hit(s)).sum();
    let (lo, hi) = wilson95(established, 3 * seeds);
    let p_batch = hit(&samples[3]) as f64 / seeds as f64;
    let slack = 1.96 * (p_batch * (1.0 - p_batch) / seeds as f64).sqrt();
    assert!(
        p_batch + slack >= lo && p_batch - slack <= hi,
        "P(T <= {budget}) batch = {p_batch:.3} outside Wilson interval [{lo:.3}, {hi:.3}]"
    );
}

#[test]
fn four_tiers_agree_on_fratricide() {
    // n = 64 stabilizes in ~n² steps; every tier path is genuinely hot
    // (jump engages in the sparse tail, batch rounds collide constantly).
    assert_four_tier_equivalence(Fratricide, 64, 120, 0, 6);
}

#[test]
fn four_tiers_agree_on_pll() {
    let n = 128;
    assert_four_tier_equivalence(Pll::for_population(n).expect("n >= 2"), n, 120, 10_000, 6);
}

#[test]
fn four_tiers_agree_on_unbounded_lottery() {
    assert_four_tier_equivalence(UnboundedLottery, 96, 120, 20_000, 6);
}

#[test]
fn forced_batch_rounds_exercise_collisions_and_walks() {
    // At n = 32 the expected collision-free run is ~3 interactions: a full
    // election through the batch tier is dominated by collision handling
    // and ends in an exact walk — the paths a large-n benchmark never hits.
    let mut collision_total = 0;
    let mut walk_total = 0;
    let seq = SeedSequence::new(500);
    for seed in 0..20 {
        let mut sim = tier_sim(Fratricide, 32, seq.rng_at(seed), Some(EngineTier::Batch));
        let out = sim.run_until_single_leader(u64::MAX);
        assert!(out.converged);
        assert_eq!(sim.leader_count(), 1);
        let stats = sim.metrics().batch;
        assert_eq!(
            stats.bulk_interactions + stats.collision_interactions,
            out.steps
        );
        collision_total += stats.collision_interactions;
        walk_total += stats.exact_walks;
    }
    assert!(collision_total > 100, "collisions never exercised");
    assert!(walk_total > 0, "exact walk never exercised");
}

// ---------------------------------------------------------------------------
// Support-compaction regression (ROADMAP: unbounded-state protocols must not
// fall off the fast path).
// ---------------------------------------------------------------------------

#[test]
fn unbounded_lottery_compacts_without_deactivating_at_2_20() {
    // Seed-state behavior: UnboundedLottery at n = 2^20 interned > 4096
    // states within ~4M interactions, *deactivating* the compiled cache
    // (and with it the jump scheduler) for the rest of the run even though
    // the live support collapses to a few dozen states. With saturation +
    // compaction the cache must stay active throughout. At 2^20 default
    // dispatch keeps this phase on the compiled agent array.
    let rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let mut sim = CountSimulation::new(UnboundedLottery, 1 << 20, rng).expect("n >= 2");
    compacts_without_deactivating(&mut sim);
}

#[test]
fn unbounded_lottery_keeps_fast_tiers_at_2_22() {
    // The same regression run to the end of the election: after the
    // compaction phase the engine must be back on a fast tier once the
    // support fits again. It runs at the batch crossover N* = 2^22, the
    // smallest population where the support rule can put the tail on
    // batch; below it the compiled agent array is the faster tier for the
    // high-support phase, and default dispatch keeps it there. At 4M agents
    // this is the suite's slowest test (about 17 s in the test profile).
    //
    // The election runs unbounded: when two lottery leaders tie (about 1
    // seed in 40) the tail lasts 10^3–10^5 parallel time, and any fixed
    // budget fails on whichever seeds the stream makes tie. Seeds 16 and 1
    // tied at 2^20 on earlier streams; both run. A stream change that makes
    // a seed tie here lengthens the test by that tail.
    for seed in [1, 16] {
        fast_tiers_engage_in_the_tail(seed);
    }
}

/// Runs six units of parallel time and checks that the compiled cache
/// stayed active while the lottery interned more than 4096 states, and
/// that the live slot space was compacted.
fn compacts_without_deactivating(sim: &mut CountSimulation<UnboundedLottery>) {
    let chunk = sim.population() as u64;
    for _ in 0..6 {
        sim.run(chunk);
        assert!(
            sim.pair_cache().is_active(),
            "cache deactivated at {} steps ({} states seen)",
            sim.steps(),
            sim.distinct_states_seen()
        );
    }
    assert!(
        sim.distinct_states_seen() > 4096,
        "workload too small to regress: {} states",
        sim.distinct_states_seen()
    );
    // The live slot space is compacted: bounded by support plus the dead
    // slack the compaction trigger tolerates, far below the states seen.
    assert!(
        sim.raw_counts().len() < sim.distinct_states_seen() / 2,
        "id space was never compacted: {} live slots for {} states seen",
        sim.raw_counts().len(),
        sim.distinct_states_seen()
    );
}

fn fast_tiers_engage_in_the_tail(seed: u64) {
    let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut sim = CountSimulation::new(UnboundedLottery, 1 << 22, rng).expect("n >= 2");
    compacts_without_deactivating(&mut sim);
    // Drive the election into its sparse tail: support collapses, the
    // cache covers every live id again, and a fast tier engages.
    let before = sim.tier_usage();
    let out = sim.run_until_single_leader(u64::MAX);
    assert!(out.converged, "election did not converge");
    assert_eq!(sim.leader_count(), 1);
    assert!(sim.pair_cache().is_active());
    assert!(
        !sim.pair_cache().is_saturated(sim.raw_counts().len()),
        "support collapsed but the cache is still saturated"
    );
    let after = sim.tier_usage();
    assert!(
        after.jump + after.batch > before.jump + before.batch,
        "seed {seed}: no fast tier ran in the tail ({before:?} -> {after:?})"
    );
    assert!(
        matches!(sim.active_tier(), EngineTier::Jump | EngineTier::Batch),
        "seed {seed}: fast tier not engaged: {} (support {})",
        sim.active_tier(),
        sim.support_size()
    );
}

/// `UnboundedLottery` that records every state it hands the engine — the
/// initial state and both successors of every transition — as an oracle
/// for `distinct_states_seen` that knows nothing of the engine's slots.
struct Recording<'a> {
    seen: &'a RefCell<HashSet<LotteryState>>,
}

impl Protocol for Recording<'_> {
    type State = LotteryState;
    type Output = Role;

    fn initial_state(&self) -> LotteryState {
        let s = UnboundedLottery.initial_state();
        self.seen.borrow_mut().insert(s);
        s
    }

    fn transition(&self, a: &LotteryState, b: &LotteryState) -> (LotteryState, LotteryState) {
        let (c, d) = UnboundedLottery.transition(a, b);
        self.seen.borrow_mut().extend([c, d]);
        (c, d)
    }

    fn output(&self, s: &LotteryState) -> Role {
        UnboundedLottery.output(s)
    }
}

#[test]
fn compaction_keeps_distinct_state_count_exact() {
    // distinct_states_seen is the Table-1 "states used" metric; compaction
    // reclaims the slots of dead states but must neither forget them nor
    // recount one that is later revisited. At n = 2^10 over 30n
    // interactions the lottery's live support stays a few dozen states
    // while hundreds die, so reviews compact repeatedly.
    let seen = RefCell::new(HashSet::new());
    let n = 1 << 10;
    let rng = Xoshiro256PlusPlus::seed_from_u64(7);
    let mut sim = CountSimulation::new(Recording { seen: &seen }, n, rng).expect("n >= 2");
    sim.run(30 * n as u64);
    assert!(
        sim.raw_counts().len() < sim.distinct_states_seen(),
        "compaction never fired: {} live slots for {} states seen",
        sim.raw_counts().len(),
        sim.distinct_states_seen()
    );
    assert_eq!(
        sim.distinct_states_seen(),
        seen.borrow().len(),
        "compaction distorted the Table-1 metric"
    );
    assert!(
        seen.borrow().len() > 100,
        "workload too small to exercise compaction"
    );
}

// ---------------------------------------------------------------------------
// Large-sample law checks, run in release mode by CI:
// `cargo test --release --test batch_equivalence -- --ignored`. Their
// samples are large enough to judge a tier's law after its RNG stream
// changes, which the 120-seed checks above are not. They are still
// statistical checks: each test states its false-alarm rate.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "large-sample law check; run with --release -- --ignored"]
fn fratricide_mean_matches_the_exact_law_at_2_14() {
    // From k leaders the next kill takes a geometric number of steps with
    // success probability p_k = k(k−1)/(n(n−1)), so the parallel time has
    // mean Σ 1/p_k / n = (n−1)²/n and variance Σ (1−p_k)/p_k² / n², both
    // exact. Default dispatch runs the batch tier first (its cells rule
    // below the crossover) and the jump tier in the sparse tail. Band: 4 standard errors of the mean, so a correct
    // engine fails by chance about 6e-5 of the time (normal approximation
    // to the 400-seed mean).
    let n = 1usize << 14;
    let seeds = 400;
    let points = stabilization_sweep(|_| Fratricide, &[n], seeds, 5, u64::MAX);
    assert_eq!(points[0].unconverged, 0);
    assert_eq!(points[0].times.count(), seeds);
    let nf = n as f64;
    let exact = (nf - 1.0).powi(2) / nf;
    let var: f64 = (2..=n)
        .map(|k| {
            let p = (k * (k - 1)) as f64 / (nf * (nf - 1.0));
            (1.0 - p) / (p * p)
        })
        .sum::<f64>()
        / (nf * nf);
    let band = 4.0 * (var / seeds as f64).sqrt();
    let mean = points[0].times.mean();
    assert!(
        (mean - exact).abs() <= band,
        "mean parallel time {mean:.1} vs exact {exact:.1} ± {band:.1} at n = {n}"
    );
}

#[test]
#[ignore = "large-sample law check; run with --release -- --ignored"]
fn batch_pin_matches_compiled_pin_on_pll_over_3000_seeds() {
    // P_LL at n = 128: chi-square homogeneity of the stabilization times
    // over 12 pooled-quantile bins, and at each quartile of the compiled
    // sample, the batch pin's P(T ≤ q) against the compiled pin's Wilson
    // interval. False alarms: 0.1% for chi-square; each quartile passes
    // within about 2.77 standard deviations of the batch-minus-compiled
    // difference (0.56%), so the three together fail by chance about 1.6%
    // of the time, and the test about 1.8%.
    let n = 128;
    let seeds = 3000;
    let pll = Pll::for_population(n).expect("n >= 2");
    let compiled = stabilization_sample(&pll, n, seeds, 40_000, Some(EngineTier::Compiled));
    let batch = stabilization_sample(&pll, n, seeds, 40_000, Some(EngineTier::Batch));
    let c = chi_square_samples(&[&compiled, &batch], 12);
    assert!(
        c.accepts(0.001),
        "histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );
    let mut sorted = compiled.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    for quartile in [1, 2, 3] {
        let q = sorted[quartile * sorted.len() / 4];
        let hit = |sample: &[f64]| sample.iter().filter(|&&t| t <= q).count() as u64;
        let (lo, hi) = wilson95(hit(&compiled), seeds);
        let p = hit(&batch) as f64 / seeds as f64;
        let slack = 1.96 * (p * (1.0 - p) / seeds as f64).sqrt();
        assert!(
            p + slack >= lo && p - slack <= hi,
            "quartile {quartile}: P(T <= {q}) batch = {p:.3} outside [{lo:.3}, {hi:.3}]"
        );
    }
}
