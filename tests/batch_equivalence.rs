//! The four execution tiers of the count engine must execute the **same
//! law**: identical stabilization-time distributions across the reference
//! (uncached), compiled, jump, and batch tiers, pinned by chi-square
//! homogeneity over pooled-quantile bins for the paper's own `P_LL`,
//! fratricide, and the state-unbounded lottery.
//!
//! The batch tier is additionally exercised far outside its heuristic
//! engagement envelope (tiny populations force rounds of a handful of
//! interactions with frequent collisions), so the suite covers the bulk
//! path, the collision path, and the exact shuffled convergence walk on
//! every protocol. A second group of tests is the ROADMAP's
//! support-compaction regression: `UnboundedLottery` at `n = 2^20` interns
//! tens of thousands of states, and the compiled cache must *saturate and
//! recover* — never deactivate — with the fast tiers re-engaging once the
//! live support collapses.

use population_protocols::core::Pll;
use population_protocols::engine::{CountSimulation, EngineTier, LeaderElection};
use population_protocols::protocols::{Fratricide, UnboundedLottery};
use population_protocols::rand::{SeedSequence, Xoshiro256PlusPlus};
use population_protocols::stats::{chi_square_samples, wilson95};

/// The four execution tiers under comparison.
#[derive(Clone, Copy, Debug)]
enum Tier {
    Reference,
    Compiled,
    Jump,
    Batch,
}

const TIERS: [Tier; 4] = [Tier::Reference, Tier::Compiled, Tier::Jump, Tier::Batch];

fn tier_sim<P: LeaderElection>(
    protocol: P,
    n: usize,
    rng: Xoshiro256PlusPlus,
    tier: Tier,
) -> CountSimulation<P, Xoshiro256PlusPlus> {
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    match tier {
        Tier::Reference => sim.set_compiled_cache(false),
        Tier::Compiled => {
            sim.set_jump_scheduler(false);
            sim.set_batch_tier(false);
        }
        Tier::Jump => sim.set_batch_tier(false),
        Tier::Batch => sim.force_batch_mode(),
    }
    sim
}

/// Stabilization parallel times over `seeds` runs on one tier.
fn stabilization_sample<P: LeaderElection + Clone>(
    protocol: &P,
    n: usize,
    seeds: u64,
    salt: u64,
    tier: Tier,
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

/// Chi-square homogeneity of the four tiers' stabilization-time samples,
/// plus a Wilson-interval cross-check of the batch tier's probability of
/// stabilizing within the pooled median budget.
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
        "four-tier histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );

    // Binomial cross-check at a sensitive quantile: P(T <= pooled median)
    // must agree between the batch tier and the three established tiers.
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
        let mut sim = tier_sim(Fratricide, 32, seq.rng_at(seed), Tier::Batch);
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
fn unbounded_lottery_keeps_fast_tiers_at_2_20() {
    // Seed-state behavior: UnboundedLottery at n = 2^20 interned > 4096
    // states within ~4M interactions, *deactivating* the compiled cache
    // (and with it the jump scheduler) for the rest of the run even though
    // the live support collapses to a few dozen states. With saturation +
    // compaction the cache must stay active throughout and the engine must
    // be back on a fast tier once the support fits again.
    let n = 1 << 20;
    let rng = Xoshiro256PlusPlus::seed_from_u64(1);
    let mut sim = CountSimulation::new(UnboundedLottery, n, rng).expect("n >= 2");
    let chunk = n as u64;
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
    // Drive the election into its sparse tail: support collapses, the
    // cache covers every live id again, and a fast tier engages.
    let out = sim.run_until_single_leader(40 * (n as u64) * 30);
    assert!(out.converged, "election did not converge");
    assert_eq!(sim.leader_count(), 1);
    assert!(sim.pair_cache().is_active());
    assert!(
        !sim.pair_cache().is_saturated(sim.raw_counts().len()),
        "support collapsed but the cache is still saturated"
    );
    assert!(
        matches!(sim.active_tier(), EngineTier::Jump | EngineTier::Batch),
        "fast tier not engaged: {} (support {})",
        sim.active_tier(),
        sim.support_size()
    );
}

#[test]
fn compaction_keeps_distinct_state_count_exact() {
    // distinct_states_seen is the Table-1 "states used" metric; compaction
    // must not recount states that die and are later revisited. Compare a
    // compacting run against a compaction-free twin on the same RNG stream:
    // compaction consumes no randomness, so the executions are identical.
    use population_protocols::engine::EngineConfig;
    let n = 1 << 14;
    let run = |compaction: bool| {
        let rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let config = EngineConfig {
            compaction,
            ..EngineConfig::default()
        };
        let mut sim =
            CountSimulation::with_config(UnboundedLottery, n, rng, config).expect("n >= 2");
        // Heuristic tiers off: jump/batch draw differently once engaged,
        // and this twin comparison needs identical RNG consumption.
        sim.set_jump_scheduler(false);
        sim.set_batch_tier(false);
        sim.run(3 * n as u64);
        (sim.distinct_states_seen(), sim.state_counts(), sim.steps())
    };
    let (seen_on, counts_on, steps_on) = run(true);
    let (seen_off, counts_off, steps_off) = run(false);
    assert_eq!(steps_on, steps_off);
    assert_eq!(seen_on, seen_off, "compaction distorted the Table-1 metric");
    assert_eq!(counts_on, counts_off, "compaction distorted the execution");
    assert!(seen_on > 1000, "workload too small to exercise compaction");
}
