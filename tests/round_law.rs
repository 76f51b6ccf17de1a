//! The batch tier's **round law** must execute the same law as per-step
//! execution: forced-batch runs against the compiled tier (the per-step
//! pair cache with the jump scheduler and the batch tier off, bit-identical
//! to the reference tier), pinned by chi-square homogeneity over
//! pooled-quantile bins — the methodology of the four-tier suite in
//! `tests/batch_equivalence.rs`.
//!
//! A collision-free segment is paired either as contingency **cells** (the
//! table is small against the segment) or as shuffled **sequences** (wide
//! support, short segments, exact walks). Each regime below asserts which
//! side of that cutover its segments took:
//!
//! * elections at tiny `n` (Fratricide at 64, `P_LL` at 128): segments of a
//!   handful of interactions, so nearly every one is paired as sequences,
//!   with collisions and exact walks hot;
//! * fixed budgets at `n = 4096`: `Θ(√n)` segments, where Fratricide's
//!   ≤ 4-cell tables take the cells side and `P_LL` crosses from cells (its
//!   first rounds, while few states are live) to sequences.

use population_protocols::core::Pll;
use population_protocols::engine::{BatchStats, CountSimulation, LeaderElection};
use population_protocols::protocols::Fratricide;
use population_protocols::rand::{SeedSequence, Xoshiro256PlusPlus};
use population_protocols::stats::{chi_square_samples, wilson95};

/// A simulation pinned to the compiled tier (`batch == false`) or to the
/// batch tier.
fn pinned<P: LeaderElection>(
    protocol: P,
    n: usize,
    rng: Xoshiro256PlusPlus,
    batch: bool,
) -> CountSimulation<P, Xoshiro256PlusPlus> {
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    if batch {
        sim.force_batch_mode();
    } else {
        sim.set_jump_scheduler(false);
        sim.set_batch_tier(false);
    }
    sim
}

/// Segments paired as shuffled sequences without an exact walk.
fn sequence_segments(stats: &BatchStats) -> u64 {
    stats.episodes - stats.shuffle_skips - stats.exact_walks
}

/// Chi-square homogeneity of two samples, plus a Wilson-interval
/// cross-check of the batch tier's probability of landing at or below the
/// compiled tier's median.
fn assert_same_law(what: &str, compiled: &[f64], batch: &[f64], bins: usize) {
    let c = chi_square_samples(&[compiled, batch], bins);
    assert!(c.df > 0, "{what}: the statistic never varies");
    assert!(
        c.accepts(0.001),
        "{what}: histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );
    let mut sorted = compiled.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let median = sorted[sorted.len() / 2];
    let hit = |sample: &[f64]| sample.iter().filter(|&&t| t <= median).count() as u64;
    let (lo, hi) = wilson95(hit(compiled), compiled.len() as u64);
    let p = hit(batch) as f64 / batch.len() as f64;
    let slack = 1.96 * (p * (1.0 - p) / batch.len() as f64).sqrt();
    assert!(
        p + slack >= lo && p - slack <= hi,
        "{what}: P(X <= {median}) batch = {p:.3} outside Wilson interval [{lo:.3}, {hi:.3}]"
    );
}

/// Stabilization parallel times over `seeds` elections on one tier, with
/// the batch tier's counters summed over the batch runs.
fn elections<P: LeaderElection + Clone>(
    protocol: &P,
    n: usize,
    seeds: u64,
    salt: u64,
    batch: bool,
    stats: &mut BatchStats,
) -> Vec<f64> {
    let seq = SeedSequence::new(salt);
    (0..seeds)
        .map(|seed| {
            let mut sim = pinned(protocol.clone(), n, seq.rng_at(seed), batch);
            let out = sim.run_until_single_leader(u64::MAX);
            assert!(out.converged, "batch={batch} seed {seed} did not converge");
            assert_eq!(sim.leader_count(), 1, "batch={batch} seed {seed}");
            add(stats, &sim.metrics().batch);
            out.steps as f64 / n as f64
        })
        .collect()
}

/// Leader counts after `budget` interactions over `seeds` runs on one tier.
fn leaders_after<P: LeaderElection + Clone>(
    protocol: &P,
    n: usize,
    budget: u64,
    seeds: u64,
    salt: u64,
    batch: bool,
    stats: &mut BatchStats,
) -> Vec<f64> {
    let seq = SeedSequence::new(salt);
    (0..seeds)
        .map(|seed| {
            let mut sim = pinned(protocol.clone(), n, seq.rng_at(seed), batch);
            sim.run(budget);
            assert_eq!(sim.steps(), budget);
            add(stats, &sim.metrics().batch);
            sim.leader_count() as f64
        })
        .collect()
}

fn add(acc: &mut BatchStats, stats: &BatchStats) {
    acc.episodes += stats.episodes;
    acc.exact_walks += stats.exact_walks;
    acc.shuffle_skips += stats.shuffle_skips;
    acc.contingency_draws += stats.contingency_draws;
}

#[test]
fn round_laws_agree_on_fratricide() {
    // n = 64: segments of a handful of interactions, so even the 4-cell
    // table nearly always loses to the shuffle; the collision path and the
    // exact walk are hot.
    let mut stats = BatchStats::default();
    let compiled = elections(&Fratricide, 64, 200, 0, false, &mut BatchStats::default());
    let batch = elections(&Fratricide, 64, 200, 0, true, &mut stats);
    assert_same_law("fratricide@64", &compiled, &batch, 6);
    assert!(100 * stats.shuffle_skips < stats.episodes, "{stats:?}");
    assert!(
        stats.exact_walks > 0 && sequence_segments(&stats) > 0,
        "{stats:?}"
    );
}

#[test]
fn round_laws_agree_on_pll() {
    // The paper's protocol at n = 128: wide support and short segments,
    // all on the sequences side.
    let n = 128;
    let pll = Pll::for_population(n).expect("n >= 2");
    let mut stats = BatchStats::default();
    let compiled = elections(&pll, n, 150, 10_000, false, &mut BatchStats::default());
    let batch = elections(&pll, n, 150, 10_000, true, &mut stats);
    assert_same_law("pll@128", &compiled, &batch, 6);
    assert!(sequence_segments(&stats) > 0, "{stats:?}");
}

#[test]
fn round_laws_agree_on_fratricide_batch_regime() {
    // n = 4096 for 3n interactions: Θ(√n) segments whose ≤ 4-cell tables
    // take the cells side once they reach 32 interactions (most of them),
    // compared through the surviving leader count.
    let (n, seeds) = (4096usize, 300u64);
    let budget = 3 * n as u64;
    let mut stats = BatchStats::default();
    let compiled = leaders_after(&Fratricide, n, budget, seeds, 20_000, false, &mut stats);
    let batch = leaders_after(&Fratricide, n, budget, seeds, 20_000, true, &mut stats);
    assert_same_law("fratricide@4096, 3n interactions", &compiled, &batch, 6);
    assert!(
        stats.shuffle_skips > 0 && stats.contingency_draws > 0,
        "cells path never engaged: {stats:?}"
    );
    assert!(
        2 * stats.shuffle_skips >= stats.episodes,
        "most segments shuffled under a 4-cell table: {stats:?}"
    );
}

#[test]
fn contingency_law_skips_shuffles_on_small_support() {
    // Fratricide's two live states keep the per-ordered-pair table at <= 4
    // cells, so every segment of at least 32 interactions must draw cells
    // and skip the responder shuffle. At n = 2^16 segments average ~160
    // interactions; only the short tail of their length distribution (and
    // exact walks) shuffles.
    let n = 1 << 16;
    let mut sim = pinned(Fratricide, n, Xoshiro256PlusPlus::seed_from_u64(9), true);
    sim.run(6 * n as u64);
    let stats = sim.metrics().batch;
    assert!(stats.episodes > 0, "no batch episodes at n = {n}");
    assert!(
        stats.shuffle_skips > 0 && stats.contingency_draws > 0,
        "contingency path never engaged: {stats:?}"
    );
    assert!(
        10 * (stats.shuffle_skips + stats.exact_walks) >= 9 * stats.episodes,
        "shuffling segments under a 4-cell table: {stats:?}"
    );
}

#[test]
fn round_law_agrees_on_pll_across_the_cutover() {
    // n = 4096 for n interactions: P_LL's first rounds have few live states
    // and take the cells side, later ones the sequences side.
    let n = 4096;
    let pll = Pll::for_population(n).expect("n >= 2");
    let budget = n as u64;
    let mut stats = BatchStats::default();
    let compiled = leaders_after(&pll, n, budget, 300, 30_000, false, &mut stats);
    let batch = leaders_after(&pll, n, budget, 300, 30_000, true, &mut stats);
    assert_same_law("pll@4096, n interactions", &compiled, &batch, 6);
    assert!(
        stats.shuffle_skips > 0,
        "cells path never engaged: {stats:?}"
    );
    assert!(
        sequence_segments(&stats) > 0,
        "sequences path never engaged: {stats:?}"
    );
}
