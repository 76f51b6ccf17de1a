//! The jump scheduler must execute the **same law** as the per-step engines:
//! identical stabilization-time distributions (pinned by chi-square
//! homogeneity against both the compiled count engine and the per-agent
//! reference engine) and — much stronger — **identical trajectories modulo
//! null-step compression** when driven by a crafted RNG stream.
//!
//! The replay suite works because one jump episode consumes exactly two RNG
//! words (one for the geometric null-run length when known-null pairs exist,
//! one for the active-pair draw), both of which can be *inverted*: given a
//! per-step trace of the compiled engine, we compute for each episode the
//! null-run length and the lexicographic rank of the executed pair in the
//! scheduler's active-candidate distribution, then synthesize the exact
//! words that make `Geometric::sample` and `Rng64::below` reproduce them.
//! Feeding that stream to a jump-forced twin must replay the compiled
//! engine's execution configuration-for-configuration and step-for-step —
//! for *arbitrary* random transition tables.

use pp_engine::{
    CountSimulation, EngineTier, LeaderElection, Protocol, Role, Simulation, UniformScheduler,
};
use pp_rand::{Geometric, Rng64, Xoshiro256PlusPlus};
use pp_stats::{chi_square_homogeneity, quantile_bins, wilson95};
use proptest::prelude::*;
use std::collections::HashSet;

/// A protocol given by an explicit transition table over states `0..k`.
#[derive(Debug, Clone)]
struct TableProtocol {
    k: u8,
    /// `table[a * k + b] = (a', b')`.
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
        if *s == 0 {
            Role::Leader
        } else {
            Role::Follower
        }
    }
}

impl LeaderElection for TableProtocol {}

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

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

// ---------------------------------------------------------------------------
// Law-level equivalence: chi-square over stabilization-time histograms.
// ---------------------------------------------------------------------------

/// Stabilization parallel times of fratricide at `n` over `seeds` runs on
/// the selected engine path.
fn stabilization_sample(n: usize, seeds: u64, path: EnginePath) -> Vec<f64> {
    (0..seeds)
        .map(|seed| {
            let steps = match path {
                EnginePath::Agent => {
                    let sched = UniformScheduler::seed_from_u64(seed);
                    let mut sim = Simulation::new(Frat, n, sched).unwrap();
                    let out = sim.run_until_single_leader(u64::MAX);
                    assert!(out.converged);
                    out.steps
                }
                EnginePath::Compiled | EnginePath::Jump => {
                    let mut sim = CountSimulation::new(Frat, n, rng(seed)).unwrap();
                    if matches!(path, EnginePath::Compiled) {
                        sim.pin_tier(EngineTier::Compiled).unwrap();
                    }
                    let out = sim.run_until_single_leader(u64::MAX);
                    assert!(out.converged);
                    assert_eq!(sim.leader_count(), 1);
                    out.steps
                }
            };
            steps as f64 / n as f64
        })
        .collect()
}

#[derive(Clone, Copy)]
enum EnginePath {
    Agent,
    Compiled,
    Jump,
}

#[test]
fn stabilization_law_agrees_across_all_three_engine_tiers() {
    // Fratricide at n = 64 converges in ~n² steps; with 150 seeds per tier
    // the jump path engages naturally in the sparse tail of every run (the
    // engage threshold needs the ~16 surviving leaders regime), so the test
    // genuinely exercises telescoped execution, not a disengaged scheduler.
    let n = 64;
    let seeds = 150;
    let agent = stabilization_sample(n, seeds, EnginePath::Agent);
    let compiled = stabilization_sample(n, seeds, EnginePath::Compiled);
    let jump = stabilization_sample(n, seeds, EnginePath::Jump);

    let hists = quantile_bins(&[&agent, &compiled, &jump], 6);
    let c = chi_square_homogeneity(&[&hists[0], &hists[1], &hists[2]]);
    assert!(
        c.accepts(0.001),
        "three-tier histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );

    // Binomial cross-check via Wilson intervals: the probability of
    // stabilizing within a fixed budget must agree between the jump path and
    // the per-step paths.
    let budget = n as f64; // parallel-time budget ~ E[T]/4: a sensitive quantile
    let hit = |sample: &[f64]| sample.iter().filter(|&&t| t <= budget).count() as u64;
    let (lo, hi) = wilson95(hit(&agent) + hit(&compiled), 2 * seeds);
    let p_jump = hit(&jump) as f64 / seeds as f64;
    // Widen by the jump sample's own Monte-Carlo noise.
    let slack = 1.96 * (p_jump * (1.0 - p_jump) / seeds as f64).sqrt();
    assert!(
        p_jump + slack >= lo && p_jump - slack <= hi,
        "P(T <= {budget}) jump = {p_jump:.3} outside Wilson interval [{lo:.3}, {hi:.3}]"
    );
}

#[test]
fn jump_engages_and_telescopes_the_fratricide_tail() {
    let mut sim = CountSimulation::new(Frat, 256, rng(7)).unwrap();
    let out = sim.run_until_single_leader(u64::MAX);
    assert!(out.converged);
    assert_eq!(sim.leader_count(), 1);
    let stats = sim.metrics().jump;
    assert!(stats.episodes > 0, "scheduler never engaged");
    assert!(
        stats.skipped > out.steps / 2,
        "tail should be dominated by telescoped nulls: skipped {} of {}",
        stats.skipped,
        out.steps
    );
}

#[test]
fn silent_configuration_telescopes_whole_budgets_exactly() {
    // After fratricide stabilizes, every realizable pair is null: W_active
    // is 0 and arbitrary budgets must telescope in O(1) without touching
    // the configuration.
    let mut sim = CountSimulation::new(Frat, 128, rng(3)).unwrap();
    sim.run_until_single_leader(u64::MAX);
    let counts = sim.raw_counts().to_vec();
    let steps = sim.steps();
    sim.run(1_000_000_000_000);
    assert_eq!(sim.steps(), steps + 1_000_000_000_000);
    assert_eq!(sim.raw_counts(), &counts[..]);
    assert_eq!(sim.leader_count(), 1);
}

#[test]
fn manual_steps_between_jump_runs_keep_the_ledger_exact() {
    // Regression: step() mutates counts behind an engaged scheduler's back;
    // without dirtying the ledger, the next episode sampled against stale
    // weights — reproducibly panicking inside NullLedger::sample_active
    // once enough manual interactions had shifted the configuration.
    let mut sim = CountSimulation::new(Frat, 4096, rng(21)).unwrap();
    // Run until the scheduler engages in the sparse tail.
    while sim.active_tier() != EngineTier::Jump {
        sim.run(4096);
        assert!(sim.steps() < 1 << 40, "scheduler never engaged");
    }
    // Execute many non-null interactions manually: the leader count and the
    // null-pair weights drift far from the ledger's last sync.
    let mut changed = 0;
    while changed < 900 && sim.leader_count() > 2 {
        if sim.step() {
            changed += 1;
        }
    }
    assert_eq!(sim.active_tier(), EngineTier::Jump);
    // Resuming batched execution must resync and stay exact to convergence.
    let out = sim.run_until_single_leader(u64::MAX);
    assert!(out.converged);
    assert_eq!(sim.leader_count(), 1);
}

#[test]
fn run_budgets_stay_exact_while_jumping() {
    let mut sim = CountSimulation::new(Frat, 64, rng(9)).unwrap();
    for chunk in [1u64, 7, 64, 1000, 4096, 100_000] {
        let before = sim.steps();
        sim.run(chunk);
        assert_eq!(sim.steps(), before + chunk);
    }
}

// ---------------------------------------------------------------------------
// Trajectory-level equivalence: deterministic replay via RNG inversion.
// ---------------------------------------------------------------------------

/// An `Rng64` yielding a scripted word sequence.
struct ReplayRng {
    words: Vec<u64>,
    pos: usize,
}

impl Rng64 for ReplayRng {
    fn next_u64(&mut self) -> u64 {
        let w = self.words.get(self.pos).copied().unwrap_or_else(|| {
            panic!("replay stream exhausted at word {}", self.pos);
        });
        self.pos += 1;
        w
    }
}

/// Scheduler weight of the ordered state pair under `counts`.
fn weight(counts: &[u64], s: usize, t: usize) -> u64 {
    counts[s] * counts[t].saturating_sub(u64::from(s == t))
}

/// Lexicographic rank of pair `(s, t)` in the active-candidate distribution:
/// total weight of active (non-known-null) pairs strictly before it.
fn active_rank(counts: &[u64], known: &HashSet<(usize, usize)>, s: usize, t: usize) -> u64 {
    let mut rank = 0;
    for ps in 0..counts.len() {
        for pt in 0..counts.len() {
            if (ps, pt) >= (s, t) {
                return rank;
            }
            if !known.contains(&(ps, pt)) {
                rank += weight(counts, ps, pt);
            }
        }
    }
    rank
}

/// Synthesizes the word that makes `Rng64::below(bound)` return `target`
/// without entering the rejection path (`bound ≤ 2^62` required).
fn invert_below(target: u64, bound: u64) -> u64 {
    assert!(bound <= 1 << 62 && target < bound);
    let x = ((((2 * target + 1) as u128) << 63) / bound as u128) as u64;
    // Self-check: the multiply-shift must land on `target` with a low half
    // clear of the threshold branch.
    let m = (x as u128) * (bound as u128);
    assert_eq!((m >> 64) as u64, target);
    assert!((m as u64) >= bound);
    x
}

/// Synthesizes the word that makes `Geometric::new(p).sample` return `k`,
/// or `None` when `k` is beyond the sampler's f64-resolution support.
fn invert_geometric(p: f64, k: u64) -> Option<u64> {
    let q = 1.0 - p;
    let target = q.powf(k as f64 + 0.5);
    if target <= 0.0 || target >= 1.0 {
        return None;
    }
    // unit_f64 = (word >> 11) · 2⁻⁵³ and the sampler uses u = 1 − unit_f64.
    let mantissa = ((1.0 - target) * (1u64 << 53) as f64).round() as u64;
    let geo = Geometric::new(p).expect("p in (0, 1]");
    for m in mantissa.saturating_sub(64)..=(mantissa + 64).min((1 << 53) - 1) {
        let word = m << 11;
        let mut probe = ReplayRng {
            words: vec![word],
            pos: 0,
        };
        if geo.sample(&mut probe) == k {
            return Some(word);
        }
    }
    None
}

/// Traces `steps` per-step interactions of the compiled engine, compresses
/// the known-null runs into jump episodes, crafts the RNG words that make a
/// jump-forced twin draw exactly those episodes, and asserts the twin
/// replays the execution configuration-for-configuration and
/// step-for-step. Returns the total number of interactions the twin
/// telescoped past (so callers can assert the replay exercised real jumps).
fn assert_jump_replays_compiled<P>(protocol: P, n: usize, steps: usize, seed: u64) -> u64
where
    P: LeaderElection + Clone,
{
    // Phase 1: per-step trace of the compiled engine.
    let mut tracer = CountSimulation::new(protocol.clone(), n, rng(seed)).unwrap();
    tracer.pin_tier(EngineTier::Compiled).unwrap();
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (s, t, changed) = tracer.step_traced();
        trace.push((s, t, changed, tracer.raw_counts().to_vec()));
    }

    // Phases 2+3: compress known-null runs into episodes and invert each
    // episode's two RNG words against the jump twin's evolving state.
    let mut known: HashSet<(usize, usize)> = HashSet::new();
    let mut counts: Vec<u64> = vec![n as u64]; // the initial state holds everyone
    let w_total = (n as u64) * (n as u64 - 1);
    let mut words = Vec::new();
    // (steps consumed by episode, expected counts after, expected total steps)
    let mut episodes: Vec<(u64, Vec<u64>, u64)> = Vec::new();
    let mut run_nulls = 0u64;
    let mut truncated = false;
    for (i, (s, t, changed, counts_after)) in trace.iter().enumerate() {
        if known.contains(&(*s, *t)) {
            assert!(!changed, "known-null pair executed a change");
            run_nulls += 1;
            continue;
        }
        // Episode terminator: this draw comes from the twin's active
        // distribution.
        let w_null: u64 = known.iter().map(|&(a, b)| weight(&counts, a, b)).sum();
        let w_active = w_total - w_null;
        if w_null > 0 {
            let p = w_active as f64 / w_total as f64;
            let Some(word) = invert_geometric(p, run_nulls) else {
                // Beyond geometric f64 support (astronomically rare): stop
                // extending the replay; the prefix still verifies.
                truncated = true;
                break;
            };
            words.push(word);
        } else {
            assert_eq!(run_nulls, 0, "a null run can only consist of known nulls");
        }
        let mut grown = counts.clone();
        grown.resize(counts_after.len(), 0);
        let u = active_rank(&grown, &known, *s, *t);
        assert!(u < w_active);
        words.push(invert_below(u, w_active));
        if !changed {
            known.insert((*s, *t));
        }
        counts = counts_after.clone();
        episodes.push((run_nulls + 1, counts_after.clone(), i as u64 + 1));
        run_nulls = 0;
    }
    assert!(
        !episodes.is_empty(),
        "a {steps}-step trace always contains at least one first encounter"
    );

    // Phase 4: replay on a jump-forced twin driven by the crafted words.
    let replay = ReplayRng { words, pos: 0 };
    let mut twin = CountSimulation::<_, ReplayRng>::new(protocol, n, replay).unwrap();
    twin.pin_tier(EngineTier::Jump).unwrap();
    let mut skipped = 0u64;
    for (consumed, expect_counts, expect_steps) in &episodes {
        twin.run(*consumed);
        skipped += consumed - 1;
        assert_eq!(twin.steps(), *expect_steps, "step counter diverged");
        assert_eq!(
            twin.raw_counts(),
            &expect_counts[..],
            "configuration diverged at step {expect_steps}"
        );
    }
    if !truncated {
        // Trailing known-null draws past the last episode change nothing, so
        // the tracer's final leader count matches the twin's.
        assert_eq!(twin.leader_count(), tracer.leader_count());
    }
    assert_eq!(twin.metrics().jump.skipped, skipped);
    skipped
}

#[test]
fn jump_replays_fratricide_deterministically_with_real_skips() {
    // Fratricide at small n goes null-dominated quickly: the crafted replay
    // must contain genuine telescoped runs, not just length-0 skips.
    let mut total_skipped = 0;
    for seed in 0..8 {
        total_skipped += assert_jump_replays_compiled(Frat, 16, 400, seed);
    }
    assert!(
        total_skipped > 100,
        "replays exercised almost no telescoping: {total_skipped} skipped"
    );
}

proptest! {
    /// For arbitrary random transition tables: trace the compiled per-step
    /// engine, compress its null runs against an evolving known-null set,
    /// and craft an RNG stream that makes a jump-forced twin replay the
    /// execution exactly — same configurations, same step counters, same
    /// leader counts at every configuration change.
    #[test]
    fn jump_replays_compiled_trajectories_modulo_null_compression(
        k in 2u8..6,
        table_seed in 0u64..1_000_000,
        rng_seed in 0u64..1_000_000,
        n in 8usize..48,
    ) {
        // Null-biased tables so traces contain real null runs: half the
        // entries are identities.
        let mut t = Xoshiro256PlusPlus::seed_from_u64(table_seed);
        let table: Vec<(u8, u8)> = (0..(k as usize * k as usize))
            .map(|i| {
                if t.coin() {
                    ((i / k as usize) as u8, (i % k as usize) as u8)
                } else {
                    (t.below(k as u64) as u8, t.below(k as u64) as u8)
                }
            })
            .collect();
        let protocol = TableProtocol { k, table };
        assert_jump_replays_compiled(protocol, n, 256, rng_seed);
    }
}
