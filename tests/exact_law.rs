//! The per-step tiers judged against an exact law that owes nothing to the
//! engine.
//!
//! Fratricide (`L, L → L, F`) started from `n` leaders loses a leader
//! exactly when a leader initiates with a leader, which the uniformly
//! random scheduler picks with probability `p_k = k(k−1) / (n(n−1))` while
//! `k` leaders remain. Its stabilization time in interactions is therefore
//! the sum of independent geometrics `Geom(p_n) + … + Geom(p_2)` on
//! `{1, 2, …}`, whose pmf is computed here in plain `f64` arithmetic. The
//! compiled and reference pins (both on the agent array at these sizes)
//! must match it: Pearson's chi-square on equal-probability exact bins and
//! the Dvoretzky–Kiefer–Wolfowitz band on the empirical CDF, each at level
//! 0.001. The two pins draw the same positions, so their step counts must
//! also agree seed for seed.

use population_protocols::engine::{CountSimulation, EngineTier};
use population_protocols::protocols::Fratricide;
use population_protocols::rand::SeedSequence;
use population_protocols::stats::chi_square_critical;

/// Seeds per population and pin.
const SEEDS: u64 = 1000;

/// Equal-probability bins of the chi-square test.
const BINS: usize = 20;

/// Significance level of both tests.
const ALPHA: f64 = 0.001;

/// `pmf[t] = P(T = t)` for fratricide's stabilization time `T` (in
/// interactions) from `n` leaders, truncated where the remaining mass is
/// below `1e-12`. Convolving with `Geom(p)` on `{1, 2, …}` is the
/// recurrence `h[t] = p·f[t−1] + (1−p)·h[t−1]`.
fn fratricide_pmf(n: u64) -> Vec<f64> {
    let pairs = (n * (n - 1)) as f64;
    // The slowest phase, two leaders, has p_2 = 2/(n(n−1)); its tail
    // (1 − p_2)^t is below 1e-15 after 35/p_2 steps, and the sum's tail
    // after a little more.
    let len = (40.0 * pairs / 2.0) as usize;
    let mut f = vec![0.0; len];
    f[0] = 1.0;
    for k in 2..=n {
        let p = (k * (k - 1)) as f64 / pairs;
        let mut h = vec![0.0; len];
        for t in 1..len {
            h[t] = p * f[t - 1] + (1.0 - p) * h[t - 1];
        }
        f = h;
    }
    let mass: f64 = f.iter().sum();
    assert!(1.0 - mass < 1e-12, "truncated mass {}", 1.0 - mass);
    f
}

/// Stabilization steps of `SEEDS` fratricide elections at `n` on `tier`.
fn sample(n: usize, tier: EngineTier) -> Vec<u64> {
    let seq = SeedSequence::new(0x1a77_0000 + n as u64);
    (0..SEEDS)
        .map(|seed| {
            let mut sim = CountSimulation::new(Fratricide, n, seq.rng_at(seed)).expect("n >= 2");
            sim.pin_tier(tier).expect("pinned before the first step");
            let out = sim.run_until_single_leader(u64::MAX);
            assert!(out.converged, "{tier} seed {seed} did not converge");
            out.steps
        })
        .collect()
}

/// Pearson's statistic of `steps` against `pmf` over `BINS` bins whose
/// edges are the exact `j / BINS` quantiles.
fn chi_square(steps: &[u64], pmf: &[f64]) -> (f64, usize) {
    let mut upper = Vec::with_capacity(BINS);
    let mut probs = Vec::with_capacity(BINS);
    let (mut cdf, mut bin_mass) = (0.0, 0.0);
    for (t, &p) in pmf.iter().enumerate() {
        cdf += p;
        bin_mass += p;
        if cdf >= (upper.len() + 1) as f64 / BINS as f64 && upper.len() + 1 < BINS {
            upper.push(t as u64);
            probs.push(bin_mass);
            bin_mass = 0.0;
        }
    }
    upper.push(u64::MAX);
    probs.push(1.0 - probs.iter().sum::<f64>());
    let mut observed = vec![0u64; upper.len()];
    for &s in steps {
        observed[upper.partition_point(|&u| u < s)] += 1;
    }
    let m = steps.len() as f64;
    let statistic = observed
        .iter()
        .zip(&probs)
        .map(|(&o, &p)| (o as f64 - m * p).powi(2) / (m * p))
        .sum();
    (statistic, upper.len() - 1)
}

/// `sup_t |F_m(t) − F(t)|` between the empirical CDF of `steps` and the
/// exact CDF. Both are step functions, so the supremum is attained just
/// before or at a sample value.
fn ks_distance(steps: &[u64], pmf: &[f64]) -> f64 {
    let mut cdf = Vec::with_capacity(pmf.len());
    let mut acc = 0.0;
    for &p in pmf {
        acc += p;
        cdf.push(acc);
    }
    let exact = |t: u64| cdf.get(t as usize).copied().unwrap_or(1.0);
    let mut sorted = steps.to_vec();
    sorted.sort_unstable();
    let m = sorted.len() as f64;
    let mut sup: f64 = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let x = sorted[i];
        let j = sorted.partition_point(|&s| s <= x);
        sup = sup
            .max((i as f64 / m - exact(x - 1)).abs())
            .max((j as f64 / m - exact(x)).abs());
        i = j;
    }
    sup
}

fn assert_exact_law(n: usize) {
    let pmf = fratricide_pmf(n as u64);
    let compiled = sample(n, EngineTier::Compiled);
    let reference = sample(n, EngineTier::Reference);
    assert_eq!(compiled, reference, "n={n}: the pins must draw alike");
    let (statistic, df) = chi_square(&compiled, &pmf);
    let critical = chi_square_critical(df, ALPHA);
    assert!(
        statistic < critical,
        "n={n}: chi2 = {statistic:.2} over {df} df exceeds {critical:.2}"
    );
    let band = ((2.0 / ALPHA).ln() / (2.0 * SEEDS as f64)).sqrt();
    let distance = ks_distance(&compiled, &pmf);
    assert!(
        distance < band,
        "n={n}: sup |F_m - F| = {distance:.4} outside the DKW band {band:.4}"
    );
}

#[test]
fn pmf_has_the_closed_form_mean() {
    // E[T] = Σ_{k=2..n} 1/p_k = (n−1)² exactly.
    for n in [32u64, 64] {
        let mean: f64 = fratricide_pmf(n)
            .iter()
            .enumerate()
            .map(|(t, &p)| t as f64 * p)
            .sum();
        let exact = ((n - 1) * (n - 1)) as f64;
        assert!(
            (mean / exact - 1.0).abs() < 1e-9,
            "n={n}: {mean} vs {exact}"
        );
    }
}

#[test]
fn per_step_pins_match_the_exact_law_at_32() {
    assert_exact_law(32);
}

#[test]
fn per_step_pins_match_the_exact_law_at_64() {
    assert_exact_law(64);
}
