//! Hypergeometric sampling, plus the multivariate (conditional)
//! decomposition the count engine's batch tier is built on.
//!
//! `Hypergeometric(N, K, r)` is the number of successes when drawing `r`
//! items without replacement from a population of `N` items containing `K`
//! successes. The batch engine samples, per `Θ(√n)`-length collision-free
//! round, how many of the round's interaction slots land in each state —
//! exactly a sequence of conditional hypergeometric draws (see
//! [`multivariate_hypergeometric`]).
//!
//! Two sampling paths, selected per draw:
//!
//! * **Inverse CDF** (mean `< 10` after symmetry reduction): the starting
//!   mass `P(X = 0) = C(N−K, r)/C(N, r)` is computed through log-factorials
//!   and the CDF is walked with the exact pmf ratio recurrence. `O(mean)`
//!   expected iterations.
//! * **HRUA** (mean `≥ 10`): Stadlober's ratio-of-uniforms rejection
//!   (E. Stadlober, *The ratio of uniforms approach for generating discrete
//!   random variates*, 1990; the algorithm behind NumPy's hypergeometric) —
//!   a squeeze-accepted `O(1)` sampler whose exact test runs only on the
//!   sliver the two squeeze inequalities cannot decide.
//!
//! Both paths are exact up to `f64` resolution of the uniform inputs (the
//! workspace-wide caveat carried by [`Geometric`](crate::Geometric)), and are
//! pinned against the exact pmf and against each other across the path
//! cutoff by the test suite.

use crate::lnfact::{ln_choose, ln_factorial, stirling_correction, STIRLING_MIN};
use crate::Rng64;

/// Below this mean (after symmetry reduction) the inverse-CDF walk is
/// cheaper than a rejection iteration; above it HRUA is `O(1)`.
const INVERSION_CUTOFF: f64 = 10.0;

/// `2·sqrt(2/e)` — the ratio-of-uniforms width constant of HRUA.
const HRUA_D1: f64 = 1.715_527_769_921_413_5;
/// `3 − 2·sqrt(3/e)` — the ratio-of-uniforms offset constant of HRUA.
const HRUA_D2: f64 = 0.898_916_162_058_898_8;

/// A hypergeometric distribution sampler: successes in `draws` items taken
/// without replacement from `total` items of which `successes` qualify.
///
/// # Example
///
/// ```
/// use pp_rand::{Hypergeometric, Rng64, Xoshiro256PlusPlus};
///
/// // 1024 draws from a population of 2^20 with half marked.
/// let h = Hypergeometric::new(1 << 20, 1 << 19, 1024).unwrap();
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
/// let x = h.sample(&mut rng);
/// assert!(x <= 1024);
/// assert!((x as f64 - 512.0).abs() < 6.0 * 16.0); // ~6σ
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypergeometric {
    total: u64,
    successes: u64,
    draws: u64,
}

impl Hypergeometric {
    /// Creates a sampler for `draws` from a population of `total` with
    /// `successes` marked items.
    ///
    /// Returns `None` when `successes > total` or `draws > total`.
    pub fn new(total: u64, successes: u64, draws: u64) -> Option<Self> {
        if successes > total || draws > total {
            return None;
        }
        Some(Self {
            total,
            successes,
            draws,
        })
    }

    /// The population size `N`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The number of marked items `K`.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// The number of draws `r`.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The mean `r·K/N`.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.draws as f64 * self.successes as f64 / self.total as f64
    }

    /// The variance `r·(K/N)·(1−K/N)·(N−r)/(N−1)`.
    pub fn variance(&self) -> f64 {
        if self.total <= 1 {
            return 0.0;
        }
        let n = self.total as f64;
        let p = self.successes as f64 / n;
        self.draws as f64 * p * (1.0 - p) * (n - self.draws as f64) / (n - 1.0)
    }

    /// Draws one sample.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        let (total, mut k, mut r) = (self.total, self.successes, self.draws);
        // Trivial edges: empty draw, all-or-nothing populations.
        if r == 0 || k == 0 {
            return 0;
        }
        if k == total {
            return r;
        }
        if r == total {
            return k;
        }
        // Symmetry reduction to k ≤ N/2 and r ≤ N/2: X(N,K,r) = r − X(N,N−K,r)
        // and X(N,K,r) = K − X(N,K,N−r). Both samplers are fastest (and HRUA
        // is parameterized) on the reduced quadrant.
        let flip_k = k * 2 > total;
        if flip_k {
            k = total - k;
        }
        let flip_r = r * 2 > total;
        if flip_r {
            r = total - r;
        }
        let mean = r as f64 * k as f64 / total as f64;
        let x = if mean < INVERSION_CUTOFF {
            inverse_cdf(rng, total, k, r)
        } else {
            hrua(rng, total, k, r)
        };
        // Undo the reductions in reverse order of application: the r-flip
        // relates the reduced draw to X(N, k, draws), and the k-flip then
        // reflects within the original draw count.
        let x = if flip_r { k - x } else { x };
        if flip_k {
            self.draws - x
        } else {
            x
        }
    }
}

/// Sequential CDF inversion from 0. Requires the reduced quadrant
/// (`k ≤ N/2`, `r ≤ N/2`, so the support starts at 0) and a small mean (so
/// `P(X = 0)` is far from underflow and the walk is short).
fn inverse_cdf<R: Rng64 + ?Sized>(rng: &mut R, total: u64, k: u64, r: u64) -> u64 {
    let mut pmf = ln_p0(total, k, r).exp();
    let mut u = rng.unit_f64();
    let max = r.min(k);
    let mut x = 0u64;
    loop {
        if u < pmf {
            return x;
        }
        u -= pmf;
        if x == max {
            // f64 residue past the support; the exact CDF reaches 1 here.
            return max;
        }
        // p(x+1)/p(x) = (k−x)(r−x) / ((x+1)(N−k−r+x+1)).
        pmf *= (k - x) as f64 * (r - x) as f64 / ((x + 1) as f64 * (total - k - r + x + 1) as f64);
        x += 1;
    }
}

/// `ln P(X = 0) = ln C(N−k, r) − ln C(N, r)` (needs `k + r ≤ N`), in
/// cancellation-free falling-factorial form.
///
/// The four log-factorials are each near `N ln N` while their difference is
/// near `−kr/N`, so subtracting them loses about `log10(r ln N)` digits:
/// 1.5e-5 relative error in `P(0)` at `N = 2^32 − 5`, `k = 3000`,
/// `r = 2^16`. Under Stirling's formula the `−x` and `½ ln 2π` terms cancel
/// exactly, and the `(x + ½) ln x` terms regroup into three `ln_1p` terms,
/// each of the size of the result:
/// `k·ln1p(−r/N) + r·ln1p(−k/(N−r)) + (N−k+½)·ln1p(kr / (N(N−k−r)))`,
/// plus the four small Stirling corrections. Populations too small for the
/// series take the direct difference, which is exact enough there.
fn ln_p0(total: u64, k: u64, r: u64) -> f64 {
    let rest = total - k - r;
    if rest < STIRLING_MIN {
        return ln_choose(total - k, r) - ln_choose(total, r);
    }
    let (n, kf, rf) = (total as f64, k as f64, r as f64);
    kf * (-rf / n).ln_1p()
        + rf * (-kf / (n - rf)).ln_1p()
        + (n - kf + 0.5) * (kf * rf / (n * rest as f64)).ln_1p()
        + (stirling_correction(total - k) - stirling_correction(rest))
        - (stirling_correction(total) - stirling_correction(total - r))
}

/// Stadlober's HRUA ratio-of-uniforms rejection. Requires the reduced
/// quadrant and a mean of at least ~10 (mode well inside the support).
fn hrua<R: Rng64 + ?Sized>(rng: &mut R, total: u64, k: u64, r: u64) -> u64 {
    let ln_tail = |z: u64| {
        ln_factorial(z)
            + ln_factorial(k - z)
            + ln_factorial(r - z)
            + ln_factorial(total - k - r + z)
    };
    let nf = total as f64;
    let p = k as f64 / nf;
    let q = 1.0 - p;
    let mu = r as f64 * p + 0.5;
    // Scale of the hat: the hypergeometric standard deviation plus a guard.
    let sigma = ((nf - r as f64) * r as f64 * p * q / (nf - 1.0) + 0.5).sqrt();
    let width = HRUA_D1 * sigma + HRUA_D2;
    let mode = ((r + 1) as f64 * (k + 1) as f64 / (nf + 2.0)).floor() as u64;
    let ln_mode = ln_tail(mode);
    // Proposals past ~16σ carry less mass than f64 resolves; capping them
    // keeps the subtraction arguments in range.
    let cap = (r.min(k) as f64 + 1.0).min((mu + 16.0 * sigma).floor());
    loop {
        let x = rng.unit_f64();
        if x == 0.0 {
            continue;
        }
        let y = rng.unit_f64();
        let w = mu + width * (y - 0.5) / x;
        if !(0.0..cap).contains(&w) {
            continue;
        }
        let z = w.floor() as u64;
        let t = ln_mode - ln_tail(z);
        // Squeeze accept / squeeze reject bracket the exact log test.
        if x * (4.0 - x) - 3.0 <= t {
            return z;
        }
        if x * (x - t) >= 1.0 {
            continue;
        }
        if 2.0 * x.ln() <= t {
            return z;
        }
    }
}

/// Draws a multivariate hypergeometric sample: `draws` items without
/// replacement from classes of sizes `counts`, writing how many land in each
/// class into `out` (which must have `counts.len()` entries; entries beyond
/// the early-exit point are zeroed).
///
/// This is the conditional decomposition: class `i` receives
/// `Hypergeometric(N_i, counts[i], r_i)` where `N_i` and `r_i` are the
/// population and draws remaining after classes `0..i`. Any fixed visiting
/// order yields the same joint law; iterating large classes first (as the
/// count engine's batch tier does with a sorted index) exhausts `r` sooner.
/// The loop exits as soon as the remaining draw count hits zero.
///
/// # Panics
///
/// Panics if `draws` exceeds the total count or `out` is shorter than
/// `counts`.
pub fn multivariate_hypergeometric<R: Rng64 + ?Sized>(
    rng: &mut R,
    counts: &[u64],
    draws: u64,
    out: &mut [u64],
) {
    assert!(out.len() >= counts.len(), "output slice too short");
    let mut remaining_pop: u64 = counts.iter().sum();
    assert!(draws <= remaining_pop, "cannot draw {draws} items");
    let mut remaining = draws;
    for (i, &c) in counts.iter().enumerate() {
        if remaining == 0 {
            out[i..counts.len()].fill(0);
            return;
        }
        let x = if c == 0 {
            0
        } else if remaining_pop == c {
            remaining
        } else {
            Hypergeometric::new(remaining_pop, c, remaining)
                .expect("class within population")
                .sample(rng)
        };
        out[i] = x;
        remaining -= x;
        remaining_pop -= c;
    }
    debug_assert_eq!(remaining, 0, "draws must be exhausted by the classes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    #[test]
    fn rejects_inconsistent_parameters() {
        assert!(Hypergeometric::new(10, 11, 5).is_none());
        assert!(Hypergeometric::new(10, 5, 11).is_none());
        assert!(Hypergeometric::new(10, 10, 10).is_some());
        assert!(Hypergeometric::new(0, 0, 0).is_some());
    }

    #[test]
    fn degenerate_parameters() {
        let mut r = rng(1);
        assert_eq!(Hypergeometric::new(10, 0, 5).unwrap().sample(&mut r), 0);
        assert_eq!(Hypergeometric::new(10, 10, 5).unwrap().sample(&mut r), 5);
        assert_eq!(Hypergeometric::new(10, 4, 10).unwrap().sample(&mut r), 4);
        assert_eq!(Hypergeometric::new(10, 4, 0).unwrap().sample(&mut r), 0);
    }

    #[test]
    fn samples_stay_in_support() {
        let mut r = rng(2);
        for &(n, k, d) in &[
            (10u64, 3u64, 7u64),
            (100, 99, 2),
            (1 << 20, 1 << 10, 1 << 12),
            (1 << 30, 3, 1 << 20),
            (97, 53, 61),
        ] {
            let h = Hypergeometric::new(n, k, d).unwrap();
            let lo = (k + d).saturating_sub(n);
            let hi = k.min(d);
            for _ in 0..2000 {
                let x = h.sample(&mut r);
                assert!((lo..=hi).contains(&x), "N={n} K={k} r={d}: {x}");
            }
        }
    }

    /// Exact pmf over the full support, mode-anchored (no underflow).
    fn exact_pmf(n: u64, k: u64, d: u64) -> (u64, Vec<f64>) {
        let lo = (k + d).saturating_sub(n);
        let hi = k.min(d);
        let len = (hi - lo + 1) as usize;
        let mut pmf = vec![0.0f64; len];
        let mode =
            (((d + 1) as f64 * (k + 1) as f64 / (n as f64 + 2.0)).floor() as u64).clamp(lo, hi);
        pmf[(mode - lo) as usize] = 1.0;
        // x ≥ lo ≥ k + d − n keeps (n − k) + x − d non-negative, so the
        // intermediate order matters for u64 arithmetic.
        for x in mode + 1..=hi {
            let prev = pmf[(x - 1 - lo) as usize];
            pmf[(x - lo) as usize] = prev * (k - x + 1) as f64 * (d - x + 1) as f64
                / (x as f64 * ((n - k) + x - d) as f64);
        }
        for x in (lo..mode).rev() {
            let next = pmf[(x + 1 - lo) as usize];
            pmf[(x - lo) as usize] = next * (x + 1) as f64 * ((n - k) + x + 1 - d) as f64
                / ((k - x) as f64 * (d - x) as f64);
        }
        let total: f64 = pmf.iter().sum();
        for v in &mut pmf {
            *v /= total;
        }
        (lo, pmf)
    }

    /// Wilson–Hilferty chi-square 0.001 critical value (df ≥ 3 here).
    fn critical(df: usize) -> f64 {
        let d = df as f64;
        let z = 3.090_232_306_167_813;
        let t = 1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt();
        d * t * t * t
    }

    fn assert_matches_exact_pmf(n: u64, k: u64, d: u64, draws: u64, seed: u64) {
        let (lo, pmf) = exact_pmf(n, k, d);
        let h = Hypergeometric::new(n, k, d).unwrap();
        let mut r = rng(seed);
        let mut observed = vec![0u64; pmf.len()];
        for _ in 0..draws {
            observed[(h.sample(&mut r) - lo) as usize] += 1;
        }
        let mut bins: Vec<(f64, u64)> = Vec::new();
        let (mut e_acc, mut o_acc) = (0.0, 0u64);
        for i in 0..pmf.len() {
            e_acc += pmf[i] * draws as f64;
            o_acc += observed[i];
            if e_acc >= 10.0 {
                bins.push((e_acc, o_acc));
                e_acc = 0.0;
                o_acc = 0;
            }
        }
        if let Some(last) = bins.last_mut() {
            last.0 += e_acc;
            last.1 += o_acc;
        }
        assert!(bins.len() >= 3, "degenerate binning for N={n} K={k} r={d}");
        let statistic: f64 = bins
            .iter()
            .map(|&(e, o)| (o as f64 - e) * (o as f64 - e) / e)
            .sum();
        let crit = critical(bins.len() - 1);
        assert!(
            statistic < crit,
            "N={n} K={k} r={d}: chi2 {statistic:.1} >= {crit:.1} (df {})",
            bins.len() - 1
        );
    }

    #[test]
    fn inversion_path_matches_exact_pmf() {
        // Reduced means below 10 stay on the inverse-CDF walk.
        assert_matches_exact_pmf(1000, 40, 50, 60_000, 11);
        assert_matches_exact_pmf(50, 7, 20, 60_000, 12);
        assert_matches_exact_pmf(1 << 20, 5000, 300, 60_000, 13);
    }

    /// `ln P(X = 0)` against an independent reference: the product
    /// `Π_{j<r} (1 − k/(N−j))` summed term by term in log space with
    /// Neumaier compensation. Relative error in `P(0)` at most 1e-12 at
    /// the points where the four-log-factorial difference lost 1.4e-10
    /// (N = 2^20), 2.4e-6 (N = 2^30) and 1.5e-5 (N = 2^32 − 5).
    #[test]
    fn p0_is_exact_to_1e12_at_huge_populations() {
        let (k, r) = (3000u64, 1u64 << 16);
        for total in [1u64 << 20, 1 << 30, (1 << 32) - 5] {
            let (mut sum, mut comp) = (0.0f64, 0.0f64);
            for j in 0..r {
                let t = (-(k as f64) / (total - j) as f64).ln_1p();
                let s = sum + t;
                comp += if sum.abs() >= t.abs() {
                    (sum - s) + t
                } else {
                    (t - s) + sum
                };
                sum = s;
            }
            let reference = sum + comp;
            let got = ln_p0(total, k, r);
            let rel = ((got - reference).exp() - 1.0).abs();
            assert!(
                rel <= 1e-12,
                "N = {total}: ln P(0) {got} vs {reference} (rel {rel:e})"
            );
            // Symmetric in k and r.
            let swapped = ln_p0(total, r, k);
            assert!(
                ((swapped - reference).exp() - 1.0).abs() <= 1e-12,
                "N = {total} swapped"
            );
        }
    }

    #[test]
    fn hrua_path_matches_exact_pmf() {
        // Reduced means of 10+ force HRUA, exercising both squeezes.
        assert_matches_exact_pmf(1000, 300, 400, 60_000, 21);
        assert_matches_exact_pmf(1 << 16, 1 << 15, 1 << 10, 60_000, 22);
        assert_matches_exact_pmf(200, 100, 100, 60_000, 23);
    }

    #[test]
    fn symmetry_flips_match_exact_pmf() {
        // K > N/2 and r > N/2 exercise each un-flip branch combination.
        assert_matches_exact_pmf(100, 80, 30, 60_000, 31); // flip K
        assert_matches_exact_pmf(100, 30, 80, 60_000, 32); // flip r
        assert_matches_exact_pmf(100, 80, 70, 60_000, 33); // flip both
    }

    #[test]
    fn huge_population_moments() {
        // N = 2^30, draws ~ √N: the batch tier's regime.
        let h = Hypergeometric::new(1 << 30, 1 << 28, 1 << 15).unwrap();
        let mut r = rng(41);
        let draws = 20_000;
        let samples: Vec<f64> = (0..draws).map(|_| h.sample(&mut r) as f64).collect();
        let mean: f64 = samples.iter().sum::<f64>() / draws as f64;
        let var: f64 =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (draws - 1) as f64;
        let se = (h.variance() / draws as f64).sqrt();
        assert!(
            (mean - h.mean()).abs() < 5.0 * se,
            "mean {mean} vs {}",
            h.mean()
        );
        let rel = (var / h.variance() - 1.0).abs();
        assert!(rel < 0.05, "variance off by {rel:.3}");
    }

    #[test]
    fn multivariate_counts_sum_and_marginals() {
        let counts = [500u64, 300, 0, 150, 50];
        let total: u64 = counts.iter().sum();
        let draws = 200u64;
        let mut out = [0u64; 5];
        let mut sums = [0f64; 5];
        let runs = 4000;
        let mut r = rng(61);
        for _ in 0..runs {
            multivariate_hypergeometric(&mut r, &counts, draws, &mut out);
            assert_eq!(out.iter().sum::<u64>(), draws);
            assert_eq!(out[2], 0);
            for (s, &o) in sums.iter_mut().zip(&out) {
                *s += o as f64;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = draws as f64 * c as f64 / total as f64;
            let got = sums[i] / runs as f64;
            assert!(
                (got - expect).abs() < 0.05 * expect.max(1.0),
                "class {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn multivariate_tiny_case_exact_law() {
        // counts = [2, 1], draws = 2: P(I = (2,0)) = C(2,2)/C(3,2) = 1/3.
        let mut r = rng(71);
        let mut out = [0u64; 2];
        let mut two_zero = 0u64;
        let runs = 60_000;
        for _ in 0..runs {
            multivariate_hypergeometric(&mut r, &[2, 1], 2, &mut out);
            if out == [2, 0] {
                two_zero += 1;
            }
        }
        let p = two_zero as f64 / runs as f64;
        assert!((p - 1.0 / 3.0).abs() < 0.01, "P[(2,0)] = {p}");
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn multivariate_rejects_overdraw() {
        let mut r = rng(0);
        let mut out = [0u64; 2];
        multivariate_hypergeometric(&mut r, &[1, 1], 3, &mut out);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::Xoshiro256PlusPlus;
    use proptest::prelude::*;

    proptest! {
        /// Sample mean and variance track the analytic moments for random
        /// parameters spanning both algorithm paths and all four symmetry
        /// quadrants.
        #[test]
        fn sample_moments_match_theory(
            total in 2u64..1 << 22,
            k_mill in 0u64..=1000,
            r_mill in 1u64..=1000,
            seed in 0u64..1 << 48,
        ) {
            let k = total * k_mill / 1000;
            let r = (total * r_mill / 1000).max(1);
            let h = Hypergeometric::new(total, k, r).unwrap();
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let draws = 1500u64;
            let lo = (k + r).saturating_sub(total);
            let hi = k.min(r);
            let mut sum = 0.0;
            let mut sum2 = 0.0;
            for _ in 0..draws {
                let x = h.sample(&mut rng);
                prop_assert!((lo..=hi).contains(&x), "N={total} K={k} r={r}: {x}");
                let x = x as f64;
                sum += x;
                sum2 += x * x;
            }
            let mean = sum / draws as f64;
            let var = (sum2 - sum * sum / draws as f64) / (draws - 1) as f64;
            let se_mean = (h.variance() / draws as f64).sqrt();
            prop_assert!(
                (mean - h.mean()).abs() <= 5.0 * se_mean + 1e-9,
                "N={total} K={k} r={r}: mean {mean} vs {}", h.mean()
            );
            let tol = 6.0 * (2.0 / draws as f64).sqrt() * h.variance()
                + 6.0 * h.variance().sqrt() / draws as f64
                + 1e-9;
            prop_assert!(
                (var - h.variance()).abs() <= tol,
                "N={total} K={k} r={r}: var {var} vs {}", h.variance()
            );
        }

        /// The multivariate decomposition conserves draws and never
        /// overdraws a class, for arbitrary class layouts.
        #[test]
        fn multivariate_is_a_partition(
            counts in proptest::collection::vec(0u64..500, 1..12),
            draw_mill in 0u64..=1000,
            seed in 0u64..1 << 48,
        ) {
            let total: u64 = counts.iter().sum();
            let draws = total * draw_mill / 1000;
            let mut out = vec![0u64; counts.len()];
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            multivariate_hypergeometric(&mut rng, &counts, draws, &mut out);
            prop_assert_eq!(out.iter().sum::<u64>(), draws);
            for (o, c) in out.iter().zip(&counts) {
                prop_assert!(o <= c, "class overdrawn: {o} > {c}");
            }
        }
    }
}
