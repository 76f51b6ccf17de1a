//! Log-factorials for the discrete-distribution samplers.
//!
//! [`Hypergeometric`](crate::Hypergeometric) evaluates log-probability-mass
//! ratios inside its acceptance tests and inverse-CDF start, which
//! reduces to `ln k!` at integer arguments. Rust's standard library has no
//! stable `ln_gamma`, so this module provides one specialized to what the
//! samplers need: exact products below 16 (where `k!` fits an integer and a
//! single `ln` is correctly rounded), and a Stirling series above, accurate to
//! well under `1e-13` relative — far below the `f64`-resolution caveat the
//! samplers already carry on their uniform inputs.

/// `ln(2π) / 2`.
const HALF_LN_TWO_PI: f64 = 0.918_938_533_204_672_8;

/// Arguments below this bound are served from a precomputed table. The
/// samplers' small arguments (a hypergeometric draw count and the sampled
/// value, both bounded by the batch tier's `Θ(√n)` round length) land here
/// on nearly every call, turning two of the four `ln` evaluations per
/// acceptance test into loads.
const TABLE_LEN: usize = 1024;

/// Lazily computed `ln k!` for `k < TABLE_LEN`, filled by [`ln_factorial_uncached`]
/// itself so cached and uncached answers are bit-identical.
static SMALL: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();

/// `ln(k!)`.
///
/// Exact (one correctly-rounded `ln` of an exact integer) for `k < 16`;
/// Stirling's series with four correction terms beyond, with error below
/// `1e-13` relative at the crossover and falling as `k⁻⁹`. Values below
/// [`TABLE_LEN`] are served from a table precomputed by the same code
/// path, so caching never changes a result bit.
#[inline]
pub(crate) fn ln_factorial(k: u64) -> f64 {
    if k < TABLE_LEN as u64 {
        return SMALL.get_or_init(|| (0..TABLE_LEN as u64).map(ln_factorial_uncached).collect())
            [k as usize];
    }
    ln_factorial_uncached(k)
}

/// The direct evaluation behind [`ln_factorial`].
fn ln_factorial_uncached(k: u64) -> f64 {
    if k < STIRLING_MIN {
        // 15! = 1_307_674_368_000 is exactly representable.
        let mut f = 1u64;
        for i in 2..=k {
            f *= i;
        }
        return (f as f64).ln();
    }
    let x = k as f64;
    // ln k! = (k + ½) ln k − k + ½ ln 2π + stirling_correction(k)
    (x + 0.5) * x.ln() - x + HALF_LN_TWO_PI + stirling_correction(k)
}

/// The correction terms of Stirling's series for `ln k!`:
/// `1/(12k) − 1/(360k³) + 1/(1260k⁵) − 1/(1680k⁷)`, accurate for
/// `k ≥ STIRLING_MIN`.
#[inline]
pub(crate) fn stirling_correction(k: u64) -> f64 {
    let inv = 1.0 / k as f64;
    let inv2 = inv * inv;
    inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))
}

/// The smallest argument [`ln_factorial`] evaluates by Stirling's series.
pub(crate) const STIRLING_MIN: u64 = 16;

/// `ln C(n, k)` for `k ≤ n`.
#[inline]
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_summation() {
        // Σ ln i is itself accurate to ~1e-14 · terms; agreement to 1e-10
        // across the crossover pins both the exact branch and the series.
        let mut acc = 0.0f64;
        for k in 1..=2000u64 {
            acc += (k as f64).ln();
            let got = ln_factorial(k);
            assert!(
                (got - acc).abs() <= 1e-10 * acc.max(1.0),
                "k={k}: {got} vs {acc}"
            );
        }
    }

    #[test]
    fn small_values_exact() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert_eq!(ln_factorial(2), 2f64.ln());
        assert_eq!(ln_factorial(5), 120f64.ln());
    }

    #[test]
    fn choose_matches_pascal() {
        for n in 0..30u64 {
            let mut c = 1u64;
            for k in 0..=n {
                let got = ln_choose(n, k).exp();
                assert!(
                    (got - c as f64).abs() < 1e-6 * c as f64 + 1e-9,
                    "C({n},{k}) = {got} vs {c}"
                );
                if k < n {
                    c = c * (n - k) / (k + 1);
                }
            }
        }
    }

    #[test]
    fn table_is_bit_identical_to_direct_evaluation() {
        for k in 0..TABLE_LEN as u64 {
            assert_eq!(
                ln_factorial(k).to_bits(),
                ln_factorial_uncached(k).to_bits()
            );
        }
    }

    #[test]
    fn large_arguments_stay_finite() {
        let big = ln_factorial(u64::MAX / 2);
        assert!(big.is_finite() && big > 0.0);
    }
}
