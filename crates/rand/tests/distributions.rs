//! Known-answer vectors for the discrete-distribution samplers.
//!
//! The inverse-CDF path of [`Hypergeometric`] is a deterministic function
//! of one scripted RNG word, so it can be pinned against an
//! **exact-rational reference implementation** (Python `fractions`,
//! inverting the exact CDF at `u = (word >> 11)·2⁻⁵³` with the same symmetry
//! reductions). Every vector was screened to lie at least `1e-9` of CDF mass
//! away from a pmf boundary, so `f64` rounding in the recurrence cannot flip
//! the answer. The rejection path (HRUA) consumes data-dependent numbers of
//! words and is pinned distributionally instead — by the chi-square
//! goodness-of-fit suites in the crate's unit tests.

use pp_rand::{Hypergeometric, Rng64};

/// An `Rng64` yielding a scripted word sequence (panics when exhausted).
struct ScriptedRng {
    words: Vec<u64>,
    pos: usize,
}

impl ScriptedRng {
    fn one(word: u64) -> Self {
        Self {
            words: vec![word],
            pos: 0,
        }
    }
}

impl Rng64 for ScriptedRng {
    fn next_u64(&mut self) -> u64 {
        let w = self.words[self.pos];
        self.pos += 1;
        w
    }
}

/// `(N, K, r, rng word, expected)` — exact-rational CDF inversion reference,
/// including every combination of the two symmetry flips.
const HYPERGEOMETRIC_KAT: &[(u64, u64, u64, u64, u64)] = &[
    (1000, 40, 50, 0x02f2e78c9f3b9015, 0),
    (1000, 40, 50, 0x81cb6393f2eaf8a9, 2),
    (1000, 40, 50, 0x4ce14ec57a7b50a3, 1),
    (50, 7, 20, 0xbf606b88cbd6f14d, 4),
    (50, 7, 20, 0xc77a9a0e8635fa2b, 4),
    (50, 7, 20, 0xede45941ce8b4d53, 5),
    // The batch tier's regime: tiny per-state mean at a 2^20 population.
    (1048576, 5000, 300, 0x5c48de95d84b83bd, 1),
    (1048576, 5000, 300, 0xd22e0bf06e2d4cc8, 2),
    (1048576, 5000, 300, 0x77f6e2753f879a33, 1),
    // K > N/2 (flip K).
    (100, 80, 30, 0xf9548b509226c210, 20),
    (100, 80, 30, 0x93e74ac4e22f0cf5, 24),
    (100, 80, 30, 0xd598efd2fbba56b9, 22),
    // r > N/2 (flip r).
    (100, 30, 80, 0xa4c8c410e2fdda7e, 23),
    (100, 30, 80, 0x9e8e56b28c7841dc, 23),
    (100, 30, 80, 0xf74358e37d64c6da, 21),
    // Both flips.
    (100, 80, 70, 0x809ab41edac8eba8, 56),
    (100, 80, 70, 0x4023529fdc865e23, 55),
    (100, 80, 70, 0x9f96f92d1dbf4960, 57),
    (37, 21, 19, 0x0d7a7d6579e4732c, 8),
    (37, 21, 19, 0xa57df4c809358663, 11),
    (37, 21, 19, 0x087a5380e1e2cddb, 8),
];

#[test]
fn hypergeometric_inversion_matches_exact_rational_reference() {
    for &(total, k, r, word, expected) in HYPERGEOMETRIC_KAT {
        let h = Hypergeometric::new(total, k, r).unwrap();
        let got = h.sample(&mut ScriptedRng::one(word));
        assert_eq!(
            got, expected,
            "Hypergeometric({total}, {k}, {r}) with word {word:#x}: {got} != {expected}"
        );
    }
}

#[test]
fn inversion_paths_consume_exactly_one_word() {
    // The KAT construction relies on the inverse-CDF path reading a single
    // uniform; a second read would panic the scripted RNG above, but assert
    // the position explicitly for clarity.
    let mut rng = ScriptedRng {
        words: vec![0xbf606b88cbd6f14d, 0xdead],
        pos: 0,
    };
    Hypergeometric::new(50, 7, 20).unwrap().sample(&mut rng);
    assert_eq!(rng.pos, 1);
}
