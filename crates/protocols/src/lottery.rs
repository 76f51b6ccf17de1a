//! An \[MST18\]-like leader election: unbounded lottery levels plus unbounded
//! tie-break bits — `O(log n)` expected parallel time at the cost of a state
//! space that grows with the population (the `O(n)`-states row of Table 1).

use pp_engine::{LeaderElection, Protocol, Role};

/// The state of one [`UnboundedLottery`] agent.
///
/// The `(level, bits, nbits)` triple orders agents lexicographically: first
/// by lottery level, then by the common prefix of tie-break bits. Followers
/// freeze their triple and act as epidemic carriers of the maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LotteryState {
    /// Whether the agent still outputs `L`.
    pub leader: bool,
    /// Geometric lottery level: initiator roles count heads until the first
    /// responder role (tail).
    pub level: u32,
    /// Whether the level phase has finished (first tail seen).
    pub level_done: bool,
    /// Tie-break bits accumulated most-significant-first.
    pub bits: u64,
    /// Number of valid tie-break bits (≤ 64).
    pub nbits: u8,
}

impl LotteryState {
    /// The initial state: a leader at level 0 that has not seen a tail.
    pub fn initial() -> Self {
        Self {
            leader: true,
            level: 0,
            level_done: false,
            bits: 0,
            nbits: 0,
        }
    }

    /// Compares the comparable information of two agents:
    /// `Some(Ordering)` on levels when they differ, otherwise on the common
    /// prefix of tie-break bits (`None` when the prefixes agree).
    fn compare(&self, other: &Self) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        match self.level.cmp(&other.level) {
            Ordering::Equal => {}
            ord => return Some(ord),
        }
        let k = self.nbits.min(other.nbits);
        if k == 0 {
            return None;
        }
        let a = self.bits >> (self.nbits - k);
        let b = other.bits >> (other.nbits - k);
        match a.cmp(&b) {
            Ordering::Equal => None,
            ord => Some(ord),
        }
    }

    fn adopt(&mut self, winner: &Self) {
        self.level = winner.level;
        self.bits = winner.bits;
        self.nbits = winner.nbits;
        self.level_done = true;
        self.leader = false;
    }
}

impl Default for LotteryState {
    fn default() -> Self {
        Self::initial()
    }
}

/// An \[MST18\]-like leader election protocol.
///
/// Every agent plays the geometric lottery with *role coins*: at each
/// interaction, participating as initiator counts a head (`level += 1`),
/// participating as responder is the first tail and freezes the level. After
/// that, agents that are still leaders keep appending tie-break bits
/// (initiator = 0, responder = 1, up to 64); the lexicographic maximum
/// `(level, bit-prefix)` propagates through the population by one-way
/// epidemic, demoting every leader that sees a strictly larger value.
///
/// Differences from `P_LL` that this baseline makes visible:
///
/// * **no size knowledge** is needed, but
/// * the state space is unbounded (levels and 64-bit strings), i.e. `O(n)`
///   distinct states in practice — this is what Table 1 reports for
///   \[MST18\]; and
/// * role coins are anticorrelated within an interaction (the "naive"
///   simulation the paper points out in §3.1.1), which is fine for a
///   baseline but would invalidate `P_LL`'s exact survivor-count analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnboundedLottery;

impl UnboundedLottery {
    /// Creates the protocol.
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for UnboundedLottery {
    type State = LotteryState;
    type Output = Role;

    fn initial_state(&self) -> LotteryState {
        LotteryState::initial()
    }

    fn transition(
        &self,
        initiator: &LotteryState,
        responder: &LotteryState,
    ) -> (LotteryState, LotteryState) {
        let mut s = [*initiator, *responder];

        // Phase 1: the geometric level lottery (role coins).
        if !s[0].level_done {
            s[0].level += 1; // head
        }
        if !s[1].level_done {
            s[1].level_done = true; // first tail
        }
        // Phase 2: leaders with frozen levels grow tie-break bits. The
        // loop index doubles as the appended bit (initiator = 0).
        #[allow(clippy::needless_range_loop)]
        for i in 0..2 {
            if s[i].leader && s[i].level_done && s[i].nbits < 64 {
                s[i].bits = (s[i].bits << 1) | i as u64;
                s[i].nbits += 1;
            }
        }
        // Phase 3: epidemic of the maximum (level, prefix) among agents with
        // frozen levels; strictly smaller agents are demoted and carry the
        // winner's value.
        if s[0].level_done && s[1].level_done {
            match s[0].compare(&s[1]) {
                Some(std::cmp::Ordering::Less) => {
                    let winner = s[1];
                    s[0].adopt(&winner);
                }
                Some(std::cmp::Ordering::Greater) => {
                    let winner = s[0];
                    s[1].adopt(&winner);
                }
                _ => {
                    // Identical comparable information. If both are leaders
                    // with saturated bit strings, fall back to the simple
                    // election to guarantee eventual uniqueness.
                    if s[0].leader && s[1].leader && s[0].nbits == 64 && s[1].nbits == 64 {
                        s[1].leader = false;
                    }
                }
            }
        }

        (s[0], s[1])
    }

    fn output(&self, state: &LotteryState) -> Role {
        if state.leader {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn name(&self) -> String {
        "UnboundedLottery[MST18-like]".to_string()
    }
}

impl LeaderElection for UnboundedLottery {
    fn monotone_leaders(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{CountSimulation, Simulation, UniformScheduler};
    use pp_rand::{SeedSequence, Xoshiro256PlusPlus};

    #[test]
    fn level_phase_counts_initiator_roles() {
        let p = UnboundedLottery::new();
        let a = LotteryState::initial();
        let b = LotteryState::initial();
        let (na, nb) = p.transition(&a, &b);
        assert_eq!(na.level, 1);
        assert!(!na.level_done);
        assert_eq!(nb.level, 0);
        assert!(nb.level_done, "responder saw its first tail");
        // The responder (now frozen, still leader) starts growing bits.
        assert_eq!(nb.nbits, 1);
        assert_eq!(nb.bits, 1);
    }

    #[test]
    fn comparison_demotes_smaller_level() {
        let p = UnboundedLottery::new();
        let mut lo = LotteryState::initial();
        lo.level = 1;
        lo.level_done = true;
        let mut hi = LotteryState::initial();
        hi.level = 4;
        hi.level_done = true;
        let (nlo, nhi) = p.transition(&lo, &hi);
        assert!(!nlo.leader);
        assert_eq!(nlo.level, nhi.level);
        assert!(nhi.leader);
    }

    #[test]
    fn prefix_comparison_ignores_extra_bits() {
        let a = LotteryState {
            leader: true,
            level: 3,
            level_done: true,
            bits: 0b10,
            nbits: 2,
        };
        let b = LotteryState {
            leader: true,
            level: 3,
            level_done: true,
            bits: 0b101,
            nbits: 3,
        };
        // Common prefix (2 bits): 10 vs 10 — equal, no comparison verdict.
        assert_eq!(a.compare(&b), None);
        let c = LotteryState { bits: 0b11, ..a };
        assert_eq!(c.compare(&b), Some(std::cmp::Ordering::Greater));
    }

    #[test]
    fn followers_never_grow_bits() {
        let p = UnboundedLottery::new();
        let f = LotteryState {
            leader: false,
            level: 2,
            level_done: true,
            bits: 0b1,
            nbits: 1,
        };
        let (nf, _) = p.transition(&f, &f.clone());
        assert_eq!(nf.nbits, 1, "followers' triples are frozen");
    }

    #[test]
    fn stabilizes_and_stays_stable() {
        for n in [2usize, 3, 16, 256] {
            let mut sim = Simulation::new(
                UnboundedLottery,
                n,
                UniformScheduler::seed_from_u64(100 + n as u64),
            )
            .unwrap();
            let o = sim.run_until_single_leader(100_000_000);
            assert!(o.converged, "n={n}");
            sim.run(20_000);
            assert_eq!(sim.leader_count(), 1, "n={n}");
        }
    }

    #[test]
    fn leader_count_monotone_positive() {
        let mut sim =
            Simulation::new(UnboundedLottery, 64, UniformScheduler::seed_from_u64(3)).unwrap();
        let mut last = sim.leader_count();
        for _ in 0..50_000 {
            sim.step();
            let now = sim.leader_count();
            assert!(now <= last && now >= 1);
            last = now;
        }
    }

    #[test]
    fn logarithmic_time_shape() {
        let seeds = SeedSequence::new(12);
        let mean = |n: usize| {
            let mut total = 0.0;
            for i in 0..10 {
                let mut sim = Simulation::new(
                    UnboundedLottery,
                    n,
                    UniformScheduler::seed_from_u64(seeds.seed_at(i + n as u64)),
                )
                .unwrap();
                total += sim.run_until_single_leader(u64::MAX).parallel_time(n);
            }
            total / 10.0
        };
        let r = mean(1024) / mean(256);
        // Logarithmic: ratio ≈ lg(1024)/lg(256) = 1.25; linear would be 4.
        assert!(r < 2.0, "ratio {r} too steep for O(log n)");
    }

    #[test]
    fn state_usage_grows_with_population() {
        let distinct = |n: usize| {
            let rng = Xoshiro256PlusPlus::seed_from_u64(5);
            let mut sim = CountSimulation::new(UnboundedLottery, n, rng).unwrap();
            sim.run_until_single_leader(u64::MAX);
            sim.distinct_states_seen()
        };
        let small = distinct(64);
        let large = distinct(1024);
        assert!(
            large as f64 > small as f64 * 2.0,
            "states {small} -> {large}: expected clear growth"
        );
    }
}
