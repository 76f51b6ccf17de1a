//! An \[Ali+17\]-like bounded lottery: the standalone ancestor of `P_LL`'s
//! `QuickElimination()` module.

use pp_engine::{LeaderElection, Protocol, Role};

/// The state of one [`BoundedLottery`] agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoundedLotteryState {
    /// Whether the agent still outputs `L`.
    pub leader: bool,
    /// Lottery level, capped at the protocol's `l_max`.
    pub level: u32,
    /// Whether the level phase has finished (first tail seen).
    pub done: bool,
}

/// A bounded-level lottery election, the idea the paper credits to the
/// lottery protocol of \[Ali+17\] (§3.1.1) — implemented standalone:
///
/// * every agent counts initiator roles as heads until its first responder
///   role (tail), capping the level at `l_max = 5·m`;
/// * the maximum level spreads by one-way epidemic (followers carry) and
///   demotes smaller-level leaders;
/// * leaders with equal levels fall back to the simple election (responder
///   yields).
///
/// State space: `2 × 2 × (l_max + 1) = O(log n)` — between Fratricide's
/// `O(1)` and the unbounded lottery's `O(n)`. Expected time: the lottery
/// phase takes `O(log n)` parallel time, but ties (constant probability)
/// must be broken by pairwise meetings, so the tail costs `Θ(n)` — this is
/// precisely the gap `P_LL`'s `Tournament()` and `BackUp()` modules close,
/// and the comparison experiment makes it visible.
///
/// # Example
///
/// ```
/// use pp_engine::{Simulation, UniformScheduler};
/// use pp_protocols::BoundedLottery;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = BoundedLottery::for_population(500)?;
/// let mut sim = Simulation::new(p, 500, UniformScheduler::seed_from_u64(3))?;
/// assert!(sim.run_until_single_leader(u64::MAX).converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedLottery {
    lmax: u32,
}

impl BoundedLottery {
    /// Creates the protocol with an explicit level cap.
    ///
    /// # Panics
    ///
    /// Panics if `lmax == 0`.
    pub fn new(lmax: u32) -> Self {
        assert!(lmax > 0, "level cap must be positive");
        Self { lmax }
    }

    /// Creates the protocol with the `P_LL`-style cap `l_max = 5·⌈lg n⌉`.
    ///
    /// # Errors
    ///
    /// Returns a message when `n < 2`.
    pub fn for_population(n: usize) -> Result<Self, String> {
        if n < 2 {
            return Err(format!("population of {n} agents is too small"));
        }
        let m = (n as f64).log2().ceil().max(1.0) as u32;
        Ok(Self::new(5 * m))
    }

    /// The level cap.
    pub fn lmax(&self) -> u32 {
        self.lmax
    }
}

impl Protocol for BoundedLottery {
    type State = BoundedLotteryState;
    type Output = Role;

    fn initial_state(&self) -> BoundedLotteryState {
        BoundedLotteryState {
            leader: true,
            level: 0,
            done: false,
        }
    }

    fn transition(
        &self,
        initiator: &BoundedLotteryState,
        responder: &BoundedLotteryState,
    ) -> (BoundedLotteryState, BoundedLotteryState) {
        let mut s = [*initiator, *responder];
        // Role coins: initiator counts a head, responder sees its first tail.
        if !s[0].done {
            s[0].level = (s[0].level + 1).min(self.lmax);
        }
        if !s[1].done {
            s[1].done = true;
        }
        // Max-level epidemic among finished agents; smaller level is demoted
        // and carries the maximum.
        if s[0].done && s[1].done {
            use std::cmp::Ordering;
            match s[0].level.cmp(&s[1].level) {
                Ordering::Less => {
                    s[0].leader = false;
                    s[0].level = s[1].level;
                }
                Ordering::Greater => {
                    s[1].leader = false;
                    s[1].level = s[0].level;
                }
                Ordering::Equal => {
                    // Simple-election fallback on ties.
                    if s[0].leader && s[1].leader {
                        s[1].leader = false;
                    }
                }
            }
        }
        (s[0], s[1])
    }

    fn output(&self, state: &BoundedLotteryState) -> Role {
        if state.leader {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    fn name(&self) -> String {
        format!("BoundedLottery[Ali+17-like](lmax={})", self.lmax)
    }
}

impl LeaderElection for BoundedLottery {
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
    fn roles_drive_the_level_phase() {
        let p = BoundedLottery::new(10);
        let (a, b) = p.transition(&p.initial_state(), &p.initial_state());
        assert_eq!(a.level, 1);
        assert!(!a.done);
        assert!(b.done);
        assert_eq!(b.level, 0);
    }

    #[test]
    fn level_saturates() {
        let p = BoundedLottery::new(3);
        let mut l = p.initial_state();
        l.level = 3;
        let f = BoundedLotteryState {
            leader: false,
            level: 0,
            done: true,
        };
        let (nl, _) = p.transition(&l, &f);
        assert_eq!(nl.level, 3);
    }

    #[test]
    fn max_level_demotes_and_propagates() {
        let p = BoundedLottery::new(10);
        let lo = BoundedLotteryState {
            leader: true,
            level: 2,
            done: true,
        };
        let hi = BoundedLotteryState {
            leader: true,
            level: 7,
            done: true,
        };
        let (nlo, nhi) = p.transition(&lo, &hi);
        assert!(!nlo.leader);
        assert_eq!(nlo.level, 7);
        assert!(nhi.leader);
        // Followers carry.
        let f = BoundedLotteryState {
            leader: false,
            level: 9,
            done: true,
        };
        let (nl, _) = p.transition(&hi, &f);
        assert!(!nl.leader);
        assert_eq!(nl.level, 9);
    }

    #[test]
    fn equal_levels_fall_back_to_simple_election() {
        let p = BoundedLottery::new(10);
        let l = BoundedLotteryState {
            leader: true,
            level: 4,
            done: true,
        };
        let (a, b) = p.transition(&l, &l);
        assert!(a.leader);
        assert!(!b.leader);
    }

    #[test]
    fn stabilizes_and_is_monotone() {
        for n in [2usize, 3, 64, 512] {
            let p = BoundedLottery::for_population(n).expect("n >= 2");
            let mut sim =
                Simulation::new(p, n, UniformScheduler::seed_from_u64(n as u64)).expect("n >= 2");
            let mut last = sim.leader_count();
            let mut steps = 0u64;
            while sim.leader_count() > 1 {
                sim.step();
                steps += 1;
                let now = sim.leader_count();
                assert!(now <= last && now >= 1);
                last = now;
                assert!(steps < 500_000_000, "n={n} too slow");
            }
            sim.run(10_000);
            assert_eq!(sim.leader_count(), 1);
        }
    }

    #[test]
    fn state_space_stays_logarithmic() {
        let distinct = |n: usize| {
            let p = BoundedLottery::for_population(n).expect("n >= 2");
            let rng = Xoshiro256PlusPlus::seed_from_u64(4);
            let mut sim = CountSimulation::new(p, n, rng).expect("n >= 2");
            sim.run_until_single_leader(u64::MAX);
            sim.distinct_states_seen()
        };
        let small = distinct(256);
        let large = distinct(4096);
        // Bounded by 4·(lmax+1); growth reflects lmax = 5·lg n only.
        assert!(large < small * 3, "states {small} -> {large}");
        let cap = 4 * (BoundedLottery::for_population(4096).unwrap().lmax() + 1) as usize;
        assert!(large <= cap, "{large} > theoretical cap {cap}");
    }

    #[test]
    fn faster_than_fratricide_slower_than_pll_shape() {
        // The tie tail: mean time should sit clearly below Θ(n) but above a
        // pure O(log n) protocol at moderate n. Just check it beats
        // fratricide's closed form.
        let n = 256;
        let seeds = SeedSequence::new(5);
        let mut total = 0.0;
        for i in 0..10 {
            let p = BoundedLottery::for_population(n).expect("n >= 2");
            let mut sim = Simulation::new(p, n, UniformScheduler::seed_from_u64(seeds.seed_at(i)))
                .expect("n >= 2");
            total += sim.run_until_single_leader(u64::MAX).parallel_time(n);
        }
        let mean = total / 10.0;
        let frat = crate::Fratricide::expected_steps(n) / n as f64;
        assert!(mean < frat, "lottery {mean} should beat fratricide {frat}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cap_rejected() {
        BoundedLottery::new(0);
    }

    #[test]
    fn tiny_population_rejected() {
        assert!(BoundedLottery::for_population(1).is_err());
    }
}
