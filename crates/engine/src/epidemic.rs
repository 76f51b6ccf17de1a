//! One-way epidemics (\[AAE08\]) — the workhorse process behind every
//! `O(log n)` bound in the paper.
//!
//! Given a sub-population `V' ⊆ V` and a source `r ∈ V'`, the epidemic
//! function is: at step 0 only `r` is infected; whenever an interaction
//! involves an infected agent, every participant *belonging to `V'`* becomes
//! infected; infected agents stay infected (paper, Section 2).
//!
//! The paper's Lemma 2 bounds the tail of the completion time:
//!
//! > `Pr[I_{V',r,Γ}(2⌈n/n'⌉·t) ≠ V'] ≤ n·e^{−t/n}` for `n' = |V'|`.
//!
//! [`Epidemic`] simulates the process directly (it is much lighter than a
//! full protocol simulation) and records the infection curve;
//! [`lemma2_horizon`] gives the step horizon at which Lemma 2 evaluates it
//! (the closed-form bound itself is `pp_stats::theory::epidemic_tail_bound`).

use crate::EngineError;
use pp_rand::Rng64;

/// A one-way epidemic process over a population of `n` agents with a
/// designated member sub-population and source.
///
/// # Example
///
/// ```
/// use pp_engine::epidemic::Epidemic;
/// use pp_rand::Xoshiro256PlusPlus;
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let mut ep = Epidemic::whole_population(100, 0).unwrap();
/// let steps = ep.run_to_completion(&mut rng, u64::MAX).unwrap();
/// assert!(steps > 0);
/// assert!(ep.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct Epidemic {
    member: Vec<bool>,
    infected: Vec<bool>,
    member_count: usize,
    infected_count: usize,
    steps: u64,
}

impl Epidemic {
    /// Creates an epidemic over the whole population `V' = V` from `source`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] if `n < 2` and
    /// [`EngineError::AgentOutOfBounds`] if `source >= n`.
    pub fn whole_population(n: usize, source: usize) -> Result<Self, EngineError> {
        Self::new(vec![true; n], source)
    }

    /// Creates an epidemic over the sub-population `V' = {i : member[i]}`
    /// from `source`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] if fewer than two agents
    /// exist overall, [`EngineError::AgentOutOfBounds`] if `source` is out of
    /// bounds or not a member.
    pub fn new(member: Vec<bool>, source: usize) -> Result<Self, EngineError> {
        let n = member.len();
        if n < 2 {
            return Err(EngineError::PopulationTooSmall { n });
        }
        if source >= n || !member[source] {
            return Err(EngineError::AgentOutOfBounds { agent: source, n });
        }
        let member_count = member.iter().filter(|&&m| m).count();
        let mut infected = vec![false; n];
        infected[source] = true;
        Ok(Self {
            member,
            infected,
            member_count,
            infected_count: 1,
            steps: 0,
        })
    }

    /// Population size `n`.
    pub fn population(&self) -> usize {
        self.member.len()
    }

    /// Number of currently infected agents.
    #[cfg(test)]
    pub(crate) fn infected_count(&self) -> usize {
        self.infected_count
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether agent `v` is infected.
    #[cfg(test)]
    pub(crate) fn is_infected(&self, v: usize) -> bool {
        self.infected.get(v).copied().unwrap_or(false)
    }

    /// Whether every member is infected (`I(t) = V'`).
    pub fn is_complete(&self) -> bool {
        self.infected_count == self.member_count
    }

    /// Executes one uniformly random interaction of the epidemic.
    ///
    /// Returns `true` if a new agent became infected.
    pub fn step<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> bool {
        let n = self.member.len();
        let (u, v) = rng.distinct_pair(n);
        self.steps += 1;
        let any_infected = self.infected[u] || self.infected[v];
        if !any_infected {
            return false;
        }
        let mut newly = false;
        for w in [u, v] {
            if self.member[w] && !self.infected[w] {
                self.infected[w] = true;
                self.infected_count += 1;
                newly = true;
            }
        }
        newly
    }

    /// Runs until all members are infected or `max_steps` interactions have
    /// been executed; returns the total step count on completion.
    ///
    /// # Errors
    ///
    /// Returns `Err(steps_executed)` if the budget was exhausted first.
    pub fn run_to_completion<R: Rng64 + ?Sized>(
        &mut self,
        rng: &mut R,
        max_steps: u64,
    ) -> Result<u64, u64> {
        while !self.is_complete() {
            if self.steps >= max_steps {
                return Err(self.steps);
            }
            self.step(rng);
        }
        Ok(self.steps)
    }

    /// Runs to completion recording the infection curve: a vector of
    /// `(step, infected_count)` at every new infection.
    ///
    /// # Errors
    ///
    /// Returns `Err(steps_executed)` if the budget was exhausted first.
    pub fn run_with_curve<R: Rng64 + ?Sized>(
        &mut self,
        rng: &mut R,
        max_steps: u64,
    ) -> Result<Vec<(u64, usize)>, u64> {
        let mut curve = vec![(self.steps, self.infected_count)];
        while !self.is_complete() {
            if self.steps >= max_steps {
                return Err(self.steps);
            }
            if self.step(rng) {
                curve.push((self.steps, self.infected_count));
            }
        }
        Ok(curve)
    }
}

/// The step horizon `2⌈n/n'⌉·t` at which Lemma 2 evaluates the epidemic.
///
/// # Panics
///
/// Panics if `n_prime == 0`.
pub fn lemma2_horizon(n: usize, n_prime: usize, t: u64) -> u64 {
    assert!(n_prime > 0, "sub-population must be non-empty");
    2 * (n as u64).div_ceil(n_prime as u64) * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_rand::{SeedSequence, Xoshiro256PlusPlus};

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(Epidemic::whole_population(1, 0).is_err());
        assert!(Epidemic::whole_population(10, 10).is_err());
        // Source must be a member.
        let mut member = vec![true; 4];
        member[2] = false;
        assert!(Epidemic::new(member.clone(), 2).is_err());
        assert!(Epidemic::new(member, 0).is_ok());
    }

    #[test]
    fn infection_is_monotone_and_completes() {
        let mut ep = Epidemic::whole_population(50, 3).unwrap();
        let mut r = rng(1);
        let mut last = ep.infected_count();
        while !ep.is_complete() {
            ep.step(&mut r);
            assert!(ep.infected_count() >= last);
            last = ep.infected_count();
        }
        assert_eq!(ep.infected_count(), 50);
        assert!(ep.is_infected(3));
    }

    #[test]
    fn subpopulation_epidemic_only_infects_members() {
        let n = 40;
        let member: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut ep = Epidemic::new(member.clone(), 0).unwrap();
        let mut r = rng(2);
        ep.run_to_completion(&mut r, u64::MAX).unwrap();
        for (i, &is_member) in member.iter().enumerate() {
            assert_eq!(ep.is_infected(i), is_member, "agent {i}");
        }
    }

    #[test]
    fn completion_time_scales_like_n_log_n() {
        // Mean completion ≈ 2 n ln n / (something Θ(1)); just check the
        // parallel time grows logarithmically-ish: t(4096)/t(256) should be
        // close to lg ratio, certainly below linear ratio.
        let seeds = SeedSequence::new(7);
        let mean_steps = |n: usize| -> f64 {
            let mut total = 0u64;
            for i in 0..10 {
                let mut ep = Epidemic::whole_population(n, 0).unwrap();
                let mut r = rng(seeds.seed_at(i + n as u64));
                total += ep.run_to_completion(&mut r, u64::MAX).unwrap();
            }
            total as f64 / 10.0
        };
        let t256 = mean_steps(256) / 256.0;
        let t4096 = mean_steps(4096) / 4096.0;
        let ratio = t4096 / t256;
        // ln(4096)/ln(256) = 1.5; allow wide slack but exclude linear (16x).
        assert!(ratio > 1.0 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn curve_is_increasing_and_ends_complete() {
        let mut ep = Epidemic::whole_population(64, 0).unwrap();
        let mut r = rng(3);
        let curve = ep.run_with_curve(&mut r, u64::MAX).unwrap();
        assert_eq!(curve.first().unwrap().1, 1);
        assert_eq!(curve.last().unwrap().1, 64);
        for w in curve.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 > w[0].1);
        }
    }

    #[test]
    fn budget_exhaustion_reports_steps() {
        let mut ep = Epidemic::whole_population(1000, 0).unwrap();
        let mut r = rng(4);
        let res = ep.run_to_completion(&mut r, 10);
        assert_eq!(res, Err(10));
    }

    #[test]
    fn lemma2_horizon_formula() {
        assert_eq!(lemma2_horizon(100, 100, 5), 10);
        assert_eq!(lemma2_horizon(100, 50, 5), 20);
        assert_eq!(lemma2_horizon(100, 33, 5), 40); // ceil(100/33)=4
    }

    #[test]
    fn empirical_tail_is_below_lemma2_bound() {
        // For t = 6n the bound is n e^{-6} ≈ 0.25 at n=100; empirically the
        // epidemic at horizon 2*t = 12n steps virtually always completes.
        let n = 100;
        let t = 6 * n as u64;
        let horizon = lemma2_horizon(n, n, t);
        let seeds = SeedSequence::new(11);
        let trials = 200;
        let mut failures = 0;
        for i in 0..trials {
            let mut ep = Epidemic::whole_population(n, 0).unwrap();
            let mut r = rng(seeds.seed_at(i));
            if ep.run_to_completion(&mut r, horizon).is_err() {
                failures += 1;
            }
        }
        let p_fail = failures as f64 / trials as f64;
        let bound = pp_stats::theory::epidemic_tail_bound(n as u64, t as f64);
        assert!(
            p_fail <= bound + 0.05,
            "empirical {p_fail} exceeds bound {bound}"
        );
    }
}
