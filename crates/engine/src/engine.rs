//! The per-agent reference simulation engine.

use crate::{
    Configuration, EngineError, Interaction, LeaderElection, Protocol, Role, Scheduler,
    CONVERGENCE_BATCH,
};

/// The result of driving a simulation toward a convergence condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Total interactions executed by the simulation when the run ended
    /// (cumulative across calls, i.e. the execution clock `t`).
    pub steps: u64,
    /// Whether the convergence condition was met (`false` = step budget
    /// exhausted first).
    pub converged: bool,
}

impl RunOutcome {
    /// The execution clock in parallel time for a population of `n` agents.
    pub fn parallel_time(&self, n: usize) -> f64 {
        crate::parallel_time(self.steps, n)
    }
}

/// The per-agent simulation engine: a configuration, a protocol, and a
/// scheduler, advanced one interaction at a time in `O(1)` per step.
///
/// This is the *reference* engine — the most direct executable reading of the
/// model's semantics. The exact count-based engine
/// ([`CountSimulation`](crate::CountSimulation)) is validated against it.
///
/// # Example
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone)]
pub struct Simulation<P: Protocol, S> {
    protocol: P,
    scheduler: S,
    states: Vec<P::State>,
    steps: u64,
}

impl<P: Protocol, S: Scheduler> Simulation<P, S> {
    /// Creates a simulation of `n` agents in the protocol's initial state.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] when `n < 2`.
    pub fn new(protocol: P, n: usize, scheduler: S) -> Result<Self, EngineError> {
        if n < 2 {
            return Err(EngineError::PopulationTooSmall { n });
        }
        let states = vec![protocol.initial_state(); n];
        Ok(Self {
            protocol,
            scheduler,
            states,
            steps: 0,
        })
    }

    /// Creates a simulation starting from an arbitrary configuration (e.g.
    /// the adversarial starting points of the paper's Lemmas 9–12).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] when fewer than two states
    /// are supplied.
    pub fn from_states(
        protocol: P,
        states: Vec<P::State>,
        scheduler: S,
    ) -> Result<Self, EngineError> {
        if states.len() < 2 {
            return Err(EngineError::PopulationTooSmall { n: states.len() });
        }
        Ok(Self {
            protocol,
            scheduler,
            states,
            steps: 0,
        })
    }

    /// The population size `n`.
    pub fn population(&self) -> usize {
        self.states.len()
    }

    /// The number of interactions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The execution clock in parallel time (steps / n).
    pub fn parallel_time(&self) -> f64 {
        crate::parallel_time(self.steps, self.states.len())
    }

    /// The protocol driving this simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current per-agent states.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// A semantic snapshot of the current configuration.
    pub fn configuration(&self) -> Configuration<P::State> {
        Configuration::from_states(self.states.clone()).expect("population is >= 2")
    }

    /// Executes one interaction; returns it together with whether any state
    /// changed.
    #[inline]
    pub fn step(&mut self) -> (Interaction, bool) {
        let interaction = self.scheduler.next_interaction(self.states.len());
        let (u, v) = (interaction.initiator, interaction.responder);
        let (nu, nv) = self.protocol.transition(&self.states[u], &self.states[v]);
        let changed = nu != self.states[u] || nv != self.states[v];
        self.states[u] = nu;
        self.states[v] = nv;
        self.steps += 1;
        (interaction, changed)
    }

    /// Executes exactly `steps` interactions.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs until `predicate` holds (checked every `check_every` steps,
    /// starting immediately) or `max_steps` total interactions have executed.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    pub fn run_until<F>(&mut self, check_every: u64, max_steps: u64, mut predicate: F) -> RunOutcome
    where
        F: FnMut(&Self) -> bool,
    {
        assert!(check_every > 0, "check_every must be positive");
        loop {
            if predicate(self) {
                return RunOutcome {
                    steps: self.steps,
                    converged: true,
                };
            }
            if self.steps >= max_steps {
                return RunOutcome {
                    steps: self.steps,
                    converged: false,
                };
            }
            let burst = check_every.min(max_steps - self.steps);
            self.run(burst);
        }
    }
}

impl<P: LeaderElection, S: Scheduler> Simulation<P, S> {
    /// Counts the current leaders in `O(n)`.
    pub fn leader_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| self.protocol.output(s) == Role::Leader)
            .count()
    }

    /// Runs until exactly one leader remains, maintaining the leader count
    /// incrementally (`O(1)` per step).
    ///
    /// For protocols with [`monotone_leaders`](LeaderElection::monotone_leaders)
    /// the returned step count *is* the stabilization time: the leader count
    /// can never rise again and never hits zero. For non-monotone protocols
    /// this is the first hitting time of a single-leader configuration.
    ///
    /// The step-budget check is hoisted out of the inner loop (batches of
    /// 4096 interactions) and the single-leader condition is only evaluated
    /// on interactions that change the leader count; the returned step count
    /// is still exact. The `O(n)` leader-recount invariant runs as a
    /// *sampled* debug assertion — once per batch — so debug builds stay
    /// `O(1)` amortized per step instead of `O(n)`.
    pub fn run_until_single_leader(&mut self, max_steps: u64) -> RunOutcome {
        let mut leaders = self.leader_count() as i64;
        if leaders == 1 {
            return RunOutcome {
                steps: self.steps,
                converged: true,
            };
        }
        while self.steps < max_steps {
            let burst = CONVERGENCE_BATCH.min(max_steps - self.steps);
            for _ in 0..burst {
                let interaction = self.scheduler.next_interaction(self.states.len());
                let (u, v) = (interaction.initiator, interaction.responder);
                let before = i64::from(self.protocol.output(&self.states[u]) == Role::Leader)
                    + i64::from(self.protocol.output(&self.states[v]) == Role::Leader);
                let (nu, nv) = self.protocol.transition(&self.states[u], &self.states[v]);
                let after = i64::from(self.protocol.output(&nu) == Role::Leader)
                    + i64::from(self.protocol.output(&nv) == Role::Leader);
                self.states[u] = nu;
                self.states[v] = nv;
                self.steps += 1;
                if after != before {
                    leaders += after - before;
                    if leaders == 1 {
                        return RunOutcome {
                            steps: self.steps,
                            converged: true,
                        };
                    }
                }
            }
            // Sampled invariant check: once per batch, not per step.
            debug_assert_eq!(leaders, self.leader_count() as i64);
        }
        RunOutcome {
            steps: self.steps,
            converged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReplayScheduler, RoundRobinScheduler, UniformScheduler};

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

    #[test]
    fn new_rejects_tiny_population() {
        let s = UniformScheduler::seed_from_u64(0);
        assert!(matches!(
            Simulation::new(Frat, 1, s),
            Err(EngineError::PopulationTooSmall { n: 1 })
        ));
    }

    #[test]
    fn steps_and_parallel_time_advance() {
        let s = UniformScheduler::seed_from_u64(0);
        let mut sim = Simulation::new(Frat, 10, s).unwrap();
        sim.run(25);
        assert_eq!(sim.steps(), 25);
        assert!((sim.parallel_time() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fratricide_converges_to_single_leader() {
        let s = UniformScheduler::seed_from_u64(42);
        let mut sim = Simulation::new(Frat, 100, s).unwrap();
        let outcome = sim.run_until_single_leader(10_000_000);
        assert!(outcome.converged);
        assert_eq!(sim.leader_count(), 1);
        // Leader count is monotone: re-running can never change it.
        sim.run(10_000);
        assert_eq!(sim.leader_count(), 1);
    }

    #[test]
    fn run_until_single_leader_respects_budget() {
        let s = UniformScheduler::seed_from_u64(1);
        let mut sim = Simulation::new(Frat, 1000, s).unwrap();
        let outcome = sim.run_until_single_leader(10);
        assert!(!outcome.converged);
        assert_eq!(outcome.steps, 10);
    }

    #[test]
    fn deterministic_replay_matches_configuration_semantics() {
        let schedule = vec![
            Interaction::new(0, 1),
            Interaction::new(2, 0),
            Interaction::new(1, 2),
        ];
        let mut sim = Simulation::new(Frat, 3, ReplayScheduler::new(schedule.clone())).unwrap();
        sim.run(3);
        let mut config = Configuration::initial(&Frat, 3).unwrap();
        config.apply_schedule(&Frat, schedule).unwrap();
        assert_eq!(sim.states(), config.states());
    }

    #[test]
    fn from_states_starts_at_given_configuration() {
        let s = UniformScheduler::seed_from_u64(3);
        let sim = Simulation::from_states(Frat, vec![false, true, false], s).unwrap();
        assert_eq!(sim.leader_count(), 1);
        assert_eq!(sim.population(), 3);
    }

    #[test]
    fn run_until_checks_predicate_before_running() {
        let s = UniformScheduler::seed_from_u64(4);
        let mut sim = Simulation::new(Frat, 10, s).unwrap();
        let outcome = sim.run_until(100, 1_000, |_| true);
        assert!(outcome.converged);
        assert_eq!(outcome.steps, 0);
    }

    #[test]
    fn run_until_converges_on_real_condition() {
        let s = UniformScheduler::seed_from_u64(5);
        let mut sim = Simulation::new(Frat, 20, s).unwrap();
        let outcome = sim.run_until(10, 1_000_000, |sim| sim.leader_count() <= 5);
        assert!(outcome.converged);
        assert!(sim.leader_count() <= 5);
    }

    #[test]
    fn round_robin_engine_also_elects() {
        // The fratricide protocol stabilizes under ANY fair schedule.
        let mut sim = Simulation::new(Frat, 8, RoundRobinScheduler::new()).unwrap();
        let outcome = sim.run_until_single_leader(100_000);
        assert!(outcome.converged);
    }

    #[test]
    fn outcome_parallel_time() {
        let o = RunOutcome {
            steps: 500,
            converged: true,
        };
        assert_eq!(o.parallel_time(100), 5.0);
    }
}
