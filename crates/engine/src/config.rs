//! Configurations: mappings from agents to states.

use crate::{EngineError, Interaction, LeaderElection, Protocol, Role};
use std::collections::HashMap;

/// A configuration `C : V → Q` of a population of `n` agents.
///
/// The engines ([`Simulation`](crate::Simulation),
/// [`CountSimulation`](crate::CountSimulation)) keep their own optimized
/// state storage; `Configuration` is the *semantic* representation used by
/// tests, the verifier, and experiment code that applies deterministic
/// schedules or inspects states directly.
///
/// # Example
///
/// ```
/// use pp_engine::{Configuration, Interaction, Protocol};
///
/// struct MaxProto;
/// impl Protocol for MaxProto {
///     type State = u32;
///     type Output = u32;
///     fn initial_state(&self) -> u32 { 0 }
///     fn transition(&self, a: &u32, b: &u32) -> (u32, u32) {
///         let m = *a.max(b);
///         (m, m)
///     }
///     fn output(&self, s: &u32) -> u32 { *s }
/// }
///
/// let mut c = Configuration::from_states(vec![3, 1, 2]).unwrap();
/// c.apply(&MaxProto, Interaction::new(0, 1)).unwrap();
/// assert_eq!(c.states(), &[3, 3, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration<S> {
    states: Vec<S>,
}

impl<S: Clone + Eq + std::hash::Hash + std::fmt::Debug> Configuration<S> {
    /// Creates the initial configuration `C_init,P` of `protocol` for `n`
    /// agents: every agent in the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] when `n < 2`.
    pub fn initial<P>(protocol: &P, n: usize) -> Result<Self, EngineError>
    where
        P: Protocol<State = S>,
    {
        if n < 2 {
            return Err(EngineError::PopulationTooSmall { n });
        }
        Ok(Self {
            states: vec![protocol.initial_state(); n],
        })
    }

    /// Creates a configuration from explicit per-agent states.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] when fewer than two states
    /// are given.
    pub fn from_states(states: Vec<S>) -> Result<Self, EngineError> {
        if states.len() < 2 {
            return Err(EngineError::PopulationTooSmall { n: states.len() });
        }
        Ok(Self { states })
    }

    /// The number of agents `n`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The per-agent states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The state of one agent.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AgentOutOfBounds`] for an invalid index.
    pub fn state(&self, agent: usize) -> Result<&S, EngineError> {
        self.states.get(agent).ok_or(EngineError::AgentOutOfBounds {
            agent,
            n: self.states.len(),
        })
    }

    /// Applies one interaction under `protocol`: `C —e→ C'` in place.
    ///
    /// Returns `true` if either participant's state changed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AgentOutOfBounds`] or
    /// [`EngineError::SelfInteraction`] for malformed interactions.
    pub fn apply<P>(&mut self, protocol: &P, interaction: Interaction) -> Result<bool, EngineError>
    where
        P: Protocol<State = S>,
    {
        let n = self.states.len();
        let (u, v) = (interaction.initiator, interaction.responder);
        if u == v {
            return Err(EngineError::SelfInteraction { agent: u });
        }
        if u >= n {
            return Err(EngineError::AgentOutOfBounds { agent: u, n });
        }
        if v >= n {
            return Err(EngineError::AgentOutOfBounds { agent: v, n });
        }
        let (nu, nv) = protocol.transition(&self.states[u], &self.states[v]);
        let changed = nu != self.states[u] || nv != self.states[v];
        self.states[u] = nu;
        self.states[v] = nv;
        Ok(changed)
    }

    /// Applies a finite schedule in order, returning the number of
    /// interactions that changed at least one state.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`apply`](Configuration::apply).
    pub fn apply_schedule<P, I>(&mut self, protocol: &P, schedule: I) -> Result<u64, EngineError>
    where
        P: Protocol<State = S>,
        I: IntoIterator<Item = Interaction>,
    {
        let mut changed = 0;
        for step in schedule {
            if self.apply(protocol, step)? {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Counts agents per state — the multiset view under which anonymous
    /// populations on complete graphs are exactly equivalent.
    pub fn state_counts(&self) -> HashMap<S, usize> {
        let mut counts = HashMap::new();
        for s in &self.states {
            *counts.entry(s.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Counts the agents outputting [`Role::Leader`].
    pub fn leader_count<P>(&self, protocol: &P) -> usize
    where
        P: LeaderElection<State = S>,
    {
        self.states
            .iter()
            .filter(|s| protocol.output(s) == Role::Leader)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Role;

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

    impl LeaderElection for Frat {}

    #[test]
    fn initial_configuration_is_uniform() {
        let c = Configuration::initial(&Frat, 5).unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.states().iter().all(|&s| s));
        assert_eq!(c.leader_count(&Frat), 5);
    }

    #[test]
    fn too_small_population_rejected() {
        assert!(matches!(
            Configuration::initial(&Frat, 1),
            Err(EngineError::PopulationTooSmall { n: 1 })
        ));
        assert!(Configuration::<bool>::from_states(vec![true]).is_err());
    }

    #[test]
    fn apply_reports_change() {
        let mut c = Configuration::initial(&Frat, 3).unwrap();
        assert!(c.apply(&Frat, Interaction::new(0, 1)).unwrap());
        // (leader, follower) is now a no-op pair under Frat.
        assert!(!c.apply(&Frat, Interaction::new(0, 1)).unwrap());
        assert_eq!(c.leader_count(&Frat), 2);
    }

    #[test]
    fn apply_checks_bounds_and_self_interaction() {
        let mut c = Configuration::initial(&Frat, 3).unwrap();
        assert!(matches!(
            c.apply(
                &Frat,
                Interaction {
                    initiator: 0,
                    responder: 0
                }
            ),
            Err(EngineError::SelfInteraction { agent: 0 })
        ));
        assert!(matches!(
            c.apply(
                &Frat,
                Interaction {
                    initiator: 0,
                    responder: 9
                }
            ),
            Err(EngineError::AgentOutOfBounds { agent: 9, n: 3 })
        ));
    }

    #[test]
    fn schedule_application_counts_effective_steps() {
        let mut c = Configuration::initial(&Frat, 4).unwrap();
        let schedule = vec![
            Interaction::new(0, 1), // demotes 1
            Interaction::new(0, 1), // no-op
            Interaction::new(2, 3), // demotes 3
            Interaction::new(0, 2), // demotes 2
        ];
        let changed = c.apply_schedule(&Frat, schedule).unwrap();
        assert_eq!(changed, 3);
        assert_eq!(c.leader_count(&Frat), 1);
    }

    #[test]
    fn counts_views_agree() {
        let c = Configuration::from_states(vec![true, false, false]).unwrap();
        let sc = c.state_counts();
        assert_eq!(sc[&true], 1);
        assert_eq!(sc[&false], 2);
        assert_eq!(sc[&true], c.leader_count(&Frat));
    }

    #[test]
    fn state_accessor_checks_bounds() {
        let c = Configuration::from_states(vec![true, false, true]).unwrap();
        assert!(!*c.state(1).unwrap());
        assert!(matches!(
            c.state(7),
            Err(EngineError::AgentOutOfBounds { agent: 7, n: 3 })
        ));
        assert_eq!(c.states(), [true, false, true]);
    }
}
