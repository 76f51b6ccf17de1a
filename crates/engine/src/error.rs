//! Engine error types.

use crate::EngineTier;
use std::error::Error;
use std::fmt;

/// Errors raised when constructing or driving a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The population must contain at least two agents so that a pair of
    /// distinct agents can interact.
    PopulationTooSmall {
        /// The offending population size.
        n: usize,
    },
    /// An agent index was outside the population.
    AgentOutOfBounds {
        /// Offending agent index.
        agent: usize,
        /// Population size.
        n: usize,
    },
    /// An interaction paired an agent with itself.
    SelfInteraction {
        /// The agent that would interact with itself.
        agent: usize,
    },
    /// A tier was pinned on a population beyond its cap: the jump and batch
    /// tiers sample with exact integer pair weights bounded by `n(n−1)`,
    /// which must fit a `u64`.
    PopulationTooLarge {
        /// The tier that was requested.
        tier: EngineTier,
        /// The offending population size.
        n: u64,
        /// The tier's largest supported population.
        max: u64,
    },
    /// The agent counts given to a constructor total more than
    /// [`MAX_POPULATION`](crate::MAX_POPULATION) agents: the engine applies
    /// count changes as signed `i64` deltas.
    PopulationOverflow {
        /// The running total of the counts once it passed the cap (later
        /// counts are not summed).
        total: u128,
    },
    /// A tier pin came after the first interaction or after another pin: a
    /// pin holds for a whole execution, so it is set once, up front.
    LatePin {
        /// The tier that was requested.
        tier: EngineTier,
        /// Interactions already executed.
        steps: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::PopulationTooSmall { n } => {
                write!(f, "population of {n} agents is too small; need at least 2")
            }
            EngineError::AgentOutOfBounds { agent, n } => {
                write!(f, "agent index {agent} out of bounds for population of {n}")
            }
            EngineError::SelfInteraction { agent } => {
                write!(f, "agent {agent} cannot interact with itself")
            }
            EngineError::PopulationTooLarge { tier, n, max } => write!(
                f,
                "population of {n} agents exceeds the {tier} tier's cap of {max}"
            ),
            EngineError::PopulationOverflow { total } => write!(
                f,
                "counts total at least {total} agents, beyond the engine's cap of {}",
                crate::MAX_POPULATION
            ),
            EngineError::LatePin { tier, steps } => write!(
                f,
                "cannot pin the {tier} tier at step {steps}: a tier is pinned once, before the first interaction"
            ),
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = EngineError::PopulationTooSmall { n: 1 };
        assert!(e.to_string().contains("at least 2"));
        let e = EngineError::AgentOutOfBounds { agent: 7, n: 3 };
        assert!(e.to_string().contains('7'));
        let e = EngineError::SelfInteraction { agent: 2 };
        assert!(e.to_string().contains("itself"));
        let e = EngineError::PopulationTooLarge {
            tier: EngineTier::Batch,
            n: 1 << 33,
            max: u64::from(u32::MAX),
        };
        assert!(e.to_string().contains("batch tier"));
        let e = EngineError::PopulationOverflow { total: 1 << 64 };
        assert!(e.to_string().contains("18446744073709551616"));
        let e = EngineError::LatePin {
            tier: EngineTier::Jump,
            steps: 5,
        };
        assert!(e.to_string().contains("jump tier at step 5"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<EngineError>();
    }
}
